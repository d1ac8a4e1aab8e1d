"""The unified service layer: `Cluster` facade + `Service` lifecycle protocol.

* :class:`~repro.cluster.cluster.Cluster` — one fluent entry point building
  the overlay and attaching each service once, in one order, with clean
  shutdown.
* :class:`~repro.cluster.service.Service` — the lifecycle contract every
  subsystem (discovery, storage, anti-entropy, compute, observability)
  implements: attach/detach, per-node ``setup_node`` (at attach and per
  join), ``on_node_leave`` / ``on_node_revive`` churn callbacks,
  declarative typed-message handler registration, and periodic tasks
  with automatic cancellation.
* :class:`~repro.cluster.service.ServiceContext` — one per attached
  service; it records the handlers and node-scoped timers the service
  installed on each node and sweeps them on departure and detach.
* :class:`~repro.cluster.service.ClusterState` — the per-network service
  plane: attached services in attach order, and the network's one
  subscriber to node creation and liveness.

Layer contract: this package *owns composition* — service construction
order, cross-service dependency lookup, per-node handler/timer ownership,
and exactly-once churn callback dispatch.  Its imports are declared by
``[package.cluster]`` in ``repro/lint/layers.toml`` and checked by
``python -m repro.lint`` (RPR201).  See ``docs/architecture.md``.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.service import ClusterState, Service, ServiceContext, ServiceError

__all__ = [
    "Cluster",
    "ClusterState",
    "Service",
    "ServiceContext",
    "ServiceError",
]
