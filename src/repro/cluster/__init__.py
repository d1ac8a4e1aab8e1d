"""The unified service layer: `Cluster` facade + `Service` lifecycle protocol.

* :class:`~repro.cluster.cluster.Cluster` — one fluent entry point building
  the overlay and composing services with owned construction order,
  cross-service dependencies and clean shutdown.
* :class:`~repro.cluster.service.Service` — the lifecycle contract every
  subsystem (discovery, storage, anti-entropy, compute, observability)
  implements: attach/detach, ``on_node_join`` / ``on_node_leave`` /
  ``on_node_revive`` churn callbacks, declarative typed-message handler
  registration, and periodic tasks with automatic cancellation.
* :class:`~repro.cluster.registry.ServiceRegistry` — the per-node ledger
  that owns cleanup, making handler/timer leaks structurally impossible.

Layer contract: this package *owns composition* — service construction
order, cross-service dependency wiring, per-node handler/timer ownership,
and exactly-once churn callback dispatch.  Its imports are declared by
``[package.cluster]`` in ``repro/lint/layers.toml`` and checked by
``python -m repro.lint`` (RPR201).  See ``docs/architecture.md``.
"""

from repro.cluster.cluster import Cluster
from repro.cluster.registry import ClusterState, ServiceRegistry
from repro.cluster.service import Service, ServiceContext, ServiceError

__all__ = [
    "Cluster",
    "ClusterState",
    "Service",
    "ServiceContext",
    "ServiceError",
    "ServiceRegistry",
]
