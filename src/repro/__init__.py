"""repro — a full reproduction of *TreeP: A Tree Based P2P Network
Architecture* (Hudzia, Kechadi, Ottewill — CLUSTER 2005).

Public surface:

* :class:`~repro.cluster.Cluster` — **the recommended entry point**: one
  fluent facade building the overlay and composing services
  (``Cluster(seed=7).build(128).with_storage(...).with_compute(...)``)
  with owned construction order, cross-service dependencies and clean
  shutdown.
* :class:`~repro.cluster.Service` — the lifecycle protocol every subsystem
  implements (attach/detach, churn callbacks, declarative handler
  registration, auto-cancelled periodic tasks); subclass it to plug new
  services into the same registry.
* :class:`~repro.core.treep.TreePNetwork` — build and drive a TreeP overlay.
* :class:`~repro.core.config.TreePConfig` — all tunables; presets for the
  paper's two experimental cases.
* :class:`~repro.core.lookup.LookupAlgorithm` — G / NG / NGSA.
* :mod:`repro.services` — resource discovery on top of the overlay (load
  balancing is :mod:`repro.compute` placement over the same aggregates).
* :mod:`repro.storage` — the replicated key/value subsystem: quorum
  reads/writes (:class:`~repro.storage.quorum.ReplicatedStore`), versioned
  per-node stores, and churn-driven anti-entropy re-replication.
* :mod:`repro.compute` — the grid job-execution subsystem: a message-level
  distributed scheduler (:class:`~repro.compute.scheduler.JobScheduler`)
  with aggregate-walking matchmaking, heartbeat failure detection,
  checkpointed re-execution on top of the replicated store, DAG
  dependencies and sibling work stealing.
* :mod:`repro.baselines` — Chord and flooding comparators on the same
  simulated substrate.
* :mod:`repro.bench` — the unified benchmark harness:
  ``python -m repro.bench run|list|report`` over 28
  declarative scenarios — including the ``scale_*`` 10k-node sweeps —
  writing versioned, clock-free ``BenchResult`` JSON to
  ``benchmarks/out/`` (the committed golden); two runs are compared
  exactly by ``tools/diff_envelopes.py``.
* :mod:`repro.obs` — the unified observability layer: span/event tracing
  across lookups, quorum RW, anti-entropy and job lifecycles
  (``Cluster(...).with_observability()`` or ``--trace-out`` on the bench
  CLI), a columnar on-disk trace store, latency quantiles computed
  exactly over the recorded spans, critical-path analytics over span
  parent links, and
  ``python -m repro.obs summary|runs|timeline|slowest|critpath|export``
  to query it — see ``docs/observability.md``.

See README.md for the module map ("Module map") and the per-subsystem
overviews, and ``docs/`` for the architecture, API, benchmark and performance guides.
"""

from repro.cluster import Cluster, Service, ServiceContext, ServiceError
from repro.compute import ComputeConfig, JobResult, JobScheduler, JobSpec
from repro.core.capacity import CapacityDistribution, NodeCapacity
from repro.core.config import TreePConfig
from repro.core.ids import IdSpace
from repro.core.lookup import LookupAlgorithm, LookupResult
from repro.core.treep import TreePNetwork
from repro.obs import ObsHub, TraceReader
from repro.storage import AntiEntropy, QuorumConfig, ReplicatedStore

__version__ = "1.24.0"

__all__ = [
    "AntiEntropy",
    "CapacityDistribution",
    "Cluster",
    "ComputeConfig",
    "IdSpace",
    "JobResult",
    "JobScheduler",
    "JobSpec",
    "LookupAlgorithm",
    "LookupResult",
    "NodeCapacity",
    "ObsHub",
    "QuorumConfig",
    "ReplicatedStore",
    "Service",
    "ServiceContext",
    "ServiceError",
    "TraceReader",
    "TreePConfig",
    "TreePNetwork",
    "__version__",
]
