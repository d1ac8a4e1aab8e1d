"""Replicated key/value storage on the TreeP overlay.

The paper (§I) notes TreeP "can be easily modified to provide Distributed
Hash Table (DHT) functionality"; this package cashes that in as a real
storage subsystem rather than a demo:

* :mod:`repro.storage.store` — per-node versioned :class:`KVStore`
  partitions with last-write-wins conflict resolution.
* :mod:`repro.storage.replication` — replica placement (the N ids
  closest to the key) with node-local and converged-view answers.
* :mod:`repro.storage.quorum` — sloppy-quorum PUT/GET (configurable
  N/W/R), per-key version counters, read repair;
  :class:`ReplicatedStore` is the client facade.
* :mod:`repro.storage.antientropy` — periodic churn-driven
  re-replication registered with the simulator.
* :mod:`repro.storage.messages` — the ``Store*`` datagram types.

Layer contract: this package *owns the durability of key/value data* —
replica placement, quorum semantics (N/W/R), write stamps and read
repair, and anti-entropy convergence.  Its imports are declared by
``[package.storage]`` in ``repro/lint/layers.toml`` and checked by
``python -m repro.lint`` (RPR201).  See ``docs/architecture.md``.
"""

from repro.storage.antientropy import (
    AntiEntropy,
    SweepReport,
)
from repro.storage.quorum import (
    QuorumConfig,
    ReplicatedStore,
    StorageAgent,
    StoreResult,
)
from repro.storage.store import KVStore, VersionedValue, hash_key

__all__ = [
    "AntiEntropy",
    "KVStore",
    "QuorumConfig",
    "ReplicatedStore",
    "StorageAgent",
    "StoreResult",
    "SweepReport",
    "VersionedValue",
    "hash_key",
]
