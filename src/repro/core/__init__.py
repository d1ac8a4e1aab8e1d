"""TreeP core: the paper's primary contribution.

The overlay is built from the bottom up:

* :mod:`repro.core.ids` — the 1-D ID space and ID assignment strategies.
* :mod:`repro.core.capacity` — heterogeneous node capability vectors and the
  scalar capacity score consumed by elections and variable-``nc``.
* :mod:`repro.core.tessellation` — 1-D Voronoi cells over level buses.
* :mod:`repro.core.distance` — the tessellation-aware metric ``D(a, b)``.
* :mod:`repro.core.routing_table` — the six per-node tables with timestamps.
* :mod:`repro.core.messages` — the overlay's datagram types.
* :mod:`repro.core.node` — the per-node protocol engine: joins,
  keep-alives with delta synchronisation, elections, promotion, demotion.
* :mod:`repro.core.hierarchy` — the steady-state hierarchy builder.
* :mod:`repro.core.lookup` — the G / NG / NGSA routing algorithms.
* :mod:`repro.core.treep` — :class:`~repro.core.treep.TreePNetwork`, the
  public orchestration API.

Layer contract: this package *owns the TreeP protocol* — the ID space,
topology, routing, elections and repair.  Its imports are declared by
``[package.core]`` in ``repro/lint/layers.toml`` and checked by
``python -m repro.lint`` (RPR201).
"""

from repro.core.capacity import CapacityDistribution, NodeCapacity
from repro.core.config import TreePConfig
from repro.core.distance import treep_distance
from repro.core.ids import IdSpace, assign_ids
from repro.core.lookup import LookupAlgorithm, LookupResult
from repro.core.treep import TreePNetwork

__all__ = [
    "CapacityDistribution",
    "IdSpace",
    "LookupAlgorithm",
    "LookupResult",
    "NodeCapacity",
    "TreePConfig",
    "TreePNetwork",
    "assign_ids",
    "treep_distance",
]
