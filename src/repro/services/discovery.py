"""Grid resource discovery on the TreeP hierarchy (the DGET use case).

On first contact peers exchange "information about their resources and
state: hardware, network capacity, current CPU load, network load" (§III.d),
so every parent can maintain an **aggregate** of the capabilities available
in its subtree.  A query for "a node with >= 4 CPUs, >= 8 GB and >= 50
Mbit/s" then walks the tree: ascend until an ancestor's aggregate covers the
constraints, descend only into subtrees whose aggregates still match, and
stop after ``max_results`` hits — O(log n + results) instead of flooding.

:class:`ResourceDirectory` implements exactly that walk over a built
network.  Aggregates are (re)computed bottom-up from the hierarchy layout —
the steady-state equivalent of parents folding their children's
ChildReports; :meth:`refresh` replays it after churn.  As a
:class:`~repro.cluster.service.Service` the directory also *watches* churn:
join/leave/revive callbacks mark the aggregates stale and the next query
resyncs them, so `Cluster`-driven churn no longer needs manual refresh
calls (explicit :meth:`refresh` still works and is still exact).

Construct through :meth:`repro.cluster.Cluster.with_discovery` (or let
``with_compute`` pull it in).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cluster.service import Service, ServiceContext
from repro.core.capacity import NodeCapacity
from repro.core.treep import TreePNetwork

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode


@dataclass(frozen=True)
class Constraint:
    """Minimum-capability requirements of a grid job."""

    min_cpu: float = 0.0
    min_memory_gb: float = 0.0
    min_bandwidth_mbps: float = 0.0
    min_storage_gb: float = 0.0
    max_cpu_load: float = 1.0

    def admits(self, cap: NodeCapacity) -> bool:
        return (
            cap.cpu >= self.min_cpu
            and cap.memory_gb >= self.min_memory_gb
            and cap.bandwidth_mbps >= self.min_bandwidth_mbps
            and cap.storage_gb >= self.min_storage_gb
            and cap.cpu_load <= self.max_cpu_load
        )


@dataclass
class Aggregate:
    """Per-subtree maxima — what a parent advertises upward."""

    max_cpu: float = 0.0
    max_memory_gb: float = 0.0
    max_bandwidth_mbps: float = 0.0
    max_storage_gb: float = 0.0
    min_cpu_load: float = 1.0

    def fold(self, cap: NodeCapacity) -> None:
        self.max_cpu = max(self.max_cpu, cap.cpu)
        self.max_memory_gb = max(self.max_memory_gb, cap.memory_gb)
        self.max_bandwidth_mbps = max(self.max_bandwidth_mbps, cap.bandwidth_mbps)
        self.max_storage_gb = max(self.max_storage_gb, cap.storage_gb)
        self.min_cpu_load = min(self.min_cpu_load, cap.cpu_load)

    def fold_aggregate(self, other: "Aggregate") -> None:
        self.max_cpu = max(self.max_cpu, other.max_cpu)
        self.max_memory_gb = max(self.max_memory_gb, other.max_memory_gb)
        self.max_bandwidth_mbps = max(self.max_bandwidth_mbps, other.max_bandwidth_mbps)
        self.max_storage_gb = max(self.max_storage_gb, other.max_storage_gb)
        self.min_cpu_load = min(self.min_cpu_load, other.min_cpu_load)

    def might_admit(self, c: Constraint) -> bool:
        """Can this subtree possibly contain a matching node?"""
        return (
            self.max_cpu >= c.min_cpu
            and self.max_memory_gb >= c.min_memory_gb
            and self.max_bandwidth_mbps >= c.min_bandwidth_mbps
            and self.max_storage_gb >= c.min_storage_gb
            and self.min_cpu_load <= c.max_cpu_load
        )


@dataclass
class DiscoveryResult:
    matches: Tuple[int, ...]
    hops: int
    subtrees_pruned: int


class ResourceDirectory(Service):
    """Hierarchy-walking resource discovery over a built TreeP network."""

    name = "discovery"

    def __init__(self) -> None:
        super().__init__()
        self.net: Optional[TreePNetwork] = None
        self._agg: Dict[Tuple[int, int], Aggregate] = {}
        self._stale = True
        self._liveness_key: Tuple[int, int] = (-1, -1)

    # ------------------------------------------------------------ lifecycle
    def on_attach(self, ctx: ServiceContext) -> None:
        if ctx.net.layout is None:
            raise RuntimeError("network must be built first")
        self.net = ctx.net
        self.refresh()

    def on_node_join(self, node: "TreePNode") -> None:
        self._stale = True

    def on_node_leave(self, ident: int) -> None:
        self._stale = True

    def on_node_revive(self, node: "TreePNode") -> None:
        self._stale = True

    def _sync(self) -> None:
        """Lazily resync aggregates when churn happened since the last
        (re)computation — detected via the explicit churn callbacks or the
        fabric's liveness epoch (covers direct ``set_down``/``set_up``)."""
        assert self.net is not None
        if self._stale or self.net.liveness_key != self._liveness_key:
            self.refresh()

    # ------------------------------------------------------------ aggregates
    def refresh(self) -> None:
        """Recompute subtree aggregates bottom-up (post-churn)."""
        net = self.net
        assert net is not None, "directory not attached to a network"
        layout = net.layout
        assert layout is not None
        self._agg.clear()
        # Level-by-level fold: a (parent, level) aggregate covers the
        # parent itself plus every child's (child, level-1) aggregate.
        for lvl in range(1, layout.height + 1):
            for p in layout.levels[lvl]:
                agg = Aggregate()
                if net.network.is_up(p):
                    agg.fold(net.capacities[p])
                for c in layout.children.get((p, lvl), ()):
                    if lvl == 1:
                        if net.network.is_up(c):
                            agg.fold(net.capacities[c])
                    else:
                        sub = self._agg.get((c, lvl - 1))
                        if sub is not None:
                            agg.fold_aggregate(sub)
                self._agg[(p, lvl)] = agg
        self._stale = False
        self._liveness_key = net.liveness_key

    # ---------------------------------------------------------------- query
    def query(
        self,
        constraint: Constraint,
        origin: Optional[int] = None,
        max_results: int = 4,
    ) -> DiscoveryResult:
        """Resolve *constraint*, counting tree-edge traversals as hops."""
        net = self.net
        assert net is not None, "directory not attached to a network"
        self._sync()
        layout = net.layout
        assert layout is not None
        if max_results < 1:
            raise ValueError("max_results must be >= 1")

        hops = 0
        pruned = 0
        matches: List[int] = []

        # Ascend from the origin until an ancestor's aggregate admits the
        # constraint (or the root is reached).
        if origin is None:
            origin = next(i for i in net.ids if net.network.is_up(i))
        start: Optional[int] = None
        chain = [origin] + layout.ancestors(origin)
        for anc in chain[1:]:
            hops += 1
            lvl = layout.max_level.get(anc, 0)
            agg = self._agg.get((anc, lvl))
            if agg is not None and agg.might_admit(constraint):
                start = anc
                break
        if start is None:
            if chain[1:]:
                start = chain[-1]
            else:
                start = origin

        # Depth-first descent, pruning subtrees whose aggregate cannot match.
        stack: List[Tuple[int, int]] = [(start, layout.max_level.get(start, 0))]
        seen = set()
        while stack and len(matches) < max_results:
            node_id, lvl = stack.pop()
            if (node_id, lvl) in seen:
                continue
            seen.add((node_id, lvl))
            if net.network.is_up(node_id) and constraint.admits(net.capacities[node_id]):
                if node_id not in matches:
                    matches.append(node_id)
                    if len(matches) >= max_results:
                        break
            if lvl == 0:
                continue
            for c in layout.children.get((node_id, lvl), ()):
                if lvl == 1:
                    hops += 1
                    if net.network.is_up(c) and constraint.admits(net.capacities[c]):
                        if c not in matches:
                            matches.append(c)
                            if len(matches) >= max_results:
                                break
                else:
                    sub = self._agg.get((c, lvl - 1))
                    if sub is None or not sub.might_admit(constraint):
                        pruned += 1
                        continue
                    hops += 1
                    stack.append((c, lvl - 1))

        return DiscoveryResult(matches=tuple(matches), hops=hops,
                               subtrees_pruned=pruned)
