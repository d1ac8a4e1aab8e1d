"""`TreePNetwork` — the public orchestration API.

Typical use (this is what the quickstart example does)::

    from repro import TreePNetwork, TreePConfig

    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=42)
    net.build(n=512)
    result = net.lookup_sync(origin=net.ids[0], target=net.ids[100])
    assert result.found

The network owns the simulator, the datagram fabric, and one
:class:`~repro.core.node.TreePNode` per peer.  ``build`` constructs the
paper's *steady state* directly (see :func:`repro.core.hierarchy.build_layout`)
and installs the six routing tables of §III.c on every node; the dynamic
protocol (join, keep-alives, elections, demotion) then operates on top of
that state.
"""

from __future__ import annotations

import gc
import operator
from contextlib import contextmanager
from functools import partial
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from repro.core.capacity import CapacityDistribution, NodeCapacity
from repro.core.config import TreePConfig
from repro.core.hierarchy import HierarchyLayout, build_layout
from repro.core.ids import AssignStrategy, assign_ids
from repro.core.lookup import LookupAlgorithm, LookupResult
from repro.core.node import TreePNode
from repro.core.routing_table import Meta, SharedIds, SharedMap
from repro.core.tessellation import cell_owner
from repro.obs.runtime import ambient_hub
from repro.sim.engine import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.runtime import ObsHub


#: Virtual seconds a blocking client op runs past its reply so the
#: request's trailing datagrams (extra replicas, read repair) land — a few
#: times the default per-hop latency ceiling.
SETTLE = 0.2


def _landed(waiting: List[None], result: LookupResult) -> None:
    """A batch lookup's ``on_done``: one fewer still open."""
    waiting.pop()


@contextmanager
def paused_collector() -> Iterator[None]:
    """Pause the cyclic collector for a whole-overlay sweep (build, repair
    step), then hand the caller's ``gc.isenabled()`` back: what a sweep
    allocates stays reachable or dies by refcount, so the collector's
    passes over the overlay free nothing.  The only ``gc`` use in ``src/``."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TreePNetwork:
    """A complete simulated TreeP deployment.

    Parameters
    ----------
    config:
        Overlay configuration; defaults to the paper's case 1.
    seed:
        Root seed for every random substream.

    Datagrams take ``UniformLatency(5..50 ms)`` from the ``"latency"``
    stream; random loss is a predicate assigned to ``network.loss_model``
    (e.g. a :class:`~repro.sim.conditions.GilbertElliott` chain).
    """

    def __init__(self, config: Optional[TreePConfig] = None, seed: int = 0) -> None:
        self.config = config if config is not None else TreePConfig.paper_case1()
        self.rng = RngRegistry(seed)
        self.sim = Simulator()
        self.network = Network(self.sim, latency=UniformLatency(self.rng.get("latency")))
        self.nodes: Dict[int, TreePNode] = {}
        self.network.handlers.update(TreePNode.handlers(self.nodes))
        #: Observability hub (``None`` unless an ambient capture is active
        #: or an ``Observability`` service is attached); instrumentation
        #: sites guard every record behind one ``is not None`` check.
        #: :meth:`set_obs` is its one writer.
        self.obs: Optional["ObsHub"] = None
        self.set_obs(ambient_hub())
        self.ids: List[int] = []
        self.capacities: Dict[int, NodeCapacity] = {}
        #: The peer book: every peer's ``(max_level, score, nc)`` as of its
        #: creation, written once per peer (the build's layout, a joiner's
        #: own) and shared by every routing table, which holds only the
        #: metadata of its entries that differ from it.
        self.book: Dict[int, Meta] = {}
        self.layout: Optional[HierarchyLayout] = None
        #: Whether keep-alive loops run (between start_ and stop_maintenance).
        self._maintaining = False
        self.network.down_hooks.append(self._sync_keepalive)
        self.network.up_hooks.append(self._sync_keepalive)
        #: Callbacks invoked for every node the network creates (at build and
        #: on protocol joins); the service plane (:mod:`repro.cluster`)
        #: subscribes here to set up per-node service state.
        self.node_hooks: List[Callable[[TreePNode], None]] = []

    # ------------------------------------------------------------ building
    def build(
        self,
        n: int,
        strategy: AssignStrategy = "random",
        capacities: Optional[Sequence[NodeCapacity]] = None,
    ) -> HierarchyLayout:
        """Create *n* peers and assemble the steady-state hierarchy."""
        if self.nodes:
            raise RuntimeError("network already built")
        ids = assign_ids(
            self.config.space,
            n,
            self.rng.get("ids"),
            strategy=strategy,
            hosts=[("10.%d.%d.%d" % (i >> 16 & 255, i >> 8 & 255, i & 255), 4000 + i % 1000)
                   for i in range(n)] if strategy == "hash" else None,
        )
        if capacities is None:
            dist = CapacityDistribution(self.rng.get("capacity"))
            capacities = dist.sample_many(n)
        elif len(capacities) != n:
            raise ValueError(f"need {n} capacities, got {len(capacities)}")
        return self.build_from(ids, dict(zip(ids, capacities)))

    def build_from(
        self, ids: Sequence[int], capacities: Dict[int, NodeCapacity]
    ) -> HierarchyLayout:
        """Build from explicit IDs/capacities (deterministic tests)."""
        if self.nodes:
            raise RuntimeError("network already built")
        self.ids = list(ids)
        self.capacities = dict(capacities)
        with paused_collector():  # nothing under construction is garbage
            self.layout = build_layout(self.ids, self.capacities, self.config)
            for ident in self.ids:
                self._create_node(ident)
            self._install_tables(self.layout)
        return self.layout

    def _create_node(self, ident: int) -> TreePNode:
        node = TreePNode(ident, self.capacities[ident], self.config, self.book)
        self.network.register(node)
        self.nodes[ident] = node
        node.obs = self.obs
        for hook in self.node_hooks:
            hook(node)
        return node

    def set_obs(self, hub: Optional["ObsHub"]) -> None:
        """Record into *hub* from now on, or into nothing with ``None``:
        the one writer of ``net.obs``, every ``node.obs`` and the engine's
        event hook (a node created later copies ``net.obs``)."""
        self.obs = hub
        for node in self.nodes.values():
            node.obs = hub
        self.sim.set_event_hook(hub.on_sim_event if hub is not None else None)

    def topology_snapshot(self) -> Dict[int, int]:
        """The current tree overlay as ``{node: parent}`` (parent ``-1``
        = root).

        A node at max level *m* has its real parent at level *m*\\ +1 in
        its routing table; nodes without one (the root, or nodes mid-join)
        report ``-1``.  The adversarial plans
        (:mod:`repro.workloads.adversarial`) cut whole subtrees out of it.
        """
        snapshot: Dict[int, int] = {}
        for ident, node in self.nodes.items():
            parent = node.table.parents.get(node.max_level + 1)
            snapshot[ident] = parent if parent is not None else -1
        return snapshot

    # ------------------------------------------------------- table install
    def _install_tables(self, layout: HierarchyLayout) -> None:
        """Populate the six §III.c tables on every node from the layout:
        each node's plan as ordered id lists, written by one
        :meth:`~repro.core.routing_table.RoutingTable.install` call.  Equal
        superior lists (by install sequence) and equal ``parents`` maps are
        one shared object: every child of one parent holds the same."""
        now = self.sim.now
        space = self.config.space
        h = layout.height
        levels, children = layout.levels, layout.children
        # Every bus member's position on its bus, for its neighbours there.
        index = [{i: k for k, i in enumerate(bus)} for bus in levels]
        bus0, last0 = levels[0], len(levels[0]) - 1

        # The peer book: every entry's (max_level, score, nc), once per peer.
        scores, nc = layout.scores, layout.nc
        max_level = layout.max_level
        book = self.book
        for i, lvl in max_level.items():
            book[i] = (lvl, scores[i], nc[i])
        shared_superiors: Dict[tuple, SharedIds] = {}
        shared_parents: Dict[tuple, SharedMap] = {}
        for ident, node in self.nodes.items():
            top = node.max_level = max_level[ident]
            node.height = h

            # Table 1: level-0 neighbours (min two connections).  Endpoints
            # get a second-hop link so everyone keeps degree >= 2.
            k = index[0][ident]
            left = bus0[k - 1] if k > 0 else None
            right = bus0[k + 1] if k < last0 else None
            level0 = [n for n in (left, right) if n is not None]
            if left is None and k + 2 <= last0:
                level0.append(bus0[k + 2])
            if right is None and k >= 2:
                level0.append(bus0[k - 2])

            # Tables 2 and 3, per level held: bus neighbourhood (direct +
            # indirect), own children, children of direct bus neighbours.
            buses: List[List[int]] = []
            own: List[List[int]] = []
            theirs: List[List[int]] = []
            for lvl in range(1, top + 1):
                bus = levels[lvl]
                k = index[lvl][ident]
                l1 = bus[k - 1] if k > 0 else None
                r1 = bus[k + 1] if k + 1 < len(bus) else None
                ids = [n for n in (l1, r1) if n is not None]
                if l1 is not None and k >= 2:
                    ids.append(bus[k - 2])
                if r1 is not None and k + 2 < len(bus):
                    ids.append(bus[k + 2])
                # "parents of level i of its direct neighbours at level 0"
                for n0 in (left, right):
                    if n0 is not None:
                        p = cell_owner(space, bus, n0)
                        if p != ident:
                            ids.append(p)
                # "direct neighbours of level 0 that belong to the same level i"
                ids += [n0 for n0 in (left, right)
                        if n0 is not None and n0 in index[lvl]]
                buses.append(ids)
                own.append(children.get((ident, lvl), []))
                theirs.append([c for nb in (l1, r1) if nb is not None
                               for c in children.get((nb, lvl), ())])

            # Tables 4/6: parents. A node at max level m has its real parent
            # at level m+1 (a bus it is not on); below that it covers itself.
            p = layout.parent.get(ident)
            key = () if p is None else ((top + 1, p),)
            parents = shared_parents.get(key)
            if parents is None:
                parents = shared_parents[key] = SharedMap(key)

            # Table 5: superior-node list — ancestors + parent's neighbours.
            superiors = layout.ancestors(ident)
            if p is not None:
                pbus = levels[max_level[p]]
                k = index[max_level[p]][p]
                for pn in (pbus[k - 1] if k > 0 else None,
                           pbus[k + 1] if k + 1 < len(pbus) else None):
                    if pn is not None and pn != ident:
                        superiors.append(pn)

            key = tuple(superiors)
            superiors = shared_superiors.get(key)
            if superiors is None:
                superiors = shared_superiors[key] = SharedIds(key)

            node.table.install(now, level0, buses, own, theirs, parents, superiors)

    def live_origin(self, via: Optional[int] = None) -> TreePNode:
        """The node client requests should enter through.

        *via* selects a specific node (it must be live — a down node would
        silently drop every outbound datagram and the client would pump its
        whole deadline for nothing); otherwise the first live peer is used.
        Shared by the service facades (DHT, replicated storage).
        """
        if via is not None:
            if not self.network.is_up(via):
                raise ValueError(f"origin {via} is down")
            return self.nodes[via]
        for i in self.ids:
            if self.network.is_up(i):
                return self.nodes[i]
        raise RuntimeError("no live node to issue the request from")

    def pump(self, slot: List, timeout: float) -> bool:
        """Run the sim until something lands in *slot* or *timeout* virtual
        seconds pass; True when it landed.

        The one blocking-client pump: a synchronous call is the async call
        with ``on_done=slot.append`` plus this.  It stops at its own reply,
        so it returns while periodic timers (keep-alives, anti-entropy)
        stay armed; the deadline bounds a black-holed request: no event
        past it fires, and a queue that empties first still leaves the
        clock at the deadline.  On success the sim runs :data:`SETTLE`
        further virtual seconds so the request's trailing datagrams land;
        on timeout the caller drops its completion callback, so a
        straggler result finds none and is discarded.  A NaN or negative
        *timeout* raises ``ValueError`` before anything runs.
        """
        if not timeout >= 0:  # NaN fails too
            raise ValueError(f"timeout must be >= 0, got {timeout}")
        sim = self.sim
        sim.run(until=sim.now + timeout, done=slot.__len__)
        if not slot:
            return False
        sim.run(until=sim.now + SETTLE)
        return True

    # ------------------------------------------------------------- lookups
    def _check_lookup(self, origin: int, target: int) -> None:
        """Reject a lookup no walk could serve: an unknown origin
        (``KeyError``) or a target outside the ID space (``ValueError``)."""
        if origin not in self.nodes:
            raise KeyError(f"unknown origin {origin}")
        self.config.space.validate(target)

    def lookup_sync(
        self,
        origin: int,
        target: int,
        algo: LookupAlgorithm | str = LookupAlgorithm.GREEDY,
    ) -> LookupResult:
        """Issue one lookup and wait for its result: a batch of one."""
        return self.run_lookup_batch([(origin, target)], algo)[0]

    def run_lookup_batch(
        self,
        pairs: Iterable[Tuple[int, int]],
        algo: LookupAlgorithm | str = LookupAlgorithm.GREEDY,
    ) -> List[LookupResult]:
        """Issue many lookups and return their results in order.

        Runs the sim until the last lookup has its result, not until the
        queue empties, so it returns with periodic timers (keep-alives,
        services) still armed.  Each lookup's timeout event guarantees a
        result lands.  Every pair is checked as :meth:`lookup` checks it
        before the first is issued, so a bad pair issues none.
        """
        pairs = list(pairs)
        for o, t in pairs:
            self._check_lookup(o, t)
        waiting = [None] * len(pairs)  # one entry per lookup still open
        landed = partial(_landed, waiting)
        pending = [self.nodes[o].issue_lookup(t, algo, landed) for o, t in pairs]
        self.sim.run(done=partial(operator.not_, waiting))
        assert not waiting, "an empty queue left a lookup unresolved"
        return [p.result for p in pending]

    # ------------------------------------------------------------ failures
    def fail_nodes(self, idents: Iterable[int]) -> None:
        """Crash-stop the given peers (no repair — the paper's stress test).

        The overlay and the attached services (see :mod:`repro.cluster`)
        observe each departure through the fabric's liveness hooks: the
        node's keep-alive loop stops, the services' node-scoped periodic
        tasks are cancelled and their ``on_node_leave`` callbacks run.
        The node's election and demotion countdowns fire without effect
        (an election it was counting is dropped, not won); its
        pending lookups still time out, so a batch it issued gets every
        result.
        """
        for i in idents:
            self.network.set_down(i)

    def revive_nodes(self, idents: Iterable[int]) -> None:
        """Bring crash-stopped peers back up (same process).

        The inverse of :meth:`fail_nodes`: the fabric delivers the node its
        datagrams again, its keep-alive loop restarts if maintenance is
        running, and attached services re-arm node-scoped periodic tasks
        via their ``on_node_revive`` callbacks.  A revived node's routing
        table is as the crash left it, and nothing re-bootstraps it.
        """
        for i in idents:
            self.network.set_up(i)

    def alive_ids(self) -> List[int]:
        return [i for i in self.ids if self.network.is_up(i)]

    @property
    def liveness_key(self) -> Tuple[int, int]:
        """Exact invalidation key for anything derived from the live
        population: joins grow ``nodes``; the fabric's epoch counts every
        single crash/revival, so equal numbers of both cannot alias."""
        return (len(self.nodes), self.network.liveness_epoch)

    # --------------------------------------------------------- maintenance
    def start_maintenance(self) -> None:
        """Arm keep-alive loops on every live node; until
        :meth:`stop_maintenance` a crash stops a node's loop and a revival
        re-arms it."""
        self._maintaining = True
        for ident in self.nodes:
            self._sync_keepalive(ident)

    def stop_maintenance(self) -> None:
        self._maintaining = False
        for ident in self.nodes:
            self._sync_keepalive(ident)

    def _sync_keepalive(self, ident: int) -> None:
        """A node's keep-alive loop runs while the node is up and
        maintenance runs (also the fabric's crash and revival hook)."""
        node = self.nodes[ident]
        if self._maintaining and self.network.is_up(ident):
            node.start_keepalive()
        else:
            node.stop_keepalive()

    # --------------------------------------------------------------- churn
    def join_new_node(
        self,
        ident: int,
        capacity: Optional[NodeCapacity] = None,
        via: Optional[int] = None,
    ) -> TreePNode:
        """Protocol-driven join of a brand-new peer through *via* — or,
        by default, the first live peer; :meth:`live_origin` picks (and
        rejects) the bootstrap before any state is written."""
        if ident in self.nodes:
            raise ValueError(f"id {ident} already in the network")
        self.config.space.validate(ident)
        bootstrap = self.live_origin(via).ident
        self.capacities[ident] = capacity if capacity is not None else NodeCapacity()
        self.ids.append(ident)
        node = self._create_node(ident)
        self.book[ident] = (node.max_level, node.score, node.nc)
        self._sync_keepalive(ident)
        node.join_via(bootstrap)
        return node

    # ------------------------------------------------------------- metrics
    def routing_table_sizes(self) -> Dict[int, int]:
        return {i: n.table.size() for i, n in self.nodes.items()}

    def active_connection_counts(self) -> Dict[int, int]:
        return {i: len(n.table.active_connections()) for i, n in self.nodes.items()}
