"""The TreeP protocol engine: one :class:`TreePNode` per peer.

A node is a :class:`~repro.sim.network.Process`; every interaction is a
datagram, every decision is node-local.  The node composes:

* its :class:`~repro.core.routing_table.RoutingTable`,
* the pure router (:func:`repro.core.lookup.route`),
* its keep-alive loop with delta piggybacking (§III.d): the peers on an
  active connection exchange only the entries refreshed since the other
  last heard from them, a child reports to its parent (which never probes
  it), and every entry expires unless refreshed,
* the countdown protocols of §III.b: elections (a stronger node counts
  down faster, and the first to expire unclaimed becomes the parent) and
  the demotion of an under-filled parent (a stronger one waits longer).

A converged node never runs these protocols, so it holds none of their
state: it is one :class:`ProtocolState` the node makes on its first use.

Lookup life-cycle (origin side), one for every overlay's node
(:class:`LookupClient`, which the Chord and flooding nodes of
:mod:`repro.baselines` share): issuing a lookup registers a
:class:`PendingLookup` with a timeout; the first reply resolves it, the
timeout marks it failed.  The experiment harness reads the resulting
:class:`~repro.core.lookup.LookupResult` objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.core.capacity import NodeCapacity
from repro.core.config import LOOKUP_TIMEOUT, TreePConfig
from repro.core.hierarchy import _effective_nc
from repro.core.lookup import (
    DecisionKind,
    LookupAlgorithm,
    LookupResult,
    _tuple_new,
    route,
)
from repro.core.messages import (
    ChildReport,
    Demote,
    ElectionStart,
    Hello,
    HelloAck,
    JoinAccept,
    JoinRequest,
    KeepAlive,
    KeepAliveAck,
    LookupReply,
    LookupRequest,
    ParentAnnounce,
    ParentClaim,
    PromoteGrant,
    Splice,
)
from repro.core.routing_table import Meta, RoutingTable, SharedMap
from repro.sim.engine import PeriodicTimer
from repro.sim.network import Datagram, Handler, Process


@dataclass(slots=True)
class PendingLookup:
    """Origin-side record of an in-flight lookup."""

    request_id: int
    target: int
    algo: LookupAlgorithm
    timeout_event: object = None
    result: Optional[LookupResult] = None
    on_done: Optional[Callable[[LookupResult], None]] = None


#: The ``pending`` map of every node with no lookup in flight.
_NO_LOOKUPS: Dict[int, PendingLookup] = SharedMap()

#: The ``elections`` map of every node with no election open.
_NO_ELECTIONS: Dict[int, List[int]] = SharedMap()

#: The ``demoting`` set of every node with no demotion countdown armed.
_NO_DEMOTIONS: FrozenSet[int] = frozenset()


class ProtocolState:
    """What a node running the §III.b/§III.d protocols holds: the
    keep-alive timer (``None`` until keep-alives first start) and, per peer,
    the time we last shipped it a delta; the open elections (level →
    participants, until won or claimed); the levels whose demotion
    countdown is armed.  An empty map or set is the shared empty one.

    One attribute of the node, not four: on CPython 3.11 the second
    attribute a node gains past its constructor's turns its inline values
    into a dict of its own (+832 B).
    """

    __slots__ = ("timer", "last_sync", "elections", "demoting")

    def __init__(self) -> None:
        self.timer: Optional[PeriodicTimer] = None
        self.last_sync: Dict[int, float] = {}
        self.elections: Dict[int, List[int]] = _NO_ELECTIONS
        self.demoting: FrozenSet[int] | Set[int] = _NO_DEMOTIONS

#: Keep-alive periods are jittered by up to this fraction of the interval
#: to de-synchronise the population (synchronised bursts both overstate
#: instantaneous load and under-exercise the protocol).
JITTER_FRACTION = 0.1


def _keepalive_jitter(rng: random.Random, interval: float) -> float:
    """One period's offset, drawn from the node's own ``Random(ident)``."""
    return (rng.random() - 0.5) * 2 * JITTER_FRACTION * interval


class LookupClient(Process):
    """The origin side of a lookup, whatever the overlay routes it with.

    :meth:`_open_lookup` registers a :class:`PendingLookup` under a fresh
    request id and arms its :data:`~repro.core.config.LOOKUP_TIMEOUT`
    before the first datagram goes out; :meth:`_close_lookup` resolves it
    once, on the first reply or on the timeout, and ignores whatever
    arrives after (a late reply, a flood's duplicate hit).  A node with no
    lookup in flight holds the shared :data:`_NO_LOOKUPS` as ``pending``.
    """

    def __init__(self, ident: int) -> None:
        super().__init__(ident)
        #: Lookups issued so far; the next request id's low bits.
        self._req_counter = 0
        self.pending: Dict[int, PendingLookup] = _NO_LOOKUPS
        #: Observability hub (see :mod:`repro.obs`); ``None`` keeps every
        #: instrumentation site to a single attribute check.
        self.obs = None

    def _open_lookup(
        self,
        target: int,
        algo: LookupAlgorithm,
        on_done: Optional[Callable[[LookupResult], None]] = None,
    ) -> PendingLookup:
        self._req_counter += 1
        rid = (self.ident << 20) | self._req_counter
        pend = PendingLookup(rid, target, algo, on_done=on_done)
        pending = self.pending
        if type(pending) is not dict:
            pending = self.pending = {}
        pending[rid] = pend
        obs = self.obs
        if obs is not None:
            obs.lookup_begin(rid, self.ident, self.sim.now)
        pend.timeout_event = self.sim.schedule(
            LOOKUP_TIMEOUT,
            # Not found, 0 hops, no path, timed out: positional, since a
            # keyword would give every lookup's partial a dict of its own.
            partial(self._close_lookup, rid, False, 0, (), True),
            label=f"lookup-timeout:{rid}",
        )
        return pend

    def _close_lookup(
        self,
        rid: int,
        found: bool,
        hops: int,
        path: Tuple[int, ...] = (),
        timed_out: bool = False,
    ) -> None:
        pending = self.pending
        pend = pending.pop(rid, None)
        if pend is None:
            return  # already closed
        if not pending:
            self.pending = _NO_LOOKUPS
        pend.timeout_event.cancel()  # type: ignore[attr-defined]
        res = pend.result = LookupResult(
            rid, self.ident, pend.target, pend.algo, found, hops, timed_out,
            path)
        obs = self.obs
        if obs is not None:
            obs.lookup_end(rid, self.sim.now, found, hops, timed_out)
        if pend.on_done is not None:
            pend.on_done(res)


class TreePNode(LookupClient):
    """One TreeP peer.

    Parameters
    ----------
    ident:
        Overlay ID == network address.
    capacity:
        The peer's capability vector.
    config:
        Shared overlay configuration.
    book:
        The network's peer book, which the node's table reads its entries'
        metadata from (see :class:`~repro.core.routing_table.RoutingTable`).
    """

    def __init__(
        self,
        ident: int,
        capacity: NodeCapacity,
        config: TreePConfig,
        book: Optional[Dict[int, Meta]] = None,
    ) -> None:
        super().__init__(ident)
        self.capacity = capacity
        self.config = config
        self.table = RoutingTable(ident, book)
        #: Highest level this node occupies (0 = leaf-only).
        self.max_level = 0
        #: Node-local estimate of the hierarchy height ``h``.
        self.height = 1
        self.nc = _effective_nc(config, capacity)

    #: Keep-alive, election and demotion state, ``None`` until the node
    #: first runs one of them.
    _protocol: Optional[ProtocolState] = None

    def _protocol_state(self) -> ProtocolState:
        p = self._protocol
        if p is None:
            p = self._protocol = ProtocolState()
        return p

    @property
    def elections(self) -> Dict[int, List[int]]:
        """Open elections: level → participants (read-only)."""
        p = self._protocol
        return _NO_ELECTIONS if p is None else p.elections

    @property
    def demoting(self) -> FrozenSet[int] | Set[int]:
        """Levels whose demotion countdown is armed (read-only)."""
        p = self._protocol
        return _NO_DEMOTIONS if p is None else p.demoting

    # ------------------------------------------------------------- identity
    @property
    def score(self) -> float:
        return self.capacity.score()

    def child_count(self, level: int) -> int:
        return len(self.table.level_children.get(level, ()))

    # ------------------------------------------------------------ dispatch
    @classmethod
    def handlers(cls, nodes: Mapping[int, "TreePNode"]) -> Dict[type, Handler]:
        """The overlay's entries in :attr:`Network.handlers
        <repro.sim.network.Network.handlers>`: each message of
        :mod:`repro.core.messages` runs its ``_on_<Type>`` on ``nodes[dst]``."""
        return {
            LookupRequest: (nodes, cls._on_LookupRequest),
            LookupReply: (nodes, cls._on_LookupReply),
            Hello: (nodes, cls._on_Hello),
            HelloAck: (nodes, cls._on_HelloAck),
            Splice: (nodes, cls._on_Splice),
            JoinRequest: (nodes, cls._on_JoinRequest),
            JoinAccept: (nodes, cls._on_JoinAccept),
            ChildReport: (nodes, cls._on_ChildReport),
            PromoteGrant: (nodes, cls._on_PromoteGrant),
            ParentAnnounce: (nodes, cls._on_ParentAnnounce),
            ElectionStart: (nodes, cls._on_ElectionStart),
            ParentClaim: (nodes, cls._on_ParentClaim),
            Demote: (nodes, cls._on_Demote),
            KeepAlive: (nodes, cls._on_KeepAlive),
            KeepAliveAck: (nodes, cls._on_KeepAliveAck),
        }

    def on_datagram(self, dgram: Datagram) -> None:
        """A datagram of a type with no handler table entry (a detached
        service's, say): dropped, and recorded as ``node.drop``."""
        obs = self.obs
        if obs is not None:
            obs.event("node.drop", self.ident, self.sim.now)

    # -------------------------------------------------------------- lookups
    def issue_lookup(
        self,
        target: int,
        algo: LookupAlgorithm | str = LookupAlgorithm.GREEDY,
        on_done: Optional[Callable[[LookupResult], None]] = None,
    ) -> PendingLookup:
        """Start resolving *target* from this node."""
        algo = LookupAlgorithm.parse(algo if isinstance(algo, str) else algo.value)
        pend = self._open_lookup(target, algo, on_done)
        self._route_and_act(LookupRequest(
            request_id=pend.request_id, origin=self.ident, target=target,
            algo=algo.value, ttl=0, path=(),
        ))
        return pend

    def _on_LookupRequest(self, src: int, req: LookupRequest) -> None:
        obs = self.obs
        if obs is not None:
            obs.lookup_hop(req.request_id, src, self.sim.now, req.ttl)
        self._route_and_act(req)

    def _route_and_act(self, req: LookupRequest) -> None:
        decision = route(self, req)
        if decision.kind is DecisionKind.FOUND:
            reply = LookupReply(
                request_id=req.request_id, target=req.target, found=True,
                resolved=decision.resolved, hops=req.ttl,
                path=req.path + (self.ident,),
            )
            if req.origin == self.ident:
                self._on_LookupReply(self.ident, reply)
            else:
                self.send(req.origin, reply)
            return
        if decision.kind is DecisionKind.FORWARD:
            assert decision.next_hop is not None
            nxt = decision.next_hop
            table = self.table
            from_parent_level = 0
            if nxt in table.children and nxt in table._entries:
                # We are the next hop's parent: it sees the request as
                # "coming from the parent of level (its max level + 1)".
                from_parent_level = (table._meta.get(nxt) or table._book[nxt])[0] + 1
            rid, origin, target, algo, ttl, _, _, path = req
            self.send(nxt, _tuple_new(LookupRequest, (
                rid, origin, target, algo, ttl + 1, from_parent_level,
                decision.alternates, path + (self.ident,))))
            return
        if decision.kind is DecisionKind.NOT_FOUND:
            reply = LookupReply(
                request_id=req.request_id, target=req.target, found=False,
                resolved=None, hops=req.ttl, path=req.path + (self.ident,),
            )
            if req.origin == self.ident:
                self._on_LookupReply(self.ident, reply)
            else:
                self.send(req.origin, reply)
            return
        # DISCARD: drop silently; the origin's timeout accounts for it.
        obs = self.obs
        if obs is not None:
            obs.event("lookup.discard", self.ident, self.sim.now,
                      rid=req.request_id, value=float(req.ttl))

    def _on_LookupReply(self, src: int, reply: LookupReply) -> None:
        self._close_lookup(reply.request_id, reply.found, reply.hops,
                           reply.path)

    # ------------------------------------------------------- hello / splice
    def _on_Hello(self, src: int, msg: Hello) -> None:
        self.table.upsert(src, self.sim.now, max_level=msg.max_level,
                          score=msg.score, nc=msg.nc)
        self.send(src, HelloAck(max_level=self.max_level, score=self.score, nc=self.nc))

    def _on_HelloAck(self, src: int, msg: HelloAck) -> None:
        self.table.upsert(src, self.sim.now, max_level=msg.max_level,
                          score=msg.score, nc=msg.nc)

    def _on_Splice(self, src: int, msg: Splice) -> None:
        """A join displaced one of our level-0 links: adopt the joiner."""
        now = self.sim.now
        self.table.add("level0", msg.joiner, now)
        # Keep the two level-0 connections + joiner; drop the link the
        # joiner replaced (it is now reachable through the joiner).
        if msg.left == self.ident and msg.right is not None:
            self.table.unlink("level0", msg.right)
        elif msg.right == self.ident and msg.left is not None:
            self.table.unlink("level0", msg.left)
        self.send(msg.joiner, Hello(self.max_level, self.score, self.nc))

    # ----------------------------------------------------------------- join
    def _on_JoinRequest(self, src: int, msg: JoinRequest) -> None:
        """Greedy placement: accept if the joiner belongs between us and a
        level-0 neighbour, otherwise forward towards its ID."""
        space = self.config.space
        now = self.sim.now
        joiner = msg.joiner
        neighbours = sorted(self.table.level0)
        lo = max((n for n in neighbours if n < joiner), default=None)
        hi = min((n for n in neighbours if n > joiner), default=None)

        here = space.distance(self.ident, joiner)
        closer = [n for n in neighbours if space.distance(n, joiner) < here]
        if closer and not (min(self.ident, lo or self.ident) < joiner < max(self.ident, hi or self.ident)):
            nxt = min(closer, key=lambda n: space.distance(n, joiner))
            self.send(nxt, msg)
            return

        # Place the joiner adjacent to us, between self and lo or hi.
        if joiner < self.ident:
            left, right = lo, self.ident
        else:
            left, right = self.ident, hi
        self.table.add("level0", joiner, now, score=msg.score, nc=msg.nc)
        parent = self.table.parents.get(1) if self.max_level == 0 else self.ident
        self.send(joiner, JoinAccept(left=left, right=right, parent=parent))
        other = left if right == self.ident else right
        if other is not None:
            self.send(other, Splice(joiner=joiner, left=left, right=right))

    def join_via(self, bootstrap: int) -> None:
        """Ask *bootstrap* to place this node on level 0."""
        self.send(bootstrap, JoinRequest(joiner=self.ident, score=self.score, nc=self.nc))

    def _on_JoinAccept(self, src: int, msg: JoinAccept) -> None:
        now = self.sim.now
        for n in (msg.left, msg.right):
            if n is not None and n != self.ident:
                self.table.add("level0", n, now)
                self.send(n, Hello(self.max_level, self.score, self.nc))
        if msg.parent is not None and msg.parent != self.ident:
            self.table.set_parent(1, msg.parent, now)
            self.send(msg.parent, ChildReport(self.ident, self.score, self.max_level))

    # ----------------------------------------------------------- hierarchy
    def _on_ChildReport(self, src: int, msg: ChildReport) -> None:
        now = self.sim.now
        level = msg.max_level + 1
        if level > self.max_level:
            return  # we are no longer a parent at that level
        self.table.add_child(level, src, now, score=msg.score, max_level=msg.max_level)
        self.send(src, ParentAnnounce(level=level, parent=self.ident,
                                      superiors=self._superior_chain()))
        # Cell overflow (§III.a): a parent holds at most nc children; split
        # the cell B-tree-style by promoting the best-scoring child to our
        # own level (the lowest id among equals).  Every child has an entry.
        kids = self.table.level_children[level]
        if len(kids) > self.nc:
            best = max(kids, key=lambda k: (self.table.meta(k)[1], -k))
            self.table.unlink_child(best)
            self.send(best, PromoteGrant(child=best, to_level=level))

    def _on_PromoteGrant(self, src: int, msg: PromoteGrant) -> None:
        """Our parent split its over-full cell: we ascend to its level."""
        if msg.child != self.ident or msg.to_level <= self.max_level:
            return
        now = self.sim.now
        self.max_level = msg.to_level
        self.height = max(self.height, msg.to_level)
        # The old parent becomes a same-level bus neighbour; our new parent
        # is whatever covers us one level further up (learned via the
        # superior list / next ParentAnnounce).
        old_parent = self.table.drop_parent(msg.to_level)
        if old_parent is not None:
            self.table.add_level(msg.to_level, old_parent, now,
                                 max_level=msg.to_level)
        obs = self.obs
        if obs is not None:
            obs.event("election.promoted", self.ident, now,
                      value=float(msg.to_level))

    def _superior_chain(self) -> Tuple[int, ...]:
        chain: List[int] = []
        for lvl in sorted(self.table.parents):
            chain.append(self.table.parents[lvl])
        chain.extend(sorted(self.table.superiors))
        return tuple(dict.fromkeys(chain))  # dedupe, keep order

    def _on_ParentAnnounce(self, src: int, msg: ParentAnnounce) -> None:
        now = self.sim.now
        self.table.set_parent(msg.level, msg.parent, now, max_level=msg.level)
        for s in msg.superiors:
            if s != self.ident:
                self.table.add("superiors", s, now)
        # Height estimate: the deepest superior chain we have seen.
        self.height = max(self.height, msg.level + len(msg.superiors))

    def _on_ElectionStart(self, src: int, msg: ElectionStart) -> None:
        level = msg.level
        p = self._protocol_state()
        elections = p.elections
        if level in elections:
            return  # already participating
        if type(elections) is not dict:
            elections = p.elections = {}
        elections[level] = sorted(self.table.neighbours_at(level) | {self.ident, src})
        self.sim.schedule(self.capacity.promotion_countdown(),
                          partial(self._election_expired, level),
                          label=f"election:{self.ident}:{level}")

    def trigger_election(self, level: int = 0) -> None:
        """§III.b: degree >= 2 and no parent → start an election."""
        if self.table.parents.get(level + 1) is not None:
            return
        neighbours = self.table.neighbours_at(level)
        if len(neighbours) < 2:
            return
        msg = ElectionStart(level=level, initiator=self.ident)
        for n in neighbours:
            self.send(n, msg)
        self._on_ElectionStart(self.ident, msg)

    def _election_expired(self, level: int) -> None:
        # The countdown closes the election: a claim that beat it closed
        # it already, and a crashed node drops it without winning (so after
        # a revival it can run one at this level again).
        p = self._protocol
        participants = p.elections.pop(level, None)
        if not p.elections:
            p.elections = _NO_ELECTIONS
        if participants is None or not self.network.is_up(self.ident):
            return
        # We won: ascend one level and claim the electorate as children.
        new_level = level + 1
        self.max_level = max(self.max_level, new_level)
        self.height = max(self.height, new_level)
        claim = ParentClaim(level=new_level, winner=self.ident, score=self.score)
        for p in participants:
            if p != self.ident:
                self.send(p, claim)
        obs = self.obs
        if obs is not None:
            obs.event("election.won", self.ident, self.sim.now,
                      value=float(new_level))

    def _on_ParentClaim(self, src: int, msg: ParentClaim) -> None:
        if msg.level - 1 in self.elections:  # another node won first
            p = self._protocol
            del p.elections[msg.level - 1]
            if not p.elections:
                p.elections = _NO_ELECTIONS
        now = self.sim.now
        self.table.set_parent(msg.level, msg.winner, now,
                              max_level=msg.level, score=msg.score)
        self.send(msg.winner, ChildReport(self.ident, self.score, self.max_level))

    def _underfilled(self, level: int) -> bool:
        """A parent of fewer than two children abdicates (§III.b), unless
        the ``keep-upper`` future-work policy keeps it above level 1."""
        if self.child_count(level) >= 2:
            return False
        return level == 1 or self.config.demotion_policy != "keep-upper"

    def check_demotion(self) -> None:
        """Arm the under-filled-parent countdown when applicable (§III.b)."""
        for level in range(1, self.max_level + 1):
            if self._underfilled(level) and level not in self.demoting:
                p = self._protocol_state()
                if type(p.demoting) is not set:
                    p.demoting = set()
                p.demoting.add(level)
                self.sim.schedule(
                    self.capacity.demotion_countdown(base=self.config.demotion_base),
                    partial(self._demotion_expired, level),
                    label=f"demotion:{self.ident}:{level}",
                )

    def _demotion_expired(self, level: int) -> None:
        p = self._protocol
        p.demoting.discard(level)
        if not p.demoting:
            p.demoting = _NO_DEMOTIONS
        if not self.network.is_up(self.ident):
            return  # a crashed node neither abdicates nor notifies
        if not self._underfilled(level):
            return  # children arrived during the countdown
        if level != self.max_level:
            return  # only the top membership can be abdicated
        # Leave the level: notify children and same-level neighbours.
        msg = Demote(node=self.ident, level=level)
        for n in self.table.neighbours_at(level):
            self.send(n, msg)
        for c in self.table.drop_children(level):
            self.send(c, msg)
        self.max_level = level - 1
        self.table.drop_level(level)
        obs = self.obs
        if obs is not None:
            obs.event("election.demoted", self.ident, self.sim.now,
                      value=float(level))

    def _on_Demote(self, src: int, msg: Demote) -> None:
        if self.table.parents.get(msg.level) == msg.node:
            self.table.drop_parent(msg.level)
        self.table.unlink_level(msg.level, msg.node)
        self.table.unlink_child(msg.node)
        # Orphaned with enough neighbours → §III.b election trigger.
        if msg.level == self.max_level + 1 and len(self.table.level0) >= 2:
            self.trigger_election(self.max_level)

    # ---------------------------------------------------------- maintenance
    def start_keepalive(self) -> None:
        """Arm the periodic keep-alive timer, with a deterministic per-node
        phase independent of the global RNG state."""
        p = self._protocol_state()
        if p.timer is not None and p.timer.running:
            return
        interval = self.config.keepalive_interval
        jitter = partial(_keepalive_jitter, random.Random(self.ident), interval)
        p.timer = self.sim.every(interval, self._keepalive_tick, jitter=jitter,
                                 label=f"keepalive:{self.ident}")

    def stop_keepalive(self) -> None:
        p = self._protocol
        if p is not None and p.timer is not None:
            p.timer.stop()

    def _keepalive_tick(self) -> None:
        """One maintenance round: expiry, keep-alives, child report."""
        table = self.table
        now = self.sim.now
        last_sync = self._protocol.last_sync
        for peer in table.expire(now, self.config.entry_ttl):
            last_sync.pop(peer, None)  # a re-learnt peer gets a full delta
        for peer in table.active_connections():
            since = last_sync.get(peer, -1.0)
            self.send(peer, KeepAlive(entries=tuple(table.delta_since(since)),
                                      since=since))
            last_sync[peer] = now
        # Children report to their parent; silent children get expired.
        parent = table.parents.get(self.max_level + 1)
        if parent is not None:
            self.send(parent, ChildReport(self.ident, self.score, self.max_level))
        self.check_demotion()

    def _on_KeepAlive(self, src: int, msg: KeepAlive) -> None:
        now = self.sim.now
        self.table.touch(src, now)
        self.table.merge_delta(msg.entries, now)
        p = self._protocol
        if p is not None and p.timer is not None:
            # Reply with our delta since the peer's recorded sync point.
            last_sync = p.last_sync
            since = last_sync.get(src, -1.0)
            self.send(src, KeepAliveAck(entries=tuple(self.table.delta_since(since))))
            last_sync[src] = now

    def _on_KeepAliveAck(self, src: int, msg: KeepAliveAck) -> None:
        now = self.sim.now
        self.table.touch(src, now)
        self.table.merge_delta(msg.entries, now)
