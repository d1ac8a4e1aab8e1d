"""Reference helpers the tests compare the package against.

None of these is on a path the package runs: each is an invariant
checker, a closed-form figure or a fixed model that a test holds the
real code up to, so they live with the tests.  Import them as
``from reference import ...`` (pytest puts ``tests/`` on ``sys.path``).
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.config import TreePConfig
from repro.core.hierarchy import HierarchyLayout
from repro.core.routing_table import _NO_META, Meta, RoutingTable
from repro.core.tessellation import cell_owner
from repro.sim.latency import LatencyModel
from repro.sim.network import Datagram, Network


# ------------------------------------------------------------- hierarchy

def validate(layout: HierarchyLayout, config: TreePConfig) -> None:
    """Assert every structural invariant of *layout*; raises
    ``AssertionError``."""
    space = config.space
    for j, bus in enumerate(layout.levels):
        assert bus == sorted(bus), f"level {j} bus not sorted"
        assert len(set(bus)) == len(bus), f"level {j} bus has duplicates"
    for j in range(1, len(layout.levels)):
        upper, lower = set(layout.levels[j]), set(layout.levels[j - 1])
        assert upper <= lower, f"level {j} not a subset of level {j-1}"
    for (p, j), kids in layout.children.items():
        assert p in layout.levels[j], f"parent {p} not on bus {j}"
        limit = layout.nc[p]
        assert len(kids) <= limit, (
            f"parent {p} at level {j} has {len(kids)} children > nc={limit}"
        )
        for k in kids:
            assert cell_owner(space, layout.levels[j], k) == p, (
                f"child {k} not in cell of {p} at level {j}"
            )


def theoretical_height(n: int, c: float) -> float:
    """§III.e: ``h = log_c((n + 1) / 2)`` for average children *c*."""
    if n < 1 or c <= 1:
        raise ValueError("need n >= 1 and c > 1")
    return float(np.log((n + 1) / 2.0) / np.log(c))


def bus_neighbours(bus: Sequence[int], ident: int) -> Tuple[Optional[int], Optional[int]]:
    """Left and right bus neighbours of *ident* (``None`` at endpoints)."""
    idx = bisect.bisect_left(bus, ident)
    if idx >= len(bus) or bus[idx] != ident:
        raise ValueError(f"{ident} not on the bus")
    left = bus[idx - 1] if idx > 0 else None
    right = bus[idx + 1] if idx < len(bus) - 1 else None
    return left, right


# ------------------------------------------------------------------- sim

class ConstantLatency(LatencyModel):
    """Every datagram takes exactly *value* seconds: the fixed latency
    tests pin delivery times and arrival order against."""

    def __init__(self, value: float = 0.01) -> None:
        if not value > 0:
            raise ValueError(f"latency must be > 0, got {value}")
        self.value = float(value)

    def sample(self, src: int, dst: int) -> float:
        return self.value


def on_delivery(network: Network, fn) -> None:
    """Call ``fn(dgram)`` for every datagram *network* delivers, through
    the engine's event hook: a :class:`Datagram` whose destination is up
    when it fires is exactly one that reaches its handler."""
    def hook(ev) -> None:
        if isinstance(ev, Datagram) and network.is_up(ev.dst):
            fn(ev)

    network.sim.set_event_hook(hook)


def _peek_time(queue) -> Optional[float]:
    """Time of the earliest live event, or ``None`` when empty (the
    queue's ``peek_time`` before the run loop popped the heap itself)."""
    heap = queue._heap
    while heap and heap[0][2].cancelled:
        heapq.heappop(heap)
    return heap[0][0] if heap else None


def _pop(queue):
    """Pop the earliest live event, or ``None`` (the queue's old ``pop``)."""
    heap = queue._heap
    while heap:
        ev = heapq.heappop(heap)[2]
        if ev.cancelled:
            continue
        queue._live -= 1
        ev._queue = None
        return ev
    return None


def _deliver(dgram: Datagram) -> None:
    """The fabric's old delivery routine, which a datagram's callback was,
    under the one-table contract: the payload type's entry in
    ``network.handlers``, else the destination's ``on_datagram``."""
    network = dgram.network
    if dgram.dst in network._down:
        network.stats.dropped_down += 1
        return
    network.stats.delivered += 1
    entry = network.handlers.get(type(dgram.payload))
    if entry is None:
        network._procs[dgram.dst].on_datagram(dgram)
    else:
        receivers, fn = entry
        fn(receivers[dgram.dst], dgram.src, dgram.payload)


def reference_run(sim, until: Optional[float] = None, done=None) -> int:
    """``Simulator.run`` as the peek/pop loop it was: the time of the next
    live event peeked, the event popped through a method, the clock and
    event count advanced per event, and a datagram handed to the fabric's
    delivery routine.  The one difference: the budget is checked before
    the pop, so a tripped budget loses no event.  The differential oracle
    for the inline loop (``tests/test_sim_one_loop.py``)."""
    from repro.sim.engine import SimulationError

    if until is not None and not until >= sim._now:
        raise ValueError(f"until must be a time >= now ({sim._now}), got {until}")
    if sim._running:
        raise SimulationError("simulator is not reentrant")
    sim._running = True
    queue, hook, budget, fired = sim._queue, sim._event_hook, sim.max_events, 0
    try:
        while done is None or not done():
            nxt = _peek_time(queue)
            if nxt is None or (until is not None and nxt > until):
                break
            if fired >= budget:
                raise SimulationError(
                    f"exceeded max_events={budget}; runaway periodic process?")
            ev = _pop(queue)
            sim._now = ev.time
            sim._event_count += 1
            if hook is not None:
                hook(ev)
            if isinstance(ev, Datagram):
                _deliver(ev)
            else:
                ev.fire()
            fired += 1
        else:
            return fired
    finally:
        sim._running = False
    if until is not None and sim._now < until:
        sim._now = until
    return fired


def heap_size(queue) -> int:
    """An :class:`~repro.sim.events.EventQueue`'s physical heap length,
    tombstones included (``len(queue)`` counts live events only)."""
    return len(queue._heap)


def live_timers(group) -> list:
    """The still-running timers of a :class:`~repro.sim.engine.TimerGroup`;
    none for ``None`` (a node that never armed one has no group)."""
    if group is None:
        return []
    return [t for t in group._timers if t.running]


# ------------------------------------------------------- tables, storage

def membership(table) -> int:
    """A routing table's membership epoch: it moves exactly when the set
    of known ids does."""
    return table._membership


@dataclass(slots=True)
class Entry:
    """What a node knows about one peer, as one record per table entry:
    the representation :class:`EntryTable` keeps."""

    ident: int
    max_level: int = 0
    score: float = 1.0
    nc: int = 4
    last_seen: float = 0.0

    def touch(self, now: float) -> None:
        if now > self.last_seen:
            self.last_seen = now

    def as_tuple(self) -> Tuple[int, int, float, int, float]:
        return (self.ident, self.max_level, self.score, self.nc, self.last_seen)


def entry(table, ident: int) -> Optional[Entry]:
    """*ident*'s entry in *table* as an :class:`Entry` (a copy: writing it
    changes nothing), or ``None`` if the table does not know *ident*."""
    if isinstance(table, EntryTable):
        e = table._entries.get(ident)
        return None if e is None else Entry(*e.as_tuple())
    meta = table.meta(ident)
    return None if meta is None else Entry(ident, *meta, table._entries[ident])


def entries(table) -> List[Tuple[int, int, float, int, float]]:
    """Every entry of *table* as ``(id, max_level, score, nc, last_seen)``,
    in entry order."""
    return [entry(table, i).as_tuple() for i in table.all_known()]


class EntryTable(RoutingTable):
    """The routing table as it was before entries became timestamps: one
    :class:`Entry` per known peer, holding the peer's metadata; a book it
    is built with is read only by ``install``.  The role-set methods are
    the table's own; every method that reads or writes an entry is the old
    code, so a test can run one op sequence on both and compare every
    read."""

    __slots__ = ()

    def meta(self, ident: int) -> Optional[Meta]:
        e = self._entries.get(ident)
        return None if e is None else (e.max_level, e.score, e.nc)

    def upsert(self, ident, now, max_level=None, score=None, nc=None) -> None:
        if ident == self.owner:
            raise ValueError("a node never stores itself in its routing table")
        e = self._entries.get(ident)
        if e is None:
            e = Entry(ident=ident, last_seen=now)
            self._entries[ident] = e
            self._membership += 1
        e.touch(now)
        if max_level is not None and max_level != e.max_level:
            self._version += 1
            e.max_level = max_level
        if score is not None:
            e.score = score
        if nc is not None:
            e.nc = nc

    def refresh(self, ident, now, meta=None) -> None:
        self.upsert(ident, now, *(meta or self._book[ident]))

    def overrides(self) -> Dict[int, Meta]:
        # No book to differ from: every entry's metadata, copied.
        return {i: (e.max_level, e.score, e.nc) for i, e in self._entries.items()}

    def import_role(self, ids: Iterable[int], now: float, theirs: Dict[int, Meta],
                    role: Set[int]) -> None:
        entries, owner = self._entries, self.owner
        for i in ids:
            if i == owner:
                continue
            level, score, nc = theirs.get(i) or (None, None, None)
            e = entries.get(i)
            if e is None:
                e = entries[i] = Entry(i, last_seen=now)
                self._membership += 1
            elif now > e.last_seen:
                e.last_seen = now
            if level is not None:
                if level != e.max_level:
                    self._version += 1
                e.max_level, e.score, e.nc = level, score, nc
            role.add(i)

    def touch(self, ident: int, now: float) -> None:
        e = self._entries.get(ident)
        if e is not None:
            e.touch(now)

    def install(self, now: float, level0, buses, own_children,
                neighbour_children, parents, superiors) -> None:
        # The entries as the old install wrote them, from the book the
        # table was built with (the only read of it); the roles as the
        # table's own install writes them, from the same plan.
        order = list(level0)
        for ids in buses:
            order += ids
        for own, nbc in zip(own_children, neighbour_children):
            order += own + nbc
        order += parents.values()
        order += superiors
        entries: Dict[int, Entry] = {}
        for i in dict.fromkeys(order):
            if i != self.owner:
                entries[i] = Entry(i, *self._book[i], now)
        super().install(now, level0, buses, own_children, neighbour_children,
                        parents, superiors)
        self._entries, self._meta = entries, _NO_META

    def expire(self, now: float, entry_ttl: float) -> List[int]:
        stale = [i for i, e in self._entries.items() if now - e.last_seen > entry_ttl]
        for ident in stale:
            self.forget(ident)
        return stale

    def delta_since(self, since: float) -> List[Tuple[int, int, float, int, float]]:
        return [e.as_tuple() for e in self._entries.values() if e.last_seen > since]

    def merge_delta(self, tuples, now: float) -> int:
        n = 0
        for ident, max_level, score, nc, last_seen in tuples:
            if ident == self.owner:
                continue
            e = self._entries.get(ident)
            if e is None or last_seen > e.last_seen:
                self.upsert(ident, min(last_seen, now), max_level=max_level,
                            score=score, nc=nc)
                n += 1
        return n


# ---------------------------------------------------------------- repair

def nearest_sides(ids: Iterable[int], around: int) -> Tuple[Optional[int], Optional[int]]:
    """Nearest of *ids* strictly below and strictly above *around*."""
    left: Optional[int] = None
    right: Optional[int] = None
    for i in ids:
        if i < around and (left is None or i > left):
            left = i
        elif i > around and (right is None or i < right):
            right = i
    return left, right


def relink_node(node, policy) -> None:
    """The converged relink as it was before it became one sorted walk:
    one full scan of the table for level 0's nearest sides, one more per
    bus level over the peers at or above it, the endpoint's second link
    from a sort by distance.  :func:`repro.core.repair.relink_node` must
    leave every table as this does."""
    t = node.table
    ident = node.ident

    if policy.relink:
        left, right = nearest_sides(t.all_known(), ident)
        t.set_role("level0", {i for i in (left, right) if i is not None})
        # Keep the paper's minimum-two-connections rule at bus endpoints.
        if len(t.level0) < 2:
            same_side = sorted(
                (i for i in t.all_known() if i not in t.level0),
                key=lambda i: abs(i - ident),
            )
            for i in same_side[: 2 - len(t.level0)]:
                t.link("level0", i)

        for lvl in range(1, node.max_level + 1):
            l, r = nearest_sides(t.at_or_above(lvl), ident)
            t.set_level(lvl, {i for i in (l, r) if i is not None})

    if policy.adopt_parents:
        want_level = node.max_level + 1
        if t.parents.get(want_level) is None:
            ups = t.at_or_above(want_level)
            if ups:
                new_parent = min(ups, key=lambda i: abs(i - ident))
                t.set_parent(want_level, new_parent, node.sim.now)


def live_replica_count(store, key_id: int) -> int:
    """Live copies of *key_id* across a
    :class:`~repro.storage.quorum.ReplicatedStore`."""
    return len(store.replica_map(live_only=True).get(key_id, ()))
