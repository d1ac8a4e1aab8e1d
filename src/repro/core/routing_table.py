"""The per-node routing state: the six tables of §III.c.

Every entry is a ``(ID, IP, Port)`` tuple in the paper; here the overlay ID
doubles as the network address, so an entry is an ID plus *peer metadata*
(maximum level, capacity score, children bound) and a **timestamp**.  Per
§III.c, the timestamp is reset on every active communication with the peer
and the entry is deleted after expiry.

The six tables:

1. **level-0 table** — level-0 neighbours (every node has one).
2. **level-i tables** (``i > 0``) — direct and indirect (neighbour-of-
   neighbour) peers on the node's level-``i`` bus, plus the level-``i``
   parents of its level-0 neighbours.
3. **children table** — own children plus the children of direct bus
   neighbours (parents only).
4. **level-1 parent** — every node has one.
5. **superior node list** — ancestors (Figure 2's red chain) and the direct
   neighbours of the immediate parent; cheap replication for robustness.

(The paper counts the per-level parents as the sixth table; here parents at
every level the node belongs to live in :attr:`RoutingTable.parents`.)

One shared :class:`Entry` store backs all tables so a keep-alive from a peer
refreshes every role it appears under at once.

The table's methods are the only writers of role state; everything else
reads the plain containers.  A table allocates only the roles it holds:
every unwritten role set is the one shared, immutable :data:`_NO_ROLE` and
every unwritten per-level map the shared :data:`_NO_LEVELS`, until the first
write through a table method installs the table's own container.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import (Any, Dict, Iterable, KeysView, List, Optional, Sequence, Set,
                    Tuple, ValuesView)


@dataclass(slots=True)
class Entry:
    """What a node knows about one peer."""

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


#: Every unwritten role set of every table: reads are frozenset's own, and a
#: write that bypasses the table (``t.children.add(x)``) raises
#: ``AttributeError`` instead of landing in state every table shares.
_NO_ROLE = frozenset()


class EmptyMap(dict):
    """An empty ``dict`` that cannot be written: the shared default of a
    per-owner map its owner installs on first write (a table's per-level
    maps, a node's service handlers).  Reads are dict's own, at dict's speed,
    and ``pop`` with a default is a no-op; any write raises ``TypeError``, so
    one that bypasses the owner cannot land in state every owner shares."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a shared empty default is read-only; "
                        "write through the owner that installs its own map")

    __setitem__ = __delitem__ = __ior__ = setdefault = update = clear = popitem = _read_only

    def pop(self, key: Any, *default):
        if default:
            return default[0]
        raise KeyError(key)


#: Every unwritten ``level_tables`` and ``level_children`` of every table.
_NO_LEVELS = EmptyMap()

#: What a gossip round overwrote, as the round found it: table owner ->
#: ``{id: (max_level, score, nc)}`` for each entry whose metadata the round
#: changed, recorded at the first change — so a peer that reads the table in
#: place later in the round still reads its pre-round metadata.
Preimages = Dict[int, Dict[int, Tuple[int, float, int]]]


class RoutingTable:
    """All routing state of one TreeP node.

    The table never stores the owning node itself.  Mutators are idempotent;
    `expire` is the only method that removes entries besides explicit
    `forget`.

    The table's methods are the only writers of its role state (the role
    sets, ``level_tables``, ``level_children`` and ``parents`` are plain
    containers, read directly), so they alone keep the two change counters,
    one for each kind of derived view: :attr:`version` moves on every
    effective role or parent change and when a peer's level changes (the
    router's candidate views key on it), not when a role-less entry comes or
    goes, nor when only ``level_children`` does;
    the membership epoch ``_membership`` moves exactly when the set of
    known ids does (:meth:`sorted_ids` keys on it), whatever their roles.
    """

    __slots__ = (
        "owner", "_entries", "_version", "_membership", "_sorted_ids",
        "_view_full", "_view_l0",
        "level0", "level0_indirect", "level_tables", "level_children",
        "children", "neighbour_children", "parents", "superiors",
    )

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._entries: Dict[int, Entry] = {}
        self._version = 0
        self._membership = 0
        self._sorted_ids: Tuple[int, Sequence[int]] = (-1, ())
        #: The router's candidate view of this table, one per variant (whole
        #: table / ``Search_Level_Zero``), stamped with the version it was
        #: built at — owned by :func:`repro.core.lookup._candidate_view`.
        self._view_full = None
        self._view_l0 = None
        #: parent at each level this node belongs to (tables 4 + per-level).
        self.parents: Dict[int, int] = {}
        #: level-0 neighbours (table 1).
        self.level0: Set[int] = _NO_ROLE
        #: indirect level-0 knowledge — neighbours of neighbours, the
        #: replication that lets a node relink when a direct link dies.
        self.level0_indirect: Set[int] = _NO_ROLE
        #: per-level bus neighbourhood (table 2): level -> ids.
        self.level_tables: Dict[int, Set[int]] = _NO_LEVELS
        #: own children per level this node parents (table 3, first half):
        #: level -> ascending ids.  A level stays listed while childless.
        self.level_children: Dict[int, List[int]] = _NO_LEVELS
        #: every id of ``level_children``, as one set: the router's read.
        self.children: Set[int] = _NO_ROLE
        #: children of direct bus neighbours (table 3, second half).
        self.neighbour_children: Set[int] = _NO_ROLE
        #: ancestors + parent's direct neighbours (table 5).
        self.superiors: Set[int] = _NO_ROLE

    @property
    def version(self) -> int:
        """Role-membership version (bumps on any add/remove in any table):
        any two reads that agree saw the same role sets and peer levels."""
        return self._version

    def sorted_ids(self) -> Sequence[int]:
        """Every known id, ascending — the table as the 1-D space sees it.
        Memoised per membership epoch and rebuilt lazily (tables
        nobody key-routes through never pay); callers must not mutate it."""
        epoch, ids = self._sorted_ids
        membership = self._membership
        if epoch != membership:
            ids = sorted(self._entries)
            self._sorted_ids = (membership, ids)
        return ids

    # ----------------------------------------------------------- entry CRUD
    def upsert(
        self,
        ident: int,
        now: float,
        max_level: Optional[int] = None,
        score: Optional[float] = None,
        nc: Optional[int] = None,
    ) -> Entry:
        """Create or refresh the metadata entry for *ident*."""
        if ident == self.owner:
            raise ValueError("a node never stores itself in its routing table")
        e = self._entries.get(ident)
        if e is None:
            e = Entry(ident=ident, last_seen=now)
            self._entries[ident] = e
            self._membership += 1
        e.touch(now)
        if max_level is not None and max_level != e.max_level:
            # The router's candidate views key on the version and memoise
            # each peer's level — a level change via gossip/keep-alive
            # metadata must invalidate them exactly like a role change.
            self._version += 1
            e.max_level = max_level
        if score is not None:
            e.score = score
        if nc is not None:
            e.nc = nc
        return e

    def import_role(self, ids: Iterable[int], now: float, sender: RoutingTable,
                    role: Set[int], before: Preimages) -> None:
        """Bulk gossip import: ``upsert(i, now, *m)`` then ``role.add(i)``
        for every id but the owner, in iteration order.  *m* is the
        *sender*'s metadata for *i* as the round found it: its pre-image in
        the round's :data:`Preimages` *before* if the round changed it, else
        the sender's entry, read in place, else none.  (A role names only
        ids its table holds entries for, so an entry the sender gained
        during the round is never asked for.)  *role* is a fresh set the
        caller installs wholesale (the set it replaces is never touched).
        The first change this call makes to an entry the table already held
        is recorded in *before* for the readers after it."""
        entries, owner = self._entries, self.owner
        sent, held = sender._entries, before.get(sender.owner)
        mine = before.get(owner)
        for i in ids:
            if i == owner:
                continue
            s = sent.get(i)
            if held is not None and i in held:
                level, score, nc = held[i]
            elif s is not None:
                level, score, nc = s.max_level, s.score, s.nc
            else:
                level = None
            e = entries.get(i)
            if e is None:
                e = entries[i] = Entry(i, last_seen=now)
                self._membership += 1
            else:
                if now > e.last_seen:
                    e.last_seen = now
                if level is not None and (level != e.max_level or score != e.score
                                          or nc != e.nc):
                    if mine is None:
                        mine = before[owner] = {}
                    mine.setdefault(i, (e.max_level, e.score, e.nc))
            if level is not None:
                if level != e.max_level:
                    self._version += 1  # as in upsert: views memoise levels
                e.max_level, e.score, e.nc = level, score, nc
            role.add(i)

    def refresh(self, ident: int, now: float, meta: Tuple[int, float, int],
                before: Preimages) -> None:
        """``upsert(ident, now, *meta)`` inside a gossip round: a change to
        the metadata of an entry the table held first records the old value
        in the round's :data:`Preimages` *before*, as :meth:`import_role` does."""
        e = self._entries.get(ident)
        if e is not None:
            old = (e.max_level, e.score, e.nc)
            if old != meta:
                before.setdefault(self.owner, {}).setdefault(ident, old)
        self.upsert(ident, now, *meta)

    def get(self, ident: int) -> Optional[Entry]:
        return self._entries.get(ident)

    def touch(self, ident: int, now: float) -> None:
        e = self._entries.get(ident)
        if e is not None:
            e.touch(now)

    def forget(self, ident: int) -> None:
        """Drop *ident* from every table (e.g. a detected-dead peer)."""
        if self._entries.pop(ident, None) is not None:
            self._membership += 1
        for ids in (self.level0, self.level0_indirect,
                    self.neighbour_children, self.superiors,
                    *self.level_tables.values()):
            if ident in ids:
                ids.discard(ident)
                self._version += 1
        self.unlink_child(ident)
        for lvl in [l for l, p in self.parents.items() if p == ident]:
            self.drop_parent(lvl)

    # ------------------------------------------------------------ role sets
    # The only writers of role state: each makes the version bump its write
    # calls for, so a read of ``version`` is a read of every role at once.

    def link(self, role: str, ident: int) -> None:
        """Add *ident* to the *role* set, installing the table's own set on
        the role's first write (the installation itself bumps nothing)."""
        ids = getattr(self, role)
        if ident not in ids:
            if type(ids) is frozenset:  # unwritten (or a deep copy of it)
                ids = set()
                setattr(self, role, ids)
            ids.add(ident)
            self._version += 1

    def unlink(self, role: str, ident: int) -> None:
        """Remove *ident* from the *role* set, if it is there."""
        ids = getattr(self, role)
        if ident in ids:
            ids.discard(ident)
            self._version += 1

    def set_role(self, role: str, ids: Iterable[int]) -> None:
        """Install *ids* as the whole *role* set (a repair rebuild), replacing
        whatever the table held there: one bump, whatever changed; an empty
        result leaves the role unwritten again."""
        self._version += 1
        setattr(self, role, set(ids) or _NO_ROLE)

    def add(self, role: str, ident: int, now: float,
            max_level: Optional[int] = None, score: Optional[float] = None,
            nc: Optional[int] = None) -> None:
        """Create or refresh *ident*'s entry and add it to the *role* set
        (``level0``, ``level0_indirect``, ``neighbour_children`` or
        ``superiors``)."""
        self.upsert(ident, now, max_level, score, nc)
        self.link(role, ident)

    def add_level(self, level: int, ident: int, now: float,
                  max_level: Optional[int] = None, score: Optional[float] = None,
                  nc: Optional[int] = None) -> None:
        if level <= 0:
            raise ValueError("use add('level0', ...) for level 0")
        self.upsert(ident, now, max_level, score, nc)
        if level not in self.level_tables:
            self.set_level(level, ())  # opening a bus is a write of its own
        bus = self.level_tables[level]
        if ident not in bus:
            bus.add(ident)
            self._version += 1

    def set_level(self, level: int, ids: Iterable[int]) -> None:
        """Install *ids* as the whole level-*level* bus (a repair rebuild),
        replacing whatever the table held there: one bump."""
        if level <= 0:
            raise ValueError("use the level0 role for level 0")
        levels = self.level_tables
        if type(levels) is EmptyMap:  # unwritten (or a deep copy of it)
            levels = self.level_tables = {}
        levels[level] = set(ids)
        self._version += 1

    def unlink_level(self, level: int, ident: int) -> None:
        """Remove *ident* from the level-*level* bus, if it is there."""
        bus = self.level_tables.get(level)
        if bus is not None and ident in bus:
            bus.discard(ident)
            self._version += 1

    def drop_level(self, level: int) -> None:
        """Leave the level-*level* bus: one bump if the table held it."""
        if level in self.level_tables:
            del self.level_tables[level]
            self._version += 1

    def open_children(self, level: int) -> None:
        """List level *level* as one this node parents, even while it has
        no children (the build opens every level the node holds)."""
        levels = self.level_children
        if type(levels) is EmptyMap:  # unwritten (or a deep copy of it)
            levels = self.level_children = {}
        levels.setdefault(level, [])

    def add_child(self, level: int, ident: int, now: float,
                  max_level: Optional[int] = None, score: Optional[float] = None,
                  nc: Optional[int] = None) -> None:
        """Record *ident* as an own child at level *level*."""
        self.upsert(ident, now, max_level, score, nc)
        self.open_children(level)
        kids = self.level_children[level]
        if ident not in kids:
            insort(kids, ident)
        self.link("children", ident)

    def unlink_child(self, ident: int) -> None:
        """Drop *ident* from the children at every level."""
        for kids in self.level_children.values():
            if ident in kids:
                kids.remove(ident)
        self.unlink("children", ident)

    def drop_children(self, level: int) -> List[int]:
        """Stop parenting at level *level*; return its children, ascending.
        A child that no other level lists leaves ``children`` too."""
        kids = self.level_children.pop(level, [])
        for k in kids:
            if not any(k in others for others in self.level_children.values()):
                self.unlink("children", k)
        return kids

    def set_parent(self, level: int, ident: int, now: float,
                   max_level: Optional[int] = None, score: Optional[float] = None,
                   nc: Optional[int] = None) -> None:
        """Record *ident* as the parent seen from level ``level - 1``."""
        if level <= 0:
            raise ValueError("parents exist at level >= 1")
        self.upsert(ident, now, max_level, score, nc)
        if self.parents.get(level) != ident:
            self.parents[level] = ident
            self._version += 1

    def drop_parent(self, level: int) -> Optional[int]:
        """Forget the level-*level* parent; return it (``None`` if unset)."""
        old = self.parents.pop(level, None)
        if old is not None:
            self._version += 1
        return old

    def install(self, now: float, meta: Dict[int, Tuple[int, float, int]],
                level0: Sequence[int], buses: Sequence[Sequence[int]],
                own_children: Sequence[Sequence[int]],
                neighbour_children: Sequence[Sequence[int]],
                parent: Optional[int], superiors: Sequence[int]) -> None:
        """Write a node's whole build plan onto a table nothing has written.

        ``buses[j - 1]``, ``own_children[j - 1]`` and
        ``neighbour_children[j - 1]`` belong to level ``j``, for every level
        ``1..len(buses)`` the node holds; *parent* sits one level above.
        The result is exactly what these calls, in this order, each with
        ``now, *meta[id]``, would leave: ``add("level0", ·)`` for each of
        *level0*; ``add_level(j, ·)`` for each of every ``buses[j - 1]``;
        per level ``j``, ``open_children(j)``, ``add_child(j, ·)`` for each
        own child and ``add("neighbour_children", ·)`` for each neighbour
        child; ``set_parent(len(buses) + 1, parent)``; ``add("superiors",
        ·)`` for each of *superiors* — the same entries in the same order,
        every role set in the same iteration order, and the same
        ``version`` and membership epoch.
        """
        if self._membership or self._version:
            raise RuntimeError("install writes only a table nothing has written")
        order = list(level0)
        for ids in buses:
            order += ids
        for own, nbc in zip(own_children, neighbour_children):
            order += own
            order += nbc
        if parent is not None:
            order.append(parent)
        order += superiors
        known = dict.fromkeys(order)  # first appearance: the upserts' order
        if self.owner in known:
            raise ValueError("a node never stores itself in its routing table")
        entries = self._entries
        version = 0
        for i in known:
            level, score, nc = meta[i]
            entries[i] = Entry(i, level, score, nc, now)
            if level:  # upsert's level change from a new entry's 0
                version += 1
        # ``set(ids)`` adds in list order, so each set iterates as the
        # one-by-one ``link`` calls would have left it.
        if level0:
            self.level0 = ids = set(level0)
            version += len(ids)
        tables = {}
        for level, bus in enumerate(buses, 1):
            if bus:  # add_level opens a bus on its first id only
                tables[level] = ids = set(bus)
                version += 1 + len(ids)
        if tables:
            self.level_tables = tables
        if buses:
            self.level_children = {level: sorted(set(own))
                                   for level, own in enumerate(own_children, 1)}
        for role, lists in (("children", own_children),
                            ("neighbour_children", neighbour_children)):
            ids = {i for ids in lists for i in ids}
            if ids:
                setattr(self, role, ids)
                version += len(ids)
        if parent is not None:
            self.parents[len(buses) + 1] = parent
            version += 1
        if superiors:
            self.superiors = ids = set(superiors)
            version += len(ids)
        self._version = version
        self._membership = len(entries)

    # --------------------------------------------------------------- expiry
    def expire(self, now: float, entry_ttl: float) -> List[int]:
        """Delete entries not refreshed within *entry_ttl*; return their ids."""
        stale = [i for i, e in self._entries.items() if now - e.last_seen > entry_ttl]
        for ident in stale:
            self.forget(ident)
        return stale

    # -------------------------------------------------------------- queries
    def level1_parent(self) -> Optional[int]:
        return self.parents.get(1)

    def all_known(self) -> KeysView[int]:
        """Every known id, in entry order: a read-only view of the table,
        not a copy, so do not write the table while iterating it."""
        return self._entries.keys()

    def candidates(self) -> ValuesView[Entry]:
        """Every peer usable as a next hop, deduplicated, in entry order: a
        read-only view, as :meth:`all_known`."""
        return self._entries.values()

    def neighbours_at(self, level: int) -> Set[int]:
        if level == 0:
            return set(self.level0)
        return set(self.level_tables.get(level, ()))

    def size(self) -> int:
        """Total distinct entries — the quantity §III.e bounds."""
        return len(self._entries)

    def active_connections(self) -> Set[int]:
        """Peers with an actively maintained edge (§III.a/e).

        Level-0 neighbours, same-level bus neighbours, the per-level
        parents, and own children.  Superiors and neighbour-children are
        *replicated data*, not maintained edges.
        """
        out: Set[int] = set(self.level0)
        for ids in self.level_tables.values():
            out |= ids
        out |= set(self.parents.values())
        out |= self.children
        return out

    def trim_to_roles(self) -> int:
        """Expire every entry that no longer backs any table role.

        This is the bounded-knowledge rule of §III.c/e: the routing table
        holds the six categories and nothing else, so its size obeys the
        paper's formulas instead of accumulating gossip indefinitely.
        Returns the number of entries dropped.
        """
        keep: Set[int] = set(self.level0) | self.level0_indirect
        for ids in self.level_tables.values():
            keep |= ids
        keep |= self.children | self.neighbour_children
        keep |= set(self.parents.values())
        keep |= self.superiors
        drop = [i for i in self._entries if i not in keep]
        for i in drop:
            del self._entries[i]
        if drop:
            self._membership += 1
        return len(drop)

    # ---------------------------------------------------------------- delta
    def delta_since(self, since: float) -> List[Tuple[int, int, float, int, float]]:
        """Entries refreshed after *since* — §III.d's out-of-date-only sync."""
        return [e.as_tuple() for e in self._entries.values() if e.last_seen > since]

    def merge_delta(
        self, tuples: Iterable[Tuple[int, int, float, int, float]], now: float
    ) -> int:
        """Fold a peer's delta into the metadata store.

        Only metadata is merged — roles (neighbour/child/parent) are
        assigned by protocol logic, not gossip.  Returns entries updated.
        """
        n = 0
        for ident, max_level, score, nc, last_seen in tuples:
            if ident == self.owner:
                continue
            e = self._entries.get(ident)
            if e is None or last_seen > e.last_seen:
                e = self.upsert(ident, min(last_seen, now), max_level=max_level,
                                score=score, nc=nc)
                n += 1
        return n
