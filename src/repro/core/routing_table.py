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

A table allocates only the roles it holds: every unwritten role set is the
one shared, immutable :data:`_NO_ROLE` and an unwritten ``level_tables`` the
shared :data:`_NO_LEVELS`, until the first write through a table method (or
a rebinding) installs the table's own container.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple


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


class _Epochs:
    """One table's two change counters, shared by the table and its role
    containers so that a bump is a plain slot store — not a trip through
    ``RoutingTable.__setattr__``, whose job is guarding role *rebinding*.
    """

    __slots__ = ("version", "membership")

    def __init__(self) -> None:
        self.version = 0
        self.membership = 0


class _RoleSet(set):
    """A ``set`` that bumps its owning table's :attr:`RoutingTable.version`
    on every *effective* mutation.

    The role sets are mutated directly all over the protocol engine
    (``table.level0.discard(...)``, ``table.children.discard(...)`` …), so
    versioning must live in the container rather than in ``RoutingTable``
    methods — otherwise any direct mutation would silently invalidate the
    candidate views the router keeps per version (see
    :func:`repro.core.lookup._candidate_view`).
    """

    __slots__ = ("_epochs",)

    def __init__(self, epochs: _Epochs, iterable: Iterable[int] = ()) -> None:
        super().__init__(iterable)
        self._epochs = epochs

    # -- effective mutations bump; no-op mutations don't --------------------
    def add(self, item: int) -> None:
        if item not in self:
            self._epochs.version += 1
            set.add(self, item)

    def discard(self, item: int) -> None:
        if item in self:
            self._epochs.version += 1
            set.discard(self, item)

    def remove(self, item: int) -> None:
        self._epochs.version += 1
        set.remove(self, item)

    def pop(self) -> int:
        self._epochs.version += 1
        return set.pop(self)

    def clear(self) -> None:
        if self:
            self._epochs.version += 1
        set.clear(self)

    # -- bulk mutations bump unconditionally (over-invalidation is safe) ----
    def update(self, *others) -> None:
        self._epochs.version += 1
        set.update(self, *others)

    def __ior__(self, other):
        self._epochs.version += 1
        return set.__ior__(self, other)

    def difference_update(self, *others) -> None:
        self._epochs.version += 1
        set.difference_update(self, *others)

    def __isub__(self, other):
        self._epochs.version += 1
        return set.__isub__(self, other)

    def intersection_update(self, *others) -> None:
        self._epochs.version += 1
        set.intersection_update(self, *others)

    def __iand__(self, other):
        self._epochs.version += 1
        return set.__iand__(self, other)

    def symmetric_difference_update(self, other) -> None:
        self._epochs.version += 1
        set.symmetric_difference_update(self, other)

    def __ixor__(self, other):
        self._epochs.version += 1
        return set.__ixor__(self, other)


class _EmptyRole(frozenset):
    """The type of :data:`_NO_ROLE`: an empty role set that cannot be written.

    Reads (``in``, ``len``, iteration, set algebra) are frozenset's own;
    ``add`` and every other mutator raise ``AttributeError``, so a write
    that bypasses the table's install step fails instead of landing in
    state every table shares.  ``discard`` stays: on an empty set it is
    always the no-op it would be on a private one.
    """

    __slots__ = ()

    def discard(self, item: int) -> None:
        pass


#: Every unwritten role set of every table.
_NO_ROLE = _EmptyRole()


class EmptyMap(dict):
    """An empty ``dict`` that cannot be written: the shared default of a
    per-owner map its owner installs on first write (``level_tables`` here,
    a node's service handlers).  Reads are dict's own, at dict's speed, and
    ``pop`` with a default is a no-op; any write raises ``TypeError``, so
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


#: Every unwritten ``level_tables`` of every table.
_NO_LEVELS = EmptyMap()


class _LevelTables(dict):
    """``level -> _RoleSet`` mapping that keeps assignments versioned.

    The repair policies install whole fresh buses at once
    (``table.level_tables[lvl] = {...}``); wrapping the assigned set keeps
    later in-place mutations versioned too.
    """

    __slots__ = ("_epochs",)

    def __init__(self, epochs: _Epochs) -> None:
        super().__init__()
        self._epochs = epochs

    def __setitem__(self, level: int, ids: Iterable[int]) -> None:
        self._epochs.version += 1
        dict.__setitem__(self, level, _RoleSet(self._epochs, ids))

    def setdefault(self, level: int, default: Iterable[int] = ()) -> "_RoleSet":
        got = dict.get(self, level)
        if got is None:
            got = _RoleSet(self._epochs, default)
            self._epochs.version += 1
            dict.__setitem__(self, level, got)
        return got

    def __delitem__(self, level: int) -> None:
        if level in self:
            self._epochs.version += 1
        dict.__delitem__(self, level)

    def pop(self, level: int, *default):
        if level in self:
            self._epochs.version += 1
        return dict.pop(self, level, *default)

    def clear(self) -> None:
        if self:
            self._epochs.version += 1
        dict.clear(self)

    def update(self, *args, **kwargs) -> None:
        for mapping in (*args, kwargs):
            items = mapping.items() if hasattr(mapping, "items") else mapping
            for level, ids in items:
                self[level] = ids


class _ParentMap(dict):
    """``level -> parent id`` mapping with versioned writes."""

    __slots__ = ("_epochs",)

    def __init__(self, epochs: _Epochs) -> None:
        super().__init__()
        self._epochs = epochs

    def __setitem__(self, level: int, ident: int) -> None:
        if dict.get(self, level) != ident:
            self._epochs.version += 1
        dict.__setitem__(self, level, ident)

    def __delitem__(self, level: int) -> None:
        if level in self:
            self._epochs.version += 1
        dict.__delitem__(self, level)

    def pop(self, level: int, *default):
        if level in self:
            self._epochs.version += 1
        return dict.pop(self, level, *default)

    def clear(self) -> None:
        if self:
            self._epochs.version += 1
        dict.clear(self)

    def update(self, *args, **kwargs) -> None:
        self._epochs.version += 1
        dict.update(self, *args, **kwargs)

    def setdefault(self, level: int, default: int = None):  # pragma: no cover
        if level not in self:
            self._epochs.version += 1
        return dict.setdefault(self, level, default)


class RoutingTable:
    """All routing state of one TreeP node.

    The table never stores the owning node itself.  Mutators are idempotent;
    `expire` is the only method that removes entries besides explicit
    `forget`.

    Two change counters for two kinds of derived view: :attr:`version` moves
    when a *role* set or a peer's level changes (the router's candidate
    views key on it), not when a role-less entry comes or goes;
    :attr:`membership` moves exactly when the set of known ids does
    (:meth:`sorted_ids` keys on it), whatever their roles.
    """

    __slots__ = (
        "owner", "_entries", "_epochs", "_sorted_ids", "_view_full", "_view_l0",
        "level0", "level0_indirect", "level_tables", "children",
        "neighbour_children", "parents", "superiors",
    )

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._entries: Dict[int, Entry] = {}
        epochs = self._epochs = _Epochs()
        self._sorted_ids: Tuple[int, Sequence[int]] = (-1, ())
        #: The router's candidate view of this table, one per variant (whole
        #: table / ``Search_Level_Zero``), stamped with the version it was
        #: built at — owned by :func:`repro.core.lookup._candidate_view`.
        self._view_full = None
        self._view_l0 = None
        #: parent at each level this node belongs to (tables 4 + per-level).
        self.parents: Dict[int, int] = _ParentMap(epochs)
        # The lazy roles start as the shared sentinels, stored past
        # ``__setattr__`` (which would count a rebinding).
        unwritten = object.__setattr__
        #: level-0 neighbours (table 1).
        unwritten(self, "level0", _NO_ROLE)
        #: indirect level-0 knowledge — neighbours of neighbours, the
        #: replication that lets a node relink when a direct link dies.
        unwritten(self, "level0_indirect", _NO_ROLE)
        #: per-level bus neighbourhood (table 2): level -> ids.
        unwritten(self, "level_tables", _NO_LEVELS)
        #: own children (table 3, first half).
        unwritten(self, "children", _NO_ROLE)
        #: children of direct bus neighbours (table 3, second half).
        unwritten(self, "neighbour_children", _NO_ROLE)
        #: ancestors + parent's direct neighbours (table 5).
        unwritten(self, "superiors", _NO_ROLE)

    @property
    def version(self) -> int:
        """Role-membership version (bumps on any add/remove in any table):
        any two reads that agree saw the same role sets and peer levels."""
        return self._epochs.version

    @property
    def membership(self) -> int:
        """Membership epoch: moves exactly when the set of known ids does."""
        return self._epochs.membership

    def sorted_ids(self) -> Sequence[int]:
        """Every known id, ascending — the table as the 1-D space sees it.
        Memoised per :attr:`membership` epoch and rebuilt lazily (tables
        nobody key-routes through never pay); callers must not mutate it."""
        epoch, ids = self._sorted_ids
        membership = self._epochs.membership
        if epoch != membership:
            ids = sorted(self._entries)
            self._sorted_ids = (membership, ids)
        return ids

    #: Role attributes whose rebinding must stay versioned (the repair
    #: policies rebuild whole roles by assignment: ``t.superiors = fresh``).
    _WRAPPED_ROLES = frozenset((
        "level0", "level0_indirect", "children", "neighbour_children",
        "superiors"))

    def __setattr__(self, name: str, value: Any) -> None:
        if name in RoutingTable._WRAPPED_ROLES and not isinstance(value, _RoleSet):
            self._epochs.version += 1
            value = _RoleSet(self._epochs, value) or _NO_ROLE
        elif name == "level_tables" and not isinstance(value, _LevelTables):
            wrapped = _LevelTables(self._epochs)
            wrapped.update(value)
            self._epochs.version += 1
            value = wrapped or _NO_LEVELS
        elif name == "parents" and not isinstance(value, _ParentMap):
            wrapped = _ParentMap(self._epochs)
            dict.update(wrapped, value)
            self._epochs.version += 1
            value = wrapped
        object.__setattr__(self, name, value)

    def _own(self, role: str) -> _RoleSet:
        """The table's own container for *role*, installed on its first
        write; the installation itself bumps nothing."""
        own = getattr(self, role)
        if own is _NO_ROLE:
            own = _RoleSet(self._epochs)
            object.__setattr__(self, role, own)
        return own

    def _own_levels(self) -> _LevelTables:
        """:meth:`_own` for ``level_tables``."""
        levels = self.level_tables
        if levels is _NO_LEVELS:
            levels = _LevelTables(self._epochs)
            object.__setattr__(self, "level_tables", levels)
        return levels

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
            self._epochs.membership += 1
        e.touch(now)
        if max_level is not None and max_level != e.max_level:
            # The router's candidate views key on the version and memoise
            # each peer's level — a level change via gossip/keep-alive
            # metadata must invalidate them exactly like a role change.
            self._epochs.version += 1
            e.max_level = max_level
        if score is not None:
            e.score = score
        if nc is not None:
            e.nc = nc
        return e

    def import_role(self, ids: Iterable[int], now: float,
                    meta: Dict[int, Tuple[int, float, int]], role: Set[int]) -> None:
        """Bulk gossip import: ``upsert(i, now, *meta.get(i, ()))`` then
        ``role.add(i)`` for every id but the owner, in iteration order.
        *meta* is the sender's :meth:`peer_meta`; *role* a fresh set the
        caller installs wholesale (the set it replaces is never touched)."""
        entries, epochs, owner = self._entries, self._epochs, self.owner
        for i in ids:
            if i == owner:
                continue
            e = entries.get(i)
            if e is None:
                e = entries[i] = Entry(i, last_seen=now)
                epochs.membership += 1
            elif now > e.last_seen:
                e.last_seen = now
            m = meta.get(i)
            if m is not None:
                if m[0] != e.max_level:
                    epochs.version += 1  # as in upsert: views memoise levels
                e.max_level, e.score, e.nc = m
            role.add(i)

    def peer_meta(self) -> Dict[int, Tuple[int, float, int]]:
        """``{id: (max_level, score, nc)}`` for every entry, in entry order —
        what a gossip exchange tells the receiver about the peers it names."""
        return {i: (e.max_level, e.score, e.nc) for i, e in self._entries.items()}

    def get(self, ident: int) -> Optional[Entry]:
        return self._entries.get(ident)

    def knows(self, ident: int) -> bool:
        """§III.f Fig. 3: "target X is in the routing table"."""
        return ident in self._entries

    def touch(self, ident: int, now: float) -> None:
        e = self._entries.get(ident)
        if e is not None:
            e.touch(now)

    def forget(self, ident: int) -> None:
        """Drop *ident* from every table (e.g. a detected-dead peer)."""
        if self._entries.pop(ident, None) is not None:
            self._epochs.membership += 1
        self.level0.discard(ident)
        self.level0_indirect.discard(ident)
        for ids in self.level_tables.values():
            ids.discard(ident)
        self.children.discard(ident)
        self.neighbour_children.discard(ident)
        self.superiors.discard(ident)
        for lvl in [l for l, p in self.parents.items() if p == ident]:
            del self.parents[lvl]

    # ------------------------------------------------------------ role sets
    def add_level0(self, ident: int, now: float, max_level: Optional[int] = None,
                   score: Optional[float] = None, nc: Optional[int] = None) -> None:
        self.upsert(ident, now, max_level, score, nc)
        self._own("level0").add(ident)

    def add_level0_indirect(self, ident: int, now: float, max_level: Optional[int] = None,
                            score: Optional[float] = None, nc: Optional[int] = None) -> None:
        self.upsert(ident, now, max_level, score, nc)
        self._own("level0_indirect").add(ident)

    def add_level(self, level: int, ident: int, now: float,
                  max_level: Optional[int] = None, score: Optional[float] = None,
                  nc: Optional[int] = None) -> None:
        if level <= 0:
            raise ValueError("use add_level0 for level 0")
        self.upsert(ident, now, max_level, score, nc)
        self._own_levels().setdefault(level).add(ident)

    def set_level(self, level: int, ids: Iterable[int]) -> None:
        """Install *ids* as the whole level-*level* bus (a repair rebuild),
        replacing whatever the table held there."""
        if level <= 0:
            raise ValueError("use the level0 role for level 0")
        self._own_levels()[level] = ids

    def add_child(self, ident: int, now: float, max_level: Optional[int] = None,
                  score: Optional[float] = None, nc: Optional[int] = None) -> None:
        self.upsert(ident, now, max_level, score, nc)
        self._own("children").add(ident)

    def add_neighbour_child(self, ident: int, now: float, max_level: Optional[int] = None,
                            score: Optional[float] = None, nc: Optional[int] = None) -> None:
        self.upsert(ident, now, max_level, score, nc)
        self._own("neighbour_children").add(ident)

    def set_parent(self, level: int, ident: int, now: float,
                   max_level: Optional[int] = None, score: Optional[float] = None,
                   nc: Optional[int] = None) -> None:
        """Record *ident* as the parent seen from level ``level - 1``."""
        if level <= 0:
            raise ValueError("parents exist at level >= 1")
        self.upsert(ident, now, max_level, score, nc)
        self.parents[level] = ident

    def add_superior(self, ident: int, now: float, max_level: Optional[int] = None,
                     score: Optional[float] = None, nc: Optional[int] = None) -> None:
        self.upsert(ident, now, max_level, score, nc)
        self._own("superiors").add(ident)

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

    def all_known(self) -> List[int]:
        return list(self._entries)

    def candidates(self) -> List[Entry]:
        """Every peer usable as a next hop, deduplicated."""
        return list(self._entries.values())

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

    def roles_of(self, ident: int) -> Set[str]:
        """Role tags *ident* currently holds in this table (diagnostics)."""
        roles: Set[str] = set()
        if ident in self.level0:
            roles.add("level0")
        if ident in self.level0_indirect:
            roles.add("level0-indirect")
        for lvl, ids in self.level_tables.items():
            if ident in ids:
                roles.add(f"level{lvl}")
        if ident in self.children:
            roles.add("child")
        if ident in self.neighbour_children:
            roles.add("neighbour-child")
        if ident in self.parents.values():
            roles.add("parent")
        if ident in self.superiors:
            roles.add("superior")
        return roles

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
            self._epochs.membership += 1
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
