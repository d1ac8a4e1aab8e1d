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

An entry is an ID and a timestamp.  A peer's metadata is a property of the
peer, so a network keeps it once, in its **peer book** (``id -> (max_level,
score, nc)`` as of the peer's creation, shared by every table of the
network); a table holds only the metadata of its entries that differ from
the book.  A keep-alive from a peer refreshes every role it appears under at
once.  A gossip round reads a peer's metadata from the peer's
:meth:`RoutingTable.overrides` as the round began, else from the book.

The table's methods are the only writers of role state; everything else
reads the plain containers.  A table allocates only the roles it holds:
every unwritten role set is the one shared, immutable :data:`_NO_ROLE` and
every unwritten per-level map the shared :data:`_NO_LEVELS`, until the first
write through a table method installs the table's own container.  Equal
role state is one object too: siblings hold one superior list (table 5)
and one ``parents`` map, shared read-only (:class:`SharedIds`,
:class:`SharedMap`) from the build and from a repair's gossip round, and a
table copies a shared container only on its own first write to it.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, Iterable, KeysView, List, Mapping, Optional, Sequence, Set, Tuple

#: A peer's metadata: ``(max_level, score, nc)``.
Meta = Tuple[int, float, int]

#: The metadata of an entry created without any.
_UNKNOWN_META: Meta = (0, 1.0, 4)


class SharedIds(frozenset):
    """A role set several tables hold at once, read-only: the superior list
    siblings share.  It iterates as ``set(ids)`` would, for the *ids* it
    was made from, and :meth:`thaw` gives a table that writes the role its
    own set, which iterates, then and after the same writes, exactly as
    that unshared ``set(ids)`` would have.

    ``set(ids)`` adds a sequence's ids one by one but copies a set's table
    in one pass, and the two lay their ids out differently, so a plain
    ``set(shared)`` of one made from a sequence would not iterate as the
    table's own set used to: one made from a sequence keeps it in
    :attr:`adds` and thaws as ``set(adds)``; one made from a set (a gossip
    round's) thaws as ``set(self)``, a slot-for-slot copy of a copy.  A
    write that bypasses the table (``t.superiors.add(x)``) raises
    ``AttributeError``."""

    __slots__ = ("adds",)

    def __new__(cls, ids: Iterable[int] = ()) -> "SharedIds":
        adds = None if isinstance(ids, (set, frozenset)) else tuple(ids)
        self = super().__new__(cls, ids if adds is None else adds)
        #: The sequence the set was made from, or ``None`` if from a set.
        self.adds = adds
        return self

    def thaw(self) -> Set[int]:
        """A plain set equal to this one that iterates as it does."""
        adds = self.adds
        return set(self if adds is None else adds)

    def __reduce__(self):
        adds = self.adds
        return SharedIds, (set(self) if adds is None else adds,)


#: Every unwritten role set of every table: reads are frozenset's own, and a
#: write that bypasses the table (``t.children.add(x)``) raises
#: ``AttributeError`` instead of landing in state every table shares.
_NO_ROLE = SharedIds()


class SharedMap(dict):
    """A ``dict`` several owners hold at once that none may write: a shared
    empty default its owner replaces on first write (a table's per-level
    maps and overrides, a node's pending lookups), or the ``parents`` map
    siblings share.  Reads are dict's own, at dict's speed, and ``pop`` of
    an absent key is dict's own too (a no-op with a default); any write
    raises ``TypeError``, so one that bypasses the owner cannot land in
    state other owners share."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a shared map is read-only; "
                        "write through the owner, which copies it first")

    __setitem__ = __delitem__ = __ior__ = setdefault = update = clear = popitem = _read_only

    def pop(self, key, *default):
        if key in self:
            self._read_only()
        return dict.pop(self, key, *default)

    def thaw(self) -> Dict:
        """A plain dict equal to this one, in the same order."""
        return dict(self)

    def __reduce__(self):
        return SharedMap, (dict(self),)


#: Every unwritten ``level_tables``, ``level_children`` and ``parents`` of
#: every table.
_NO_LEVELS = SharedMap()

#: Every table's ``_meta`` until its first entry differs from the book, and
#: the book of a table built without one (whose entries then all keep their
#: own metadata).
_NO_META = SharedMap()


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
        "owner", "_entries", "_meta", "_book", "_version", "_membership", "_sorted_ids",
        "_view_full", "_view_l0",
        "level0", "level0_indirect", "level_tables", "level_children",
        "children", "neighbour_children", "parents", "superiors",
    )

    def __init__(self, owner: int, book: Optional[Dict[int, Meta]] = None) -> None:
        self.owner = owner
        #: id -> ``last_seen``, in the order the table learnt the ids.
        self._entries: Dict[int, float] = {}
        #: id -> metadata, for the entries whose metadata differs from the
        #: book's: an entry's metadata is ``_meta.get(id) or _book[id]``.
        self._meta: Dict[int, Meta] = _NO_META
        #: The network's peer book, which the table only reads; without
        #: one every entry keeps its own metadata in ``_meta``.
        self._book: Dict[int, Meta] = _NO_META if book is None else book
        self._version = 0
        self._membership = 0
        self._sorted_ids: Tuple[int, Sequence[int]] = (-1, ())
        #: The router's candidate view of this table, one per variant (whole
        #: table / ``Search_Level_Zero``), stamped with the version it was
        #: built at — owned by :func:`repro.core.lookup._candidate_view`.
        self._view_full = None
        self._view_l0 = None
        #: parent at each level this node belongs to (tables 4 + per-level).
        self.parents: Dict[int, int] = _NO_LEVELS
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
    def meta(self, ident: int) -> Optional[Meta]:
        """*ident*'s ``(max_level, score, nc)``, or ``None`` if unknown."""
        if ident in self._entries:
            return self._meta.get(ident) or self._book[ident]
        return None

    def levels(self, ids: Iterable[int]) -> List[Tuple[int, int]]:
        """``(id, max_level)`` for each of *ids* the table knows, in order."""
        entries, meta, book = self._entries, self._meta, self._book
        return [(i, (meta.get(i) or book[i])[0]) for i in ids if i in entries]

    def at_or_above(self, level: int) -> List[int]:
        """Every known id whose ``max_level`` is at least *level*, in entry
        order."""
        meta, book = self._meta, self._book
        return [i for i in self._entries if (meta.get(i) or book[i])[0] >= level]

    def _set_meta(self, ident: int, meta: Meta) -> None:
        """Make *meta* the metadata of *ident*'s entry: held in ``_meta``
        only while it differs from the book's."""
        own = self._meta
        if meta != self._book.get(ident):
            if type(own) is SharedMap:  # unwritten (or a deep copy of it)
                own = self._meta = {}
            own[ident] = meta
        elif ident in own:
            del own[ident]

    def upsert(
        self,
        ident: int,
        now: float,
        max_level: Optional[int] = None,
        score: Optional[float] = None,
        nc: Optional[int] = None,
    ) -> None:
        """Create or refresh the entry for *ident*; the metadata given
        replaces the entry's, field by field."""
        if ident == self.owner:
            raise ValueError("a node never stores itself in its routing table")
        entries = self._entries
        seen = entries.get(ident)
        if seen is None:
            entries[ident] = now
            self._membership += 1
            old = _UNKNOWN_META
        else:
            if now > seen:
                entries[ident] = now
            if max_level is None and score is None and nc is None:
                return
            old = self._meta.get(ident) or self._book[ident]
        new = (old[0] if max_level is None else max_level,
               old[1] if score is None else score,
               old[2] if nc is None else nc)
        if new[0] != old[0]:
            # The router's candidate views key on the version and memoise
            # each peer's level — a level change via gossip/keep-alive
            # metadata must invalidate them exactly like a role change.
            self._version += 1
        if seen is None or new != old:
            self._set_meta(ident, new)

    def refresh(self, ident: int, now: float, meta: Optional[Meta] = None) -> None:
        """Refresh *ident*'s entry from *ident* itself, which gives its own
        metadata *meta*, ``None`` standing for the book's: the same as
        ``upsert(ident, now, *(meta or book[ident]))``.  A known entry that
        holds the book's metadata on both sides moves only its timestamp."""
        entries = self._entries
        seen = entries.get(ident)
        if meta is None and seen is not None and ident not in self._meta:
            if now > seen:
                entries[ident] = now
        else:
            self.upsert(ident, now, *(meta or self._book[ident]))

    def overrides(self) -> Dict[int, Meta]:
        """The metadata of the entries that differ from the book, as they are
        now: the shared read-only :data:`_NO_META` while there is none, else
        a copy, which later writes to the table leave alone."""
        own = self._meta
        return dict(own) if own else _NO_META

    def import_role(self, ids: Iterable[int], now: float, theirs: Dict[int, Meta],
                    role: Set[int]) -> None:
        """Bulk gossip import: ``upsert(i, now, *m)`` then ``role.add(i)``
        for every id but the owner, in iteration order.  *m* is the
        sender's metadata for *i*: ``theirs.get(i)``, *theirs* being the
        sender's :meth:`overrides` as the round found them, else the book
        the sender shares, else none.  *role* is a fresh set the caller
        installs wholesale (the set it replaces is never touched)."""
        entries, owner, book, meta = self._entries, self.owner, self._book, self._meta
        for i in ids:
            if i == owner:
                continue
            seen = entries.get(i)
            if i in theirs or i in meta:
                self.upsert(i, now, *(theirs.get(i) or book.get(i, ())))
                meta = self._meta  # the upsert may have given the table its own
            elif seen is not None:
                # Both sides read the book's metadata for i (a known entry
                # with no override of its own reads the book): only the
                # timestamp can move.
                if now > seen:
                    entries[i] = now
            elif i in book:  # a new entry, at the book's level (from 0)
                entries[i] = now
                self._membership += 1
                if book[i][0]:
                    self._version += 1
            else:
                self.upsert(i, now)
                meta = self._meta
            role.add(i)

    def touch(self, ident: int, now: float) -> None:
        seen = self._entries.get(ident)
        if seen is not None and now > seen:
            self._entries[ident] = now

    def forget(self, ident: int) -> None:
        """Drop *ident* from every table (e.g. a detected-dead peer)."""
        if self._entries.pop(ident, None) is not None:
            self._membership += 1
            meta = self._meta
            if ident in meta:
                del meta[ident]
        if ident in self.level0:
            self.unlink("level0", ident)
        if ident in self.level0_indirect:
            self.unlink("level0_indirect", ident)
        if ident in self.neighbour_children:
            self.unlink("neighbour_children", ident)
        if ident in self.superiors:
            self.unlink("superiors", ident)
        for ids in self.level_tables.values():
            if ident in ids:
                ids.discard(ident)
                self._version += 1
        if ident in self.children:  # the union of every level's children
            self.unlink_child(ident)
        if ident in self.parents.values():
            for lvl in [l for l, p in self.parents.items() if p == ident]:
                self.drop_parent(lvl)

    # ------------------------------------------------------------ role sets
    # The only writers of role state: each makes the version bump its write
    # calls for, so a read of ``version`` is a read of every role at once.

    def _own(self, role: str):
        """The table's own *role* container (a role set or ``parents``): an
        unwritten or shared one is thawed into the table's own first (the
        thaw itself bumps nothing)."""
        ids = getattr(self, role)
        if type(ids) is SharedIds or type(ids) is SharedMap:
            ids = ids.thaw()
            setattr(self, role, ids)
        return ids

    def link(self, role: str, ident: int) -> None:
        """Add *ident* to the *role* set."""
        ids = getattr(self, role)
        if ident not in ids:
            if type(ids) is not set:
                ids = self._own(role)
            ids.add(ident)
            self._version += 1

    def unlink(self, role: str, ident: int) -> None:
        """Remove *ident* from the *role* set, if it is there."""
        ids = getattr(self, role)
        if ident in ids:
            if type(ids) is not set:
                ids = self._own(role)
            ids.discard(ident)
            self._version += 1

    def set_role(self, role: str, ids: Iterable[int]) -> None:
        """Install *ids* as the whole *role* set (a repair rebuild), replacing
        whatever the table held there: one bump, whatever changed.  A
        :class:`SharedIds` is installed as it is, shared; anything else as
        the table's own ``set(ids)``.  An empty result leaves the role
        unwritten again."""
        self._version += 1
        if type(ids) is not SharedIds:
            ids = set(ids)
        setattr(self, role, ids or _NO_ROLE)

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
        if type(levels) is SharedMap:  # unwritten (or a deep copy of it)
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
        if type(levels) is SharedMap:  # unwritten (or a deep copy of it)
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
            self._own("parents")[level] = ident
            self._version += 1

    def drop_parent(self, level: int) -> Optional[int]:
        """Forget the level-*level* parent; return it (``None`` if unset)."""
        if level not in self.parents:
            return None
        self._version += 1
        return self._own("parents").pop(level)

    def install(self, now: float,
                level0: Sequence[int], buses: Sequence[Sequence[int]],
                own_children: Sequence[Sequence[int]],
                neighbour_children: Sequence[Sequence[int]],
                parents: Mapping[int, int], superiors: Sequence[int]) -> None:
        """Write a node's whole build plan onto a table nothing has written.

        ``buses[j - 1]``, ``own_children[j - 1]`` and
        ``neighbour_children[j - 1]`` belong to level ``j``, for every level
        ``1..len(buses)`` the node holds; *parents* maps a level to the
        parent there.  Every id must be in the table's book.  The result
        is exactly what these calls, in this order, each with ``now,
        *book[id]``, would leave: ``add("level0", ·)`` for each of
        *level0*; ``add_level(j, ·)`` for each of every ``buses[j - 1]``;
        per level ``j``, ``open_children(j)``, ``add_child(j, ·)`` for each
        own child and ``add("neighbour_children", ·)`` for each neighbour
        child; ``set_parent(level, parent)`` for each of *parents*;
        ``add("superiors", ·)`` for each of *superiors* — the same entries
        in the same order, every role set in the same iteration order, and
        the same ``version`` and membership epoch, and no entry's metadata
        differs from the book.

        *parents* and *superiors* are installed shared and read-only: as
        they are when they already are a :class:`SharedMap` and a
        :class:`SharedIds` made from a sequence (the build hands all
        siblings one of each), else as one made from them.
        """
        if self._membership or self._version:
            raise RuntimeError("install writes only a table nothing has written")
        if type(parents) is not SharedMap:
            parents = SharedMap(parents)
        if type(superiors) is not SharedIds:
            superiors = SharedIds(superiors)
        order = list(level0)
        for ids in buses:
            order += ids
        for own, nbc in zip(own_children, neighbour_children):
            order += own
            order += nbc
        order += parents.values()
        order += superiors.adds
        entries = dict.fromkeys(order, now)  # first appearance: the upserts' order
        if self.owner in entries:
            raise ValueError("a node never stores itself in its routing table")
        # upsert's level change from a new entry's 0
        book = self._book
        version = len(entries) - [book[i][0] for i in entries].count(0)
        self._entries = entries
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
        if parents:
            self.parents = parents
            version += len(parents)
        if superiors:
            self.superiors = superiors
            version += len(superiors)
        self._version = version
        self._membership = len(entries)

    # --------------------------------------------------------------- expiry
    def expire(self, now: float, entry_ttl: float) -> List[int]:
        """Delete entries not refreshed within *entry_ttl*; return their ids."""
        stale = [i for i, seen in self._entries.items() if now - seen > entry_ttl]
        for ident in stale:
            self.forget(ident)
        return stale

    # -------------------------------------------------------------- queries
    def all_known(self) -> KeysView[int]:
        """Every known id, in entry order: a read-only view of the table,
        not a copy, so do not write the table while iterating it."""
        return self._entries.keys()

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
        entries, meta = self._entries, self._meta
        # A set: deleting its ids in any order leaves the same dict.
        drop = set(entries).difference(
            self.level0, self.level0_indirect, self.children, self.neighbour_children,
            self.superiors, self.parents.values(), *self.level_tables.values())
        for i in drop:
            del entries[i]
            if i in meta:
                del meta[i]
        if drop:
            self._membership += 1
        return len(drop)

    # ---------------------------------------------------------------- delta
    def delta_since(self, since: float) -> List[Tuple[int, int, float, int, float]]:
        """Entries refreshed after *since* — §III.d's out-of-date-only sync."""
        meta, book = self._meta.get, self._book
        return [(i, m[0], m[1], m[2], seen)
                for i, seen in self._entries.items() if seen > since
                for m in (meta(i) or book[i],)]  # binds m; no inner loop

    def merge_delta(
        self, tuples: Iterable[Tuple[int, int, float, int, float]], now: float
    ) -> int:
        """Fold a peer's delta into the metadata store.

        Only metadata is merged — roles (neighbour/child/parent) are
        assigned by protocol logic, not gossip.  Returns entries updated.
        """
        n = 0
        entries, owner = self._entries, self.owner
        for ident, max_level, score, nc, last_seen in tuples:
            if ident == owner:
                continue
            seen = entries.get(ident)
            if seen is None or last_seen > seen:
                self.upsert(ident, min(last_seen, now), max_level, score, nc)
                n += 1
        return n
