"""The G / NG / NGSA routing algorithms of §III.f.

The router is *pure decision logic*: given a node-local view (its routing
table and hierarchy knowledge) and an in-flight :class:`LookupRequest`, it
returns a :class:`Decision`.  The protocol engine (:mod:`repro.core.node`)
executes decisions by sending datagrams; tests exercise the router directly
with synthetic views.

Algorithms
----------
* **G (greedy, Fig. 3)** — pick the candidate minimising the tessellation
  distance ``D(n, x)``.  Forward when the *halving criterion*
  ``D(n, x) <= D(a, x) / 2`` holds, when the current node is at level 0, or
  when the request is descending from a parent; otherwise escalate through
  the superior-node list (closest superior satisfying the criterion, else
  the highest-level superior).  Not loop-free — the TTL cap backstops it.
* **NG (non-greedy)** — take the *first* candidate strictly closer to the
  target in Euclidean distance ("the procedure ends when a node satisfying
  the condition is found").
* **NGSA (non-greedy with fall back)** — NG, but the other improving
  candidates are appended to the request as alternates; a dead end pops the
  best alternate instead of failing ("at the expense of adding data to the
  request").

TTL semantics (§III.f): requests above ``ttl_max`` (255) are discarded;
requests whose TTL exceeds the hierarchy height switch to plain Euclidean
distance — "a request that has a higher TTL means that the network is
unstable and/or disrupted".
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from math import inf
from typing import Iterator, List, NamedTuple, Optional, Protocol, Tuple

from repro.core.config import TreePConfig
from repro.core.distance import halving_criterion, treep_distance
from repro.core.messages import LookupRequest
from repro.core.routing_table import RoutingTable


class LookupAlgorithm(str, enum.Enum):
    """The three routing algorithms evaluated in §IV."""

    GREEDY = "G"
    NON_GREEDY = "NG"
    NON_GREEDY_FALLBACK = "NGSA"

    @classmethod
    def parse(cls, name: str) -> "LookupAlgorithm":
        algo = _ALGO_BY_TOKEN.get(name)
        if algo is None:
            raise ValueError(f"unknown lookup algorithm {name!r}")
        return algo


#: value/name -> member, so a parse (one per hop and per issue) is one dict hit.
_ALGO_BY_TOKEN = {a.value: a for a in LookupAlgorithm}
_ALGO_BY_TOKEN.update({a.name: a for a in LookupAlgorithm})


class NodeView(Protocol):
    """What the router may see: strictly node-local state."""

    ident: int
    max_level: int
    table: RoutingTable
    height: int  # node's current estimate of the hierarchy height
    config: TreePConfig


class DecisionKind(enum.Enum):
    FOUND = "found"
    FORWARD = "forward"
    NOT_FOUND = "not-found"
    DISCARD = "discard"


class Decision(NamedTuple):
    """Outcome of one local routing step.

    A ``NamedTuple`` rather than a frozen dataclass: one is allocated per
    routing step, and tuple construction skips the per-field
    ``object.__setattr__`` cost of frozen dataclasses while staying
    immutable.
    """

    kind: DecisionKind
    next_hop: Optional[int] = None
    resolved: Optional[int] = None
    alternates: Tuple[int, ...] = ()

    @staticmethod
    def forward(next_hop: int, alternates: Tuple[int, ...] = ()) -> "Decision":
        return Decision(DecisionKind.FORWARD, next_hop=next_hop, alternates=alternates)


#: ``tuple.__new__``: a per-hop record built from its whole field tuple, as
#: ``_tuple_new(Decision, (kind, next_hop, resolved, alternates))``, is the
#: record its class would build, without the generated ``__new__``'s frame.
_tuple_new = tuple.__new__

#: Preallocated terminal decisions — they carry no per-request payload.
_NOT_FOUND = Decision(DecisionKind.NOT_FOUND)
_DISCARD = Decision(DecisionKind.DISCARD)
#: The kinds a routing step builds its decisions from, positionally.
_FOUND = DecisionKind.FOUND
_FORWARD = DecisionKind.FORWARD


@dataclass(frozen=True, slots=True)
class LookupResult:
    """Origin-side outcome of one lookup, consumed by the harness."""

    request_id: int
    origin: int
    target: int
    algo: LookupAlgorithm
    found: bool
    hops: int
    timed_out: bool = False
    path: Tuple[int, ...] = ()


# --------------------------------------------------------------------------
# candidate enumeration
# --------------------------------------------------------------------------

def _metric(view: NodeView, entry_id: int, entry_level: int, target: int, euclid: bool) -> float:
    space = view.config.space
    if euclid:
        return float(space.distance(entry_id, target))
    return treep_distance(space, entry_id, entry_level, target, view.height)


#: ``(extent, height) -> per-level tessellation radii`` — the §III.f
#: ``L / 2**(h - lvl)`` values.  Heights are tiny (≈ log N) and extents are
#: config constants, so this process-wide memo stays a handful of entries
#: while removing a ``cell_radius`` call (validation + float pow) from every
#: candidate visit on the greedy hot path.  Values are computed by the same
#: expression as :func:`repro.core.distance.cell_radius`, so the cached
#: floats are bit-identical to the uncached ones.
_RADII_CACHE: dict[Tuple[int, int], Tuple[float, ...]] = {}


def _radii(extent: int, height: int) -> Tuple[float, ...]:
    key = (extent, height)
    radii = _RADII_CACHE.get(key)
    if radii is None:
        radii = tuple(extent / float(2 ** max(height - lvl, 0))
                      for lvl in range(height + 1))
        _RADII_CACHE[key] = radii
    return radii


def _ordered_pairs(t: RoutingTable) -> List[Tuple[int, int]]:
    """Fig. 3's full candidate order as ``(ident, max_level)`` pairs.

    The order (children, neighbour-children, buses top-down, parents,
    superiors, level-0; each group sorted by id; first occurrence wins) is
    a pure function of role membership, and ``max_level`` metadata changes
    bump the version too (see ``RoutingTable.upsert``), so anything built
    from it stays valid until the table's
    :attr:`~repro.core.routing_table.RoutingTable.version` bumps.
    Per-request ``exclude`` filtering happens at iteration time —
    filtering before or after the sort/dedupe yields the same sequence.
    """
    ordered: List[int] = []
    seen: set[int] = set()
    for group in (
        sorted(t.children),
        sorted(t.neighbour_children),
        *[sorted(t.level_tables.get(l, ())) for l in sorted(t.level_tables, reverse=True)],
        sorted(set(t.parents.values())),
        sorted(t.superiors),
        sorted(t.level0),
    ):
        for i in group:
            if i not in seen:
                seen.add(i)
                ordered.append(i)
    return t.levels(ordered)


def _level_zero_pairs(t: RoutingTable) -> List[Tuple[int, int]]:
    """``Search_Level_Zero()`` candidates, in id order."""
    ids = set(t.level0) | set(t.children) | set(t.neighbour_children)
    return t.levels(sorted(ids))


class CandidateView(NamedTuple):
    """The greedy router's derived view of one routing table variant
    (whole table / ``Search_Level_Zero``), valid while ``(version,
    height)`` match the table and the node: the radii depend on the node's
    current height estimate.

    It holds what the two greedy metrics read and nothing else — no
    per-candidate level or metadata:

    * the *cell owners* (candidates above level 0) in Fig. 3 order, each
      with its tessellation radius ``L / 2**(h - lvl)`` from
      :func:`_radii` — the only candidates ``D`` can score 0;
    * every candidate id, ascending — the order of the Euclidean metric,
      ``None`` until the first Euclidean-fallback hop at the node (most
      nodes never take one).

    Everything is a Python int or float, so every comparison the router
    makes against it is exact at any extent.
    """

    version: int
    height: int
    cell_ids: Tuple[int, ...]       # cell owners, Fig. 3 order
    cell_radii: Tuple[float, ...]   # their radii, same order
    ids: Optional[Tuple[int, ...]]  # every candidate, ascending


def _candidate_view(view: NodeView, l0: bool) -> CandidateView:
    """(Re)build and store the table's view for one variant (``l0``:
    ``Search_Level_Zero``).  At scale, interior nodes are visited by
    thousands of lookups between table changes, so a hop only reads it."""
    t = view.table
    height = view.height
    radii = _radii(view.config.space.extent, height)
    pairs = _level_zero_pairs(t) if l0 else _ordered_pairs(t)
    cells = [(i, lvl) for i, lvl in pairs if lvl > 0]
    # List comprehensions, not generators: one frame each, not one resume
    # per cell.
    built = CandidateView(
        t.version, height,
        tuple([i for i, _ in cells]),
        tuple([radii[lvl if lvl <= height else height] for _, lvl in cells]),
        None,
    )
    if l0:
        t._view_l0 = built
    else:
        t._view_full = built
    return built


def _candidate_ids(view: NodeView, l0: bool, cv: CandidateView) -> Tuple[int, ...]:
    """Fill in the ``ids`` of the table's current view *cv* for one variant:
    every candidate id, ascending — the ids of :func:`_level_zero_pairs` /
    :func:`_ordered_pairs`, read from the same roles (the version still
    matches) as one union, without their per-group order."""
    t = view.table
    if l0:
        ids = set(t.level0).union(t.children, t.neighbour_children)
    else:
        ids = set(t.parents.values()).union(t.children, t.neighbour_children,
                                            t.superiors, t.level0,
                                            *t.level_tables.values())
    known = t._entries
    ids = tuple(sorted([i for i in ids if i in known]))
    if l0:
        t._view_l0 = cv._replace(ids=ids)
    else:
        t._view_full = cv._replace(ids=ids)
    return ids


def _full_candidates(
    view: NodeView, exclude: frozenset[int], target: int
) -> Iterator[int]:
    """``Search_level_A()``: the node's whole routing table, lazily.

    Deterministic order, table priority as implicit in Fig. 3: children
    first (descending the tree resolves fastest), then the same-level buses
    from the highest level down, parents, superiors, and the level-0
    neighbours last (they are the smallest possible steps along the line).
    Within a group, candidates are ordered by distance to *target* — this
    is what lets NG's "first improving candidate" rule achieve the
    logarithmic hop counts the paper reports: the scan meets the big
    tessellation jumps before the single-neighbour shuffles.

    One group is ranked per step, so a caller that stops after the first
    improving entries (NG takes 1, NGSA at most 4) never sorts the rest.
    """
    t = view.table
    distance = view.config.space.distance
    known = t._entries
    # ``(distance, id)`` is a total order, so dropping ids already taken by
    # an earlier group *before* sorting yields the same sequence as sorting
    # first and deduplicating afterwards.
    seen = set(exclude)
    for group in (
        t.children,
        t.neighbour_children,
        *(t.level_tables[l] for l in sorted(t.level_tables, reverse=True)),
        set(t.parents.values()),
        t.superiors,
        t.level0,
    ):
        for _, i in sorted((distance(i, target), i) for i in group if i not in seen):
            seen.add(i)
            if i in known:
                yield i


# --------------------------------------------------------------------------
# the router
# --------------------------------------------------------------------------

def route(view: NodeView, req: LookupRequest) -> Decision:
    """One local routing step for *req* at *view* (Fig. 3 and variants).

    The decision never uses non-local knowledge: only the node's own routing
    table, its level, and fields carried by the request.
    """
    cfg = view.config
    if req.ttl > cfg.ttl_max:
        return _DISCARD

    # "IF target X is in the routing table THEN transmit back the result".
    if req.target == view.ident:
        return _tuple_new(Decision, (_FOUND, None, view.ident, ()))
    if req.target in view.table._entries:  # inlined RoutingTable.knows
        return _tuple_new(Decision, (_FOUND, None, req.target, ()))

    # Disruption mode: beyond the hierarchy height, fall back to Euclidean.
    euclid = cfg.euclidean_fallback and req.ttl > view.height

    algo = _ALGO_BY_TOKEN.get(req.algo)
    if algo is None:
        algo = LookupAlgorithm.parse(req.algo)
    if algo is LookupAlgorithm.GREEDY:
        return _route_greedy(view, req, euclid)
    exclude = frozenset(req.path + (view.ident,))
    return _route_non_greedy(view, req, exclude, euclid,
                             with_fallback=algo is LookupAlgorithm.NON_GREEDY_FALLBACK)


def _scan(view: NodeView, l0: bool, path: Tuple[int, ...], target: int,
          euclid: bool) -> Tuple[Optional[int], float]:
    """Fig. 3's argmin as written: the first minimum of the metric over
    every candidate off *path*, in Fig. 3 order, enumerated afresh.  The
    greedy hop's fallback when its shortcut cannot decide."""
    t = view.table
    height = view.height
    radii = None if euclid else _radii(view.config.space.extent, height)
    best: Optional[int] = None
    best_d = inf
    for ident, lvl in (_level_zero_pairs(t) if l0 else _ordered_pairs(t)):
        if ident in path:
            continue
        # Inlined ``_metric``: exact ints compare exactly against the float
        # radii, so every comparison is what ``_metric`` would give.
        d = ident - target if ident >= target else target - ident
        if radii is not None and lvl > 0:
            radius = radii[lvl if lvl <= height else height]
            d = 0.0 if d <= radius else d - radius
        if d < best_d:
            best, best_d = ident, d
    return best, best_d


def _route_greedy(view: NodeView, req: LookupRequest, euclid: bool) -> Decision:
    from_level1_parent = req.from_parent_level == 1 and view.max_level == 0
    target = req.target
    # A table never stores its owner, so of ``path + (own id,)`` only the
    # path can hold a candidate.
    path = req.path
    height = view.height
    t = view.table
    cv = t._view_l0 if from_level1_parent else t._view_full
    if cv is None or cv[0] != t._version or cv[1] != height:
        cv = _candidate_view(view, from_level1_parent)
    # Fig. 3's argmin, picked without scoring every candidate.  This is the
    # single hottest code path of a 10k-node run.
    if euclid:
        # |id - x|: the nearest candidate off the path on each side of x.
        # An exact tie goes to the scan, where Fig. 3 order decides.
        ids = cv[4]
        if ids is None:
            ids = _candidate_ids(view, from_level1_parent, cv)
        hi = bisect_left(ids, target)
        lo = hi - 1
        while lo >= 0 and ids[lo] in path:
            lo -= 1
        n = len(ids)
        while hi < n and ids[hi] in path:
            hi += 1
        d_lo = target - ids[lo] if lo >= 0 else inf
        d_hi = ids[hi] - target if hi < n else inf
        if d_lo < d_hi:
            best, best_d = ids[lo], d_lo
        elif d_hi < d_lo:
            best, best_d = ids[hi], d_hi
        elif lo < 0:
            best, best_d = None, inf  # no candidate off the path
        else:
            best, best_d = _scan(view, from_level1_parent, path, target, euclid)
    else:
        # D(n, x) is 0 exactly when a cell owner's radius covers x, and a
        # level-0 candidate never scores 0 (a known target is FOUND above),
        # so the first minimum in Fig. 3 order is the first covering owner
        # off the path.  Only when there is none is D computed for all.
        for ident, radius in zip(cv[2], cv[3]):
            if ((ident - target if ident >= target else target - ident) <= radius
                    and ident not in path):
                best, best_d = ident, 0.0
                break
        else:
            best, best_d = _scan(view, from_level1_parent, path, target, euclid)
    own = view.ident
    d_here = own - target if own >= target else target - own
    if not euclid:
        lvl = view.max_level
        if lvl > 0:
            # The view's height's radii are memoised: building the view
            # filled them, unless it was built in another process.
            extent = view.config.space.extent
            radii = _RADII_CACHE.get((extent, height)) or _radii(extent, height)
            radius = radii[lvl if lvl <= height else height]
            d_here = 0.0 if d_here <= radius else d_here - radius

    if best is not None:
        # Fig. 3's forwarding cascade.
        if (from_level1_parent
                or best_d <= 0.5 * d_here  # the halving criterion, inlined
                or view.max_level == 0
                # Query descending from our own parent: keep descending.
                or req.from_parent_level == view.max_level + 1):
            return _tuple_new(Decision, (_FORWARD, best, None, ()))
        exclude = frozenset(path + (view.ident,))
        esc = _escalate(view, req, exclude, euclid, d_here)
        if esc is not None:
            return _tuple_new(Decision, (_FORWARD, esc, None, ()))
        child = _closest_child(view, target, exclude)
        if child is not None:
            return _tuple_new(Decision, (_FORWARD, child, None, ()))
        return _NOT_FOUND

    # No candidate at all (every known peer already visited).
    if from_level1_parent:
        return _NOT_FOUND
    exclude = frozenset(path + (view.ident,))
    child = _closest_child(view, target, exclude)
    if child is not None:
        return _tuple_new(Decision, (_FORWARD, child, None, ()))
    esc = _escalate(view, req, exclude, euclid, d_here)
    if esc is not None:
        return _tuple_new(Decision, (_FORWARD, esc, None, ()))
    return _NOT_FOUND


def _closest_child(view: NodeView, target: int, exclude: frozenset[int]) -> Optional[int]:
    """Fig. 3's ``Closest_Child(X)``: descend towards the target's cell.

    Used when no candidate halves the distance and escalation has nowhere
    to go — in particular at the root, whose own ``D`` to everything is 0,
    making the halving criterion unsatisfiable: the only sensible move for
    an interior node is down the subtree covering the target.
    """
    t = view.table
    kids = [i for i in (t.children | t.neighbour_children) if i not in exclude]
    if not kids:
        return None
    space = view.config.space
    return min(kids, key=lambda i: (space.distance(i, target), i))


def _escalate(
    view: NodeView,
    req: LookupRequest,
    exclude: frozenset[int],
    euclid: bool,
    d_here: float,
) -> Optional[int]:
    """Superior-node-list escalation (Fig. 3, both ELSE branches).

    Prefer the superior closest to the target that satisfies the halving
    criterion; failing that, the superior with the highest level.
    """
    t = view.table
    superiors = [i for i in t.superiors | set(t.parents.values()) if i not in exclude]  # repro-lint: disable=RPR102 int IDs hash to themselves, so the union's order is a pure function of the ID population; sorted() would perturb the pinned tie-break order of the committed trajectory
    if not superiors:
        return None
    best_id: Optional[int] = None
    best_d = float("inf")
    for i in superiors:
        m = t.meta(i)
        lvl = m[0] if m is not None else 1
        d = _metric(view, i, lvl, req.target, euclid)
        if halving_criterion(d, d_here) and d < best_d:
            best_id, best_d = i, d
    if best_id is not None:
        return best_id
    # None halves the distance: highest-level superior.
    def level_of(i: int) -> int:
        m = t.meta(i)
        return m[0] if m is not None else 0

    return max(superiors, key=lambda i: (level_of(i), -view.config.space.distance(i, req.target)))


def _route_non_greedy(
    view: NodeView,
    req: LookupRequest,
    exclude: frozenset[int],
    euclid: bool,
    with_fallback: bool,
) -> Decision:
    space = view.config.space
    d_here = float(space.distance(view.ident, req.target))
    improving: List[int] = []
    for i in _full_candidates(view, exclude, target=req.target):
        if float(space.distance(i, req.target)) < d_here:
            improving.append(i)
            if not with_fallback:
                # NG: first improving candidate ends the search.
                return Decision.forward(i)
            if len(improving) >= 4:  # bound the per-hop payload growth
                break

    if improving:
        # NGSA: forward to the first, carry the rest as alternates.
        return Decision.forward(improving[0], alternates=tuple(improving[1:]))

    if with_fallback:
        # Dead end: consume the nearest alternate accumulated upstream.
        live_alts = [a for a in req.alternates if a not in exclude]
        if live_alts:
            nxt = min(live_alts, key=lambda a: space.distance(a, req.target))
            rest = tuple(a for a in live_alts if a != nxt)
            return Decision.forward(nxt, alternates=rest)

    return _NOT_FOUND


# ---------------------------------------------------------------------------
# key-space routing (service layer)
# ---------------------------------------------------------------------------

def greedy_key_next_hop(
    view: NodeView,
    key_id: int,
    exclude: frozenset = frozenset(),
    improving_only: bool = True,
) -> Optional[int]:
    """Closest known next hop towards *key_id*, over the whole table.

    Key-space analogue of the NG rule used by the DHT and replicated-storage
    services: a key is owned by the node the greedy walk terminates on (no
    entry is closer to ``key_id`` than the current node), the TreeP version
    of consistent hashing's successor rule.  With ``improving_only`` (the
    default) only strictly-closer candidates qualify and ``None`` means this
    node is locally closest, i.e. responsible for the key; without it the
    best non-excluded candidate is returned even when it does not improve
    (the storage layer's sloppy-read fallback hop).

    One bisect into :meth:`RoutingTable.sorted_ids`, then outward past the
    excluded ids on each side; the nearer side wins: O(log table).
    """
    ids = view.table.sorted_ids()
    n = len(ids)
    hi = bisect_left(ids, key_id)
    lo = hi - 1
    while lo >= 0 and ids[lo] in exclude:  # nearest admissible id below the key
        lo -= 1
    while hi < n and ids[hi] in exclude:  # ... and at or above it
        hi += 1
    d_below = key_id - ids[lo] if lo >= 0 else inf
    d_above = ids[hi] - key_id if hi < n else inf
    if d_below == d_above:
        if lo < 0:
            return None  # nothing admissible on either side
        # Equidistant pair straddling the key: the entry the table learnt
        # first wins, as when this was a strict-< scan of `_entries`.
        best = next(i for i in view.table._entries if i == ids[lo] or i == ids[hi])
    else:
        best = ids[lo] if d_below < d_above else ids[hi]
    if improving_only and min(d_below, d_above) >= abs(view.ident - key_id):
        return None
    return best
