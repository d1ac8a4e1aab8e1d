"""Unit tests for the G / NG / NGSA routers (pure decision logic)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import entry
from repro import TreePNetwork
from repro.core.config import TreePConfig
from repro.core.distance import cell_radius
from repro.core.ids import IdSpace
from repro.core.lookup import (
    Decision,
    DecisionKind,
    LookupAlgorithm,
    _full_candidates,
    route,
)
from repro.core.repair import PAPER_POLICY, apply_failure_step
from repro.core.messages import LookupRequest
from repro.core.routing_table import RoutingTable


class View:
    """Minimal NodeView for router unit tests."""

    def __init__(self, ident, max_level=0, height=4, extent=2**16):
        self.ident = ident
        self.max_level = max_level
        self.height = height
        self.config = TreePConfig.paper_case1(space=IdSpace(extent=extent))
        self.table = RoutingTable(ident)


def req(target, origin=0, algo="G", ttl=0, path=(), alternates=(),
        from_parent_level=0):
    return LookupRequest(request_id=1, origin=origin, target=target,
                         algo=algo, ttl=ttl, path=tuple(path),
                         alternates=tuple(alternates),
                         from_parent_level=from_parent_level)


def test_parse_algorithms():
    assert LookupAlgorithm.parse("G") is LookupAlgorithm.GREEDY
    assert LookupAlgorithm.parse("NG") is LookupAlgorithm.NON_GREEDY
    assert LookupAlgorithm.parse("NGSA") is LookupAlgorithm.NON_GREEDY_FALLBACK
    assert LookupAlgorithm.parse("GREEDY") is LookupAlgorithm.GREEDY
    with pytest.raises(ValueError):
        LookupAlgorithm.parse("XX")


def test_self_target_found():
    v = View(100)
    d = route(v, req(100))
    assert d.kind is DecisionKind.FOUND and d.resolved == 100


def test_known_target_found():
    v = View(100)
    v.table.add("level0", 200, 0.0)
    d = route(v, req(200))
    assert d.kind is DecisionKind.FOUND and d.resolved == 200


def test_ttl_exceeded_discards():
    v = View(100)
    d = route(v, req(999, ttl=256))
    assert d.kind is DecisionKind.DISCARD


def test_ttl_at_cap_not_discarded():
    v = View(100)
    v.table.add("level0", 999, 0.0)
    assert route(v, req(999, ttl=255)).kind is DecisionKind.FOUND


def test_level0_forwards_to_best():
    v = View(100)
    v.table.add("level0", 110, 0.0)
    v.table.add("level0", 90, 0.0)
    d = route(v, req(500))
    assert d.kind is DecisionKind.FORWARD and d.next_hop == 110


def test_no_candidates_not_found():
    v = View(100)
    d = route(v, req(500))
    assert d.kind is DecisionKind.NOT_FOUND


def test_visited_nodes_excluded():
    v = View(100)
    v.table.add("level0", 110, 0.0)
    d = route(v, req(500, path=(110,)))
    assert d.kind is DecisionKind.NOT_FOUND


def test_greedy_prefers_high_level_jump():
    """A level-3 entry with D=0 beats a slightly-closer level-0 entry."""
    v = View(0, max_level=1, height=4, extent=2**16)
    v.table.add("level0", 100, 0.0, max_level=0)
    v.table.add_level(1, 30000, 0.0, max_level=3)  # radius 2^16/2 covers target
    d = route(v, req(60000))
    assert d.kind is DecisionKind.FORWARD and d.next_hop == 30000


def test_greedy_escalates_through_superiors():
    """Level > 0 node with no halving candidate forwards to a superior."""
    v = View(0, max_level=1, height=6, extent=2**16)
    v.table.add_level(1, 10, 0.0, max_level=1)     # tiny step, no halving
    v.table.add("superiors", 500, 0.0, max_level=4)    # big-radius superior
    d = route(v, req(60000))
    assert d.kind is DecisionKind.FORWARD and d.next_hop == 500


def test_greedy_descends_via_closest_child_at_root():
    """Root (D=0 to everything) must descend instead of failing."""
    v = View(32768, max_level=6, height=6, extent=2**16)
    v.table.add_child(6, 10000, 0.0, max_level=5)
    v.table.add_child(6, 50000, 0.0, max_level=5)
    d = route(v, req(60000))
    assert d.kind is DecisionKind.FORWARD
    assert d.next_hop == 50000  # the child nearer the target


def test_greedy_descent_from_parent_continues():
    """A request arriving from our own parent keeps descending."""
    v = View(100, max_level=1, height=4, extent=2**16)
    v.table.add_child(1, 120, 0.0, max_level=0)
    d = route(v, req(121, from_parent_level=2))
    assert d.kind is DecisionKind.FORWARD and d.next_hop == 120


def test_ng_takes_first_improving():
    v = View(1000, extent=2**16)
    v.table.add("level0", 1100, 0.0)
    v.table.add("level0", 900, 0.0)
    d = route(v, req(5000, algo="NG"))
    assert d.kind is DecisionKind.FORWARD and d.next_hop == 1100
    assert d.alternates == ()


def test_ng_dead_end_not_found():
    v = View(1000, extent=2**16)
    v.table.add("level0", 900, 0.0)  # moves away from target
    d = route(v, req(5000, algo="NG", path=()))
    # 900 is farther from 5000 than 1000 -> no improving candidate.
    assert d.kind is DecisionKind.NOT_FOUND


def test_ngsa_collects_alternates():
    v = View(1000, extent=2**16)
    v.table.add("level0", 1100, 0.0)
    v.table.add("level0", 1200, 0.0)
    v.table.add("level0", 2000, 0.0)
    d = route(v, req(5000, algo="NGSA"))
    assert d.kind is DecisionKind.FORWARD
    assert d.next_hop == 2000  # candidates scanned by distance to target
    assert len(d.alternates) >= 1


def test_ngsa_dead_end_uses_alternates():
    v = View(1000, extent=2**16)
    v.table.add("level0", 900, 0.0)  # no improvement
    d = route(v, req(5000, algo="NGSA", alternates=(4000, 3000)))
    assert d.kind is DecisionKind.FORWARD
    assert d.next_hop == 4000  # nearest alternate to the target
    assert d.alternates == (3000,)


def test_ngsa_exhausted_alternates_not_found():
    v = View(1000, extent=2**16)
    d = route(v, req(5000, algo="NGSA", alternates=(4000,), path=(4000,)))
    assert d.kind is DecisionKind.NOT_FOUND


def test_euclidean_fallback_activates_beyond_height():
    """Beyond the height, metric switches to Euclidean: a big-radius entry
    loses its D=0 advantage."""
    v = View(0, max_level=1, height=3, extent=2**16)
    v.table.add_level(1, 60000, 0.0, max_level=3)  # D=0 to most things
    v.table.add("level0", 3000, 0.0, max_level=0)
    target = 4000
    d_normal = route(v, req(target, ttl=1))
    assert d_normal.next_hop == 60000  # tessellation metric: D=0 wins
    d_fallback = route(v, req(target, ttl=10))
    assert d_fallback.next_hop == 3000  # Euclidean: the truly closer node


def test_fallback_disabled_by_config():
    v = View(0, max_level=1, height=3, extent=2**16)
    v.config = dataclasses.replace(v.config, euclidean_fallback=False)
    v.table.add_level(1, 60000, 0.0, max_level=3)
    v.table.add("level0", 3000, 0.0, max_level=0)
    d = route(v, req(4000, ttl=10))
    assert d.next_hop == 60000  # still the tessellation metric


def test_decision_constructors():
    assert Decision.forward(7).next_hop == 7


def reference_full_candidates(view, exclude, target):
    """``Search_level_A()``'s targeted enumeration as first written: filter
    and sort every role group on its own, then keep first occurrences."""
    t = view.table
    space = view.config.space

    def by_target(ids):
        return sorted((i for i in ids if i not in exclude),
                      key=lambda i: (space.distance(i, target), i))

    ordered, seen = [], set()
    for group in (
        by_target(t.children),
        by_target(t.neighbour_children),
        *(by_target(t.level_tables.get(l, ())) for l in sorted(t.level_tables, reverse=True)),
        by_target(set(t.parents.values())),
        by_target(t.superiors),
        by_target(t.level0),
    ):
        for i in group:
            if i not in seen:
                seen.add(i)
                ordered.append(i)
    return [i for i in ordered if entry(t, i) is not None]


def test_targeted_candidate_order_matches_reference_on_churned_overlay():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
    net.build(200)
    rng = np.random.default_rng(11)
    victims = [int(v) for v in rng.choice(net.ids, 60, replace=False)]
    net.fail_nodes(victims)
    apply_failure_step(net, victims, PAPER_POLICY)
    alive = net.alive_ids()
    compared = 0
    for ident in alive:
        node = net.nodes[ident]
        known = list(node.table.all_known())
        for target in (int(x) for x in rng.choice(alive, 3)):
            visited = rng.choice(known, min(3, len(known)), replace=False)
            exclude = frozenset(int(v) for v in visited) | {ident}
            got = list(_full_candidates(node, exclude, target=target))
            want = reference_full_candidates(node, exclude, target)
            assert got == want
            assert all(a is b for a, b in zip(got, want))
            compared += len(got)
    assert compared > 1000


# ------------------------------------------ the router is exactly the metric
_OWNER = 30000
_PEER_IDS = st.integers(0, 2**16 - 1).filter(lambda i: i != _OWNER)
_ROLE_ADDERS = {
    "level0": lambda t, i, lvl: t.add("level0", i, 0.0, max_level=lvl),
    "child": lambda t, i, lvl: t.add_child(lvl + 1, i, 0.0, max_level=lvl),
    "neighbour_child": lambda t, i, lvl: t.add("neighbour_children", i, 0.0, max_level=lvl),
    "superior": lambda t, i, lvl: t.add("superiors", i, 0.0, max_level=lvl),
    "bus1": lambda t, i, lvl: t.add_level(1, i, 0.0, max_level=lvl),
    "bus2": lambda t, i, lvl: t.add_level(2, i, 0.0, max_level=lvl),
    "parent": lambda t, i, lvl: t.set_parent(1 + lvl % 2, i, 0.0, max_level=lvl),
}
_PEERS = st.tuples(st.sampled_from(sorted(_ROLE_ADDERS)), _PEER_IDS, st.integers(0, 4))


def fresh_view(peers, max_level, height):
    """A never-routed-through table with this content: no views yet."""
    v = View(_OWNER, max_level=max_level, height=height)
    for role, ident, lvl in peers:
        _ROLE_ADDERS[role](v.table, ident, lvl)
    assert v.table._view_full is None and v.table._view_l0 is None
    return v


def covering(view, x, candidates):
    """The *candidates* whose cell covers *x* (``D == 0``), in their order."""
    t, space = view.table, view.config.space
    return [i for i in candidates if entry(t, i).max_level > 0
            and abs(i - x) <= cell_radius(space, view.height, entry(t, i).max_level)]


@st.composite
def greedy_requests(draw, view, fig3_order):
    """A G request at *view* aimed where the exact pick can go wrong: a
    target anywhere, exactly on a cell owner's edge (``|x - id| == r``, still
    covered), one past it, or halfway between two neighbouring candidates
    (an exact Euclidean tie); a path holding the first covering owners in
    Fig. 3 order, up to all of them; a TTL that may pass the height; and
    ``from_parent_level`` 1, which at a leaf selects ``Search_Level_Zero``."""
    t, extent = view.table, view.config.space.extent
    known = sorted(t.all_known())
    kind = draw(st.sampled_from(("anywhere", "edge", "past_edge", "midpoint")))
    x = draw(st.integers(0, extent - 1))
    ttl = draw(st.integers(0, 2 * view.height + 1))
    gaps = [(a + b) // 2 for a, b in zip(known, known[1:]) if (b - a) % 2 == 0]
    owners = [i for i in known if entry(t, i).max_level > 0]
    if kind == "midpoint" and gaps:
        x = draw(st.sampled_from(gaps))
        ttl = view.height + 1           # the tie is one of the Euclidean metric
    elif kind in ("edge", "past_edge") and owners:
        ident = draw(st.sampled_from(owners))
        reach = int(cell_radius(view.config.space, view.height, entry(t, ident).max_level))
        reach += kind == "past_edge"
        sides = [e for e in (ident - reach, ident + reach) if 0 <= e < extent]
        if sides:
            x = draw(st.sampled_from(sides))
    from_parent_level = draw(st.integers(0, 3))
    level_zero = from_parent_level == 1 and view.max_level == 0
    cover = covering(view, x, fig3_order(t, level_zero))
    path = cover[:draw(st.integers(0, len(cover)))] + known[:draw(st.integers(0, 4))]
    return req(x, ttl=ttl, from_parent_level=from_parent_level, path=path)


@given(peers=st.lists(_PEERS, max_size=40), bump=_PEERS,
       max_level=st.integers(0, 2), height=st.integers(1, 5), data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_property_warm_views_route_like_a_fresh_table(
        greedy_reference, fig3_order, peers, bump, max_level, height, data):
    """``route()`` through a table's kept views — cold, warm, and rebuilt
    after a version bump — is the literal Fig. 3 argmin of
    ``reference_greedy`` (conftest), for both variants and both metrics."""
    warm = fresh_view(peers, max_level, height)
    requests = data.draw(st.lists(greedy_requests(warm, fig3_order), min_size=1, max_size=6))
    for _ in range(2):                      # the second round hits the views
        for r in requests:
            want = greedy_reference(warm, r)
            assert route(warm, r) == want
            assert route(fresh_view(peers, max_level, height), r) == want
    stamps = (warm.table._view_full, warm.table._view_l0)

    _ROLE_ADDERS[bump[0]](warm.table, bump[1], bump[2])
    requests += data.draw(st.lists(greedy_requests(warm, fig3_order), max_size=4))
    for r in requests:
        assert route(warm, r) == greedy_reference(warm, r)
    for old, new in zip(stamps, (warm.table._view_full, warm.table._view_l0)):
        if new is not None and old is not None and new is not old:
            # Rebuilt, not patched, after the bump.  The one same-version
            # replacement is a first Euclidean hop filling in the ids.
            assert (new.version > old.version
                    or old.ids is None and new._replace(ids=None) == old)


def test_every_greedy_hop_at_scale_is_the_reference(every_greedy_hop_checked):
    """Every G decision of 2 000 lookups on a built N = 2 000 overlay, and
    of 2 000 more after a PAPER_POLICY repair step, equals the reference
    (and so does each hop's request with its TTL past the height)."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
    net.build(2000)
    rng = np.random.default_rng(5)

    def lookups():
        alive = net.alive_ids()
        pairs = [(int(a), int(b)) for a, b in rng.choice(alive, size=(2000, 2))]
        with every_greedy_hop_checked() as hops:
            net.run_lookup_batch(pairs, "G")
        assert hops[0] > 4 * len(pairs)

    lookups()
    victims = [int(v) for v in rng.choice(net.ids, 200, replace=False)]
    net.fail_nodes(victims)
    apply_failure_step(net, victims, PAPER_POLICY)
    lookups()
