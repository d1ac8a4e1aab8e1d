"""Unit tests for the TreePNetwork orchestration API."""

import gc
import hashlib

import numpy as np
import pytest

from reference import bus_neighbours, entries, membership, validate
from repro import TreePConfig, TreePNetwork
from repro.bench.sweep import observed_hops
from repro.core.capacity import NodeCapacity
from repro.core.ids import IdSpace
from repro.core.messages import LookupRequest
from repro.core.node import TreePNode
from repro.core.routing_table import RoutingTable
from repro.core.tessellation import cell_owner


def test_build_returns_valid_layout():
    net = TreePNetwork(seed=1)
    layout = net.build(64)
    validate(layout, net.config)
    assert len(net.nodes) == 64
    assert net.layout is layout


def test_build_twice_rejected():
    net = TreePNetwork(seed=1)
    net.build(16)
    with pytest.raises(RuntimeError):
        net.build(16)


def test_build_deterministic():
    a, b = TreePNetwork(seed=9), TreePNetwork(seed=9)
    a.build(64)
    b.build(64)
    assert a.ids == b.ids
    assert a.layout.levels == b.layout.levels


def test_build_from_explicit_ids():
    ids = [100, 200, 300, 400, 500, 600, 700, 800]
    caps = {i: NodeCapacity() for i in ids}
    net = TreePNetwork(config=TreePConfig.paper_case1(space=IdSpace(extent=1000)))
    layout = net.build_from(ids, caps)
    assert layout.levels[0] == ids


def test_capacities_length_checked():
    net = TreePNetwork(seed=1)
    with pytest.raises(ValueError):
        net.build(8, capacities=[NodeCapacity()] * 3)


class TestTableInstallation:
    @pytest.fixture(scope="class")
    def net(self):
        net = TreePNetwork(seed=4)
        net.build(128)
        return net

    def test_every_node_has_two_level0_connections(self, net):
        for i, node in net.nodes.items():
            assert len(node.table.level0) >= 2, f"node {i} under-connected"

    def test_level0_links_are_adjacent(self, net):
        sorted_ids = sorted(net.ids)
        for idx, i in enumerate(sorted_ids[1:-1], start=1):
            node = net.nodes[i]
            assert sorted_ids[idx - 1] in node.table.level0
            assert sorted_ids[idx + 1] in node.table.level0

    def test_every_node_has_parent_or_is_root(self, net):
        root = net.layout.levels[-1][0]
        for i, node in net.nodes.items():
            if i == root:
                continue
            assert node.table.parents.get(node.max_level + 1) is not None

    def test_children_match_layout(self, net):
        for (p, lvl), kids in net.layout.children.items():
            node = net.nodes[p]
            assert node.table.level_children.get(lvl, []) == kids
            for k in kids:
                assert k in node.table.children

    def test_superiors_are_ancestors_plus_parents_neighbours(self, net):
        for i in net.ids[:30]:
            node = net.nodes[i]
            ancestors = set(net.layout.ancestors(i))
            assert ancestors - {i} <= node.table.superiors | set(
                node.table.parents.values()
            )

    def test_bus_links_on_own_levels(self, net):
        for lvl in range(1, net.layout.height):
            bus = net.layout.levels[lvl]
            for idx, i in enumerate(bus):
                node = net.nodes[i]
                neigh = node.table.neighbours_at(lvl)
                if idx > 0:
                    assert bus[idx - 1] in neigh
                if idx < len(bus) - 1:
                    assert bus[idx + 1] in neigh

    def test_routing_table_sizes_small(self, net):
        """§III.e: tables stay logarithmic-ish, not O(n)."""
        sizes = net.routing_table_sizes()
        assert np.mean(list(sizes.values())) < 20
        assert max(sizes.values()) < 70

    def test_level0_majority_has_few_connections(self, net):
        """Most nodes are leaf-only and maintain ~l0+1 connections (§III.e)."""
        conns = net.active_connection_counts()
        leaf_counts = [c for i, c in conns.items()
                       if net.nodes[i].max_level == 0]
        assert np.mean(leaf_counts) <= 4.0

    def test_height_estimates_installed(self, net):
        for node in net.nodes.values():
            assert node.height == net.layout.height


class TestLookups:
    def test_lookup_sync_found(self, small_net):
        r = small_net.lookup_sync(small_net.ids[0], small_net.ids[5])
        assert r.found

    def test_unknown_origin_raises(self, small_net):
        with pytest.raises(KeyError):
            small_net.lookup_sync(123456789, small_net.ids[0])

    @pytest.mark.parametrize("target", [-5, 2**32, 2**40, 2**64])
    def test_batch_checks_every_pair_before_issuing_any(self, small_net, target):
        """A target outside ``[0, L)`` is rejected like ``join_new_node``
        rejects an id, and a bad last pair issues nothing: no lookup is
        left pending and no timeout armed."""
        net = small_net
        good = [(net.ids[0], net.ids[i]) for i in range(1, 4)]
        queued = net.sim.pending
        with pytest.raises(ValueError, match="outside"):
            net.run_lookup_batch(good + [(net.ids[1], target)], "G")
        with pytest.raises(ValueError, match="outside"):
            net.lookup_sync(net.ids[0], target)
        with pytest.raises(KeyError):
            net.run_lookup_batch(good + [(123456789, net.ids[2])], "G")
        assert net.sim.pending == queued
        assert not any(node.pending for node in net.nodes.values())
        assert all(r.found for r in net.run_lookup_batch(good, "G"))

    def test_batch_order_preserved(self, small_net):
        pairs = [(small_net.ids[0], small_net.ids[i]) for i in range(1, 6)]
        results = small_net.run_lookup_batch(pairs, "G")
        assert [r.target for r in results] == [t for _, t in pairs]

    def test_hop_trails_recorded(self, fresh_net):
        known = set(fresh_net.nodes[fresh_net.ids[0]].table.all_known())
        target = next(i for i in fresh_net.ids[1:] if i not in known)
        table = fresh_net.network.handlers
        builtin = table[LookupRequest]
        with observed_hops(fresh_net) as max_ttl:
            assert table[LookupRequest] != builtin
            fresh_net.lookup_sync(fresh_net.ids[0], target, "G")
        assert max_ttl and max(max_ttl.values()) >= 1
        assert table[LookupRequest] == builtin

    def test_lookup_sync_resolves_with_timers_armed(self, fresh_net):
        """Run to its own resolution: keep-alive timers re-arm forever, so
        a lookup_sync that ran the queue empty would hit the event budget."""
        fresh_net.start_maintenance()
        before = fresh_net.sim.events_processed
        r = fresh_net.lookup_sync(fresh_net.ids[0], fresh_net.ids[40])
        assert r.found
        assert fresh_net.sim.events_processed - before < 5000
        fresh_net.stop_maintenance()

    def test_lookups_leave_no_per_request_state(self, fresh_net):
        """The leak oracle in miniature: with no harness installed, a batch
        of lookups grows no container on the network or on any node."""
        def sizes(obj):
            return {k: len(v) for k, v in vars(obj).items()
                    if isinstance(v, (dict, list, set))}

        objs = [fresh_net, *fresh_net.nodes.values()]
        before = [sizes(o) for o in objs]
        ids = fresh_net.ids
        pairs = [(ids[i], ids[-1 - i]) for i in range(30)]
        assert all(r.found for r in fresh_net.run_lookup_batch(pairs, "G"))
        assert [sizes(o) for o in objs] == before
        assert fresh_net.network.handlers[LookupRequest] == (
            fresh_net.nodes, TreePNode._on_LookupRequest)
        assert not any(n.pending for n in fresh_net.nodes.values())


def test_lookup_batch_returns_beside_armed_keepalives():
    """A batch stops at its last result, so lookups run while the overlay
    maintains itself: the keep-alives re-arm forever, and a batch that ran
    the queue empty would trip the simulator's event budget instead."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
    net.build(128)
    net.start_maintenance()
    rng = np.random.default_rng(3)
    pairs = [tuple(int(x) for x in rng.choice(net.ids, 2, replace=False))
             for _ in range(100)]
    results = net.run_lookup_batch(pairs, "G")
    assert [(r.origin, r.target) for r in results] == pairs
    assert all(r.found and not r.timed_out for r in results)
    assert net.sim.pending > 0  # the keep-alives are still armed
    net.stop_maintenance()


def test_a_blocking_wait_inside_an_event_is_rejected():
    """The pump and the lookup batch wait through ``Simulator.run``, so
    calling one from inside an event callback hits its reentrancy guard."""
    from repro.sim.engine import SimulationError

    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
    net.build(64)
    a, b = net.ids[0], net.ids[-1]
    for wait in (lambda: net.pump([], timeout=1.0),
                 lambda: net.run_lookup_batch([(a, b)]),
                 lambda: net.lookup_sync(a, b)):
        net.sim.schedule(0.0, wait)
        with pytest.raises(SimulationError, match="simulator is not reentrant"):
            net.sim.run()
    assert net.lookup_sync(a, b).found  # the guard was released each time


def test_pump_stops_at_its_deadline():
    """A pump that times out fires no event past its deadline and leaves
    the clock there, however far off the next queued event lies."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
    net.build(16)
    t0 = net.sim.now
    fired = []
    net.sim.schedule(50.0, lambda: fired.append(net.sim.now))
    assert net.pump([], timeout=1.0) is False
    assert net.sim.now == t0 + 1.0
    assert fired == []


@pytest.mark.parametrize("timeout", [float("nan"), -1.0])
def test_pump_rejects_a_bound_it_could_never_reach(timeout):
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
    net.build(16)
    net.start_maintenance()  # periodic timers a NaN deadline never stops
    fired = net.sim.events_processed
    with pytest.raises(ValueError, match="timeout"):
        net.pump([], timeout)
    assert net.sim.events_processed == fired
    net.stop_maintenance()


class TestFailureHelpers:
    def test_fail_nodes_and_alive_ids(self, fresh_net):
        victims = fresh_net.ids[:5]
        fresh_net.fail_nodes(victims)
        alive = fresh_net.alive_ids()
        assert set(alive) == set(fresh_net.ids[5:])


def test_loss_still_converges():
    """Lookups succeed (or time out cleanly) under 5% datagram loss."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=11)
    loss_rng = net.rng.get("loss")
    net.network.loss_model = lambda src, dst: loss_rng.random() < 0.05
    net.build(64)
    rng = np.random.default_rng(0)
    results = []
    for _ in range(30):
        o, t = (int(x) for x in rng.choice(net.ids, 2, replace=False))
        results.append(net.lookup_sync(o, t, "G"))
    found = sum(r.found for r in results)
    assert found >= 20  # most succeed; losses time out without hanging


# ------------------------------------------------ the build itself, pinned
def built_state(net):
    """Everything ``build_from`` leaves on the nodes, order-sensitive:
    ``_entries`` in dict order with every field, each role set in
    iteration order, ``level_tables``/``parents`` in insertion order,
    ``level_children``, ``height``/``max_level``."""
    out = []
    for ident, node in net.nodes.items():
        t = node.table
        out.append((
            ident, node.height, node.max_level,
            entries(t),
            list(t.level0), list(t.level0_indirect),
            [(lvl, list(ids)) for lvl, ids in t.level_tables.items()],
            list(t.children), list(t.neighbour_children), list(t.superiors),
            list(t.parents.items()),
            [(lvl, list(kids)) for lvl, kids in t.level_children.items()],
        ))
    return out


#: (config, n) -> (sha256 of :func:`built_state`, sum of every table's
#: ``version``) for ``TreePNetwork(config(), seed=9).build(n)``.  The
#: ``paper_case1`` rows were recorded on commit 02803cf, before
#: ``_install_tables`` passed its metadata positionally and the counters
#: moved off ``__setattr__``; the ``paper_case2`` row (variable ``nc``) on
#: commit 068b617, before the build wrote each table in one ``install``
#: call.  The post-churn digests of tests/test_core_repair.py start after
#: the first burst; this pins the installation itself.
PINNED_BUILDS = {
    ("paper_case1", 2000): ("2b0be4a16b141201", 41960),
    ("paper_case1", 5000): ("e9b9d540cbb51351", 110956),
    ("paper_case2", 2000): ("f78eea2ef298561a", 39243),
}


@pytest.mark.parametrize("case, n", [
    pytest.param(case, n, id=str(n) if case == "paper_case1" else f"{case}-{n}")
    for case, n in PINNED_BUILDS
])
def test_built_overlay_reproduces_recorded_state(case, n):
    net = TreePNetwork(config=getattr(TreePConfig, case)(), seed=9)
    net.build(n)
    digest = hashlib.sha256(repr(built_state(net)).encode()).hexdigest()[:16]
    versions = sum(node.table.version for node in net.nodes.values())
    assert (digest, versions) == PINNED_BUILDS[case, n]


def install_per_peer(net, layout):
    """The build's table install as one ``add_*`` call per peer and role —
    the reference ``RoutingTable.install`` must reproduce exactly."""
    now = net.sim.now
    space = net.config.space
    h = layout.height
    level_sets = [set(b) for b in layout.levels]
    scores, nc = layout.scores, layout.nc
    meta = {i: (lvl, scores[i], nc[i]) for i, lvl in layout.max_level.items()}

    for ident, node in net.nodes.items():
        node.max_level = layout.max_level[ident]
        node.height = h
        t = node.table

        left, right = bus_neighbours(layout.levels[0], ident)
        for n in (left, right):
            if n is not None:
                t.add("level0", n, now, *meta[n])
        if left is None and right is not None:
            _, rr = bus_neighbours(layout.levels[0], right)
            if rr is not None:
                t.add("level0", rr, now, *meta[rr])
        if right is None and left is not None:
            ll, _ = bus_neighbours(layout.levels[0], left)
            if ll is not None:
                t.add("level0", ll, now, *meta[ll])

        for lvl in range(1, node.max_level + 1):
            bus = layout.levels[lvl]
            l1, r1 = bus_neighbours(bus, ident)
            for n in (l1, r1):
                if n is not None:
                    t.add_level(lvl, n, now, *meta[n])
            if l1 is not None:
                l2, _ = bus_neighbours(bus, l1)
                if l2 is not None:
                    t.add_level(lvl, l2, now, *meta[l2])
            if r1 is not None:
                _, r2 = bus_neighbours(bus, r1)
                if r2 is not None:
                    t.add_level(lvl, r2, now, *meta[r2])
            for n0 in (left, right):
                if n0 is not None:
                    p = cell_owner(space, bus, n0)
                    if p != ident:
                        t.add_level(lvl, p, now, *meta[p])
            for n0 in (left, right):
                if n0 is not None and n0 in level_sets[lvl]:
                    t.add_level(lvl, n0, now, *meta[n0])

        for lvl in range(1, node.max_level + 1):
            t.open_children(lvl)
            for k in layout.children.get((ident, lvl), []):
                t.add_child(lvl, k, now, *meta[k])
            bus = layout.levels[lvl]
            for nb in bus_neighbours(bus, ident):
                if nb is not None:
                    for k in layout.children.get((nb, lvl), []):
                        t.add("neighbour_children", k, now, *meta[k])

        p = layout.parent.get(ident)
        if p is not None and p != ident:
            t.set_parent(node.max_level + 1, p, now, *meta[p])

        for anc in layout.ancestors(ident):
            if anc != ident:
                t.add("superiors", anc, now, *meta[anc])
        if p is not None and p != ident and layout.max_level.get(p, 0) > 0:
            pbus = layout.levels[layout.max_level[p]]
            for pn in bus_neighbours(pbus, p):
                if pn is not None and pn != ident:
                    t.add("superiors", pn, now, *meta[pn])


@pytest.mark.parametrize("case", ["paper_case1", "paper_case2"])
@pytest.mark.parametrize("strategy", ["random", "hash"])
@pytest.mark.parametrize("n", [2, 3, 17, 300, 2000])
def test_bulk_install_equals_the_per_peer_install(case, strategy, n, monkeypatch):
    """Bus endpoints (n = 2, 3), single-level trees and variable ``nc``:
    entries, every role set's iteration order and both counters agree."""
    def build():
        net = TreePNetwork(config=getattr(TreePConfig, case)(), seed=5)
        net.build(n, strategy=strategy)
        tables = [node.table for node in net.nodes.values()]
        return (built_state(net), sum(t.version for t in tables),
                sum(membership(t) for t in tables))

    bulk = build()
    monkeypatch.setattr(TreePNetwork, "_install_tables", install_per_peer)
    assert bulk == build()


def test_install_refuses_a_written_table_and_the_owner():
    t = RoutingTable(owner=5, book={i: (0, 1.0, 4) for i in range(10)})
    with pytest.raises(ValueError, match="itself"):
        t.install(0.0, [4, 5], [], [], [], {}, [])
    t.add("level0", 4, 0.0)
    with pytest.raises(RuntimeError, match="nothing has written"):
        t.install(0.0, [6], [], [], [], {}, [])


@pytest.mark.parametrize("enabled", [True, False])
def test_build_pauses_the_collector_and_restores_the_callers_setting(
        enabled, collector_state, monkeypatch):
    (gc.enable if enabled else gc.disable)()
    during = []
    install = TreePNetwork._install_tables

    def spying_install(self, layout):
        during.append(gc.isenabled())
        install(self, layout)

    monkeypatch.setattr(TreePNetwork, "_install_tables", spying_install)
    TreePNetwork(seed=1).build(32)
    assert during == [False]
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failed_build_still_restores_the_collector(
        enabled, collector_state, monkeypatch):
    (gc.enable if enabled else gc.disable)()

    def failing_install(self, layout):
        raise RuntimeError("boom")

    monkeypatch.setattr(TreePNetwork, "_install_tables", failing_install)
    with pytest.raises(RuntimeError, match="boom"):
        TreePNetwork(seed=1).build(32)
    assert gc.isenabled() == enabled
