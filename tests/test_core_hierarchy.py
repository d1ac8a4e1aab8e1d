"""Unit + property tests for hierarchy construction, and for the §III.b
countdowns a node runs on top of it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import ConstantLatency, theoretical_height, validate
from repro.core.capacity import CapacityDistribution, NodeCapacity
from repro.core.config import TreePConfig
from repro.core.hierarchy import build_layout
from repro.core.ids import IdSpace, assign_ids
from repro.core.messages import ElectionStart, ParentClaim
from repro.core.node import TreePNode
from repro.sim.engine import Simulator
from repro.sim.network import Network


def make_population(n, seed=0, homogeneous=False):
    rng = np.random.default_rng(seed)
    ids = assign_ids(IdSpace(), n, rng)
    if homogeneous:
        caps = {i: NodeCapacity() for i in ids}
    else:
        dist = CapacityDistribution(rng)
        caps = {i: dist.sample() for i in ids}
    return ids, caps


class TestBuildLayout:
    def test_small_network(self):
        ids, caps = make_population(16)
        layout = build_layout(ids, caps, TreePConfig.paper_case1())
        validate(layout, TreePConfig.paper_case1())
        assert layout.height >= 1
        assert sorted(ids) == layout.levels[0]

    def test_levels_shrink(self):
        ids, caps = make_population(256)
        layout = build_layout(ids, caps, TreePConfig.paper_case1())
        sizes = [len(b) for b in layout.levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 1  # a single root

    def test_nc_respected_fixed(self):
        ids, caps = make_population(256)
        cfg = TreePConfig.paper_case1()
        layout = build_layout(ids, caps, cfg)
        for (p, lvl), kids in layout.children.items():
            assert len(kids) <= 4

    def test_nc_respected_variable(self):
        ids, caps = make_population(256)
        cfg = TreePConfig.paper_case2()
        layout = build_layout(ids, caps, cfg)
        for (p, lvl), kids in layout.children.items():
            assert len(kids) <= caps[p].max_children()

    def test_variable_nc_flatter_hierarchy(self):
        """Capacity-derived nc (up to 8 children) gives a flatter tree."""
        ids, caps = make_population(512)
        h_fixed = build_layout(ids, caps, TreePConfig.paper_case1()).height
        h_var = build_layout(ids, caps, TreePConfig.paper_case2()).height
        assert h_var <= h_fixed

    def test_parents_have_higher_scores(self):
        """Promotion is capacity-aware: upper levels outscore the base."""
        ids, caps = make_population(512)
        layout = build_layout(ids, caps, TreePConfig.paper_case1())
        base = np.mean([caps[i].score() for i in layout.levels[0]])
        upper = np.mean([caps[i].score() for i in layout.levels[2]])
        assert upper > base

    def test_parent_map_points_one_level_up(self):
        ids, caps = make_population(128)
        layout = build_layout(ids, caps, TreePConfig.paper_case1())
        for i in ids:
            p = layout.parent[i]
            m = layout.max_level[i]
            if p is not None:
                assert layout.max_level[p] >= m + 1
            else:
                assert m == layout.height  # only the root is parentless

    def test_ancestors_chain_to_root(self):
        ids, caps = make_population(128)
        layout = build_layout(ids, caps, TreePConfig.paper_case1())
        root = layout.levels[-1][0]
        for i in ids[:20]:
            chain = layout.ancestors(i)
            if i != root:
                assert chain[-1] == root
                levels = [layout.max_level[a] for a in chain]
                assert levels == sorted(levels)

    def test_children_cover_every_node(self):
        ids, caps = make_population(128)
        layout = build_layout(ids, caps, TreePConfig.paper_case1())
        for lvl in range(1, layout.height + 1):
            covered = set(layout.levels[lvl])
            for p in layout.levels[lvl]:
                covered |= set(layout.children.get((p, lvl), ()))
            assert covered == set(layout.levels[lvl - 1])

    def test_height_near_theory(self):
        ids, caps = make_population(1024)
        layout = build_layout(ids, caps, TreePConfig.paper_case1())
        c = layout.average_children()
        expected = theoretical_height(1024, max(c, 1.5))
        assert abs(layout.height - expected) <= 2.5

    def test_deterministic(self):
        ids, caps = make_population(64)
        l1 = build_layout(ids, caps, TreePConfig.paper_case1())
        l2 = build_layout(ids, caps, TreePConfig.paper_case1())
        assert l1.levels == l2.levels

    def test_two_nodes(self):
        ids, caps = make_population(2)
        layout = build_layout(ids, caps, TreePConfig.paper_case1())
        assert layout.height == 1
        assert len(layout.levels[1]) == 1

    def test_validation_errors(self):
        ids, caps = make_population(4)
        with pytest.raises(ValueError):
            build_layout([ids[0]], caps, TreePConfig.paper_case1())
        with pytest.raises(ValueError):
            build_layout([1, 1, 2], {1: NodeCapacity(), 2: NodeCapacity()},
                         TreePConfig.paper_case1())

    def test_max_height_bound(self):
        ids, caps = make_population(256)
        cfg = TreePConfig.paper_case1(max_height=2)
        layout = build_layout(ids, caps, cfg)
        assert layout.height <= 2


def test_theoretical_height_formula():
    # h = log_c((n+1)/2): n=8191, c=4 -> log4(4096) = 6 (the paper's h).
    assert theoretical_height(8191, 4) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        theoretical_height(0, 4)
    with pytest.raises(ValueError):
        theoretical_height(10, 1)



@given(n=st.integers(4, 128), seed=st.integers(0, 1000),
       case=st.sampled_from(["case1", "case2"]))
@settings(max_examples=20, deadline=None)
def test_property_layout_invariants(n, seed, case):
    """Every generated layout passes full structural validation."""
    ids, caps = make_population(n, seed=seed)
    cfg = TreePConfig.paper_case1() if case == "case1" else TreePConfig.paper_case2()
    layout = build_layout(ids, caps, cfg)
    validate(layout, cfg)
    # Subset chain and coverage.
    for lvl in range(1, layout.height + 1):
        assert set(layout.levels[lvl]) <= set(layout.levels[lvl - 1])


def countdown_net(capacities, linked=True, **cfg_overrides):
    """Standalone nodes 1000, 2000, … with *capacities* (every pair linked
    on level 0 when *linked*), on a fabric whose event labels are recorded
    with their time."""
    cfg = TreePConfig.paper_case1(**cfg_overrides)
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    nodes = [TreePNode(1000 * (i + 1), cap, cfg) for i, cap in enumerate(capacities)]
    for node in nodes:
        net.register(node)
    net.handlers.update(TreePNode.handlers({node.ident: node for node in nodes}))
    for x in nodes:
        for y in nodes:
            if linked and x is not y:
                x.table.add("level0", y.ident, 0.0)
    fired = []
    sim.set_event_hook(lambda ev: fired.append((ev.label, sim.now)))
    return sim, net, nodes, fired


class TestElectionManager:
    """The election countdown of one node: one per open level, won by the
    first expiry nobody claimed before."""

    @staticmethod
    def _start(node, src):
        node._on_ElectionStart(src.ident, ElectionStart(level=0, initiator=src.ident))

    def test_start_returns_countdown(self):
        sim, net, (a, b, c), fired = countdown_net([NodeCapacity()] * 3)
        self._start(a, b)
        assert a.elections == {0: [a.ident, b.ident, c.ident]}
        sim.run(until=60.0)
        assert (f"election:{a.ident}:0", a.capacity.promotion_countdown()) in fired

    def test_double_start_rejected(self):
        sim, net, (a, b, c), fired = countdown_net([NodeCapacity()] * 3)
        self._start(a, b)
        electorate = a.elections[0]
        self._start(a, c)
        assert a.elections == {0: electorate}
        sim.run(until=60.0)
        assert [label for label, _ in fired].count(f"election:{a.ident}:0") == 1

    def test_win_when_unclaimed(self):
        sim, net, (a, b, c), _ = countdown_net([NodeCapacity()] * 3)
        self._start(a, b)
        sim.run(until=60.0)
        assert a.max_level == 1 and a.elections == {}
        assert net.stats.by_type["ParentClaim"] == 2
        assert b.table.parents.get(1) == c.table.parents.get(1) == a.ident

    def test_lose_when_claimed_first(self):
        sim, net, (a, b, c), _ = countdown_net([NodeCapacity()] * 3)
        self._start(a, b)
        a._on_ParentClaim(b.ident, ParentClaim(level=1, winner=b.ident,
                                               score=b.score))
        assert a.elections == {}
        sim.run(until=60.0)
        assert a.max_level == 0 and a.table.parents.get(1) == b.ident
        assert net.stats.by_type.get("ParentClaim", 0) == 0

    def test_stronger_node_shorter_countdown(self):
        sim, net, nodes, _ = countdown_net([
            NodeCapacity(cpu=4), NodeCapacity(cpu=16, memory_gb=32),
            NodeCapacity(cpu=8), NodeCapacity(cpu=2)])
        nodes[0].trigger_election(0)
        sim.run(until=30.0)
        assert [n.max_level for n in nodes] == [0, 1, 0, 0]
        assert all(n.table.parents.get(1) == 2000 for n in nodes if n.ident != 2000)
        assert all(n.elections == {} for n in nodes)


class TestDemotionManager:
    """The demotion countdown of one parent: at the top level it parents
    fewer than two children at, it abdicates after
    ``demotion_countdown(demotion_base)``, unless the ``keep-upper`` policy
    keeps it above level 1."""

    @staticmethod
    def _parent(policy, level, kids):
        """Node 1000 at *level*, parenting *kids* children there and two at
        every level below; returns it with the times its levels fired."""
        sim, net, (node, *others), fired = countdown_net(
            [NodeCapacity()] * 5, linked=False, demotion_policy=policy,
            demotion_base=1.0)
        node.max_level = level
        pool = iter(others)
        for lvl in range(1, level + 1):
            node.table.open_children(lvl)
            for _ in range(kids if lvl == level else 2):
                node.table.add_child(lvl, next(pool).ident, 0.0,
                                     max_level=lvl - 1)
        node.check_demotion()
        armed = set(node.demoting)
        sim.run(until=60.0)
        assert not node.demoting
        return node, armed, fired

    def _abdicates(self, policy, level, kids):
        node, armed, _ = self._parent(policy, level, kids)
        assert node.max_level in (level - 1, level)
        assert armed == ({level} if node.max_level < level else set())
        return node.max_level < level

    def test_demote_when_underfilled(self):
        for level in (1, 2):
            for kids in (0, 1):
                assert self._abdicates("strict", level, kids)

    def test_no_demote_with_two_children(self):
        for policy in ("strict", "keep-upper"):
            for level in (1, 2):
                assert not self._abdicates(policy, level, 2)

    def test_keep_upper_policy(self):
        for kids in (0, 1):
            assert self._abdicates("keep-upper", 1, kids)       # level 1 still demotes
            assert not self._abdicates("keep-upper", 2, kids)   # upper levels keep status (§VI)

    def test_countdown_positive(self):
        node, _, fired = self._parent("strict", 1, 0)
        countdown = node.capacity.demotion_countdown(base=1.0)
        assert countdown > 0
        assert (f"demotion:{node.ident}:1", countdown) in fired
