"""Unit + property tests for hierarchy construction and countdowns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import theoretical_height, validate
from repro.core.capacity import CapacityDistribution, NodeCapacity
from repro.core.config import TreePConfig
from repro.core.hierarchy import DemotionManager, ElectionManager, build_layout
from repro.core.ids import IdSpace, assign_ids


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


class TestElectionManager:
    def _mgr(self, score_boost=0.0):
        cap = NodeCapacity(cpu=1 + score_boost)
        return ElectionManager(1, cap, TreePConfig.paper_case1())

    def test_start_returns_countdown(self):
        m = self._mgr()
        delay = m.start(0, [1, 2, 3])
        assert delay > 0

    def test_double_start_rejected(self):
        m = self._mgr()
        m.start(0, [1, 2])
        assert m.start(0, [1, 2]) == -1.0

    def test_win_when_unclaimed(self):
        m = self._mgr()
        m.start(0, [1, 2])
        assert m.on_countdown_expired(0) is True
        assert m.active[0].winner == 1

    def test_lose_when_claimed_first(self):
        m = self._mgr()
        m.start(0, [1, 2])
        m.on_claim(0, 2)
        assert m.on_countdown_expired(0) is False
        assert m.active[0].winner == 2

    def test_stronger_node_shorter_countdown(self):
        weak = ElectionManager(1, NodeCapacity(cpu=1), TreePConfig.paper_case1())
        strong = ElectionManager(2, NodeCapacity(cpu=32, memory_gb=64,
                                                 bandwidth_mbps=1000),
                                 TreePConfig.paper_case1())
        assert strong.start(0, []) < weak.start(0, [])


class TestDemotionManager:
    def _mgr(self, policy="strict"):
        return DemotionManager(1, NodeCapacity(),
                               TreePConfig.paper_case1(demotion_policy=policy))

    def test_demote_when_underfilled(self):
        m = self._mgr()
        assert m.should_demote(1, 1)
        assert m.should_demote(2, 0)

    def test_no_demote_with_two_children(self):
        assert not self._mgr().should_demote(1, 2)

    def test_keep_upper_policy(self):
        m = self._mgr(policy="keep-upper")
        assert m.should_demote(1, 0)       # level 1 still demotes
        assert not m.should_demote(2, 0)   # upper levels keep status (§VI)

    def test_countdown_positive(self):
        assert self._mgr().countdown() > 0


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
