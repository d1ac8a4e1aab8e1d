"""Unit tests for workload generators."""

import numpy as np
import pytest

from repro.workloads import ChurnSchedule, LookupWorkload
from repro.workloads.capacities import grid_cluster_mix


class TestLookupWorkload:
    def test_uniform_pairs_distinct_endpoints(self):
        w = LookupWorkload(rng=np.random.default_rng(0))
        pairs = w.pairs(list(range(100, 200)), 500)
        assert len(pairs) == 500
        assert all(o != t for o, t in pairs)
        assert all(100 <= o < 200 and 100 <= t < 200 for o, t in pairs)

    def test_uniform_deterministic(self):
        a = LookupWorkload(rng=np.random.default_rng(7)).pairs(list(range(50)), 20)
        b = LookupWorkload(rng=np.random.default_rng(7)).pairs(list(range(50)), 20)
        assert a == b

    def test_validation(self):
        w = LookupWorkload(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            w.pairs([1], 5)
        with pytest.raises(ValueError):
            w.pairs([1, 2], 0)


class TestChurnSchedule:
    def test_sampled_sorted_and_alternating(self):
        rng = np.random.default_rng(0)
        sched = ChurnSchedule.sampled(list(range(20)), rng, duration=1000.0,
                                      mean_uptime=100.0, mean_downtime=50.0)
        times = [e.time for e in sched]
        assert times == sorted(times)
        # Per node: leave, rejoin, leave, ... strictly alternating.
        by_node = {}
        for e in sched:
            by_node.setdefault(e.node, []).append(e.kind)
        for kinds in by_node.values():
            for a, b in zip(kinds, kinds[1:]):
                assert a != b
            assert kinds[0] == "leave"

    def test_until_filters(self):
        rng = np.random.default_rng(1)
        sched = ChurnSchedule.sampled([1, 2, 3], rng, duration=500.0)
        early = sched.until(100.0)
        assert all(e.time <= 100.0 for e in early)

    def test_churn_rate_positive(self):
        rng = np.random.default_rng(2)
        sched = ChurnSchedule.sampled(list(range(10)), rng, duration=1000.0,
                                      mean_uptime=50.0)
        assert sched.churn_rate(1000.0) > 0

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ChurnSchedule.sampled([1], rng, duration=0.0)
        with pytest.raises(ValueError):
            ChurnSchedule([]).churn_rate(0.0)
        nan = float("nan")
        for bad in ({"duration": nan}, {"mean_uptime": nan}, {"mean_downtime": nan}):
            with pytest.raises(ValueError):
                ChurnSchedule.sampled([1], rng, **{"duration": 10.0, **bad})
        with pytest.raises(ValueError):
            ChurnSchedule([]).churn_rate(nan)


class TestCapacityMixes:
    def test_grid_mix_bimodal(self):
        caps = grid_cluster_mix(200, np.random.default_rng(0), server_fraction=0.2)
        big = [c for c in caps if c.cpu >= 16]
        assert 25 <= len(big) <= 80  # ~40 servers + a few lucky desktops

    def test_grid_mix_shuffled(self):
        caps = grid_cluster_mix(100, np.random.default_rng(1), server_fraction=0.5)
        first_half_servers = sum(1 for c in caps[:50] if c.cpu >= 16)
        assert 10 <= first_half_servers <= 40  # not all servers up front

    def test_grid_mix_validation(self):
        with pytest.raises(ValueError):
            grid_cluster_mix(10, np.random.default_rng(0), server_fraction=1.5)
