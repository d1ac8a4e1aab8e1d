"""Unit + property tests for the capacity model."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.capacity import CapacityDistribution, NodeCapacity, fill_scores
from repro.workloads.capacities import grid_cluster_mix


def test_defaults_valid():
    c = NodeCapacity()
    assert c.score() > 0


def test_validation_rejects_nonpositive_resources():
    with pytest.raises(ValueError):
        NodeCapacity(cpu=0)
    with pytest.raises(ValueError):
        NodeCapacity(bandwidth_mbps=-1)
    with pytest.raises(ValueError):
        NodeCapacity(uptime_hours=0)


@pytest.mark.parametrize("field", ["cpu", "memory_gb", "bandwidth_mbps",
                                   "storage_gb", "uptime_hours"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_validation_rejects_non_finite_resources(field, value):
    with pytest.raises(ValueError, match=field):
        NodeCapacity(**{field: value})


def test_validation_rejects_bad_loads():
    with pytest.raises(ValueError):
        NodeCapacity(cpu_load=1.5)
    with pytest.raises(ValueError):
        NodeCapacity(net_load=-0.1)


def test_score_monotone_in_resources():
    small = NodeCapacity(cpu=1, memory_gb=1, bandwidth_mbps=5)
    big = NodeCapacity(cpu=16, memory_gb=64, bandwidth_mbps=500)
    assert big.score() > small.score()


def test_load_reduces_score():
    idle = NodeCapacity(cpu=4)
    busy = NodeCapacity(cpu=4, cpu_load=0.9, net_load=0.9)
    assert busy.score() < idle.score()


def reference_score(c):
    """The scoring formula, evaluated afresh (what ``score()`` memoises)."""
    resources = np.array([np.log1p(c.cpu), np.log1p(c.memory_gb),
                          np.log1p(c.bandwidth_mbps), np.log1p(c.storage_gb),
                          np.log1p(c.uptime_hours)])
    gmean = float(np.exp(np.mean(np.log(resources + 1e-9))))
    return gmean * ((1.0 - 0.5 * c.cpu_load) * (1.0 - 0.5 * c.net_load))


class TestScoreMemo:
    def test_repeat_calls_return_the_identical_float(self):
        c = NodeCapacity(cpu=4, memory_gb=8, bandwidth_mbps=120, cpu_load=0.3)
        first = c.score()
        assert c.score() == first == reference_score(c)  # bit-for-bit, no approx
        assert c.score() is first

    def test_copies_score_for_themselves(self):
        c = NodeCapacity(cpu=4)
        base = c.score()
        for copy in (dataclasses.replace(c, cpu_load=0.5),
                     dataclasses.replace(c, bandwidth_mbps=500.0)):
            assert copy.score() == reference_score(copy) != base
        assert c.score() == base

    def test_memo_is_invisible_to_value_semantics(self):
        scored, fresh = NodeCapacity(cpu=4, net_load=0.2), NodeCapacity(cpu=4, net_load=0.2)
        scored.score()
        assert scored == fresh and hash(scored) == hash(fresh)
        assert repr(scored) == repr(fresh)
        assert dataclasses.asdict(scored) == dataclasses.asdict(fresh)
        back = pickle.loads(pickle.dumps(scored))
        assert back == fresh and back.score() == fresh.score()

    def test_instances_stay_frozen(self):
        c = NodeCapacity(cpu=4)
        c.score()
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.cpu = 8  # type: ignore[misc]


def assert_batch_is_the_formula(caps):
    """One batch scores every capacity as the formula does, bit for bit, and
    as a batch of one (``score()`` on an unscored copy) does."""
    fill_scores(caps)
    assert [c.score() for c in caps] == [reference_score(c) for c in caps]
    singles = [dataclasses.replace(c) for c in caps]  # fresh, unscored
    assert [c.score() for c in singles] == [c.score() for c in caps]


class TestBatchedScore:
    def test_distribution_draws(self):
        assert_batch_is_the_formula(
            CapacityDistribution(np.random.default_rng(11)).sample_many(50_000))

    def test_grid_cluster_mix(self):
        assert_batch_is_the_formula(grid_cluster_mix(20_000, np.random.default_rng(12)))

    @given(st.lists(st.tuples(*[st.floats(-20, 20)] * 5, st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_resources_over_forty_orders_of_magnitude(self, rows):
        assert_batch_is_the_formula([
            NodeCapacity(*(float(np.exp(x)) for x in logs), cpu_load=l1, net_load=l2)
            for *logs, l1, l2 in rows
        ])

    def test_fills_only_the_unscored(self):
        scored, fresh = NodeCapacity(cpu=4), NodeCapacity(cpu=8)
        memo = scored.score()
        fill_scores([scored, fresh, fresh])
        assert scored.score() is memo
        assert fresh.score() == reference_score(fresh)


class TestMaxChildren:
    def test_bounds_respected(self):
        weak = NodeCapacity(cpu=1, memory_gb=0.5, bandwidth_mbps=1,
                            storage_gb=1, uptime_hours=1)
        strong = NodeCapacity(cpu=64, memory_gb=512, bandwidth_mbps=10000,
                              storage_gb=10000, uptime_hours=10000)
        assert 2 <= weak.max_children() <= 8
        assert 2 <= strong.max_children() <= 8
        assert strong.max_children() > weak.max_children()


class TestCountdowns:
    def test_promotion_shorter_for_stronger(self):
        weak = NodeCapacity(cpu=1, bandwidth_mbps=1)
        strong = NodeCapacity(cpu=32, bandwidth_mbps=1000, memory_gb=64)
        assert strong.promotion_countdown() < weak.promotion_countdown()

    def test_demotion_longer_for_stronger(self):
        weak = NodeCapacity(cpu=1, bandwidth_mbps=1)
        strong = NodeCapacity(cpu=32, bandwidth_mbps=1000, memory_gb=64)
        assert strong.demotion_countdown() > weak.demotion_countdown()

    def test_scaling_with_base(self):
        c = NodeCapacity()
        assert c.demotion_countdown(base=2.0) == pytest.approx(
            2 * c.demotion_countdown(base=1.0)
        )


class TestDistribution:
    def test_samples_valid(self):
        dist = CapacityDistribution(np.random.default_rng(0))
        for c in dist.sample_many(200):
            assert c.cpu in (1, 2, 4, 8, 16)
            assert 0 <= c.cpu_load <= 1

    def test_heterogeneous(self):
        dist = CapacityDistribution(np.random.default_rng(0))
        scores = [c.score() for c in dist.sample_many(200)]
        assert np.std(scores) > 0.1  # genuinely spread out

    def test_deterministic(self):
        a = CapacityDistribution(np.random.default_rng(5)).sample()
        b = CapacityDistribution(np.random.default_rng(5)).sample()
        assert a == b

    def test_count_validation(self):
        dist = CapacityDistribution(np.random.default_rng(0))
        with pytest.raises(ValueError):
            dist.sample_many(0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024, 99_991])
    def test_stream_matches_the_reference_draws(self, seed):
        """Same capacities, and the generator left in the same state, so
        every later draw on it is untouched."""
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert CapacityDistribution(ours).sample_many(3000) == [
            reference_sample(ref) for _ in range(3000)]
        assert ours.bit_generator.state == ref.bit_generator.state


def reference_sample(r):
    """``CapacityDistribution.sample``'s draw sequence, the CPU class via
    ``Generator.choice`` with ``p=``."""
    return NodeCapacity(
        cpu=float(r.choice([1, 2, 4, 8, 16], p=[0.35, 0.3, 0.2, 0.1, 0.05])),
        memory_gb=float(2.0 ** r.uniform(0, 6)),
        bandwidth_mbps=float(np.exp(r.normal(np.log(10.0), 1.0))),
        storage_gb=float(np.exp(r.normal(np.log(100.0), 0.8))),
        uptime_hours=float((r.pareto(1.5) + 1.0) * 2.0),
        cpu_load=float(r.beta(2, 5)),
        net_load=float(r.beta(2, 5)),
    )


@given(
    cpu=st.floats(0.5, 128), mem=st.floats(0.5, 1024), bw=st.floats(0.5, 10000),
    sto=st.floats(0.5, 10000), up=st.floats(0.5, 10000),
    l1=st.floats(0, 1), l2=st.floats(0, 1),
)
@settings(max_examples=100, deadline=None)
def test_property_score_positive_and_children_bounded(cpu, mem, bw, sto, up, l1, l2):
    c = NodeCapacity(cpu=cpu, memory_gb=mem, bandwidth_mbps=bw, storage_gb=sto,
                     uptime_hours=up, cpu_load=l1, net_load=l2)
    assert c.score() > 0
    assert 2 <= c.max_children() <= 8
    assert c.promotion_countdown() > 0
    assert c.demotion_countdown() > 0
