"""Chaos tests for adversarial network conditions (sim layer).

Covers the three condition models and the ``NetworkConditions``
owner of the partition filter: exactly-once cut/heal counts under
overlapping partitions, asymmetric cut semantics, scheduled partitions through the
sim engine, the ``Network.loss_model`` seam, straggler stream hygiene
(control runs stay bit-identical), and seed-pinned digests so a refactor
cannot silently change what any model emits at a fixed seed.
"""

import hashlib

import numpy as np
import pytest

from reference import ConstantLatency
from repro.sim.conditions import (
    GilbertElliott,
    NetworkConditions,
    Partition,
    StragglerLatency,
)
from repro.sim.engine import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.network import Network, Process


class Sink(Process):
    def __init__(self, address):
        super().__init__(address)
        self.received = []

    def on_datagram(self, dgram):
        self.received.append(dgram)


def sink(net, address):
    return next(p for p in net.processes() if p.address == address)


def make_net(n=10, latency=None):
    sim = Simulator()
    net = Network(sim, latency=latency or ConstantLatency(0.01))
    for i in range(n):
        net.register(Sink(i))
    return sim, net


# ----------------------------------------------------------- partitions

class TestPartition:
    def test_bidirectional_blocks_both_ways(self):
        p = Partition(a=frozenset({1, 2}), b=frozenset({3, 4}))
        assert p.blocks(1, 3) and p.blocks(3, 1)
        assert not p.blocks(1, 2) and not p.blocks(3, 4)

    def test_asymmetric_blocks_a_to_b_only(self):
        p = Partition(a=frozenset({1}), b=frozenset({2}), bidirectional=False)
        assert p.blocks(1, 2)
        assert not p.blocks(2, 1)

    def test_value_equality_is_the_same_cut(self):
        p1 = Partition(a=frozenset({1}), b=frozenset({2}), name="x")
        p2 = Partition(a=frozenset({1}), b=frozenset({2}), name="x")
        assert p1 == p2 and hash(p1) == hash(p2)


class TestNetworkConditions:
    def test_cut_blocks_and_accounts_per_name(self):
        sim, net = make_net()
        cond = NetworkConditions(net)
        p = cond.partition({0, 1}, {2, 3}, name="rack-a")
        cond.cut(p)
        net.send(0, 2, "x")   # blocked a->b
        net.send(2, 0, "x")   # blocked b->a (bidirectional)
        net.send(0, 1, "x")   # intra-side, flows
        sim.run(until=1.0)
        assert cond.blocked == {"rack-a": 2}
        assert cond.blocked_total() == 2
        assert net.stats.dropped_partition == 2
        assert len(sink(net, 1).received) == 1

    def test_asymmetric_cut_lets_replies_through(self):
        sim, net = make_net()
        cond = NetworkConditions(net)
        p = cond.partition({0}, {1}, bidirectional=False)
        cond.cut(p)
        net.send(0, 1, "req")
        net.send(1, 0, "reply")
        sim.run(until=1.0)
        assert len(sink(net, 1).received) == 0
        assert len(sink(net, 0).received) == 1

    def test_complement_partition_over_current_membership(self):
        sim, net = make_net(n=6)
        cond = NetworkConditions(net)
        p = cond.partition({0, 1})
        assert p.b == frozenset({2, 3, 4, 5})

    def test_overlapping_sides_rejected(self):
        sim, net = make_net()
        cond = NetworkConditions(net)
        with pytest.raises(ValueError):
            cond.partition({0, 1}, {1, 2})

    def test_hooks_exactly_once_under_overlapping_partitions(self):
        """Each transition counts once in ``cuts`` / ``heals``."""
        sim, net = make_net()
        cond = NetworkConditions(net)
        p1 = cond.partition({0, 1}, {2, 3}, name="p1")
        p2 = cond.partition({0, 4}, {5, 6}, name="p2")  # overlaps p1's side a
        assert cond.cut(p1) and cond.cut(p2)
        assert not cond.cut(p1)          # repeat cut: no-op, not counted
        assert (cond.cuts, cond.heals) == (2, 0)
        assert cond.heal(p1)
        assert not cond.heal(p1)         # repeat heal: no-op, not counted
        assert (cond.cuts, cond.heals) == (2, 1)
        assert cond.heal(p2)
        assert (cond.cuts, cond.heals) == (2, 2)

    def test_overlapping_cuts_block_union_and_heal_independently(self):
        sim, net = make_net(n=8)
        cond = NetworkConditions(net)
        p1 = cond.partition({0}, {1}, name="p1")
        p2 = cond.partition({0}, {2}, name="p2")
        cond.cut(p1)
        cond.cut(p2)
        net.send(0, 1, "x")
        net.send(0, 2, "x")
        cond.heal(p1)
        net.send(0, 1, "x")  # p1 healed: flows
        net.send(0, 2, "x")  # p2 still active: blocked
        sim.run(until=1.0)
        assert len(sink(net, 1).received) == 1
        assert len(sink(net, 2).received) == 0
        assert cond.blocked == {"p1": 1, "p2": 2}

    def test_scheduled_partition_cuts_and_heals_via_sim(self):
        sim, net = make_net()
        cond = NetworkConditions(net)
        p, cut_ev, heal_ev = cond.schedule(5.0, 10.0, {0, 1})
        sim.run(until=4.0)
        assert cond.active() == ()
        sim.run(until=6.0)
        assert cond.active() == (p,)
        sim.run(until=16.0)
        assert cond.active() == ()
        assert (cond.cuts, cond.heals) == (1, 1)

    def test_manual_heal_makes_scheduled_heal_a_noop(self):
        sim, net = make_net()
        cond = NetworkConditions(net)
        p, _, _ = cond.schedule(1.0, 10.0, {0})
        sim.run(until=2.0)
        assert cond.heal(p)          # manual heal mid-window
        sim.run(until=20.0)          # scheduled heal fires -> no-op
        assert cond.heals == 1

    def test_schedule_rejects_nonpositive_duration(self):
        sim, net = make_net()
        cond = NetworkConditions(net)
        with pytest.raises(ValueError):
            cond.schedule(1.0, 0.0, {0})
        with pytest.raises(ValueError):
            cond.schedule(1.0, float("nan"), {0})

    def test_a_second_owner_of_the_partition_filter_raises(self):
        """One owner per seam: neither a second ``NetworkConditions`` nor
        one over a filter installed by hand may take the filter over."""
        sim, net = make_net()
        cond = NetworkConditions(net)
        installed = net.partition_filter
        with pytest.raises(ValueError):
            NetworkConditions(net)
        assert net.partition_filter == installed
        cond.cut(cond.partition({0}, {1}))
        net.send(0, 1, "x")   # the first owner still blocks
        sim.run(until=1.0)
        assert len(sink(net, 1).received) == 0
        sim, net = make_net()
        net.partition_filter = lambda s, d: d == 9  # pre-existing blackhole
        with pytest.raises(ValueError):
            NetworkConditions(net)


# ------------------------------------------------------------- loss seam

class TestLossModelSeam:
    def test_loss_model_drops_and_counts_as_loss(self):
        sim, net = make_net()
        net.loss_model = lambda s, d: d == 1
        net.send(0, 1, "x")
        net.send(0, 2, "x")
        sim.run(until=1.0)
        assert net.stats.dropped_loss == 1
        assert len(sink(net, 1).received) == 0
        assert len(sink(net, 2).received) == 1

    def test_gilbert_elliott_on_network_counts_drops(self):
        sim, net = make_net()
        ge = GilbertElliott(np.random.default_rng(5), loss_bad=1.0,
                            p_enter_bad=0.5, p_exit_bad=0.2)
        net.loss_model = ge
        for i in range(300):
            net.send(0, 1 + (i % 9), "x")
        sim.run(until=10.0)
        assert ge.packets == 300
        assert ge.drops > 0
        assert net.stats.dropped_loss == ge.drops


# --------------------------------------------------------- GilbertElliott

class TestGilbertElliott:
    def test_rejects_out_of_range_probabilities(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            GilbertElliott(rng, loss_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliott(rng, p_enter_bad=-0.1)

    def test_stationary_and_expected_loss(self):
        ge = GilbertElliott(np.random.default_rng(0), loss_good=0.01,
                            loss_bad=0.5, p_enter_bad=0.02, p_exit_bad=0.18)
        assert ge.stationary_bad() == pytest.approx(0.1)
        assert ge.expected_loss() == pytest.approx(0.1 * 0.5 + 0.9 * 0.01)

    def test_observed_loss_converges_to_stationary(self):
        ge = GilbertElliott(np.random.default_rng(1), loss_bad=0.6,
                            p_enter_bad=0.05, p_exit_bad=0.15)
        for i in range(40000):
            ge(0, i % 4)
        assert ge.observed_loss() == pytest.approx(ge.expected_loss(),
                                                   rel=0.25)

    def test_losses_are_bursty_not_iid(self):
        """Drops cluster: the mean run length of consecutive drops on one
        link must exceed the iid expectation at the same marginal rate."""
        ge = GilbertElliott(np.random.default_rng(2), loss_bad=0.9,
                            p_enter_bad=0.01, p_exit_bad=0.2)
        outcomes = [ge(0, 1) for _ in range(60000)]
        runs, current = [], 0
        for dropped in outcomes:
            if dropped:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        p = sum(outcomes) / len(outcomes)
        iid_mean_run = 1.0 / (1.0 - p)
        assert np.mean(runs) > 1.5 * iid_mean_run

    def test_draw_count_is_path_independent(self):
        """Exactly two RNG draws per datagram regardless of chain state, so
        downstream consumers of a shared stream never shift."""
        rng = np.random.default_rng(3)
        ge = GilbertElliott(rng, loss_bad=1.0, p_enter_bad=0.9, p_exit_bad=0.1)
        before = rng.bit_generator.state["state"]["state"]
        for i in range(57):
            ge(i % 3, (i + 1) % 3)
        rng2 = np.random.default_rng(3)
        rng2.random(2 * 57)
        assert (rng.bit_generator.state["state"]["state"]
                == rng2.bit_generator.state["state"]["state"])
        assert before != rng.bit_generator.state["state"]["state"]

    def test_per_link_chains_are_independent(self):
        ge = GilbertElliott(np.random.default_rng(4), loss_bad=1.0,
                            p_enter_bad=1.0, p_exit_bad=0.0)
        ge(1, 2)  # link (1,2) enters bad and stays
        assert ge._bad[(1, 2)] is True
        assert (2, 1) not in ge._bad  # the reverse link has its own chain

    def test_seed_pinned_drop_sequence(self):
        ge = GilbertElliott(np.random.default_rng(42), loss_bad=0.7,
                            p_enter_bad=0.1, p_exit_bad=0.3)
        bits = "".join(str(int(ge(0, 1))) for _ in range(256))
        assert hashlib.sha256(bits.encode()).hexdigest()[:16] == \
            "1ef78966a85ea732"


# ------------------------------------------------------- StragglerLatency

class TestStragglerLatency:
    def test_victim_links_slowed_exactly_by_factor(self):
        s = StragglerLatency(ConstantLatency(0.01), {3}, 10.0)
        assert s.sample(3, 5) == pytest.approx(0.1)
        assert s.sample(5, 3) == pytest.approx(0.1)
        assert s.sample(4, 5) == pytest.approx(0.01)
        assert s.slowed == 2

    def test_factor_one_is_bit_identical_to_base(self):
        r1, r2 = np.random.default_rng(21), np.random.default_rng(21)
        base = UniformLatency(r1)
        wrapped = StragglerLatency(UniformLatency(r2), {0, 1, 2}, 1.0)
        assert [base.sample(0, 1) for _ in range(100)] == \
            [wrapped.sample(0, 1) for _ in range(100)]

    def test_empty_victims_is_bit_identical_to_base(self):
        r1, r2 = np.random.default_rng(23), np.random.default_rng(23)
        base = UniformLatency(r1)
        wrapped = StragglerLatency(UniformLatency(r2), set(), 50.0)
        assert [base.sample(i, i + 1) for i in range(100)] == \
            [wrapped.sample(i, i + 1) for i in range(100)]
        assert wrapped.slowed == 0

    def test_base_stream_advances_identically_for_victims(self):
        """The base model is sampled exactly once per call whether or not
        the link is slowed, so non-victim draws downstream stay aligned."""
        r1, r2 = np.random.default_rng(25), np.random.default_rng(25)
        plain = UniformLatency(r1)
        slow = StragglerLatency(UniformLatency(r2), {0}, 8.0)
        plain.sample(0, 1)          # victim link on the wrapped model
        slow.sample(0, 1)
        assert plain.sample(5, 6) == slow.sample(5, 6)  # next draw aligned

    def test_rejects_sub_one_factor(self):
        with pytest.raises(ValueError):
            StragglerLatency(ConstantLatency(0.01), {1}, 0.5)

    def test_straggler_network_run_slows_only_victim_links(self):
        def run(victims):
            sim, net = make_net(latency=ConstantLatency(0.01))
            arrivals = {}
            net.delivery_hook = lambda d: arrivals.__setitem__(d.dst, sim.now)
            net.latency = StragglerLatency(net.latency, victims, 5.0)
            net.send(0, 1, "x")
            net.send(2, 3, "x")
            sim.run(until=5.0)
            return arrivals

        control = run(set())
        slowed = run({0})
        assert slowed[1] == pytest.approx(5.0 * control[1])  # victim link
        assert slowed[3] == control[3]                       # untouched link


# ------------------------------------------------- end-to-end digest pin

class TestConditionDigests:
    def test_partitioned_network_delivery_digest(self):
        """Seed-pinned end-to-end: a partitioned, lossy, slowed network
        delivers exactly the same set of datagrams at the same times."""
        sim, net = make_net(n=8, latency=ConstantLatency(0.05))
        cond = NetworkConditions(net)
        cond.cut(cond.partition({0, 1}, {2, 3}, name="d"))
        net.loss_model = GilbertElliott(
            np.random.default_rng(33), loss_bad=0.8, p_enter_bad=0.2,
            p_exit_bad=0.2)
        net.latency = StragglerLatency(net.latency, {4}, 6.0)
        k = 0
        for i in range(120):
            net.send(i % 8, (i * 5 + 1) % 8, k)
            k += 1
        sim.run(until=10.0)
        rows = []
        for p in range(8):
            for d in sink(net, p).received:
                rows.append(f"{p}:{d.src}:{d.payload}:{d.send_time:.6f}")
        h = hashlib.sha256("|".join(sorted(rows)).encode()).hexdigest()[:16]
        assert h == "842ca8070bc8fc48"
