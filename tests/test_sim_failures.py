"""Unit tests for the failure schedule."""

import numpy as np
import pytest

from reference import ConstantLatency
from repro import TreePConfig, TreePNetwork
from repro.bench.sweep import fail_until
from repro.core.ids import IdSpace
from repro.core.lookup import _radii, route
from repro.core.messages import LookupRequest
from repro.sim.engine import Simulator
from repro.sim import failures
from repro.sim.failures import FailureSchedule
from repro.sim.network import Network, Process


class Dummy(Process):
    def on_datagram(self, dgram):
        pass


def test_schedule_covers_population_once():
    pop = list(range(100))
    sched = FailureSchedule(pop, np.random.default_rng(0))
    killed = []
    for step in sched.steps():
        killed.extend(step.newly_failed)
    assert len(killed) == len(set(killed))
    assert set(killed) <= set(pop)


def test_step_fraction_respected():
    pop = list(range(200))
    sched = FailureSchedule(pop, np.random.default_rng(0))
    steps = list(sched.steps())
    assert all(len(s.newly_failed) == 10 for s in steps[:-1])


def test_stop_fraction_leaves_survivors(monkeypatch):
    monkeypatch.setattr(failures, "STOP_FRACTION", 0.10)
    pop = list(range(100))
    sched = FailureSchedule(pop, np.random.default_rng(0))
    steps = list(sched.steps())
    assert len(steps[-1].surviving) >= 10


def test_cumulative_fraction_monotone():
    sched = FailureSchedule(list(range(60)), np.random.default_rng(1))
    fracs = [s.cumulative_failed_fraction for s in sched.steps()]
    assert fracs == sorted(fracs)
    assert all(0 < f <= 0.95 + 1e-9 for f in fracs)


def test_surviving_disjoint_from_failed():
    sched = FailureSchedule(list(range(50)), np.random.default_rng(2))
    failed = set()
    for step in sched.steps():
        failed |= set(step.newly_failed)
        assert failed.isdisjoint(step.surviving)
        assert failed | set(step.surviving) == set(range(50))


def test_deterministic_given_rng_seed():
    s1 = FailureSchedule(list(range(40)), np.random.default_rng(9))
    s2 = FailureSchedule(list(range(40)), np.random.default_rng(9))
    assert [s.newly_failed for s in s1.steps()] == [s.newly_failed for s in s2.steps()]


def test_apply_step_sets_down():
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    for i in range(20):
        net.register(Dummy(i))
    sched = FailureSchedule(list(range(20)), np.random.default_rng(0))
    step = next(iter(sched.steps()))
    sched.apply_step(net, step)
    for v in step.newly_failed:
        assert not net.is_up(v)


def test_empty_population_rejected():
    with pytest.raises(ValueError):
        FailureSchedule([], np.random.default_rng(0))


# ------------------------------------------------ property/edge coverage

class TestFailureScheduleProperties:
    def test_cumulative_fractions_exact_per_step(self):
        """Step k has killed exactly min(k * per_step, max_killed) of the
        *initial* population — fractions are over the initial set, never
        the survivors."""
        n = 80
        sched = FailureSchedule(list(range(n)), np.random.default_rng(5))
        per_step = max(1, int(round(0.05 * n)))
        max_killed = int(np.floor(0.95 * n))
        killed = 0
        for k, step in enumerate(sched.steps(), start=1):
            killed += len(step.newly_failed)
            assert killed == min(k * per_step, max_killed)
            assert step.cumulative_failed_fraction == pytest.approx(
                killed / n)
            assert len(step.surviving) == n - killed

    def test_population_not_divisible_by_step(self, monkeypatch):
        """A population where per-step rounding matters: the last step is
        short, fractions stay exact and monotone."""
        monkeypatch.setattr(failures, "STEP_FRACTION", 0.10)
        monkeypatch.setattr(failures, "STOP_FRACTION", 0.10)
        sched = FailureSchedule(list(range(37)), np.random.default_rng(6))
        steps = list(sched.steps())
        sizes = [len(s.newly_failed) for s in steps]
        assert sum(sizes) == int(np.floor(0.9 * 37))
        assert all(s == sizes[0] for s in sizes[:-1])
        assert sizes[-1] <= sizes[0]
        fracs = [s.cumulative_failed_fraction for s in steps]
        assert fracs == sorted(set(fracs))

    def test_single_node_population(self, monkeypatch):
        monkeypatch.setattr(failures, "STOP_FRACTION", 0.0)
        sched = FailureSchedule([7], np.random.default_rng(0))
        steps = list(sched.steps())
        assert len(steps) == 1
        assert steps[0].newly_failed == (7,)
        assert steps[0].surviving == ()
        assert steps[0].cumulative_failed_fraction == 1.0

    def test_stop_fraction_zero_kills_everyone(self, monkeypatch):
        monkeypatch.setattr(failures, "STOP_FRACTION", 0.0)
        pop = list(range(40))
        sched = FailureSchedule(pop, np.random.default_rng(1))
        killed = [v for s in sched.steps() for v in s.newly_failed]
        assert sorted(killed) == pop

    def test_steps_reiterable_and_identical(self):
        """steps() is a fresh iterator over a permutation drawn up front:
        consuming it twice yields the same schedule."""
        sched = FailureSchedule(list(range(30)), np.random.default_rng(2))
        first = [s.newly_failed for s in sched.steps()]
        second = [s.newly_failed for s in sched.steps()]
        assert first == second

    def test_apply_step_is_idempotent_on_network(self):
        sim = Simulator()
        net = Network(sim, latency=ConstantLatency(0.01))
        for i in range(10):
            net.register(Dummy(i))
        sched = FailureSchedule(list(range(10)), np.random.default_rng(3))
        step = next(iter(sched.steps()))
        downs = []
        net.down_hooks.append(downs.append)
        sched.apply_step(net, step)
        epoch = net.liveness_epoch
        sched.apply_step(net, step)  # re-applying changes nothing
        assert net.liveness_epoch == epoch
        # ...and the liveness hook saw one down transition per victim
        assert sorted(downs) == sorted(step.newly_failed)


# ------------------------------------------------ ids stay Python ints

def test_every_yielded_id_is_a_python_int():
    sched = FailureSchedule(list(range(100)), np.random.default_rng(0))
    for step in sched.steps():
        assert all(type(i) is int for i in step.newly_failed + step.surviving)


def test_a_survivor_target_routes_like_its_int_twin_at_extent_2_60():
    """A NumPy id would compare its distances with the float radii in
    float64, inexactly past 2**53: targets one past a surviving cell
    owner's radius must get the decision their ``int`` twins get."""
    net = TreePNetwork(
        config=TreePConfig.paper_case1(space=IdSpace(extent=2**60)), seed=3)
    net.build(256)
    survivors = fail_until(net, 0.3)
    assert all(type(i) is int for i in survivors)
    height = net.layout.height
    radii = _radii(2**60, height)
    owners = [s for s in survivors if net.nodes[s].max_level > 0]
    assert owners
    for owner in owners:
        target = owner + int(radii[min(net.nodes[owner].max_level, height)]) + 1
        for at in survivors:
            req = LookupRequest(request_id=1, origin=at, target=target,
                                algo="G", ttl=0, path=())
            twin = req._replace(target=int(target))
            assert route(net.nodes[at], req) == route(net.nodes[at], twin)
