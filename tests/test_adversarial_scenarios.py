"""Chaos tests for the adversarial workload plans and scenario group.

Three layers: the declarative plan builders in
:mod:`repro.workloads.adversarial` (rack disjointness, fraction
boundaries, determinism), the five registered ``adv_*`` scenarios (every
survival Check passes at smoke params; metrics are seed-deterministic),
and a standalone end-to-end regression for the durability invariant —
no acknowledged quorum write may become unreadable after an asymmetric
partition heals — independent of the bench harness, so the invariant is
enforced twice (scenario Check + pytest).
"""

import numpy as np
import pytest

import repro.bench.scenarios  # noqa: F401  (populates the registry)
from repro.bench import registry
from repro.cluster import Cluster
from repro.core.config import TreePConfig
from repro.bench.cli import main as bench_cli
from repro.bench.runner import run_scenario
from repro.obs import STATUS_OPEN, capture
from repro.sim.conditions import NetworkConditions
from repro.storage import QuorumConfig
from repro.workloads.adversarial import (
    PartitionPlan,
    children_map,
    rack_failure_plan,
    straggler_plan,
    subtree_in_span,
    subtree_members,
    subtree_partition_plan,
)

#          0
#        /   \
#       1     2
#      / \   / \
#     3   4 5   6
#    /|
#   7 8
TOPOLOGY = {0: -1, 1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 3}

ADV_SCENARIOS = (
    "adv_partition_quorum", "adv_rack_failure_jobs", "adv_straggler_tail",
    "adv_loss_burst_lookup", "adv_heal_convergence",
)


# ------------------------------------------------------------ plan helpers

class TestTopologyHelpers:
    def test_children_map_inverts_snapshot(self):
        assert children_map(TOPOLOGY) == {
            0: [1, 2], 1: [3, 4], 2: [5, 6], 3: [7, 8]}

    def test_subtree_members_inclusive_and_sorted(self):
        assert subtree_members(TOPOLOGY, 1) == [1, 3, 4, 7, 8]
        assert subtree_members(TOPOLOGY, 7) == [7]
        assert subtree_members(TOPOLOGY, 0) == sorted(TOPOLOGY)

    def test_subtree_members_unknown_root_raises(self):
        with pytest.raises(ValueError):
            subtree_members(TOPOLOGY, 99)

    def test_subtree_in_span_lands_in_span(self):
        rng = np.random.default_rng(0)
        root = subtree_in_span(TOPOLOGY, rng, 0.3, 0.6)
        frac = len(subtree_members(TOPOLOGY, root)) / len(TOPOLOGY)
        assert 0.3 <= frac <= 0.6

    def test_subtree_in_span_nearest_miss_fallback(self):
        # No internal subtree covers >= 90%: the largest (node 1, 5/9)
        # must come back as the nearest miss.
        root = subtree_in_span(TOPOLOGY, np.random.default_rng(1), 0.9, 1.0)
        assert root == 1

    def test_subtree_in_span_rejects_bad_span_and_leaf_topology(self):
        with pytest.raises(ValueError):
            subtree_in_span(TOPOLOGY, np.random.default_rng(0), 0.6, 0.3)
        star = {0: -1, 1: 0, 2: 0}  # root's children are all leaves
        with pytest.raises(ValueError):
            subtree_in_span(star, np.random.default_rng(0), 0.1, 0.9)


class TestRackFailurePlan:
    def test_racks_are_disjoint_whole_subtrees(self):
        plan = rack_failure_plan(TOPOLOGY, np.random.default_rng(0), 0.4)
        seen = set()
        for rack in plan.racks:
            assert not seen.intersection(rack)
            seen.update(rack)
            if len(rack) > 1:  # a real rack is a whole subtree
                assert sorted(rack) == subtree_members(TOPOLOGY, min(rack))

    def test_fraction_target_met_exactly_or_overshot_by_one_rack(self):
        for seed in range(8):
            plan = rack_failure_plan(TOPOLOGY, np.random.default_rng(seed),
                                     0.4)
            assert plan.fraction >= 0.4
            assert plan.victims == tuple(
                n for rack in plan.racks for n in rack)
            assert len(set(plan.victims)) == len(plan.victims)

    def test_fraction_one_kills_everyone(self):
        plan = rack_failure_plan(TOPOLOGY, np.random.default_rng(2), 1.0)
        assert sorted(plan.victims) == sorted(TOPOLOGY)
        assert plan.fraction == 1.0

    def test_max_rack_span_caps_single_subtree(self):
        plan = rack_failure_plan(TOPOLOGY, np.random.default_rng(3), 0.5,
                                 max_rack_span=0.25)
        cap = max(1, int(0.25 * len(TOPOLOGY)))
        assert all(len(rack) <= cap for rack in plan.racks)

    def test_deterministic_for_equal_rng(self):
        p1 = rack_failure_plan(TOPOLOGY, np.random.default_rng(7), 0.5)
        p2 = rack_failure_plan(TOPOLOGY, np.random.default_rng(7), 0.5)
        assert p1 == p2

    def test_as_schedule_staggers_racks_not_members(self):
        plan = rack_failure_plan(TOPOLOGY, np.random.default_rng(0), 0.5)
        sched = plan.as_schedule(start=10.0, spacing=5.0)
        by_time = {}
        for ev in sched.events:
            assert ev.kind == "leave"
            by_time.setdefault(ev.time, []).append(ev.node)
        assert len(by_time) == len(plan.racks)
        for i, rack in enumerate(plan.racks):
            assert sorted(by_time[10.0 + 5.0 * i]) == sorted(rack)

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            rack_failure_plan({}, rng, 0.5)
        with pytest.raises(ValueError):
            rack_failure_plan(TOPOLOGY, rng, 0.0)
        with pytest.raises(ValueError):
            rack_failure_plan(TOPOLOGY, rng, 1.1)


class TestStragglerPlan:
    def test_count_is_ceil_of_fraction(self):
        plan = straggler_plan(range(10), np.random.default_rng(0), 0.25, 4.0)
        assert len(plan.victims) == 3  # ceil(2.5)
        assert plan.victim_set == frozenset(plan.victims)
        assert set(plan.victims) <= set(range(10))

    def test_zero_fraction_and_empty_population(self):
        assert straggler_plan(range(10), np.random.default_rng(0),
                              0.0, 2.0).victims == ()
        assert straggler_plan([], np.random.default_rng(0),
                              0.5, 2.0).victims == ()

    def test_full_fraction_takes_everyone(self):
        plan = straggler_plan([5, 3, 9], np.random.default_rng(1), 1.0, 2.0)
        assert plan.victims == (3, 5, 9)

    def test_deterministic_for_equal_rng(self):
        p1 = straggler_plan(range(50), np.random.default_rng(5), 0.2, 8.0)
        p2 = straggler_plan(range(50), np.random.default_rng(5), 0.2, 8.0)
        assert p1 == p2

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            straggler_plan(range(5), rng, 1.5, 2.0)
        with pytest.raises(ValueError):
            straggler_plan(range(5), rng, 0.5, 0.9)


class TestPartitionPlanHelpers:
    def test_subtree_partition_plan_splits_exactly(self):
        plan = subtree_partition_plan(TOPOLOGY, 1, start=5.0, duration=10.0,
                                      bidirectional=False)
        assert plan.a == (1, 3, 4, 7, 8)
        assert plan.b == (0, 2, 5, 6)
        assert plan.heal_time == 15.0
        assert not plan.bidirectional
        assert plan.name == "subtree-1"

    def test_whole_topology_subtree_rejected(self):
        with pytest.raises(ValueError):
            subtree_partition_plan(TOPOLOGY, 0, start=0.0, duration=1.0)

    def test_plan_is_a_value(self):
        p1 = PartitionPlan(a=(1,), b=(2,), start=0.0, duration=1.0)
        p2 = PartitionPlan(a=(1,), b=(2,), start=0.0, duration=1.0)
        assert p1 == p2


# --------------------------------------------------------- scenario group

def test_adversarial_group_registered():
    names = [s.name for s in registry.by_group("adversarial")]
    assert names == sorted(ADV_SCENARIOS)
    assert len(registry) == 28


@pytest.mark.parametrize("name", ADV_SCENARIOS)
def test_scenario_survival_checks_pass_at_smoke(name):
    output = registry.get(name).execute(smoke=True)
    failed = output.failed_checks()
    assert not failed, [f"{c.name}: {c.detail}" for c in failed]
    assert output.rendered


def test_scenario_metrics_are_seed_deterministic():
    a = registry.get("adv_partition_quorum").execute(smoke=True)
    b = registry.get("adv_partition_quorum").execute(smoke=True)
    assert a.metrics == b.metrics
    assert [c.passed for c in a.checks] == [c.passed for c in b.checks]


def test_partition_quorum_smoke_pins():
    """Seed-pinned: the smoke run's deterministic metrics at seed 42."""
    m = registry.get("adv_partition_quorum").execute(smoke=True).metrics
    assert m["acked_readable_fraction"] == 1.0
    assert m["preload_readable_fraction"] == 1.0
    assert m["min_rf_after_heal"] == 3.0
    assert m["writes_acked_fraction"] == 0.5
    assert m["blocked_datagrams"] == 8.0


def test_straggler_tail_amplifies_but_keeps_results():
    m = registry.get("adv_straggler_tail").execute(smoke=True).metrics
    assert m["tail_amplification"] > 1.0
    assert m["straggler_p999_virtual_s"] > m["healthy_p999_virtual_s"]
    assert m["lookup_success_rate"] == 1.0


def _lookup_p999(hub):
    """``np.percentile`` over a hub's closed ``lookup`` span durations."""
    spans = hub.export_streams()["spans"]
    mask = ((spans["cat"] == hub.strings.get_code("lookup"))
            & (spans["status"] != STATUS_OPEN))
    return float(np.percentile((spans["t1"] - spans["t0"])[mask], 99.9))


def test_straggler_p999_check_reads_the_recorded_spans():
    """The reported p999s, the check details and the ``p999_bounded_slo``
    verdict read one statistic: the exact quantile of the recorded spans."""
    with capture() as cap:
        scenario = registry.get("adv_straggler_tail")
        out = scenario.execute(smoke=True)
    healthy_hub, slow_hub = cap.hubs
    healthy, slow = _lookup_p999(healthy_hub), _lookup_p999(slow_hub)
    ceiling = scenario.effective_params(smoke=True)["p999_ceiling"]
    assert out.metrics["straggler_p999_virtual_s"] == slow
    assert out.metrics["healthy_p999_virtual_s"] == healthy
    checks = {c.name: c for c in out.checks}
    assert checks["p999_bounded_slo"].detail == (
        f"straggler p999 {slow:.3f}s <= ceiling {ceiling:g}s")
    assert slow <= ceiling and checks["p999_bounded_slo"].passed is True
    assert checks["stragglers_stretch_tail"].detail == (
        f"p999 {slow:.3f}s > healthy {healthy:.3f}s")


def test_straggler_ceiling_below_observed_p999_fails_the_run(capsys):
    observed = run_scenario("adv_straggler_tail", smoke=True).metrics[
        "straggler_p999_virtual_s"]
    ceiling = round(observed / 2, 3)
    result = run_scenario("adv_straggler_tail", smoke=True,
                          overrides={"p999_ceiling": ceiling})
    assert [c["name"] for c in result.failed_checks()] == ["p999_bounded_slo"]
    assert bench_cli(["run", "adv_straggler_tail", "--smoke", "--no-write",
                      "--quiet", "--set", f"p999_ceiling={ceiling}"]) == 1
    assert "FAILED p999_bounded_slo" in capsys.readouterr().out


def test_rack_failure_full_completion():
    m = registry.get("adv_rack_failure_jobs").execute(smoke=True).metrics
    assert m["completion_rate"] == 1.0
    assert m["killed_fraction"] >= 0.30
    assert m["largest_rack"] >= 3.0


# ------------------------------------------- durability e2e regression

def test_acked_write_survives_asymmetric_partition_heal():
    """THE invariant, standalone: every quorum write acknowledged while an
    asymmetric partition is active must be quorum-readable from both
    sides once the partition heals and anti-entropy converges."""
    cluster = (Cluster(config=TreePConfig.paper_case1(), seed=11)
               .build(48)
               .with_storage(QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0))
    net, store, ae = cluster.net, cluster.storage, cluster.anti_entropy

    preloaded = [f"pre/{i}" for i in range(12)]
    for key in preloaded:
        assert store.put(key, {"k": key}).ok

    ids = sorted(net.ids)
    inside = ids[: len(ids) // 3]
    cond = NetworkConditions(net.network)
    part = cond.partition(inside, bidirectional=False, name="uplink")
    cond.cut(part)

    inside_s, outside_s = sorted(part.a), sorted(part.b)
    acked, rejected = [], 0
    for i in range(20):
        side = inside_s if i % 2 == 0 else outside_s
        key = f"cut/{i}"
        if store.put(key, {"i": i}, via=side[i % len(side)]).ok:
            acked.append(key)
        else:
            rejected += 1
    assert acked, "no write acked during the cut — scenario degenerate"
    assert rejected, "every write acked — the cut never bit"

    cond.heal(part)
    ae.converge()

    for key in acked + preloaded:
        assert store.get(key, via=inside_s[0]).found, \
            f"acked write {key} unreadable from inside after heal"
        assert store.get(key, via=outside_s[0]).found, \
            f"acked write {key} unreadable from outside after heal"
    cluster.shutdown()
