"""Cross-module integration tests.

The heavyweight checks: protocol-mode maintenance converges to the same
routing state the harness's converged mode produces; the full §IV pipeline
holds together end to end; services survive on a stressed overlay.
"""

import numpy as np
import pytest

from repro import Cluster, QuorumConfig, TreePConfig, TreePNetwork
from repro.core.repair import (
    FULL_POLICY,
    PAPER_POLICY,
    apply_failure_step,
    purge_dead,
)
from repro.bench import run_scenario
from repro.sim.failures import FailureSchedule
from repro.workloads import LookupWorkload


class TestProtocolVsConvergedRepair:
    """Keep-alive expiry (protocol mode) must reach the same dead-entry-free
    state as the harness's purge (converged mode)."""

    def _nets(self):
        cfg = TreePConfig.paper_case1(keepalive_interval=1.0, entry_ttl=4.0)
        proto = TreePNetwork(config=cfg, seed=55)
        proto.build(48)
        conv = TreePNetwork(config=cfg, seed=55)
        conv.build(48)
        assert proto.ids == conv.ids
        return proto, conv

    def test_dead_entries_purged_identically(self):
        proto, conv = self._nets()
        rng = np.random.default_rng(0)
        victims = [int(v) for v in rng.choice(proto.ids, 8, replace=False)]

        proto.fail_nodes(victims)
        proto.start_maintenance()
        proto.sim.run_for(20.0)  # several TTL windows
        proto.stop_maintenance()

        conv.fail_nodes(victims)
        purge_dead(conv)

        for i in proto.ids:
            if not proto.network.is_up(i):
                continue
            proto_known = set(proto.nodes[i].table.all_known())
            assert proto_known.isdisjoint(victims), (
                f"protocol node {i} still knows dead peers"
            )
            conv_known = set(conv.nodes[i].table.all_known())
            assert conv_known.isdisjoint(victims)

    def test_lookups_agree_after_both_repairs(self):
        proto, conv = self._nets()
        rng = np.random.default_rng(1)
        victims = [int(v) for v in rng.choice(proto.ids, 8, replace=False)]
        for net in (proto, conv):
            net.fail_nodes(victims)
        proto.start_maintenance()
        proto.sim.run_for(20.0)
        proto.stop_maintenance()
        apply_failure_step(conv, victims, FULL_POLICY)

        alive = [i for i in proto.ids if proto.network.is_up(i)]
        pairs = [tuple(int(x) for x in rng.choice(alive, 2, replace=False))
                 for _ in range(25)]
        ok_proto = sum(r.found for r in proto.run_lookup_batch(pairs, "G"))
        ok_conv = sum(r.found for r in conv.run_lookup_batch(pairs, "G"))
        assert abs(ok_proto - ok_conv) <= 5


class TestEndToEndSweep:
    def test_full_pipeline_produces_consistent_records(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=77)
        net.build(96)
        rng = net.rng.get("sweep")
        schedule = FailureSchedule(net.ids, rng)
        workload = LookupWorkload(rng=net.rng.get("wl"))
        prev_alive = len(net.ids)
        for step in schedule.steps():
            net.fail_nodes(step.newly_failed)
            apply_failure_step(net, step.newly_failed, PAPER_POLICY)
            alive = net.alive_ids()
            assert len(alive) == len(step.surviving)
            assert len(alive) < prev_alive
            prev_alive = len(alive)
            if step.cumulative_failed_fraction >= 0.5:
                break
        results = net.run_lookup_batch(workload.pairs(net.alive_ids(), 50), "G")
        assert len(results) == 50
        found = [r for r in results if r.found]
        assert found, "nothing resolves at 50% dead"
        for r in found:
            # A found path never visits a dead node.
            for hop in r.path:
                assert net.network.is_up(hop), "path crossed a dead node"

    def test_lookup_paths_respect_ttl(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(ttl_max=16), seed=78)
        net.build(96)
        rng = np.random.default_rng(0)
        for _ in range(30):
            o, t = (int(x) for x in rng.choice(net.ids, 2, replace=False))
            r = net.lookup_sync(o, t, "G")
            if r.found:
                assert r.hops <= 16


class TestServicesUnderStress:
    def test_dht_and_discovery_after_sweep(self):
        from repro.services.discovery import Constraint

        net = TreePNetwork(config=TreePConfig.paper_case1(), seed=31)
        net.build(96)
        # The paper's DHT: k level-0 copies, first answer wins.
        dht = Cluster(net=net).with_storage(
            QuorumConfig(n=3, w=1, r=1), placement="level0").storage
        for i in range(20):
            assert dht.put(f"key{i}", i).ok
        rng = np.random.default_rng(3)
        victims = [int(v) for v in rng.choice(net.ids, 28, replace=False)]
        net.fail_nodes(victims)
        apply_failure_step(net, victims, FULL_POLICY)
        alive = net.alive_ids()
        hits = sum(dht.get(f"key{i}", via=alive[i % len(alive)]).found
                   for i in range(20))
        assert hits >= 14
        directory = Cluster(net=net).with_discovery().directory
        res = directory.query(Constraint(min_cpu=2), max_results=3)
        for m in res.matches:
            assert net.network.is_up(m)


class TestAblations:
    def test_id_assignment_shapes(self):
        m = run_scenario("ablation_ids", seed=1,
                         overrides={"n": 96, "lookups": 40}).metrics
        # Balanced IDs give the most even cells.
        assert m["balanced_cell_size_std"] <= m["random_cell_size_std"] + 0.5
        assert m["min_success_rate"] >= 0.9

    def test_euclidean_fallback_helps_or_neutral(self):
        m = run_scenario("ablation_fallback", seed=1,
                         overrides={"n": 96, "lookups": 60}).metrics
        assert m["fallback_on_success"] >= m["fallback_off_success"] - 0.15

    @pytest.fixture(scope="class")
    def maintenance(self):
        return run_scenario("ablation_maintenance", seed=1, overrides={
            "n_maintenance": 32, "horizon": 30.0, "n_repair": 96,
            "lookups": 40})

    def test_repair_mechanisms_ordering(self, maintenance):
        m = maintenance.metrics
        assert m["purge_only_success"] <= m["full_adoption_success"] + 0.1

    def test_maintenance_interval_monotone_cost(self, maintenance):
        checks = {c["name"]: c["passed"] for c in maintenance.checks}
        assert checks["cost_monotone_in_interval"]  # shorter period = more traffic
