"""Edge cases and failure injection across module boundaries."""

import numpy as np
import pytest

from reference import ConstantLatency, entry, validate
from repro import TreePConfig, TreePNetwork
from repro.core.capacity import NodeCapacity
from repro.core.config import TreePConfig as Cfg
from repro.core.ids import IdSpace
from repro.core.lookup import DecisionKind, route
from repro.core.messages import KeepAliveAck, LookupRequest, Splice
from repro.core.node import TreePNode
from repro.core.routing_table import RoutingTable
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workloads import ChurnSchedule


class _View:
    def __init__(self, ident, max_level=0, height=4, extent=2**16):
        self.ident = ident
        self.max_level = max_level
        self.config = Cfg.paper_case1(space=IdSpace(extent=extent))
        self.table = RoutingTable(ident)
        self.height = height


def _req(target, **kw):
    defaults = dict(request_id=1, origin=0, algo="G", ttl=0)
    defaults.update(kw)
    return LookupRequest(target=target, **defaults)


class TestLookupFromParentBranch:
    def test_level0_node_from_level1_parent_searches_level_zero(self):
        """Fig. 3: a request from the level-1 parent restricts the search
        to the level-0 neighbourhood — level-table entries are ignored."""
        v = _View(1000, max_level=0)
        v.table.add("level0", 1100, 0.0)
        v.table.add("superiors", 60000, 0.0, max_level=3)  # would win otherwise
        d = route(v, _req(1150, from_parent_level=1))
        assert d.kind is DecisionKind.FORWARD
        assert d.next_hop == 1100  # not the superior

    def test_from_parent_no_candidates_not_found(self):
        v = _View(1000, max_level=0)
        v.table.add("superiors", 60000, 0.0, max_level=3)
        d = route(v, _req(1150, from_parent_level=1))
        assert d.kind is DecisionKind.NOT_FOUND


class TestTinyNetworks:
    def test_two_node_network_lookup(self):
        net = TreePNetwork(seed=1)
        net.build(2)
        r = net.lookup_sync(net.ids[0], net.ids[1], "G")
        assert r.found and r.hops <= 1

    def test_three_node_all_algorithms(self):
        net = TreePNetwork(seed=2)
        net.build(3)
        for algo in ("G", "NG", "NGSA"):
            r = net.lookup_sync(net.ids[0], net.ids[2], algo)
            assert r.found

    def test_single_node_build_rejected(self):
        net = TreePNetwork(seed=1)
        with pytest.raises(ValueError):
            net.build(1)


class TestJoinEdgeCases:
    def test_join_at_extreme_id(self):
        net = TreePNetwork(seed=6)
        net.build(32)
        lowest = 1 if 1 not in net.nodes else 2
        node = net.join_new_node(lowest)
        net.sim.run()
        assert node.table.level0  # placed at the left end of the line

    def test_splice_updates_displaced_neighbour(self):
        cfg = TreePConfig.paper_case1()
        sim = Simulator()
        netw = Network(sim, latency=ConstantLatency(0.01))
        a = TreePNode(1000, NodeCapacity(), cfg)
        c = TreePNode(3000, NodeCapacity(), cfg)
        joiner = TreePNode(2000, NodeCapacity(), cfg)
        for n in (a, c, joiner):
            netw.register(n)
        netw.handlers.update(TreePNode.handlers({n.ident: n for n in (a, c, joiner)}))
        a.table.add("level0", 3000, 0.0)
        c.table.add("level0", 1000, 0.0)
        # Joiner 2000 lands between 1000 and 3000; 3000 is told.
        c._on_Splice(1000, Splice(joiner=2000, left=1000, right=3000))
        sim.run()
        assert 2000 in c.table.level0
        assert 1000 not in c.table.level0  # displaced link dropped
        assert 3000 in joiner.table.all_known()  # Hello arrived


class TestKeepAliveAck:
    def test_ack_merges_delta(self):
        cfg = TreePConfig.paper_case1()
        sim = Simulator()
        netw = Network(sim, latency=ConstantLatency(0.01))
        node = TreePNode(1000, NodeCapacity(), cfg)
        netw.register(node)
        netw.handlers.update(TreePNode.handlers({1000: node}))
        node._on_KeepAliveAck(2000, KeepAliveAck(entries=((3000, 1, 2.0, 4, 1.0),)))
        assert entry(node.table, 3000) is not None
        assert entry(node.table, 3000).max_level == 1


class TestChurnWithOverlay:
    def test_poisson_churn_with_maintenance(self):
        """Nodes flap while maintenance runs: the overlay must neither
        crash nor leak dead entries for long-dead peers."""
        cfg = TreePConfig.paper_case1(keepalive_interval=1.0, entry_ttl=3.0)
        net = TreePNetwork(config=cfg, seed=41)
        net.build(32)
        churn = ChurnSchedule.sampled(
            net.ids[:16], net.rng.get("churn"), duration=30.0,
            mean_uptime=5.0, mean_downtime=50.0,  # leave and mostly stay down
        )
        for e in churn:
            flip = (net.network.set_down if e.kind == "leave"
                    else net.network.set_up)
            net.sim.schedule(e.time, lambda flip=flip, node=e.node: flip(node))
        net.start_maintenance()
        net.sim.run_for(30.0)
        net.stop_maintenance()
        long_dead = [i for i in net.ids[:16] if not net.network.is_up(i)]
        assert long_dead
        for i in net.alive_ids():
            node = net.nodes[i]
            for d in long_dead:
                e = entry(node.table, d)
                # Any remaining entry must be fresh (the peer flapped back
                # up recently), never stale beyond the TTL.
                if e is not None:
                    assert net.sim.now - e.last_seen <= 2 * cfg.entry_ttl


class TestExtremeConfigs:
    def test_tiny_ttl_limits_reach(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(ttl_max=1), seed=8)
        net.build(64)
        rng = np.random.default_rng(0)
        found = 0
        for _ in range(20):
            o, t = (int(x) for x in rng.choice(net.ids, 2, replace=False))
            found += net.lookup_sync(o, t, "G").found
        assert found < 20  # 1-hop horizon cannot resolve everything

    def test_huge_nc_flat_tree(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(nc_fixed=32), seed=9)
        layout = net.build(64)
        assert layout.height <= 3

    def test_min_nc_tall_tree(self):
        net = TreePNetwork(config=TreePConfig.paper_case1(nc_fixed=2), seed=9)
        layout = net.build(64)
        assert layout.height >= 4

    def test_small_space(self):
        cfg = TreePConfig.paper_case1(space=IdSpace(extent=1000))
        net = TreePNetwork(config=cfg, seed=10)
        layout = net.build(16)
        validate(layout, cfg)
        r = net.lookup_sync(net.ids[0], net.ids[10], "G")
        assert r.found


class TestDeterminismAcrossComponents:
    def test_identical_sweep_results(self):
        """Two complete pipelines from the same seed agree exactly."""
        from repro.bench.sweep import SweepConfig, run_failure_sweep
        cfg = SweepConfig(n=48, seed=77, lookups_per_step=20)
        a = run_failure_sweep(cfg)
        run_failure_sweep.cache_clear()  # or the second call is the memo
        b = run_failure_sweep(cfg)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert ra.failed_fraction == rb.failed_fraction
            for algo in ("G", "NG", "NGSA"):
                sa, sb = ra.per_algo[algo], rb.per_algo[algo]
                assert sa.failure_rate == sb.failure_rate
                assert sa.hops_mean == sb.hops_mean
                assert sa.failed_hops_max == sb.failed_hops_max
