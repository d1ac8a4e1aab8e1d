"""Unit tests for the flooding baseline and the random overlay."""

import numpy as np
import pytest

from repro.baselines.flood import FloodNetwork
from repro.baselines.random_graph import random_overlay


class TestRandomOverlay:
    def test_symmetric(self):
        rng = np.random.default_rng(0)
        adj = random_overlay(list(range(50)), rng, degree=4)
        for a, neighbours in adj.items():
            for b in neighbours:
                assert a in adj[b]

    def test_connected(self):
        import networkx as nx
        rng = np.random.default_rng(1)
        adj = random_overlay(list(range(100)), rng, degree=3)
        g = nx.Graph((a, b) for a, ns in adj.items() for b in ns)
        assert nx.is_connected(g)

    def test_mean_degree_close(self):
        rng = np.random.default_rng(2)
        adj = random_overlay(list(range(200)), rng, degree=6)
        assert 5.0 <= np.mean([len(ns) for ns in adj.values()]) <= 7.0

    def test_no_self_loops(self):
        rng = np.random.default_rng(3)
        adj = random_overlay(list(range(40)), rng, degree=4)
        for a, ns in adj.items():
            assert a not in ns

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_overlay([1], rng)
        with pytest.raises(ValueError):
            random_overlay([1, 2], rng, degree=1)
        with pytest.raises(ValueError):
            random_overlay([1, 1, 2], rng)


class TestFloodNetwork:
    @pytest.fixture(scope="class")
    def net(self):
        net = FloodNetwork(seed=4, degree=4, default_ttl=7)
        net.build(128)
        return net

    def test_lookup_within_horizon(self, net):
        rng = np.random.default_rng(0)
        pairs = [tuple(int(x) for x in rng.choice(net.ids, 2, replace=False))
                 for _ in range(25)]
        res = net.run_lookup_batch(pairs)
        assert sum(r.found for r in res) >= 22  # TTL 7 covers ~4^7 >> n

    def test_small_ttl_misses_far_targets(self):
        net = FloodNetwork(seed=5, degree=3, default_ttl=1)
        net.build(128)
        rng = np.random.default_rng(1)
        pairs = [tuple(int(x) for x in rng.choice(net.ids, 2, replace=False))
                 for _ in range(30)]
        res = net.run_lookup_batch(pairs, ttl=1)
        assert sum(r.found for r in res) < 15  # only direct neighbours reachable

    def test_message_cost_explodes(self, net):
        before = net.network.stats.sent
        rng = np.random.default_rng(2)
        o, t = (int(x) for x in rng.choice(net.ids, 2, replace=False))
        net.run_lookup_batch([(o, t)])
        cost = net.network.stats.sent - before
        assert cost > 50  # two orders of magnitude above TreeP's ~7

    def test_duplicate_suppression(self, net):
        """Each node forwards a given request at most once: cost is bounded
        by edges, not by paths."""
        before = net.network.stats.sent
        rng = np.random.default_rng(3)
        o, t = (int(x) for x in rng.choice(net.ids, 2, replace=False))
        net.run_lookup_batch([(o, t)])
        cost = net.network.stats.sent - before
        edges = sum(len(n.neighbours) for n in net.nodes.values())
        assert cost <= edges + 10

    def test_lookup_to_self(self, net):
        res = net.nodes[net.ids[0]].issue_lookup(net.ids[0])
        net.sim.run()
        assert res.result.found and res.result.hops == 0

    def test_failures_shrink_coverage(self):
        net = FloodNetwork(seed=6, degree=4, default_ttl=5)
        net.build(128)
        rng = np.random.default_rng(4)
        victims = [int(v) for v in rng.choice(net.ids, 64, replace=False)]
        net.fail_nodes(victims)
        net.repair_step()
        alive = net.alive_ids()
        pairs = [tuple(int(x) for x in rng.choice(alive, 2, replace=False))
                 for _ in range(30)]
        res = net.run_lookup_batch(pairs)
        assert sum(r.found for r in res) < 30

    def test_build_twice_rejected(self):
        net = FloodNetwork(seed=1)
        net.build(8)
        with pytest.raises(RuntimeError):
            net.build(8)
