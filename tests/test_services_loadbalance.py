"""Unit tests for hierarchical load balancing."""

import numpy as np
import pytest

from repro import Cluster, TreePConfig, TreePNetwork
from repro.services.loadbalance import LoadBalancer, Task
from repro.workloads import grid_cluster_mix, homogeneous_mix


@pytest.fixture()
def lb_net():
    net = TreePNetwork(config=TreePConfig.paper_case2(), seed=17)
    rng = np.random.default_rng(17)
    net.build(128, capacities=grid_cluster_mix(128, rng, server_fraction=0.2))
    return net, Cluster(net=net).with_loadbalance().balancer


def test_task_validation():
    with pytest.raises(ValueError):
        Task(1, cpu_demand=0)


def test_requires_built_network():
    with pytest.raises(RuntimeError):
        Cluster(net=TreePNetwork(seed=0)).with_loadbalance()


def test_place_lands_on_live_node_with_headroom(lb_net):
    net, lb = lb_net
    p = lb.place(Task(1, 1.0))
    assert p.node is not None
    assert net.network.is_up(p.node)
    cap = net.capacities[p.node]
    assert cap.cpu * (1 - cap.cpu_load) >= 1.0


def test_assignment_tracked(lb_net):
    net, lb = lb_net
    p = lb.place(Task(1, 2.0))
    assert lb.assigned[p.node] == 2.0


def test_release_returns_capacity(lb_net):
    net, lb = lb_net
    t = Task(1, 2.0)
    p = lb.place(t)
    lb.release(t, p.node)
    assert lb.assigned[p.node] == 0.0


def test_placements_prefer_strong_nodes(lb_net):
    net, lb = lb_net
    placements = lb.place_many([Task(i, 2.0) for i in range(50)])
    placed = [p.node for p in placements if p.node is not None]
    assert placed
    chosen_cpu = np.mean([net.capacities[n].cpu for n in placed])
    population_cpu = np.mean([c.cpu for c in net.capacities.values()])
    assert chosen_cpu > population_cpu


def test_saturation_returns_none():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=3)
    net.build(16, capacities=homogeneous_mix(16, cpu=1.0))
    lb = Cluster(net=net).with_loadbalance().balancer
    results = lb.place_many([Task(i, 1.0) for i in range(40)])
    placed = [p for p in results if p.node is not None]
    unplaced = [p for p in results if p.node is None]
    assert placed and unplaced  # capacity exhausted eventually
    assert len(placed) <= 16


def test_utilisation_and_imbalance(lb_net):
    net, lb = lb_net
    lb.place_many([Task(i, 0.5) for i in range(100)])
    util = lb.utilisation()
    assert all(0 <= u <= 1.0 + 1e-9 for u in util.values())
    assert lb.imbalance() >= 0.0


def test_dead_nodes_not_used(lb_net):
    net, lb = lb_net
    victims = net.ids[:40]
    net.fail_nodes(victims)
    placements = lb.place_many([Task(i, 0.5) for i in range(40)])
    for p in placements:
        if p.node is not None:
            assert p.node not in victims


def test_hops_bounded_by_tree(lb_net):
    net, lb = lb_net
    p = lb.place(Task(1, 0.5), origin=net.ids[0])
    assert 0 <= p.hops <= 3 * (net.height + 1)


# ------------------------------------------------- cached subtree headroom
def _assert_cache_matches_reference(net, lb):
    layout = net.layout
    for i in net.layout.max_level:
        expect = lb._recompute_subtree(i, layout.max_level[i])
        assert lb._subtree[i] == pytest.approx(expect), f"node {i}"


def test_cached_totals_match_reference_after_traffic(lb_net):
    net, lb = lb_net
    tasks = [Task(i, 0.5 + (i % 4) * 0.5) for i in range(60)]
    placements = lb.place_many(tasks)
    _assert_cache_matches_reference(net, lb)
    for t, p in zip(tasks[:30], placements[:30]):
        if p.node is not None:
            lb.release(t, p.node)
    _assert_cache_matches_reference(net, lb)


def test_cache_rebuilt_after_failures(lb_net):
    net, lb = lb_net
    lb.place_many([Task(i, 0.5) for i in range(20)])
    net.fail_nodes(net.ids[:30])
    p = lb.place(Task(99, 0.5))  # triggers the lazy liveness resync
    if p.node is not None:
        assert net.network.is_up(p.node)
    _assert_cache_matches_reference(net, lb)


def test_equal_fail_and_rejoin_counts_still_resync_cache(lb_net):
    """One crash plus one revival between placements leaves node count and
    down count unchanged — the epoch key must still trigger a rebuild."""
    net, lb = lb_net
    a, b = net.ids[0], net.ids[1]
    net.fail_nodes([b])
    lb.refresh()  # cache now knows b is down
    net.fail_nodes([a])
    net.network.set_up(b)  # counts alias the refreshed state
    lb.place(Task(1, 0.5))
    _assert_cache_matches_reference(net, lb)
    assert lb._subtree[a] == pytest.approx(lb._recompute_subtree(
        a, net.layout.max_level[a]))


def test_release_overdraw_keeps_cache_consistent(lb_net):
    """Releasing more than was assigned clamps at zero; the cached totals
    must track the clamped headroom, not drift."""
    net, lb = lb_net
    t = Task(1, 2.0)
    p = lb.place(t)
    lb.release(t, p.node)
    lb.release(t, p.node)  # double release: clamped
    assert lb.assigned[p.node] == 0.0
    _assert_cache_matches_reference(net, lb)


class _CountingBalancer(LoadBalancer):
    """Counts per-node headroom evaluations during placement."""

    counting = False
    calls = 0

    def headroom(self, ident):
        if self.counting:
            self.calls += 1
        return super().headroom(ident)


def _calls_per_place(n, seed=23, tasks=20):
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    rng = np.random.default_rng(seed)
    net.build(n, capacities=grid_cluster_mix(n, rng, server_fraction=0.2))
    lb = _CountingBalancer()
    Cluster(net=net).add_service(lb)
    lb.counting = True
    lb.place_many([Task(i, 0.5) for i in range(tasks)])
    return lb.calls / tasks


def test_placement_cost_independent_of_network_size():
    """The satellite regression: placement work must not grow with the
    subtree size (it used to recompute whole subtrees per decision)."""
    small = _calls_per_place(32)
    large = _calls_per_place(256)
    # With cached totals a placement touches O(height) nodes; the old
    # recursive recompute touched O(n) and would blow these bounds.
    assert large <= 16, f"placement evaluated {large:.1f} nodes on average"
    assert large <= small * 4
