"""Unit tests for hierarchy-walking resource discovery."""

import numpy as np
import pytest

from repro import Cluster, TreePConfig, TreePNetwork
from repro.core.capacity import NodeCapacity
from repro.services.discovery import Aggregate, Constraint
from repro.workloads import grid_cluster_mix


@pytest.fixture(scope="module")
def grid():
    net = TreePNetwork(config=TreePConfig.paper_case2(), seed=13)
    rng = np.random.default_rng(13)
    net.build(256, capacities=grid_cluster_mix(256, rng, server_fraction=0.15))
    return net, Cluster(net=net).with_discovery().directory


def test_requires_built_network():
    with pytest.raises(RuntimeError):
        Cluster(net=TreePNetwork(seed=0)).with_discovery()


def test_constraint_admits():
    from repro.core.capacity import NodeCapacity
    cap = NodeCapacity(cpu=8, memory_gb=16, bandwidth_mbps=100, cpu_load=0.2)
    assert Constraint(min_cpu=4, min_memory_gb=8).admits(cap)
    assert not Constraint(min_cpu=16).admits(cap)
    assert not Constraint(max_cpu_load=0.1).admits(cap)


def test_aggregate_fold():
    from repro.core.capacity import NodeCapacity
    agg = Aggregate()
    agg.fold(NodeCapacity(cpu=4, cpu_load=0.5))
    agg.fold(NodeCapacity(cpu=16, cpu_load=0.9))
    assert agg.max_cpu == 16
    assert agg.min_cpu_load == 0.5
    assert agg.might_admit(Constraint(min_cpu=10))
    assert not agg.might_admit(Constraint(min_cpu=32))


def test_matches_satisfy_constraint(grid):
    net, directory = grid
    c = Constraint(min_cpu=16, min_memory_gb=32)
    res = directory.query(c, max_results=8)
    assert res.matches, "grid mix must contain servers"
    for m in res.matches:
        assert c.admits(net.capacities[m])


def test_max_results_respected(grid):
    net, directory = grid
    res = directory.query(Constraint(min_cpu=2), max_results=3)
    assert len(res.matches) <= 3


def test_max_results_validation(grid):
    _, directory = grid
    with pytest.raises(ValueError):
        directory.query(Constraint(), max_results=0)


def test_impossible_constraint_empty(grid):
    net, directory = grid
    res = directory.query(Constraint(min_cpu=10_000))
    assert res.matches == ()
    assert res.subtrees_pruned > 0  # aggregates pruned everything


def test_hops_logarithmic(grid):
    net, directory = grid
    res = directory.query(Constraint(min_cpu=16), max_results=2)
    assert res.hops <= 6 * (net.layout.height + 1)


def test_query_from_any_origin(grid):
    net, directory = grid
    c = Constraint(min_cpu=16)
    for origin in (net.ids[0], net.ids[-1]):
        res = directory.query(c, origin=origin, max_results=2)
        assert res.matches


def test_refresh_after_failures(grid):
    net = TreePNetwork(config=TreePConfig.paper_case2(), seed=14)
    rng = np.random.default_rng(14)
    net.build(128, capacities=grid_cluster_mix(128, rng, server_fraction=0.2))
    directory = Cluster(net=net).with_discovery().directory
    c = Constraint(min_cpu=16)
    before = directory.query(c, max_results=32).matches
    net.fail_nodes(before)  # kill every matching server
    directory.refresh()
    after = directory.query(c, max_results=32).matches
    assert set(after).isdisjoint(before)
    for m in after:
        assert net.network.is_up(m)


def test_churn_resyncs_without_an_explicit_refresh():
    """The network's liveness key is the directory's one churn signal:
    after a direct crash, a revival and a protocol join, each query
    answers what it answers after an explicit refresh()."""
    net = TreePNetwork(config=TreePConfig.paper_case2(), seed=14)
    rng = np.random.default_rng(14)
    net.build(128, capacities=grid_cluster_mix(128, rng, server_fraction=0.2))
    directory = Cluster(net=net).with_discovery().directory
    c = Constraint(min_cpu=16)
    origin = net.ids[0]
    before = directory.query(c, origin=origin, max_results=32)
    victim = next(m for m in before.matches if m != origin)

    def unrefreshed_then_refreshed():
        res = directory.query(c, origin=origin, max_results=32)
        directory.refresh()
        assert directory.query(c, origin=origin, max_results=32) == res
        return res

    net.network.set_down(victim)
    assert victim not in unrefreshed_then_refreshed().matches
    net.network.set_up(victim)
    assert unrefreshed_then_refreshed() == before
    net.join_new_node(max(net.ids) + 1, capacity=NodeCapacity(cpu=32))
    assert unrefreshed_then_refreshed() == before
