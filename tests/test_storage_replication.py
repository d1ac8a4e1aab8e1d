"""Placement strategy tests: node-local and converged-view answers."""

import pytest

from repro import TreePConfig, TreePNetwork
from repro.storage.replication import (
    Level0Placement,
    SuccessorPlacement,
    make_placement,
)


@pytest.fixture(scope="module")
def net():
    n = TreePNetwork(config=TreePConfig.paper_case1(), seed=17)
    n.build(64)
    return n


def test_make_placement_resolves_names():
    assert isinstance(make_placement("level0"), Level0Placement)
    assert isinstance(make_placement("successor"), SuccessorPlacement)
    strat = SuccessorPlacement()
    assert make_placement(strat) is strat
    with pytest.raises(ValueError):
        make_placement("nope")


@pytest.mark.parametrize("strategy", [Level0Placement(), SuccessorPlacement()])
def test_replicas_distinct_and_lead_with_self(net, strategy):
    node = net.nodes[net.ids[len(net.ids) // 2]]
    key_id = 12345
    out = strategy.replicas(node, key_id, 3)
    assert out[0] == node.ident
    assert len(out) == len(set(out)) == 3


def test_successor_replicas_are_closest_known(net):
    node = net.nodes[net.ids[10]]
    key_id = node.ident + 5  # a key in the node's own neighbourhood
    out = SuccessorPlacement().replicas(node, key_id, 4)
    space = net.config.space
    chosen = set(out) - {node.ident}
    rest = set(node.table.all_known()) - chosen
    # Every chosen peer is at least as close to the key as every unchosen one.
    worst_chosen = max(space.distance(i, key_id) for i in chosen)
    best_rest = min(space.distance(i, key_id) for i in rest)
    assert worst_chosen <= best_rest


def test_repair_targets_all_live(net):
    space = net.config.space
    dead = net.ids[:8]
    net.fail_nodes(dead)
    try:
        for strategy in (Level0Placement(), SuccessorPlacement()):
            out = strategy.repair_targets(net, 999, 3)
            assert len(out) == len(set(out)) == 3
            assert all(net.network.is_up(i) for i in out)
        # Successor targets are exactly the closest live ids.
        live = [i for i in net.ids if net.network.is_up(i)]
        expect = sorted(live, key=lambda i: (space.distance(i, 999), i))[:3]
        assert SuccessorPlacement().repair_targets(net, 999, 3) == expect
    finally:
        for i in dead:
            net.network.set_up(i)


def test_level0_replicas_prefer_bus_neighbours(net):
    node = net.nodes[net.ids[30]]
    out = Level0Placement().replicas(node, 42, 3)
    assert set(out[1:]) <= node.table.level0 | node.table.level0_indirect
