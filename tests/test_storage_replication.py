"""Replica placement: node-local and converged-view answers."""

import pytest

from repro import TreePConfig, TreePNetwork
from repro.storage.replication import repair_targets, replicas


@pytest.fixture(scope="module")
def net():
    n = TreePNetwork(config=TreePConfig.paper_case1(), seed=17)
    n.build(64)
    return n


def test_replicas_distinct_and_lead_with_self(net):
    node = net.nodes[net.ids[len(net.ids) // 2]]
    key_id = 12345
    out = replicas(node, key_id, 3)
    assert out[0] == node.ident
    assert len(out) == len(set(out)) == 3


def test_successor_replicas_are_closest_known(net):
    node = net.nodes[net.ids[10]]
    key_id = node.ident + 5  # a key in the node's own neighbourhood
    out = replicas(node, key_id, 4)
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
        live = sorted(net.alive_ids())
        out = repair_targets(live, 999, 3)
        assert len(out) == len(set(out)) == 3
        assert all(net.network.is_up(i) for i in out)
        # The targets are exactly the closest live ids.
        expect = sorted(live, key=lambda i: (space.distance(i, 999), i))[:3]
        assert out == expect
    finally:
        for i in dead:
            net.network.set_up(i)

