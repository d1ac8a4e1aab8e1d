"""Placement by bisect equals placement by sorting the population.

The brute-force references below are what ``storage/replication.py`` did
before ``closest_first``: sort the whole pool by ``(distance, id)`` per call.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TreePConfig, TreePNetwork
from repro.core.routing_table import RoutingTable
from repro.storage.replication import Level0Placement, SuccessorPlacement

EXTENT = 1 << 10


def by_distance(pool, key_id):
    return sorted(pool, key=lambda i: (abs(i - key_id), i))


def pad(out, pool, key_id, n):
    for ident in by_distance(pool, key_id):
        if len(out) >= n:
            break
        if ident not in out:
            out.append(ident)
    return out


def ref_successor_targets(live, key_id, n):
    return by_distance(live, key_id)[:max(n, 0)]


def ref_level0_targets(live, level0_of, key_id, n):
    if not live:
        return []
    out = [by_distance(live, key_id)[0]]
    pad(out, [i for i in level0_of(out[0]) if i in set(live)], key_id, n)
    pad(out, live, key_id, n)
    return out[:n]


def keys_around(ids):
    """Keys that make the edge cases happen: equal to an id, below the
    smallest, above the largest, exact midpoints (ties), and anything."""
    lo, hi = min(ids), max(ids)
    s = sorted(ids)
    mids = [(a + b) // 2 for a, b in zip(s, s[1:]) if (b - a) % 2 == 0]
    fixed = list(ids) + [max(lo - 1, 0), lo // 2, hi + 1, EXTENT - 1] + mids
    return st.one_of(st.sampled_from(fixed), st.integers(0, EXTENT - 1))


class _StubNet:
    """The three things ``repair_targets`` reads from a ``TreePNetwork``."""

    def __init__(self, ids, down, level0):
        self.alive_ids = lambda: [i for i in ids if i not in down]  # arrival order
        self.network = SimpleNamespace(is_up=lambda i: i not in down)
        self.nodes = {i: SimpleNamespace(table=SimpleNamespace(level0=level0[i]))
                      for i in ids}


@st.composite
def populations(draw):
    ids = draw(st.lists(st.integers(0, EXTENT - 1), unique=True,
                        min_size=1, max_size=40))
    down = set(draw(st.lists(st.sampled_from(ids), unique=True, max_size=len(ids))))
    level0 = {i: set(draw(st.lists(st.sampled_from(ids), unique=True, max_size=4)))
              - {i} for i in ids}
    key_id = draw(keys_around(ids))
    n = draw(st.integers(0, len(ids) + 3))  # up to larger than the pool
    return ids, down, level0, key_id, n


@given(populations(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_repair_targets_equal_the_population_sort(pop, hoisted):
    ids, down, level0, key_id, n = pop
    net = _StubNet(ids, down, level0)
    live = [i for i in ids if i not in down]
    arg = sorted(live) if hoisted else None  # the sweep's hoisted list, or none

    assert SuccessorPlacement().repair_targets(net, key_id, n, arg) == \
        ref_successor_targets(live, key_id, n)
    assert Level0Placement().repair_targets(net, key_id, n, arg) == \
        ref_level0_targets(live, level0.__getitem__, key_id, n)


@given(ids=st.lists(st.integers(0, EXTENT - 1), unique=True, min_size=0, max_size=30),
       owner=st.integers(0, EXTENT - 1), data=st.data())
@settings(max_examples=300, deadline=None)
def test_successor_replicas_equal_the_table_sort(ids, owner, data):
    ids = [i for i in ids if i != owner]
    table = RoutingTable(owner=owner)
    for ident in ids:  # random insertion order
        table.upsert(ident, 0.0)
    node = SimpleNamespace(ident=owner, table=table)
    key_id = data.draw(keys_around(ids + [owner]))
    n = data.draw(st.integers(0, len(ids) + 3))
    want = ([owner] + by_distance(ids, key_id))[:n]
    assert SuccessorPlacement().replicas(node, key_id, n) == want
    if ids:  # and again after the table changed under the memo
        table.forget(ids[0])
        want = ([owner] + by_distance(ids[1:], key_id))[:n]
        assert SuccessorPlacement().replicas(node, key_id, n) == want


@pytest.fixture(scope="module")
def grown_net():
    """A real overlay whose ``ids`` are unsorted: built, then joined."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=17)
    net.build(48)
    space = net.config.space
    anchor = sorted(net.ids)[5]
    for ident in (anchor + 1, 3, space.extent - 2):
        if ident not in net.nodes:
            net.join_new_node(ident)
    net.sim.run()
    assert net.ids != sorted(net.ids)
    return net


@pytest.mark.parametrize("crashed", [0, 12])
def test_repair_targets_on_a_real_overlay_with_unsorted_ids(grown_net, crashed):
    net = grown_net
    dead = net.ids[::4][:crashed]
    net.fail_nodes(dead)
    try:
        live = [i for i in net.ids if net.network.is_up(i)]
        s = sorted(live)
        keys = live[:6] + [0, s[0] - 1, s[-1] + 1, (s[3] + s[4]) // 2, 12345]
        for key_id in keys:
            for n in (1, 3, len(live) + 2):
                for arg in (None, s):
                    assert SuccessorPlacement().repair_targets(net, key_id, n, arg) \
                        == ref_successor_targets(live, key_id, n)
                    assert Level0Placement().repair_targets(net, key_id, n, arg) \
                        == ref_level0_targets(
                            live, lambda i: net.nodes[i].table.level0, key_id, n)
    finally:
        net.revive_nodes(dead)
