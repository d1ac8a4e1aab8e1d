"""Unit tests for the Chord baseline, and for the origin-side lookup
lifecycle it shares with TreeP and flooding."""

import numpy as np
import pytest

from repro.baselines.chord import ChordNetwork, ChordNode
from repro.baselines.flood import FloodNetwork
from repro.core.config import LOOKUP_TIMEOUT
from repro.core.treep import TreePNetwork


@pytest.fixture(scope="module")
def chord():
    net = ChordNetwork(seed=5)
    net.build(128)
    return net


def test_build_distinct_sorted_ids(chord):
    assert chord.ids == sorted(chord.ids)
    assert len(set(chord.ids)) == 128


def test_build_twice_rejected():
    net = ChordNetwork(seed=1)
    net.build(8)
    with pytest.raises(RuntimeError):
        net.build(8)


def test_ring_structure(chord):
    """Successor/predecessor pointers form the sorted ring."""
    ids = chord.ids
    n = len(ids)
    for idx, i in enumerate(ids):
        node = chord.nodes[i]
        assert node.successors[0] == ids[(idx + 1) % n]
        assert node.predecessor == ids[(idx - 1) % n]


def test_fingers_point_at_ring_successors(chord):
    node = chord.nodes[chord.ids[0]]
    for f in node.fingers:
        assert f in chord.nodes


def test_lookup_resolves(chord):
    rng = np.random.default_rng(0)
    for _ in range(30):
        o, t = (int(x) for x in rng.choice(chord.ids, 2, replace=False))
        res = chord.run_lookup_batch([(o, t)])[0]
        assert res.found, (o, t)


def test_lookup_logarithmic_hops(chord):
    rng = np.random.default_rng(1)
    pairs = [tuple(int(x) for x in rng.choice(chord.ids, 2, replace=False))
             for _ in range(60)]
    res = chord.run_lookup_batch(pairs)
    hops = [r.hops for r in res if r.found]
    assert np.mean(hops) <= 2 * np.log2(len(chord.ids))


def test_owns_semantics():
    node = ChordNode(100)
    node.predecessor = 50
    assert node.owns(75) and node.owns(100)
    assert not node.owns(50) and not node.owns(101)
    # Wraparound segment.
    node2 = ChordNode(10)
    node2.predecessor = 200
    assert node2.owns(250) and node2.owns(5)
    assert not node2.owns(100)


def test_failures_with_repair():
    net = ChordNetwork(seed=8)
    net.build(128)
    rng = np.random.default_rng(2)
    victims = [int(v) for v in rng.choice(net.ids, 38, replace=False)]
    net.fail_nodes(victims)
    net.repair_step()
    alive = net.alive_ids()
    pairs = [tuple(int(x) for x in rng.choice(alive, 2, replace=False))
             for _ in range(40)]
    res = net.run_lookup_batch(pairs)
    assert sum(r.found for r in res) == 40  # converged stabilisation: all resolve


@pytest.mark.parametrize("overlay", [TreePNetwork, ChordNetwork, FloodNetwork],
                         ids=lambda overlay: overlay.__name__)
def test_lookup_timeout_counts_failed(overlay):
    """Every overlay's origin closes a black-holed lookup once, at its
    timeout: stale pointers into a dead network, no reply ever comes."""
    net = overlay(seed=8)
    net.build(32)
    origin = net.ids[0]
    net.fail_nodes(net.ids[1:])
    t0 = net.sim.now
    results = net.run_lookup_batch([(origin, net.ids[10])])
    assert len(results) == 1
    res = results[0]
    assert (res.found, res.timed_out, res.hops) == (False, True, 0)
    assert net.sim.now == t0 + LOOKUP_TIMEOUT
    assert net.nodes[origin].pending == {}
