"""Unit tests for the DHT layer."""

import numpy as np
import pytest

from repro import Cluster, TreePConfig, TreePNetwork
from repro.core.repair import FULL_POLICY, apply_failure_step
from repro.services.dht import hash_key


@pytest.fixture(scope="module")
def dht_net():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=21)
    net.build(96)
    return net, Cluster(net=net).with_dht(replicas=2).dht


def test_hash_key_stable_and_in_space():
    extent = 2**32
    a = hash_key("job/1", extent)
    assert a == hash_key("job/1", extent)
    assert 0 <= a < extent
    assert hash_key("job/2", extent) != a


def test_put_then_get(dht_net):
    net, dht = dht_net
    assert dht.put("alpha", 123).found
    r = dht.get("alpha")
    assert r.found and r.value == 123


def test_get_missing_key(dht_net):
    net, dht = dht_net
    assert not dht.get("never-stored").found


def test_put_replicates(dht_net):
    net, dht = dht_net
    r = dht.put("replicated", "v")
    assert len(r.stored_on) == 2
    key_id = r.key_id
    holders = [i for i in r.stored_on
               if dht.stores[i].get(key_id) is not None
               and dht.stores[i].get(key_id).value == "v"]
    assert len(holders) == 2


def test_storage_lands_near_key(dht_net):
    net, dht = dht_net
    r = dht.put("locality-check", "v")
    primary = r.stored_on[0]
    dists = sorted(abs(i - r.key_id) for i in net.ids)
    # The primary is among the closest few live nodes to the key.
    assert abs(primary - r.key_id) <= dists[4]


def test_get_via_any_origin(dht_net):
    net, dht = dht_net
    dht.put("from-anywhere", 7)
    for via in (net.ids[0], net.ids[-1], net.ids[len(net.ids) // 2]):
        assert dht.get("from-anywhere", via=via).found


def test_overwrite_updates_value(dht_net):
    net, dht = dht_net
    dht.put("counter", 1)
    dht.put("counter", 2)
    assert dht.get("counter").value == 2


def test_stored_keys_inventory(dht_net):
    net, dht = dht_net
    dht.put("inventory", "x")
    inv = dht.stored_keys()
    key_id = hash_key("inventory", net.config.space.extent)
    assert any(key_id in keys for keys in inv.values())


def test_replicas_validation():
    net = TreePNetwork(seed=1)
    net.build(8)
    with pytest.raises(ValueError):
        Cluster(net=net).with_dht(replicas=0)


def test_survives_failures():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=33)
    net.build(96)
    dht = Cluster(net=net).with_dht(replicas=3).dht
    keys = [f"k{i}" for i in range(40)]
    for k in keys:
        assert dht.put(k, k.upper()).found
    rng = np.random.default_rng(0)
    victims = [int(v) for v in rng.choice(net.ids, 24, replace=False)]
    net.fail_nodes(victims)
    apply_failure_step(net, victims, FULL_POLICY)
    alive = net.alive_ids()
    hits = sum(dht.get(k, via=alive[i % len(alive)]).found
               for i, k in enumerate(keys))
    assert hits >= 30  # 3-way replication holds most keys through 25% loss


def test_client_ops_return_while_maintenance_runs():
    """Regression: put/get must not drain forever into the self-re-arming
    keep-alive timers."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=13)
    net.build(32)
    dht = Cluster(net=net).with_dht(replicas=2).dht
    net.start_maintenance()
    net.sim.max_events = 500_000  # fail loudly instead of hanging
    try:
        assert dht.put("timered", 1).found
        assert dht.get("timered").value == 1
    finally:
        net.stop_maintenance()
        net.sim.max_events = None
