"""The paper's DHT (§I: "easily modified to provide DHT functionality"):
keys hashed into the ID space, stored on the k peers closest to the key,
first answer wins — which is the replicated store at
``QuorumConfig(n=k, w=1, r=1)``."""

import numpy as np
import pytest

from repro import Cluster, QuorumConfig, TreePConfig, TreePNetwork
from repro.core.repair import FULL_POLICY, apply_failure_step
from repro.storage.store import hash_key


def dht_store(net, replicas):
    return Cluster(net=net).with_storage(
        QuorumConfig(n=replicas, w=1, r=1)).storage


@pytest.fixture(scope="module")
def dht_net():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=21)
    net.build(96)
    return net, dht_store(net, replicas=2)


def test_hash_key_stable_and_in_space():
    extent = 2**32
    a = hash_key("job/1", extent)
    assert a == hash_key("job/1", extent)
    assert 0 <= a < extent
    assert hash_key("job/2", extent) != a


def test_put_then_get(dht_net):
    net, dht = dht_net
    assert dht.put("alpha", 123).ok
    r = dht.get("alpha")
    assert r.found and r.value == 123


def test_get_missing_key(dht_net):
    net, dht = dht_net
    assert not dht.get("never-stored").found


def test_put_replicates(dht_net):
    net, dht = dht_net
    r = dht.put("replicated", "v")
    # A w=1 result names only the replica whose ack completed the write;
    # the other copy lands within the client call's settle window.
    assert r.ok and len(r.replicas) == 1
    holders = dht.replica_map()[r.key_id]
    assert len(holders) == 2
    assert all(dht.agents[i].store.get(r.key_id).value == "v" for i in holders)


def test_storage_lands_near_key(dht_net):
    net, dht = dht_net
    r = dht.put("locality-check", "v")
    primary = r.replicas[0]
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
    key_id = hash_key("inventory", net.config.space.extent)
    assert dht.replica_map()[key_id]


def test_replicas_validation():
    net = TreePNetwork(seed=1)
    net.build(8)
    with pytest.raises(ValueError):
        dht_store(net, replicas=0)


def test_survives_failures():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=33)
    net.build(96)
    dht = dht_store(net, replicas=3)
    keys = [f"k{i}" for i in range(40)]
    for k in keys:
        assert dht.put(k, k.upper()).ok
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
    dht = dht_store(net, replicas=2)
    net.start_maintenance()
    net.sim.max_events = 500_000  # fail loudly instead of hanging
    try:
        assert dht.put("timered", 1).ok
        assert dht.get("timered").value == 1
    finally:
        net.stop_maintenance()
