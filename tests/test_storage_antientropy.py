"""Anti-entropy: under-replication detection, repair, periodic scheduling."""

import pytest

from reference import live_replica_count
from repro import Cluster, TreePConfig, TreePNetwork
from repro.core.repair import FULL_POLICY, apply_failure_step
from repro.storage import AntiEntropy, QuorumConfig
from repro.storage.replication import repair_targets
from repro.storage.store import VersionedValue


@pytest.fixture()
def loaded():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=21)
    net.build(96)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=2, r=2)).storage
    keys = [f"k{i}" for i in range(20)]
    for k in keys:
        assert store.put(k, k.upper()).ok
    return net, store, keys


def test_clean_sweep_on_healthy_store(loaded):
    net, store, keys = loaded
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    # The first passes may relocate copies onto the global placement ideal;
    # once aligned, sweeps are clean.
    ae.converge()
    report = ae.sweep()
    assert report.repairs_sent == 0 and report.lost == 0
    assert report.keys >= len(keys)
    assert report.under_replicated == 0 and report.lost == 0


def test_relocates_replicas_onto_new_closer_nodes(loaded):
    """Regression: the sweep follows the placement ideal as the topology
    grows, so routed reads keep landing on holders after joins."""
    net, store, keys = loaded
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    ae.converge()
    key_id = store.key_id(keys[0])
    # Three new nodes join right next to the key: they become the ideal
    # replica set but hold nothing.
    space = net.config.space
    joiners = []
    for d in (1, 2, 3):
        ident = (key_id + d) % space.extent
        if ident not in net.nodes:
            net.join_new_node(ident)
            joiners.append(ident)
    net.sim.run()
    assert joiners, "test needs at least one joiner adjacent to the key"
    ae.converge()
    holders = store.replica_map()[key_id]
    assert set(joiners) <= set(holders)


def test_detects_and_repairs_under_replication(loaded):
    net, store, keys = loaded
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    # Kill one replica of a specific key.
    key_id = store.key_id(keys[0])
    victim = store.replica_map()[key_id][-1]
    net.fail_nodes([victim])
    apply_failure_step(net, [victim], FULL_POLICY)
    assert live_replica_count(store, key_id) == 2
    report = ae.sweep()
    assert report.under_replicated >= 1 and report.repairs_sent >= 1
    net.sim.run()
    assert live_replica_count(store, key_id) == 3
    report = ae.sweep()
    assert report.repairs_sent == 0 and report.lost == 0


def test_converge_restores_full_replication_after_mass_failure(loaded):
    net, store, keys = loaded
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    victims = net.ids[::7]  # ~14%, deterministic
    net.fail_nodes(victims)
    apply_failure_step(net, victims, FULL_POLICY)
    rounds = ae.converge()
    assert rounds <= 4
    rfs = store.replication_factors()
    assert min(rfs.values()) == store.quorum.n
    assert ae.reports[-1].under_replicated == 0


def test_stale_rejoiner_overwritten(loaded):
    net, store, keys = loaded
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    key_id = store.key_id(keys[3])
    victim = store.replica_map()[key_id][-1]
    # The victim goes down, misses an overwrite, then rejoins stale.
    net.network.set_down(victim)
    apply_failure_step(net, [victim], FULL_POLICY)  # purge stale routes
    assert store.put(keys[3], "NEWER").ok
    net.network.set_up(victim)
    stale = store.agents[victim].store.get(key_id)
    fresh_version = max(
        a.store.version_of(key_id) for a in store.agents.values())
    assert stale.version < fresh_version
    ae.converge()
    assert store.agents[victim].store.get(key_id).value == "NEWER"


def test_periodic_scheduling_with_simulator(loaded):
    net, store, keys = loaded
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    ae.start()
    assert ae.running
    # A replica dies; the timer-driven sweeps repair it as sim time passes.
    key_id = store.key_id(keys[1])
    victim = store.replica_map()[key_id][-1]
    net.fail_nodes([victim])
    apply_failure_step(net, [victim], FULL_POLICY)
    net.sim.run_for(35.0)
    ae.stop()
    assert not ae.running
    assert len(ae.reports) >= 3
    assert live_replica_count(store, key_id) == 3
    # The sweep reports recorded the dip and the recovery.
    assert ae.reports[0].under_replicated >= 1
    assert ae.reports[-1].under_replicated == 0


def test_interval_validation(loaded):
    net, store, _ = loaded
    with pytest.raises(ValueError):
        AntiEntropy(interval=0)
    with pytest.raises(ValueError):
        AntiEntropy(interval=float("nan"))


def test_lost_key_reported(loaded):
    net, store, keys = loaded
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    key_id = store.key_id(keys[5])
    for holder in store.replica_map()[key_id]:
        net.network.set_down(holder)
    report = ae.sweep()
    assert report.lost >= 1
    assert store.replication_factors()[key_id] == 0


def test_stale_copy_outside_target_set_reconciled(loaded):
    """A stale copy parked on a node that is *not* a placement target is
    still overwritten — otherwise a later failure burst could route reads
    onto it and resurrect the old value."""
    net, store, keys = loaded
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    ae.converge()
    key_id = store.key_id(keys[4])
    fresh = max(
        (a.store.get(key_id) for a in store.agents.values()
         if a.store.get(key_id) is not None),
        key=VersionedValue.stamp,
    )
    targets = repair_targets(sorted(net.alive_ids()), key_id, store.quorum.n)
    far = max((i for i in net.alive_ids() if i not in targets),
              key=lambda i: net.config.space.distance(i, key_id))
    store.agents[far].store._data[key_id] = VersionedValue("STALE", 99, -1, 0.0)
    ae.converge()
    assert store.agents[far].store.get(key_id).value == fresh.value


def test_one_sweep_is_pinned():
    """N=500, 200 keys, 20 % crashed, one ``sweep()``: the repairs sent (each
    ``(source, target, key)``, in order) and the live replica counts the
    sweep saw are those of the commit before ``repair_targets`` stopped sorting the
    live population per key (numbers recorded there)."""
    import hashlib

    import numpy as np

    cluster = Cluster(config=TreePConfig.paper_case1(), seed=33).build(500)
    cluster.with_storage(QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0)
    net, store, ae = cluster.net, cluster.storage, cluster.anti_entropy
    for i in range(200):
        assert store.put(f"pin/{i:03d}", i).ok
    rng = np.random.default_rng(33)
    net.fail_nodes(int(i) for i in rng.choice(sorted(net.ids), size=100, replace=False))

    sent = []
    real_send = net.network.send

    def spy(src, dst, payload):
        sent.append((src, dst, type(payload).__name__, payload.key_id))
        real_send(src, dst, payload)

    net.network.send = spy
    report = ae.sweep()
    net.network.send = real_send

    assert (report.keys, report.under_replicated, report.repairs_sent,
            report.lost) == (197, 87, 136, 3)
    rfs = list(store.replication_factors().values())  # repairs not delivered
    present = [rf for rf in rfs if rf > 0]
    assert (len(rfs), min(present), sum(present) / len(present),
            sum(rf < 3 for rf in present), rfs.count(0)) == (
                200, 1, 2.451776649746193, 87, 3)
    assert len(sent) == 136
    assert {kind for _, _, kind, _ in sent} == {"StoreReplicate"}
    assert hashlib.sha256(repr(sent).encode()).hexdigest()[:16] == "25865e23df0dee63"
