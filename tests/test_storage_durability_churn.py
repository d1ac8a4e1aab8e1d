"""Durability under churn: the subsystem's acceptance scenario.

A loaded N=3/W=2/R=2 store is subjected to a seeded :class:`ChurnSchedule`
that progressively kills 30% of the population; between bursts the overlay
heals its tables and the anti-entropy task re-replicates.  The invariants:

* zero key loss while every key keeps >= 1 live replica,
* after convergence every key is fully replicated again (rf == N),
* and 100% of keys remain quorum-readable.
"""

import pytest

from repro import Cluster, TreePConfig, TreePNetwork
from repro.core.repair import FULL_POLICY, apply_failure_step
from repro.storage import AntiEntropy, QuorumConfig
from repro.workloads import ChurnSchedule
from repro.workloads.churn import ChurnEvent

N_NODES = 96
N_KEYS = 40
KILL_FRACTION = 0.30
BURST = 5


def burst_kill_schedule(ids, rng, kill_fraction=KILL_FRACTION, burst=BURST):
    """A seeded schedule of timed leave events killing *kill_fraction*."""
    order = [int(v) for v in rng.permutation(ids)]
    total = int(round(kill_fraction * len(ids)))
    events = [
        ChurnEvent(time=10.0 * (1 + i // burst), kind="leave", node=order[i])
        for i in range(total)
    ]
    return ChurnSchedule(events=events)


@pytest.fixture(scope="module")
def churned():
    """Build, load, churn 30% away with AE between bursts; keep the history."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=21)
    net.build(N_NODES)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=2, r=2)).storage
    keys = [f"key/{i:03d}" for i in range(N_KEYS)]
    for k in keys:
        assert store.put(k, f"value-{k}").ok
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    # First passes may relocate copies from write-time (node-local)
    # placement onto the global ideal; after that the store is clean.
    ae.converge()
    report = ae.sweep()
    assert report.repairs_sent == 0 and report.lost == 0

    schedule = burst_kill_schedule(net.ids, net.rng.get("churn-test"))
    min_rf_seen = store.quorum.n
    # Replay the schedule burst by burst (events are time-sorted).
    pending = list(schedule)
    while pending:
        t = pending[0].time
        burst = [e for e in pending if e.time == t]
        pending = pending[len(burst):]
        victims = [e.node for e in burst if e.kind == "leave"]
        net.fail_nodes(victims)
        apply_failure_step(net, victims, FULL_POLICY)
        ae.sweep()  # records the post-burst dip before repair lands
        min_rf_seen = min(min_rf_seen,
                          min(store.replication_factors().values()))
        net.sim.run()
        ae.converge()
    return net, store, ae, keys, schedule, min_rf_seen


def test_schedule_killed_30_percent(churned):
    net, store, ae, keys, schedule, _ = churned
    dead = {e.node for e in schedule if e.kind == "leave"}
    assert len(dead) == int(round(KILL_FRACTION * N_NODES))
    assert len(net.alive_ids()) == N_NODES - len(dead)


def test_zero_key_loss_throughout(churned):
    """No sweep ever saw a key without a live replica."""
    net, store, ae, keys, schedule, min_rf_seen = churned
    assert all(r.lost == 0 for r in ae.reports)
    assert min_rf_seen >= 1


def test_full_replication_restored(churned):
    net, store, ae, keys, schedule, _ = churned
    rfs = store.replication_factors()
    assert len(rfs) == N_KEYS
    assert min(rfs.values()) == store.quorum.n


def test_all_keys_quorum_readable_after_convergence(churned):
    """The acceptance criterion: 100% of keys readable at N=3, W=2, R=2."""
    net, store, ae, keys, schedule, _ = churned
    alive = net.alive_ids()
    results = [store.get(k, via=alive[i % len(alive)])
               for i, k in enumerate(keys)]
    readable = sum(r.found for r in results)
    assert readable == N_KEYS
    assert all(r.value == f"value-{k}" for r, k in zip(results, keys))
    assert all(r.quorum_met for r in results)


def test_mixed_workload_durability_accounting(churned):
    """Writes acknowledged after the churn are read back, current, from
    other survivors."""
    net, store, ae, keys, schedule, _ = churned
    alive = net.alive_ids()
    for i in range(16):
        assert store.put(f"post/{i:02d}", i, via=alive[i % len(alive)]).ok
    for i in range(16):
        got = store.get(f"post/{i:02d}", via=alive[(i + 7) % len(alive)])
        assert got.found and got.value == i and got.quorum_met


def test_rejoin_after_churn_is_reconciled():
    """Nodes that come back stale are overwritten by the next sweeps."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
    net.build(64)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=2, r=2)).storage
    for i in range(12):
        assert store.put(f"r{i}", i).ok
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    rng = net.rng.get("rejoin-test")
    down = [int(v) for v in rng.choice(net.ids, 12, replace=False)]
    net.fail_nodes(down)
    apply_failure_step(net, down, FULL_POLICY)
    ae.converge()
    for i in range(12):  # overwrite everything while they are away
        assert store.put(f"r{i}", i + 100).ok
    for v in down:  # everyone comes back, carrying stale copies
        net.network.set_up(v)
    ae.converge()
    for i in range(12):
        g = store.get(f"r{i}", via=down[i % len(down)])
        assert g.found and g.value == i + 100


def test_stale_coordinator_hints_survive_30_percent_churn():
    """One origin wrote every key, so it holds a coordinator hint per key;
    then 30% of the other peers crash in healed bursts.  A hint to a dead
    coordinator costs the blocking client one re-issue, after which every
    key is readable with its value and every hint names a live peer."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=21)
    net.build(N_NODES)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=2, r=2)).storage
    ae = Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy
    writer = net.ids[0]
    keys = [f"key/{i:03d}" for i in range(N_KEYS)]
    for k in keys:
        assert store.put(k, f"value-{k}", via=writer).ok
    hints = store.agents[writer].coordinators  # made by the first result
    assert len(hints) == N_KEYS

    rng = net.rng.get("hint-churn-test")
    order = [int(v) for v in rng.permutation(net.ids) if int(v) != writer]
    total = int(round(KILL_FRACTION * N_NODES))
    for i in range(0, total, BURST):
        victims = order[i:min(i + BURST, total)]
        net.fail_nodes(victims)
        apply_failure_step(net, victims, FULL_POLICY)
        ae.converge()

    up = net.network.is_up
    learnt = dict(hints)
    assert sum(not up(c) for c in learnt.values()) >= 5, "churn too mild"
    results = [store.get(k, via=writer) for k in keys]
    assert all(r.found and r.value == f"value-{k}"
               for r, k in zip(results, keys))
    # A surviving coordinator is still the closest live peer: one hop.
    assert all(r.hops == 1 for r in results if up(learnt[r.key_id]))
    assert len(hints) == N_KEYS and all(up(c) for c in hints.values())
    assert not store.agents[writer].callbacks
