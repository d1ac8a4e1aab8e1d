"""Quorum math, PUT/GET end-to-end, and stale-read repair."""

from itertools import combinations

import pytest

from reference import live_replica_count
from repro import Cluster, TreePConfig, TreePNetwork
from repro.storage import QuorumConfig, quorum
from repro.storage.quorum import QUORUM_TIMEOUT
from repro.storage.store import VersionedValue


@pytest.fixture()
def store_net():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=21)
    net.build(96)
    return net, Cluster(net=net).with_storage(QuorumConfig(n=3, w=2, r=2)).storage


def _coordinator_of(net, store, key_id):
    """The holder closest to the key: the node that coordinates it."""
    space = net.config.space
    return min(store.replica_map()[key_id],
               key=lambda i: space.distance(i, key_id))


# ------------------------------------------------------------- quorum math
def test_quorum_validation():
    with pytest.raises(ValueError):
        QuorumConfig(n=0)
    with pytest.raises(ValueError):
        QuorumConfig(n=3, w=4)
    with pytest.raises(ValueError):
        QuorumConfig(n=3, r=0)


def test_overlap_guarantee_brute_force():
    """W+R>N ⇒ every write quorum intersects every read quorum (and the
    guaranteed overlap is exactly w + r - n); W+R<=N admits disjoint pairs."""
    for n in range(1, 6):
        replicas = range(n)
        for w in range(1, n + 1):
            for r in range(1, n + 1):
                min_overlap = min(
                    len(set(ws) & set(rs))
                    for ws in combinations(replicas, w)
                    for rs in combinations(replicas, r)
                )
                assert min_overlap == max(0, w + r - n)


# ----------------------------------------------------------------- PUT/GET
def test_put_get_roundtrip(store_net):
    net, store = store_net
    r = store.put("alpha", {"v": 1})
    assert r.ok and r.quorum_met
    assert r.version == 1
    assert len(r.replicas) >= store.quorum.w
    g = store.get("alpha")
    assert g.found and g.value == {"v": 1} and g.quorum_met


def test_get_missing_key(store_net):
    net, store = store_net
    r = store.get("never-stored")
    assert not r.found and r.value is None


def test_overwrite_bumps_version(store_net):
    net, store = store_net
    assert store.put("counter", 1).version == 1
    assert store.put("counter", 2).version == 2
    g = store.get("counter")
    assert g.value == 2 and g.version == 2


def test_get_via_any_origin(store_net):
    net, store = store_net
    store.put("from-anywhere", 7)
    for via in (net.ids[0], net.ids[-1], net.ids[len(net.ids) // 2]):
        assert store.get("from-anywhere", via=via).found


def test_replicas_land_on_n_nodes(store_net):
    net, store = store_net
    r = store.put("replicated", "v")
    assert r.ok
    assert live_replica_count(store, r.key_id) == store.quorum.n


def test_tracked_keys_record_acknowledged_writes(store_net):
    net, store = store_net
    r = store.put("tracked", 1)
    assert r.key_id in store.tracked_keys
    rfs = store.replication_factors()
    assert rfs[r.key_id] == store.quorum.n


# -------------------------------------------------------------- read repair
def test_stale_replica_repaired_on_read(store_net):
    net, store = store_net
    r = store.put("repair-me", "fresh")
    key_id = r.key_id
    holders = store.replica_map()[key_id]
    assert len(holders) == 3
    # Regress one replica to a stale version behind the others' backs.
    victim = holders[-1]
    store.agents[victim].store._data[key_id] = VersionedValue("stale", 0, -1)
    g = store.get("repair-me")
    assert g.found and g.value == "fresh"
    net.sim.run()  # let the repair replicate land
    repaired = store.agents[victim].store.get(key_id)
    assert repaired.value == "fresh" and repaired.version == g.version


def test_stale_replica_repaired_when_it_replies_last(store_net):
    """Read repair must not depend on reply order: the read is answered at
    the R-th found reply, and a stale replica answering *after* that is
    still repaired — without burning the read timeout once all are in."""
    from reference import ConstantLatency

    net, store = store_net
    r = store.put("repair-late", "fresh")
    key_id = r.key_id
    coordinator = _coordinator_of(net, store, key_id)
    victim = next(h for h in store.replica_map()[key_id] if h != coordinator)
    store.agents[victim].store._data[key_id] = VersionedValue("stale", 0, -1)

    class SlowVictim(ConstantLatency):
        def sample(self, src, dst):
            return 10 * self.value if src == victim else self.value

    net.network.latency = SlowVictim(0.01)
    t0 = net.sim.now
    g = store.get("repair-late")
    assert g.found and g.value == "fresh"
    net.sim.run()
    repaired = store.agents[victim].store.get(key_id)
    assert repaired.value == "fresh" and repaired.version == g.version
    assert not any(a._reads for a in store.agents.values())
    assert net.sim.now - t0 < QUORUM_TIMEOUT  # timeout was cancelled


def test_unanswered_replica_releases_the_read_at_timeout(store_net):
    """A target that never replies must not pin the answered read: the
    read timeout drops it (and answers nobody twice)."""
    net, store = store_net
    r = store.put("repair-dead", "v")
    coordinator = _coordinator_of(net, store, r.key_id)
    net.network.set_down(next(h for h in store.replica_map()[r.key_id]
                              if h != coordinator))
    seen = []
    store.get_async("repair-dead", on_done=seen.append)
    net.sim.run_for(1.0)
    assert len(seen) == 1 and seen[0].found  # R=2 of the 2 live holders
    assert store.agents[coordinator]._reads  # still owed the third reply
    net.sim.run_for(QUORUM_TIMEOUT)
    assert len(seen) == 1
    assert not any(a._reads for a in store.agents.values())


def test_read_sees_latest_acknowledged_write_with_overlap(store_net):
    """The W+R>N overlap in practice: every read after an acked write
    returns that write, from any origin."""
    net, store = store_net
    for i in range(10):
        assert store.put("hot", i).ok
        g = store.get("hot", via=net.ids[i % len(net.ids)])
        assert g.found and g.value == i


# ------------------------------------------------------- degraded operation
def test_crashed_coordinator_answers_nothing():
    """A crash-stopped coordinator forgets the quorums it was waiting on:
    their timeouts must not send a result, or a fallback read, from the
    dead node."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=3)
    net.build(64)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=3, r=2)).storage
    r = store.put("orphan", 0)
    assert r.ok
    coordinator = _coordinator_of(net, store, r.key_id)
    net.network.set_down(next(h for h in store.replica_map()[r.key_id]
                              if h != coordinator))
    store.put_async("orphan", 1, via=coordinator)  # W=3 cannot be met
    store.get_async("orphan", via=coordinator)     # no reply is in yet
    agent = store.agents[coordinator]
    assert agent._writes and agent._reads
    net.fail_nodes([coordinator])
    assert not agent._writes and not agent._reads
    by_type = net.network.stats.by_type
    sent = {t: by_type.get(t, 0) for t in ("StorePutResult", "StoreGetResult", "StoreGet")}
    net.sim.run_for(2 * QUORUM_TIMEOUT)
    assert {t: by_type.get(t, 0) for t in sent} == sent


def test_detached_store_sends_nothing_after_detach():
    """Detaching the store drops what every agent was waiting on, as a
    crash does: no quorum timeout fires a result nothing would handle."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=3)
    net.build(64)
    cluster = Cluster(net=net).with_storage(QuorumConfig(n=3, w=3, r=2))
    store = cluster.storage
    r = store.put("orphan", 0)
    assert r.ok
    coordinator = _coordinator_of(net, store, r.key_id)
    net.network.set_down(next(h for h in store.replica_map()[r.key_id]
                              if h != coordinator))
    store.put_async("orphan", 1, via=coordinator,
                    on_done=lambda result: None)  # W=3 cannot be met
    agent = store.agents[coordinator]
    assert agent._writes and agent.callbacks
    cluster.state.detach(store)
    assert not agent._writes and not agent._reads and not agent.callbacks
    by_type = net.network.stats.by_type
    store_types = [t for t in by_type if t.startswith("Store")]
    sent = {t: by_type[t] for t in store_types}
    net.sim.run_for(2 * QUORUM_TIMEOUT)
    assert {t: by_type[t] for t in by_type if t.startswith("Store")} == sent


def test_write_times_out_sloppily_when_replicas_dead():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=9)
    net.build(32)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=3, r=1)).storage
    r0 = store.put("seed-key", 0)  # discover the placement
    assert r0.ok
    holders = store.replica_map()[r0.key_id]
    space = net.config.space
    coordinator = min(holders, key=lambda i: space.distance(i, r0.key_id))
    # Kill every holder except the coordinator: W=3 can no longer be met
    # (the coordinator's table still lists the dead peers as targets).
    for h in holders:
        if h != coordinator:
            net.network.set_down(h)
    r = store.put("seed-key", 1, via=coordinator)
    assert not r.ok  # quorum failed...
    assert len(r.replicas) >= 1  # ...but the achieved copies are reported
    g = store.get("seed-key", via=coordinator)
    assert g.found and g.value == 1  # sloppy: the write wasn't rolled back


def test_client_ops_return_while_periodic_antientropy_runs():
    """Regression: put/get must not drain forever into the self-re-arming
    anti-entropy timer schedule."""
    from repro.storage import AntiEntropy

    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=11)
    net.build(48)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=2, r=2)).storage
    ae = Cluster(net=net).add_service(AntiEntropy(interval=5.0)).anti_entropy
    ae.start()
    net.sim.max_events = 500_000  # fail loudly instead of hanging
    try:
        assert store.put("timered", 1).ok
        g = store.get("timered")
        assert g.found and g.value == 1
    finally:
        ae.stop()


def test_acknowledged_write_survives_version_restart():
    """Regression: a fresh coordinator (all prior replicas dead) restarts
    the per-key version counter; its acknowledged write must not lose LWW
    to a stale higher-versioned copy carried by a rejoining replica."""
    from repro.core.repair import FULL_POLICY, apply_failure_step
    from repro.storage import AntiEntropy

    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=21)
    net.build(96)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=2, r=2)).storage
    for v in range(5):  # drive the version counter to 5
        assert store.put("restart", f"old-{v}").ok
    holders = store.replica_map()[store.key_id("restart")]
    net.fail_nodes(holders)  # the whole replica set dies at version 5
    apply_failure_step(net, holders, FULL_POLICY)
    r = store.put("restart", "NEW")  # fresh coordinator, counter restarted
    assert r.ok
    # One stale holder rejoins carrying the old value at version 5.
    back = holders[0]
    net.network.set_up(back)
    assert store.agents[back].store.get(store.key_id("restart")).version == 5
    Cluster(net=net).add_service(AntiEntropy(interval=10.0)).anti_entropy.converge()
    g = store.get("restart")
    assert g.found and g.value == "NEW"  # no resurrection
    # The stale copy was overwritten everywhere, timestamps deciding LWW.
    assert store.agents[back].store.get(store.key_id("restart")).value == "NEW"


def test_later_write_dominates_regressed_replica():
    """The coordination timestamp leads the LWW stamp, so a new write wins
    even when a replica (here: the coordinator itself) carries a mangled
    higher-looking version counter."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=9)
    net.build(32)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=2, r=2)).storage
    r0 = store.put("bump", "a")
    key_id = r0.key_id
    holders = store.replica_map()[key_id]
    space = net.config.space
    coordinator = min(holders, key=lambda i: space.distance(i, key_id))
    # Regress the coordinator's own copy behind the replicas' backs.
    store.agents[coordinator].store._data[key_id] = VersionedValue("a", 0, -1)
    r = store.put("bump", "b", via=coordinator)
    assert r.ok
    net.sim.run()
    for h in store.replica_map()[key_id]:
        assert store.agents[h].store.get(key_id).value == "b"


def test_write_finishes_immediately_when_targets_below_w():
    """A coordinator that cannot name w targets must not idle out the full
    quorum timeout waiting for acks that can never arrive."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=9)
    net.build(2)  # placement can name at most 2 targets
    store = Cluster(net=net).with_storage(QuorumConfig(n=4, w=4, r=1)).storage
    t0 = net.sim.now
    r = store.put("thin", 1)
    assert not r.ok  # w=4 unattainable with 2 nodes...
    assert len(r.replicas) == 2  # ...but both available copies were made
    assert net.sim.now - t0 < 5.0  # and no 5s timeout was burned


def test_pump_honours_max_events():
    """The client pump trips the simulator's max_events guard instead of
    spinning forever on a same-time event cycle."""
    from repro.sim.engine import SimulationError

    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=9)
    net.build(8)

    def perpetual():
        net.sim.schedule(0.0, perpetual)  # same-time cycle: clock never advances

    net.sim.schedule(0.0, perpetual)
    net.sim.max_events = 10_000
    with pytest.raises(SimulationError, match="max_events=10000"):
        net.pump([], timeout=30.0)


def test_live_origin_rejects_down_via():
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=9)
    net.build(16)
    store = Cluster(net=net).with_storage(QuorumConfig(n=2, w=1, r=1)).storage
    net.network.set_down(net.ids[3])
    with pytest.raises(ValueError):
        store.put("x", 1, via=net.ids[3])
    with pytest.raises(ValueError):
        store.get("x", via=net.ids[3])


def test_r1_read_waits_for_real_holders_not_self_miss(monkeypatch):
    """A coordinator that doesn't hold the key must not satisfy r=1 with
    its own instantaneous miss while the holders' replies are in flight
    (no read fallback, so a miss is reported rather than re-routed)."""
    monkeypatch.setattr(quorum, "READ_FALLBACK", 0)
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=21)
    net.build(96)
    store = Cluster(net=net).with_storage(QuorumConfig(n=3, w=2, r=1)).storage
    r = store.put("selfmiss", "v")
    assert r.ok
    key_id = r.key_id
    # Remove the responsible coordinator's own copy; the other replicas
    # still hold it, and they are in its placement set.
    holders = store.replica_map()[key_id]
    space = net.config.space
    coordinator = min(holders, key=lambda i: space.distance(i, key_id))
    del store.agents[coordinator].store._data[key_id]  # lose this one copy
    g = store.get("selfmiss", via=coordinator)
    assert g.found and g.value == "v"


def test_equal_stamp_replicate_counts_as_ack():
    """A replica that already holds the exact incoming stamp (a repair of
    the same write raced the fanout) must ack success, not rejection —
    otherwise the write spuriously times out with every copy in place."""
    from repro.storage.messages import StoreReplicate
    from repro.storage.quorum import _PendingWrite

    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=9)
    net.build(32)
    store = Cluster(net=net).with_storage(QuorumConfig(n=2, w=2, r=1)).storage
    c, x = net.ids[0], net.ids[1]
    key_id, stamp = 12345, (7.0, 3, 9)
    # The replica already holds the exact stamp the fanout will carry.
    store.agents[x].store.apply(key_id, "v", 3, writer=9, timestamp=7.0)
    rid = 999_001
    # The coordinator's maps are the shared empty until written: give the
    # agent its own, as its first write would.
    store.agents[c]._writes = {rid: _PendingWrite(
        request_id=rid, origin=c, key_id=key_id, version=3,
        targets=(c, x), acks={c}, hops=0)}
    seen = []
    store.agents[c].callbacks = {rid: seen.append}
    net.nodes[c].send(x, StoreReplicate(rid, c, key_id, "v", 3, 9, 7.0))
    net.sim.run()
    assert seen[0].ok  # the equal-stamp ack completed the W=2 quorum


# ----------------------------------------------------------- async client
def test_put_async_and_get_async_deliver_via_callback(store_net):
    """The in-sim async API: callbacks fire with the coordinator results
    (the compute checkpoint path)."""
    net, store = store_net
    seen = []
    store.put_async("async/a", {"p": 1.0}, on_done=seen.append)
    net.sim.run_for(5.0)
    assert len(seen) == 1 and seen[0].ok

    got = []
    store.get_async("async/a", on_done=got.append)
    net.sim.run_for(5.0)
    assert len(got) == 1 and got[0].found
    assert got[0].value == {"p": 1.0}


def test_fire_and_forget_put_does_not_accrete_replies(store_net):
    net, store = store_net
    origin = net.live_origin()
    agent = store.agents[origin.ident]
    for i in range(10):
        store.put_async(f"faf/{i}", i, via=origin.ident)
    assert not agent.callbacks  # nothing registered, so results are dropped
    net.sim.run_for(5.0)
    assert store.get(f"faf/3").value == 3  # but the writes landed
    assert not agent.callbacks


def test_blocking_ops_leave_no_completion_state(store_net):
    """One completion map per agent, empty once a request resolves: after a
    successful put, a successful get and a client-side timeout (coordinator
    killed mid-op), and a result arriving after the timeout is dropped
    without error.  (Fire-and-forget is the test above.)"""
    from repro.storage.messages import StorePutResult

    net, store = store_net

    def idle():
        return all(not a.callbacks for a in store.agents.values())

    r = store.put("leak/k", 1)
    assert r.ok and idle()
    assert store.get("leak/k").found and idle()

    space = net.config.space
    coordinator = min(store.replica_map()[r.key_id],
                      key=lambda i: space.distance(i, r.key_id))
    origin = next(i for i in net.ids if i != coordinator)
    # The request is in flight towards the coordinator when it dies, so no
    # result ever comes back and the client times out.
    net.sim.schedule(1e-6, lambda: net.network.set_down(coordinator))
    before = store._rid
    assert not store.put("leak/k", 2, via=origin).ok
    assert idle()
    late = StorePutResult(before + 1, r.key_id, True, 2, (coordinator,), 1)
    store.agents[origin]._on_result(coordinator, late)  # dropped, no error
    assert idle()


# ------------------------------------------------------- coordinator hints
def _datagrams(net):
    return dict(net.network.stats.by_type)


def _sent_since(net, before):
    now = net.network.stats.by_type
    return {k: v - before.get(k, 0) for k, v in now.items()
            if v != before.get(k, 0)}


def _far_key(store, origin, prefix="hint"):
    """A key the cold walk from *origin* needs >= 2 hops for (written)."""
    for i in range(64):
        key = f"{prefix}/{i}"
        if store.put(key, i, via=origin).hops >= 2:
            return key, i
    raise AssertionError("no multi-hop key found")  # pragma: no cover


def test_hint_learnt_from_result_src_and_consumed_on_use(store_net):
    """Route once, then go direct: the origin remembers who answered for
    a key; the next request pops the hint, costs one request datagram and
    reports one hop; its result teaches the hint again."""
    net, store = store_net
    origin = net.live_origin().ident
    key, value = _far_key(store, origin)
    hints = store.agents[origin].coordinators  # made by the first result
    key_id = store.key_id(key)
    coordinator = _coordinator_of(net, store, key_id)
    assert hints[key_id] == coordinator

    before = _datagrams(net)
    seen = []
    store.get_async(key, via=origin, on_done=seen.append)
    assert key_id not in hints  # consumed on use
    net.sim.run_for(1.0)
    assert seen[0].found and seen[0].value == value and seen[0].hops == 1
    assert _sent_since(net, before)["StoreGet"] == 1
    assert hints[key_id] == coordinator  # re-taught by the result

    before = _datagrams(net)
    r = store.put(key, "again", via=origin)
    assert r.ok and r.hops == 1
    assert _sent_since(net, before)["StorePut"] == 1
    assert store.get(key, via=origin).value == "again"
    # Another origin knows nothing yet and walks.
    other = next(i for i in reversed(net.ids) if i not in (origin, coordinator))
    assert key_id not in store.agents[other].coordinators
    assert store.get(key, via=other).value == "again"
    assert store.agents[other].coordinators[key_id] == coordinator


def test_hint_learnt_without_a_callback(store_net):
    """Fire-and-forget results teach too (the checkpoint path registers no
    callback), and a node coordinating its own key sends nothing extra."""
    net, store = store_net
    origin = net.live_origin().ident
    agent = store.agents[origin]
    key, _ = _far_key(store, origin)
    key_id = store.key_id(key)
    coordinator = agent.coordinators.pop(key_id)
    store.put_async(key, "faf", via=origin)  # cold again: hint was removed
    net.sim.run_for(1.0)
    assert not agent.callbacks
    assert agent.coordinators[key_id] == coordinator
    before = _datagrams(net)
    store.put_async(key, "faf2", via=origin)
    net.sim.run_for(1.0)
    assert _sent_since(net, before)["StorePut"] == 1
    # Issued at the coordinator itself the request never leaves the node.
    assert store.put(key, "local", via=coordinator).hops == 0
    assert store.agents[coordinator].coordinators[key_id] == coordinator
    before = _datagrams(net)
    assert store.get(key, via=coordinator).hops == 0
    assert "StoreGet" not in _sent_since(net, before)


def test_hints_are_bounded(store_net, monkeypatch):
    net, store = store_net
    monkeypatch.setattr("repro.storage.quorum._HINT_CAP", 4)
    origin = net.live_origin().ident
    for i in range(7):
        assert store.put(f"cap/{i}", i).ok
    hints = store.agents[origin].coordinators
    assert list(hints) == [store.key_id(f"cap/{i}") for i in range(3, 7)]


def test_hinted_node_no_longer_closest_forwards_and_hint_is_corrected(store_net):
    """A closer peer joined after the hint was learnt: the hinted node is
    alive but no longer responsible, so it forwards like any other hop, the
    value is right, and the result re-points the hint."""
    net, store = store_net
    origin = net.live_origin().ident
    key, value = _far_key(store, origin)
    hints = store.agents[origin].coordinators  # made by the first result
    key_id = store.key_id(key)
    old = hints[key_id]
    new_id = key_id + 1 if key_id + 1 not in net.nodes else key_id - 1
    net.join_new_node(new_id)
    net.sim.run_for(5.0)
    assert hints[key_id] == old  # nothing told the origin
    g = store.get(key, via=origin)
    assert g.found and g.value == value and g.hops == 2  # old -> new
    assert hints[key_id] == new_id
    assert store.get(key, via=origin).hops == 1


def test_hinted_coordinator_crash_blocking_ops_reissue(store_net):
    """The remembered coordinator died: the hinted request is never
    answered, and the blocking client routes it again."""
    from repro.core.repair import FULL_POLICY, apply_failure_step

    net, store = store_net
    origin = net.live_origin().ident
    for op in ("get", "put"):
        key, value = _far_key(store, origin, prefix=f"crash-{op}")
        hints = store.agents[origin].coordinators  # made by the first result
        key_id = store.key_id(key)
        dead = hints[key_id]
        net.fail_nodes([dead])
        apply_failure_step(net, [dead], FULL_POLICY)
        before = _datagrams(net)
        if op == "get":
            r = store.get(key, via=origin)
            assert r.found and r.value == value
        else:
            r = store.put(key, "after", via=origin)
            assert r.ok and store.get(key, via=origin).value == "after"
        assert r.hops >= 2  # answered by the routed re-issue
        assert hints[key_id] != dead
        assert not store.agents[origin].callbacks
        sent = _sent_since(net, before)
        assert sent["StoreGet" if op == "get" else "StorePut"] == 1 + r.hops


def test_hinted_coordinator_crash_costs_async_clients_one_op(store_net):
    from repro.core.repair import FULL_POLICY, apply_failure_step

    net, store = store_net
    origin = net.live_origin().ident
    key, value = _far_key(store, origin)
    hints = store.agents[origin].coordinators  # made by the first result
    key_id = store.key_id(key)
    dead = hints[key_id]
    net.fail_nodes([dead])
    apply_failure_step(net, [dead], FULL_POLICY)
    seen = []
    store.get_async(key, via=origin, on_done=seen.append)
    net.sim.run_for(2 * QUORUM_TIMEOUT)
    assert not seen and key_id not in hints  # that one op is lost
    store.get_async(key, via=origin, on_done=seen.append)
    net.sim.run_for(2 * QUORUM_TIMEOUT)
    assert len(seen) == 1 and seen[0].found and seen[0].value == value
    assert seen[0].hops >= 2 and hints[key_id] != dead
