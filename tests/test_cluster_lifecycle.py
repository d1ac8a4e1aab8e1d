"""Service lifecycle under churn: the `Cluster` facade, the `Service`
protocol and the cleanup each `ServiceContext` owns.

Covers the 1.3.0 redesign invariants:

* setup/leave/revive callbacks fire exactly once per churn event for every
  attached service (30% churn schedule with revivals and protocol joins);
* a departed node's agents handle nothing and its periodic tasks are
  cancelled; a revived node's agents handle its traffic again;
* a torn-down facade leaves no handlers behind, for existing *or* rebuilt
  nodes (the pre-1.3 leak): its types fall through to the built-ins;
* `Cluster` owns construction order and the compute → storage → overlay
  dependency chain, and shutdown detaches in reverse order;
* one service per name, and the service plane is the network's one
  subscriber to node creation and liveness.
"""

from __future__ import annotations

import copy
import pickle
from collections import Counter

import pytest

from reference import live_timers
from repro import (
    AntiEntropy,
    Cluster,
    ComputeConfig,
    JobScheduler,
    JobSpec,
    QuorumConfig,
    ReplicatedStore,
    Service,
    ServiceError,
    TreePConfig,
)
from repro.compute.messages import JobSubmit
from repro.core.node import TreePNode
from repro.core.routing_table import SharedMap
from repro.services import ResourceDirectory
from repro.storage.messages import StoreGet, StorePut, StoreRead


def make_cluster(n=64, seed=11):
    return Cluster(config=TreePConfig.paper_case1(), seed=seed).build(n)


def node_timers(service, ident):
    """How many node-scoped periodic tasks *service* has running on *ident*."""
    return len(live_timers(service.ctx.node_timers.get(ident)))


class ProbePing:
    """A message type only :class:`ProbeService` handles."""


class DropLog:
    """A node's ``obs`` stand-in recording what reached ``node.drop``."""

    def __init__(self) -> None:
        self.drops = 0

    def event(self, name, *args, **kwargs) -> None:
        self.drops += name == "node.drop"


def deliver(cluster, dst, payload):
    """Send *payload* to *dst* from another node and run it in."""
    src = next(i for i in cluster.net.ids if i != dst)
    cluster.net.nodes[src].send(dst, payload)
    cluster.net.sim.run_for(1.0)


class ProbeService(Service):
    """Counts every lifecycle callback (the exactly-once regression) and
    declares one handler of its own: each node's agent is the list of
    senders whose :class:`ProbePing` it handled."""

    name = "probe"

    def __init__(self) -> None:
        super().__init__()
        self.setups: Counter = Counter()
        self.leaves: Counter = Counter()
        self.revives: Counter = Counter()
        self.ticks = 0
        self.detached = False
        self.agents: dict[int, list[int]] = {}

    def on_attach(self, ctx) -> None:
        ctx.every(5.0, self._tick, label="probe-tick")

    def _tick(self) -> None:
        self.ticks += 1

    def setup_node(self, node) -> None:
        self.setups[node.ident] += 1
        self.agents[node.ident] = []

    def handlers(self):
        return {ProbePing: (self.agents, lambda pings, src, msg: pings.append(src))}

    def on_node_leave(self, ident) -> None:
        self.leaves[ident] += 1

    def on_node_revive(self, node) -> None:
        self.revives[node.ident] += 1

    def on_detach(self) -> None:
        self.detached = True


# ------------------------------------------------------------ churn counts
def test_callbacks_fire_exactly_once_per_event_under_30pct_churn():
    cluster = (make_cluster(n=96)
               .with_storage(QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0)
               .with_compute(ComputeConfig()))
    probe = ProbeService()
    cluster.add_service(probe)

    net = cluster.net
    rng = net.rng.get("lifecycle-churn")
    order = [int(v) for v in rng.permutation(net.ids)]
    total = int(0.30 * len(net.ids))
    burst = max(1, len(net.ids) // 16)

    killed: list[int] = []
    revived: list[int] = []
    joined: list[int] = []
    next_id = max(net.ids) + 1
    while len(killed) < total:
        step = order[len(killed):len(killed) + min(burst, total - len(killed))]
        cluster.fail_nodes(step, heal=True)
        killed.extend(step)
        cluster.net.sim.run_for(5.0)
        # Revive every other burst's first victim; join one brand-new peer.
        if len(revived) < len(killed) // (2 * burst) + 1:
            back = step[0]
            cluster.net.revive_nodes([back])
            revived.append(back)
        cluster.net.join_new_node(next_id)
        joined.append(next_id)
        next_id += 1
        cluster.net.sim.run_for(5.0)

    leave_events = Counter(killed)
    revive_events = Counter(revived)
    assert probe.leaves == leave_events, "leave callbacks must fire exactly once"
    assert probe.revives == revive_events, "revive callbacks must fire exactly once"
    # Setup ran once per pre-existing node at attach plus once per join.
    assert sum(probe.setups.values()) == 96 + len(joined)
    assert max(probe.setups.values()) == 1
    # Double-kill of an already-down node must not re-fire callbacks.
    still_down = next(i for i in killed if i not in revived)
    cluster.fail_nodes([still_down])
    assert probe.leaves[still_down] == leave_events[still_down]
    assert probe.ticks > 0  # the service-wide periodic task ran
    cluster.shutdown()


# -------------------------------------------------------- context cleanup
def test_a_down_node_handles_nothing_and_its_node_tasks_are_cancelled():
    cluster = (make_cluster()
               .with_storage(QuorumConfig(n=3, w=2, r=2))
               .with_compute(ComputeConfig()))
    grid, store = cluster.compute, cluster.storage
    stats = cluster.net.network.stats
    # An idle worker owns no timer at all; give the victim a running job so
    # it holds node-scoped tasks (heartbeat + checkpoint loops) to cancel.
    grid.submit(JobSpec(job_id=1, work=200.0))
    cluster.net.sim.run_for(5.0)
    victim = grid.scheduler_core().records[1].worker
    assert victim is not None and victim != grid.scheduler_ident
    assert 1 in grid.agents[victim].running
    assert node_timers(grid, victim) >= 2
    assert {StorePut, JobSubmit} <= set(cluster.net.network.handlers)

    def read_replies():
        """StoreReadReply datagrams the victim's storage agent answers with."""
        before = stats.by_type.get("StoreReadReply", 0)
        deliver(cluster, victim, StoreRead(0, grid.scheduler_ident, 1))
        return stats.by_type.get("StoreReadReply", 0) - before

    assert read_replies() == 1
    cluster.fail_nodes([victim])
    assert read_replies() == 0, "a down node's agent must handle nothing"
    assert node_timers(grid, victim) == 0
    assert node_timers(store, victim) == 0
    assert not grid.agents[victim].running, "a crash wipes in-memory jobs"

    cluster.net.revive_nodes([victim])
    assert read_replies() == 1, "a revived node's agent handles traffic again"
    # A restarted process has no memory and nothing queued: no timer comes
    # back until the scheduler hands it work again.
    assert node_timers(grid, victim) == 0
    cluster.shutdown()


def unwritten_state(cluster):
    """``(storage maps, stores, running maps, queues)``: one set of object
    ids each, over every storage and compute agent."""
    storage = cluster.storage.agents.values()
    return ({id(m) for a in storage
             for m in (a._writes, a._reads, a.callbacks, a.coordinators)},
            {id(a.store._data) for a in storage},
            {id(a.running) for a in cluster.compute.agents.values()},
            {id(a.queue) for a in cluster.compute.agents.values()})


@pytest.mark.parametrize("how", ["deepcopy", "pickle"])
def test_a_fresh_cluster_copies_whole_with_its_shared_empties(how):
    """A freshly built cluster with storage and compute round-trips through
    ``copy.deepcopy`` and ``pickle``.  In the copy, every agent container
    nothing has written is still one shared read-only object, not one per
    agent, and the copy stores and reads on its own."""
    cluster = (make_cluster().with_storage(QuorumConfig(n=3, w=2, r=2))
               .with_compute(ComputeConfig()))
    twin = (copy.deepcopy(cluster) if how == "deepcopy"
            else pickle.loads(pickle.dumps(cluster)))
    assert twin.net.ids == cluster.net.ids and twin.net is not cluster.net
    for c in (cluster, twin):
        assert [len(ids) for ids in unwritten_state(c)] == [1, 1, 1, 1]
        agent = next(iter(c.storage.agents.values()))
        worker = next(iter(c.compute.agents.values()))
        assert type(agent._writes) is type(agent.store._data) is SharedMap
        assert type(worker.running) is SharedMap and worker.queue == ()
    assert twin.storage.put("copied", 1).ok
    assert twin.storage.get("copied").value == 1
    assert [len(ids) for ids in unwritten_state(cluster)] == [1, 1, 1, 1]


def test_coordinator_hints_do_not_outlive_the_process():
    """A storage agent's learnt key -> coordinator hints are process
    memory: gone when the node crashes, still empty when it is revived,
    and swept everywhere at shutdown (the store itself is disk and stays)."""
    cluster = make_cluster().with_storage(QuorumConfig(n=3, w=2, r=2))
    store = cluster.storage
    a, b = cluster.net.ids[0], cluster.net.ids[1]
    for via in (a, b):
        assert store.put("hinted", via, via=via).ok
    key_id = store.key_id("hinted")
    assert key_id in store.agents[a].coordinators
    assert key_id in store.agents[b].coordinators

    cluster.fail_nodes([b])
    assert not store.agents[b].coordinators
    assert key_id in store.agents[a].coordinators  # only the crashed node's
    cluster.net.revive_nodes([b])
    assert not store.agents[b].coordinators
    assert store.get("hinted", via=b).value == b  # routes, then re-learns
    assert key_id in store.agents[b].coordinators

    # Nor does a completion it was waiting on: the result of a request in
    # flight when the origin crashes is never delivered, so the callback
    # would otherwise stay registered for good.
    store.get_async("hinted", via=a, on_done=lambda result: None)
    assert len(store.agents[a].callbacks) == 1
    cluster.fail_nodes([a], heal=True)
    assert not store.agents[a].callbacks
    cluster.net.sim.run_for(60.0)
    cluster.net.revive_nodes([a])
    cluster.net.sim.run_for(60.0)
    assert not store.agents[a].callbacks

    cluster.shutdown()
    assert all(not agent.coordinators for agent in store.agents.values())
    assert all(not agent.callbacks for agent in store.agents.values())


def test_detach_sweeps_handlers_everywhere_and_spares_other_services():
    cluster = make_cluster().add_service(ProbeService()).with_storage()
    store, probe = cluster.storage, cluster.service("probe")
    table = cluster.net.network.handlers
    assert {StorePut, StoreGet, ProbePing} <= set(table)
    cluster.state.detach(store)
    assert not store.attached
    assert StorePut not in table and StoreGet not in table
    # A store datagram now has no entry and goes to node.drop...
    target = cluster.net.ids[5]
    node = cluster.net.nodes[target]
    node.obs = log = DropLog()
    deliver(cluster, target, StorePut(1, target, 7, "v", 0))
    assert log.drops == 1
    # ...while the other service still handles its own on every node.
    for ident in cluster.net.ids:
        deliver(cluster, ident, ProbePing())
        assert len(probe.agents[ident]) == 1
    cluster.shutdown()
    assert table == TreePNode.handlers(cluster.net.nodes)  # the overlay's own


def test_rebuilt_node_has_no_stale_handlers():
    """The pre-1.3 leak: a closed facade kept wiring every future node."""
    cluster = make_cluster().with_storage()
    store = cluster.storage
    cluster.state.detach(store)
    cluster.state.detach(store)  # idempotent
    new_id = max(cluster.net.ids) + 1
    cluster.net.join_new_node(new_id)
    cluster.net.sim.run_for(5.0)
    assert new_id not in store.agents  # no longer covering new nodes
    rebuilt = cluster.net.nodes[new_id]
    rebuilt.obs = log = DropLog()
    deliver(cluster, new_id, StoreGet(1, new_id, 7, 0))
    assert log.drops == 1


def test_second_same_name_attach_is_refused():
    """One service per name: a second ``with_storage`` raises and leaves
    the first store attached and serving."""
    cluster = make_cluster().with_storage(QuorumConfig(n=2, w=1, r=1))
    first = cluster.storage
    with pytest.raises(ServiceError, match="already attached"):
        cluster.with_storage(QuorumConfig(n=3, w=2, r=2))
    assert cluster.storage is first and first.attached
    assert first.quorum.n == 2
    assert first.put("k", 1).ok
    cluster.shutdown()


def test_periodic_tasks_cancelled_on_shutdown():
    cluster = make_cluster().with_storage(anti_entropy=10.0).with_compute()
    ae = cluster.anti_entropy
    ae.start()
    assert ae.running
    grid = cluster.compute
    grid.submit(JobSpec(job_id=1, cpu_demand=1.0, work=5.0))
    assert grid.run_until_done(timeout=120.0)
    timers = [timer for svc in cluster.services
              for group in (svc.ctx.timers, *svc.ctx.node_timers.values())
              for timer in live_timers(group)]
    assert timers
    cluster.shutdown()
    assert not ae.running, "shutdown must cancel the anti-entropy sweep"
    assert not any(timer.running for timer in timers)


# ------------------------------------------------- construction & ordering
def test_with_compute_owns_dependency_chain():
    cluster = make_cluster().with_compute(ComputeConfig())
    names = [s.name for s in cluster.services]
    assert names == ["storage", "discovery", "compute"]
    assert cluster.compute.store is cluster.storage
    assert cluster.compute.directory is cluster.directory
    # Compute owns neither: detaching it leaves both attached.
    cluster.state.detach(cluster.compute)
    assert [s.name for s in cluster.services] == ["storage", "discovery"]
    assert cluster.storage.put("k", 1).ok


def test_with_compute_reuses_existing_storage():
    cluster = (make_cluster()
               .with_storage(QuorumConfig(n=3, w=2, r=2))
               .with_compute())
    assert cluster.compute.store is cluster.storage
    assert cluster.storage.quorum.n == 3
    cluster.state.detach(cluster.compute)
    # An explicitly attached storage service is NOT owned by compute.
    assert cluster.storage.attached


def test_services_require_built_overlay():
    cluster = Cluster(seed=3)
    with pytest.raises(ServiceError):
        cluster.with_storage()
    with pytest.raises(ServiceError):
        cluster.with_compute()


def test_missing_service_accessor_raises_with_hint():
    cluster = make_cluster()
    with pytest.raises(ServiceError, match="with_storage"):
        cluster.storage
    with pytest.raises(ServiceError, match="with_compute"):
        cluster.compute


def test_service_cannot_attach_to_two_networks():
    a = make_cluster(seed=5)
    b = make_cluster(seed=6)
    a.with_storage()
    with pytest.raises(ServiceError):
        b.state.attach(a.storage)


def test_cluster_context_manager_shuts_down():
    with make_cluster().with_storage(anti_entropy=5.0) as cluster:
        store, ae = cluster.storage, cluster.anti_entropy
        ae.start()
        assert store.put("k", 1).ok
    assert not ae.running
    assert not store.attached


def test_shared_state_across_cluster_wrappers():
    """Every facade wrapping one network shares its service plane, so a
    service attached through one wrapper is visible (and reused as a
    dependency) through another."""

    cluster = make_cluster()
    store = ReplicatedStore(quorum=QuorumConfig(n=2, w=1, r=1))
    Cluster(net=cluster.net).add_service(store)
    assert cluster.storage is store
    cluster.with_compute()
    assert cluster.compute.store is store


@pytest.mark.parametrize(
    "cls", [ResourceDirectory, ReplicatedStore, AntiEntropy, JobScheduler],
    ids=lambda cls: cls.__name__)
def test_service_constructors_take_configuration_only(cls):
    """The pre-1.3 direct-wire form (``ReplicatedStore(net)``,
    ``AntiEntropy(store)``)
    is gone for good: handing a constructor a network (or a store)
    positionally is a TypeError, never a silent self-attach."""
    cluster = make_cluster(n=8)
    with pytest.raises(TypeError):
        cls(cluster.net)
    assert cluster.services == ()
    assert not cls().attached  # configuration-only construction wires nothing


# ------------------------------------------------------ review regressions
def test_scheduler_monitor_survives_host_fail_and_revive():
    """Regression: a fail+revive of the scheduler host (with no
    ensure_scheduler in between) must leave heartbeat-loss detection armed
    — the registry cancels the node-scoped monitor at departure, so the
    revival callback has to re-arm it."""
    cluster = make_cluster().with_compute(ComputeConfig())
    grid = cluster.compute
    host = grid.scheduler_ident
    cluster.fail_nodes([host])
    assert not grid.scheduler_core()._timer.running
    cluster.net.revive_nodes([host])
    assert not grid.ensure_scheduler()  # same process, table intact: no failover
    assert grid.scheduler_core()._timer.running, "monitor must be re-armed"
    # End-to-end: a worker killed mid-job is still detected and re-placed.
    grid.submit(JobSpec(job_id=1, cpu_demand=1.0, work=30.0))
    cluster.net.sim.run_for(10.0)
    core = grid.scheduler_core()
    worker = core.records[1].worker
    if worker is not None and worker != host:
        cluster.fail_nodes([worker], heal=True)
    assert grid.run_until_done(timeout=600.0)
    assert grid.results[1].ok
    cluster.shutdown()


def test_failed_attach_rolls_back_spawned_dependencies():
    """Regression: with_compute dying mid-attach must not leave the
    storage/discovery services it attached wired to the network."""
    cluster = make_cluster(n=16)
    cluster.fail_nodes(list(cluster.net.ids))  # no live host for the scheduler
    with pytest.raises(RuntimeError):
        cluster.with_compute()
    assert [s.name for s in cluster.services] == []
    assert cluster.net.network.handlers == TreePNode.handlers(cluster.net.nodes)


def test_anti_entropy_without_storage_raises():
    """``ctx.require`` only looks a dependency up: attaching anti-entropy
    before its store fails loudly and leaves nothing wired."""

    cluster = make_cluster()
    with pytest.raises(ServiceError, match="requires 'storage'"):
        cluster.add_service(AntiEntropy(interval=5.0))
    assert cluster.services == ()
    cluster.with_storage(QuorumConfig(n=2, w=1, r=1))
    cluster.add_service(AntiEntropy(interval=5.0))
    assert cluster.anti_entropy.store is cluster.storage
    assert cluster.storage.put("k", 1).ok
    assert cluster.anti_entropy.sweep().keys >= 1
    cluster.shutdown()


def test_detach_cascade_spares_shared_dependencies():
    """Regression: compute detaching must not tear down the storage service
    attached for it while anti-entropy (another attached service) uses it."""

    cluster = make_cluster().with_compute()  # attaches storage + discovery
    store = cluster.storage
    cluster.add_service(AntiEntropy(interval=5.0))  # requires 'storage'
    cluster.state.detach(cluster.compute)
    assert store.attached, "shared dependency must survive its spawner"
    assert cluster.storage is store
    assert store.put("k", 1).ok
    assert cluster.anti_entropy.sweep().keys >= 1  # still sweeping live agents
    cluster.shutdown()


def test_unattached_anti_entropy_fails_loud():

    ae = AntiEntropy(interval=5.0)
    with pytest.raises(ServiceError, match="not attached"):
        ae.start()
    with pytest.raises(ServiceError, match="no attached store"):
        ae.sweep()


def test_service_plane_is_the_one_network_subscriber():
    """One dispatcher each on node creation, crash and revival, however
    many services come and go.  The fabric's crash and revival hooks also
    hold the overlay's own, which stops and re-arms keep-alive loops."""
    cluster = make_cluster().with_compute()  # storage, discovery, compute
    net = cluster.net

    def subscribers():
        return (len(net.node_hooks), len(net.network.down_hooks),
                len(net.network.up_hooks))

    assert subscribers() == (1, 2, 2)
    cluster.shutdown()
    assert cluster.services == ()
    assert subscribers() == (1, 2, 2)


def test_conflicting_handler_claims_are_refused():
    """Regression: a second service silently stealing another's message
    type would black-hole that type once the thief detaches."""

    class Thief(Service):
        name = "thief"

        def handlers(self):
            return {StorePut: ({}, lambda agent, src, msg: None)}

    cluster = make_cluster(n=8).with_storage()
    with pytest.raises(ServiceError, match="StorePut"):
        cluster.add_service(Thief())
    # Failed attach rolled back cleanly: storage still owns its traffic.
    assert cluster.service("thief") is None
    assert cluster.storage.put("k", 1).ok
    cluster.shutdown()


def test_cluster_net_wrap_rejects_conflicting_args():
    cluster = make_cluster(n=8)
    with pytest.raises(ValueError, match="existing network"):
        Cluster(seed=5, net=cluster.net)
    wrapped = Cluster(net=cluster.net)  # bare wrap is fine
    assert wrapped.net is cluster.net


# ----------------------------------------------------- churn survivability
def test_storage_survives_churn_driven_through_cluster():
    """Quorum data stays readable across a 30% churn schedule driven
    entirely through the Cluster facade (no manual facade plumbing)."""
    cluster = make_cluster(n=96, seed=23).with_storage(
        QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0)
    store, ae = cluster.storage, cluster.anti_entropy
    keys = [f"k{i}" for i in range(30)]
    for k in keys:
        assert store.put(k, k.upper()).ok

    rng = cluster.net.rng.get("cluster-churn")
    order = [int(v) for v in rng.permutation(cluster.net.ids)]
    total, burst = int(0.30 * 96), 6
    killed = 0
    while killed < total:
        step = order[killed:killed + min(burst, total - killed)]
        killed += len(step)
        cluster.fail_nodes(step, heal=True)
        ae.converge()

    alive = cluster.net.alive_ids()
    readable = sum(store.get(k, via=alive[i % len(alive)]).found
                   for i, k in enumerate(keys))
    assert readable == len(keys)
    cluster.shutdown()
