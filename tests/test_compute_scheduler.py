"""End-to-end tests of the grid job-execution subsystem: dispatch, the
placement rule, heartbeat-loss re-placement, checkpoint resume, DAG
ordering, work stealing, and scheduler failover."""

from dataclasses import replace
from typing import Dict, NamedTuple, Tuple

import pytest

from reference import live_timers
from repro import (
    Cluster,
    ComputeConfig,
    JobSpec,
    NodeCapacity,
    TreePConfig,
    TreePNetwork,
)
from repro.compute.job import CHECKPOINT_READ_TIMEOUT, JobState, checkpoint_key
from repro.compute.messages import JobDispatch, JobStealGrant, JobStealRequest
from repro.compute.worker import HeldJob
from repro.core.repair import FULL_POLICY, apply_failure_step
from repro.services.discovery import Constraint


def make_grid(n=48, seed=7, **cfg_kwargs):
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n)
    grid = Cluster(net=net).with_compute(ComputeConfig(**cfg_kwargs)).compute
    return net, grid


def kill(net, grid, victims):
    net.fail_nodes(victims)
    apply_failure_step(net, victims, FULL_POLICY)
    grid.directory.refresh()


# ----------------------------------------------------------------- basics
def test_submit_dispatch_complete():
    net, grid = make_grid()
    for i in range(5):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=1.0, work=8.0))
    assert grid.run_until_done(timeout=200.0)
    assert len(grid.results) == 5
    assert all(r.ok and r.attempts == 1 for r in grid.results.values())
    core = grid.scheduler_core()
    assert all(r.state is JobState.DONE for r in core.records.values())
    stats = grid.stats()
    assert stats.completion_rate == 1.0
    assert stats.useful_work == pytest.approx(40.0)
    assert stats.executed_work == pytest.approx(40.0, abs=1.0)
    assert stats.wasted_work == pytest.approx(0.0, abs=1.0)
    assert stats.makespan > 0


def test_submission_is_routed_protocol_traffic():
    """Submissions travel as Job* datagrams, not oracle calls."""
    net, grid = make_grid()
    # Submit from the peer furthest (in table terms) from the scheduler.
    via = next(i for i in net.ids
               if i != grid.scheduler_ident and net.network.is_up(i))
    grid.submit(JobSpec(job_id=1, work=5.0), via=via)
    assert grid.run_until_done(timeout=120.0)
    by_type = net.network.stats.by_type
    for name in ("JobSubmit", "JobAck", "JobDispatch", "JobAccepted",
                 "JobHeartbeat", "JobComplete", "JobReport"):
        assert by_type.get(name, 0) >= 1, f"no {name} on the wire"
    assert grid.client[1].acked


def test_constraint_matchmaking_respects_capabilities():
    net, grid = make_grid()
    c = Constraint(min_cpu=4.0, min_memory_gb=2.0)
    grid.submit(JobSpec(job_id=1, cpu_demand=2.0, work=6.0, constraint=c))
    assert grid.run_until_done(timeout=200.0)
    worker = grid.results[1].worker
    assert grid.results[1].ok
    assert c.admits(net.capacities[worker])


def test_placement_honours_min_storage():
    """The whole constraint reaches the matchmaker, disk size included."""
    cluster = Cluster(seed=7).build(64).with_compute()
    grid, caps = cluster.compute, cluster.net.capacities
    disks = sorted({cap.storage_gb for cap in caps.values()}, reverse=True)
    c = Constraint(min_storage_gb=disks[2])
    for i in range(20):
        grid.submit(JobSpec(job_id=i + 1, work=5.0, constraint=c))
    assert grid.run_until_done(timeout=600.0)
    assert all(r.ok and c.admits(caps[r.worker]) for r in grid.results.values())


# ---------------------------------------------------------- placement rule
def make_mixed_grid(n=48, seed=7):
    """Unloaded peers of 2, 4 or 8 cores: every job of <= 2 CPUs is
    admitted (so no rejection re-dispatch excludes a live peer), and
    equal-core peers tie on free CPU."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=seed)
    net.build(n, capacities=[NodeCapacity(cpu=(2.0, 4.0, 8.0)[i % 3])
                             for i in range(n)])
    grid = Cluster(net=net).with_compute(ComputeConfig()).compute
    return net, grid


class Placement(NamedTuple):
    demand: float
    live: Tuple[int, ...]  # offered candidates that were up at decision time
    free: Dict[int, float]  # the scheduler's free-CPU book per candidate
    worker: int


def record_placements(net, grid, stale=()):
    """Pair each matchmaking query with the JobDispatch it led to.

    Every id in *stale* is appended to each query's matches: a directory
    view that still offers peers which died since it was computed.
    """
    core = grid.scheduler_core()
    placements, last = [], []
    query, send = grid.directory.query, core.node.send

    def recording_query(*args, **kwargs):
        res = query(*args, **kwargs)
        res = replace(res, matches=res.matches + tuple(stale))
        last[:] = [(tuple(c for c in res.matches if net.network.is_up(c)),
                    {c: core._free(c) for c in res.matches})]
        return res

    def recording_send(dst, payload):
        if isinstance(payload, JobDispatch):
            live, free = last.pop()
            placements.append(Placement(payload.spec.cpu_demand, live, free, dst))
        send(dst, payload)

    grid.directory.query = recording_query
    core.node.send = recording_send
    return placements


def assert_placement_rule(net, placements):
    """The live candidate with the most free CPU that fits the job (ties to
    the larger id); when none fits, the live candidate with the most
    effective CPU (ties to the larger id)."""
    cap = net.capacities
    for p in placements:
        assert p.worker in p.live
        fits = [c for c in p.live if p.free[c] >= p.demand]
        if fits:
            assert p.worker in fits
            assert all((p.free[c], c) <= (p.free[p.worker], p.worker)
                       for c in fits)
        else:
            assert all((cap[c].effective_cpu, c)
                       <= (cap[p.worker].effective_cpu, p.worker)
                       for c in p.live)


def test_dispatch_picks_the_live_candidate_with_most_free_cpu():
    net, grid = make_mixed_grid()
    placements = record_placements(net, grid)
    for i in range(60):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=(0.5, 1.0, 2.0)[i % 3],
                            work=10.0))
    assert grid.run_until_done(timeout=1000.0)
    assert all(r.ok for r in grid.results.values())
    assert len(placements) >= 60
    assert_placement_rule(net, placements)
    ties = [p for p in placements
            if sum(p.free[c] == p.free[p.worker] for c in p.live) > 1]
    assert ties, "no decision exercised the larger-id tie-break"


def test_saturated_candidates_queue_the_job_at_the_strongest_peer():
    net, grid = make_mixed_grid(n=64, seed=5)
    placements = record_placements(net, grid)
    for i in range(80):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=2.0, work=30.0))
    assert grid.run_until_done(timeout=3000.0)
    assert all(r.ok for r in grid.results.values())
    assert_placement_rule(net, placements)
    saturated = [p for p in placements
                 if all(p.free[c] < p.demand for c in p.live)]
    assert saturated, "the candidate pools never saturated"
    cap = net.capacities
    assert len({cap[c].effective_cpu for p in saturated for c in p.live}) > 1


def test_down_candidates_are_never_chosen():
    net, grid = make_mixed_grid()
    stale = []
    placements = record_placements(net, grid, stale)
    for i in range(20):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=1.0, work=40.0))
    net.sim.run_for(10.0)
    # Kill the strongest peers the directory has offered so far, and let
    # it keep offering them: without the liveness check they would win.
    cap = net.capacities
    offered = {c for p in placements for c in p.live
               if c != grid.scheduler_ident}
    victims = sorted(offered, key=lambda c: (cap[c].effective_cpu, c))[-4:]
    kill(net, grid, victims)
    stale.extend(victims)
    before = len(placements)
    for i in range(20, 40):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=1.0, work=10.0))
    assert grid.run_until_done(timeout=1500.0)
    assert all(r.ok for r in grid.results.values())
    after = placements[before:]
    assert len(after) >= 20
    assert all(p.worker not in victims for p in after)
    assert_placement_rule(net, placements)  # every worker was up when chosen


def few_fast_attempts(monkeypatch):
    monkeypatch.setattr("repro.compute.scheduler.MAX_ATTEMPTS", 3)
    monkeypatch.setattr("repro.compute.scheduler.MONITOR_INTERVAL", 2.0)


def test_unsatisfiable_constraint_fails_cleanly(monkeypatch):
    few_fast_attempts(monkeypatch)
    net, grid = make_grid()
    grid.submit(JobSpec(job_id=1, work=5.0,
                        constraint=Constraint(min_cpu=10_000.0)))
    assert grid.run_until_done(timeout=300.0)
    assert not grid.results[1].ok
    assert grid.stats().failed == 1


# -------------------------------------------------------------------- DAG
def test_dag_ordering_enforced():
    net, grid = make_grid()
    grid.submit(JobSpec(job_id=1, work=10.0))
    grid.submit(JobSpec(job_id=2, work=6.0, deps=(1,)))
    grid.submit(JobSpec(job_id=3, work=4.0, deps=(2,)))
    assert grid.run_until_done(timeout=400.0)
    r1, r2, r3 = (grid.results[i] for i in (1, 2, 3))
    assert r1.ok and r2.ok and r3.ok
    # A dependent cannot finish before its dependency's completion plus
    # its own work (it was only dispatched after the JobComplete).
    assert r2.completed_at >= r1.completed_at + 6.0 - 1.0
    assert r3.completed_at >= r2.completed_at + 4.0 - 1.0


def test_failed_dependency_cascades_to_dependents(monkeypatch):
    few_fast_attempts(monkeypatch)
    net, grid = make_grid()
    grid.submit(JobSpec(job_id=1, work=5.0,
                        constraint=Constraint(min_cpu=10_000.0)))
    grid.submit(JobSpec(job_id=2, work=5.0, deps=(1,)))
    assert grid.run_until_done(timeout=400.0)
    assert not grid.results[1].ok
    assert not grid.results[2].ok  # the dependent fails too, not waits


def test_dag_fan_in_waits_for_all_parents():
    net, grid = make_grid()
    grid.submit(JobSpec(job_id=1, work=5.0))
    grid.submit(JobSpec(job_id=2, work=25.0))
    grid.submit(JobSpec(job_id=3, work=3.0, deps=(1, 2)))
    assert grid.run_until_done(timeout=400.0)
    slowest = max(grid.results[1].completed_at, grid.results[2].completed_at)
    assert grid.results[3].completed_at >= slowest + 3.0 - 1.0


# -------------------------------------------------- failure and recovery
def test_heartbeat_loss_triggers_replacement():
    net, grid = make_grid(checkpoint_interval=None)  # restart ablation
    grid.submit(JobSpec(job_id=1, cpu_demand=1.0, work=60.0))
    net.sim.run_for(15.0)
    core = grid.scheduler_core()
    worker = core.records[1].worker
    assert worker is not None and worker != grid.scheduler_ident
    kill(net, grid, [worker])
    assert grid.run_until_done(timeout=600.0)
    assert grid.results[1].ok
    assert grid.results[1].worker != worker
    assert grid.results[1].attempts >= 2
    assert grid.stats().reexecutions >= 1


def test_checkpoint_resume_after_worker_death():
    net, grid = make_grid(checkpoint_interval=4.0)
    grid.submit(JobSpec(job_id=1, cpu_demand=1.0, work=80.0))
    net.sim.run_for(20.0)
    core = grid.scheduler_core()
    first_worker = core.records[1].worker
    assert first_worker is not None
    if first_worker == grid.scheduler_ident:
        pytest.skip("job landed on the scheduler host for this seed")
    kill(net, grid, [first_worker])

    # Step until the re-placed attempt is running, then inspect its agent.
    resumed_from = None
    for _ in range(120):
        net.sim.run_for(1.0)
        for ident, agent in grid.agents.items():
            held = agent.running.get(1)
            if (ident != first_worker and held is not None
                    and held.state == "running"):
                resumed_from = held.resume_from
                break
        if resumed_from is not None:
            break
    assert resumed_from is not None, "job was never re-placed"
    assert resumed_from > 0.0, "resume did not read the checkpoint"
    assert grid.run_until_done(timeout=800.0)
    assert grid.results[1].ok
    # Strictly less total execution than a from-scratch re-run.
    assert grid.stats().executed_work < 80.0 + resumed_from + 1.0


def test_a_stalled_checkpoint_read_restarts_from_zero(monkeypatch):
    """A resumed attempt whose checkpoint read never answers starts from
    zero once ``CHECKPOINT_READ_TIMEOUT`` passes."""
    net, grid = make_grid(checkpoint_interval=4.0)
    grid.store.put(checkpoint_key(1), {"progress": 6.0, "attempt": 1})
    monkeypatch.setattr(grid.store, "get_async", lambda *args, **kwargs: 0)
    sched = grid.scheduler_ident
    worker = next(a for i, a in grid.agents.items()
                  if i != sched and a.free_cpu() >= 1.0)
    start = net.sim.now
    worker._on_dispatch(sched, JobDispatch(JobSpec(job_id=1, work=10.0), sched, 1,
                                           resume=True))
    held = worker.running[1]
    net.sim.run_for(CHECKPOINT_READ_TIMEOUT - 0.01)
    assert held.state == "loading"
    net.sim.run_for(0.01)
    assert held.state == "running" and held.resume_from == 0.0
    assert held.start_time == pytest.approx(start + CHECKPOINT_READ_TIMEOUT)
    assert held.done_event.time == pytest.approx(held.start_time + 10.0)


def test_rejected_dispatch_is_not_a_resume():
    """An attempt the worker refused never ran, so it never checkpointed:
    the re-dispatch must not send the next worker on a quorum read (and
    its whole sloppy-read fallback) for a key nobody wrote.  A later
    heartbeat-loss re-placement of the same job still resumes."""
    from dataclasses import replace

    net, probe = make_grid(seed=5, checkpoint_interval=4.0)
    probe.submit(JobSpec(job_id=1, cpu_demand=1.0, work=80.0))
    net.sim.run_for(5.0)
    first_choice = probe.scheduler_core().records[1].worker

    # Same seed, but the first-choice worker has shrunk behind the
    # directory's back: it rejects, and the job is placed elsewhere.
    net, grid = make_grid(seed=5, checkpoint_interval=4.0)
    node = net.nodes[first_choice]
    node.capacity = replace(node.capacity, cpu=0.5)
    grid.submit(JobSpec(job_id=1, cpu_demand=1.0, work=80.0))
    net.sim.run_for(20.0)
    by_type = net.network.stats.by_type
    rec = grid.scheduler_core().records[1]
    assert by_type["JobRejected"] == 1 and rec.attempt == 2
    assert rec.worker not in (None, first_choice)
    assert by_type.get("StoreGet", 0) == 0, "read a checkpoint nobody wrote"
    assert by_type["StorePut"] > 0  # the accepted attempt does checkpoint

    second = rec.worker
    if second == grid.scheduler_ident:  # pragma: no cover - seed guard
        pytest.skip("job landed on the scheduler host for this seed")
    kill(net, grid, [second])
    assert grid.run_until_done(timeout=800.0)
    assert grid.results[1].ok and grid.stats().reexecutions >= 1
    assert by_type["StoreGet"] >= 1  # the re-placement read it back
    assert grid.stats().executed_work < 80.0 + 20.0  # and resumed from it


def test_checkpoint_ablation_wastes_more_work():
    """Same seed, checkpointing on vs off: both complete, restart wastes
    strictly more executed work."""
    wasted = {}
    for ckpt in (4.0, None):
        net, grid = make_grid(seed=19, checkpoint_interval=ckpt)
        grid.submit(JobSpec(job_id=1, cpu_demand=1.0, work=90.0))
        net.sim.run_for(25.0)
        worker = grid.scheduler_core().records[1].worker
        if worker == grid.scheduler_ident:  # pragma: no cover - seed guard
            pytest.skip("job landed on the scheduler host for this seed")
        kill(net, grid, [worker])
        assert grid.run_until_done(timeout=800.0)
        assert grid.results[1].ok
        wasted[ckpt] = grid.stats().wasted_work
    assert wasted[4.0] < wasted[None]


def test_scheduler_failover_resumes_jobs():
    net, grid = make_grid(n=64, seed=5, checkpoint_interval=5.0)
    for i in range(8):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=1.0, work=60.0))
    net.sim.run_for(20.0)
    old = grid.scheduler_ident
    kill(net, grid, [old])
    assert grid.ensure_scheduler()
    assert grid.scheduler_ident != old
    assert grid.run_until_done(timeout=1000.0)
    assert all(r.ok for r in grid.results.values())
    stats = grid.stats()
    assert stats.completion_rate == 1.0
    assert stats.failovers == 1


def test_ensure_scheduler_is_noop_while_alive():
    net, grid = make_grid()
    assert not grid.ensure_scheduler()
    assert grid.stats().failovers == 0


def test_orphaned_attempt_fences_itself_off(monkeypatch):
    """A worker whose scheduler died abandons the run once its lease
    lapses (after a final checkpoint) instead of computing forever."""
    monkeypatch.setattr("repro.compute.worker.LEASE_TIMEOUT", 12.0)
    net, grid = make_grid(n=64, seed=5, checkpoint_interval=5.0)
    for i in range(4):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=1.0, work=500.0))
    net.sim.run_for(10.0)
    old = grid.scheduler_ident
    records = grid.scheduler_core().records
    orphans = {jid: r.worker for jid, r in records.items()
               if r.worker is not None and r.worker != old}
    assert orphans, "every job landed on the scheduler host"
    kill(net, grid, [old])
    # No failover: the orphaned workers must stop on their own.
    net.sim.run_for(40.0)
    for jid, worker in orphans.items():
        assert jid not in grid.agents[worker].running
        assert grid.agents[worker].leases_expired >= 1


def test_random_origin_memo_follows_churn_and_keeps_the_seeded_pick():
    net, grid = make_grid(n=48, seed=7)
    _, twin = make_grid(n=48, seed=7)
    alive = net.alive_ids()
    # Memoised list, same order: the seeded draw is the unmemoised one.
    picks = [grid.random_origin() for _ in range(20)]
    assert picks == [alive[int(twin._rng.integers(0, len(alive)))]
                     for _ in range(20)]
    assert grid._alive[1] == alive and grid._alive[1] is not alive
    victims = [i for i in alive if i != grid.scheduler_ident][:40]
    kill(net, grid, victims)
    assert all(grid.random_origin() not in victims for _ in range(50))
    net.revive_nodes(victims[:1])
    assert grid._alive[0] != net.liveness_key  # stale until the next pick
    grid.random_origin()
    assert victims[0] in grid._alive[1]


# ----------------------------------------------------------- work stealing
def _steal_datagrams(net):
    return {k: v for k, v in net.network.stats.by_type.items()
            if k.startswith("JobSteal")}


def test_work_stealing_drains_saturated_queues(monkeypatch):
    monkeypatch.setattr("repro.compute.worker.STEAL_INTERVAL", 4.0)
    net, grid = make_grid(n=64, seed=5)
    # Oversubscribe the grid so placement must queue jobs on busy peers.
    for i in range(40):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=2.0, work=60.0))
    assert grid.run_until_done(timeout=2000.0)
    assert all(r.ok for r in grid.results.values())
    stats = grid.stats()
    assert stats.steals >= 1, "saturation never triggered a steal"
    assert stats.steal_reassignments >= 1  # the scheduler re-owned them
    # Offers go out only while a queue exists (idle polling: 10 569 here).
    traffic = _steal_datagrams(net)
    assert traffic["JobStealOffer"] >= traffic["JobStealRequest"] >= stats.steals
    assert sum(traffic.values()) <= 1500
    # Every queue drained: one more interval lets each offer loop notice.
    net.sim.run_for(4.5)
    for agent in grid.agents.values():
        assert not agent.queue
        assert agent._steal_timer is None or not agent._steal_timer.running


@pytest.mark.parametrize("constraint, refused, admitted", [
    (Constraint(min_storage_gb=100.0),
     NodeCapacity(storage_gb=50.0), NodeCapacity(storage_gb=200.0)),
    (Constraint(max_cpu_load=0.5),
     NodeCapacity(cpu_load=0.8), NodeCapacity(cpu_load=0.2)),
], ids=["min_storage_gb", "max_cpu_load"])
def test_victim_refuses_a_steal_the_constraint_forbids(
        monkeypatch, constraint, refused, admitted):
    net, grid = make_grid()
    victim = grid.agents[net.ids[0]]
    thief = net.ids[1]
    victim._enqueue(HeldJob(JobSpec(job_id=1, constraint=constraint),
                            1, grid.scheduler_ident, False))
    sent = []
    monkeypatch.setattr(victim.node, "send",
                        lambda dst, payload: sent.append((dst, payload)))
    victim._on_steal_request(thief, JobStealRequest(thief, 4.0, refused))
    assert not sent and len(victim.queue) == 1
    victim._on_steal_request(thief, JobStealRequest(thief, 4.0, admitted))
    assert [(dst, type(p)) for dst, p in sent] == [(thief, JobStealGrant)]
    assert sent[0][1].spec.constraint == constraint and not victim.queue


def test_idle_grid_is_silent():
    """No job, no compute traffic: only the scheduler's monitor ticks."""
    cluster = (Cluster(config=TreePConfig.paper_case1(), seed=7).build(200)
               .with_storage().with_compute(ComputeConfig()))
    cluster.net.sim.run_for(120.0)
    assert not _steal_datagrams(cluster.net)
    sched = cluster.compute.scheduler_ident
    for ident, node in cluster.net.nodes.items():
        timers = len(live_timers(cluster.compute.ctx.node_timers.get(ident)))
        assert timers == (1 if ident == sched else 0)
    cluster.shutdown()


def test_lossy_network_still_completes_every_job():
    """Datagram loss drops submissions, dispatches and heartbeats; the
    client retry + monitor re-place machinery must still land every job."""
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=7)
    loss_rng = net.rng.get("loss")
    net.network.loss_model = lambda src, dst: loss_rng.random() < 0.15
    net.build(48)
    grid = Cluster(net=net).with_compute(ComputeConfig()).compute
    for i in range(6):
        grid.submit(JobSpec(job_id=i + 1, work=10.0))
    assert grid.run_until_done(timeout=800.0)
    assert all(r.ok for r in grid.results.values())


# -------------------------------------------------------------- lifecycle
def test_close_stops_all_timers():
    net, grid = make_grid()
    grid.submit(JobSpec(job_id=1, work=5.0))
    assert grid.run_until_done(timeout=120.0)
    Cluster(net=net).state.detach(grid)
    assert net.sim.run() >= 0  # terminates: no timer re-arms itself


def test_duplicate_submit_rejected():
    net, grid = make_grid()
    grid.submit(JobSpec(job_id=1, work=5.0))
    with pytest.raises(ValueError):
        grid.submit(JobSpec(job_id=1, work=5.0))


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), -1.0])
def test_run_until_done_rejects_a_timeout_that_cannot_bound_the_run(timeout):
    net, grid = make_grid()
    grid.submit(JobSpec(job_id=1, work=5000.0))
    net.sim.max_events = 10_000  # a run that ignores the timeout fails fast
    now = net.sim.now
    with pytest.raises(ValueError, match="timeout"):
        grid.run_until_done(timeout=timeout)
    assert net.sim.now == now


def test_scheduled_submissions_fire_at_arrival_times():
    net, grid = make_grid()
    specs = [JobSpec(job_id=i + 1, work=4.0, submit_at=5.0 * i)
             for i in range(3)]
    grid.schedule_submissions(specs)
    assert set(grid.pending_jobs()) == {1, 2, 3}
    assert grid.run_until_done(timeout=300.0)
    subs = sorted(grid.results[i].submitted_at for i in (1, 2, 3))
    assert subs[1] >= subs[0] + 5.0 - 1e-9
    assert subs[2] >= subs[1] + 5.0 - 1e-9


def test_checkpoints_are_quorum_stored():
    net, grid = make_grid(checkpoint_interval=3.0)
    grid.submit(JobSpec(job_id=1, cpu_demand=1.0, work=20.0))
    net.sim.run_for(10.0)
    assert sum(a.checkpoints_written for a in grid.agents.values()) >= 1
    res = grid.store.get(checkpoint_key(1))
    assert res.found and res.value["progress"] > 0.0
    assert grid.run_until_done(timeout=300.0)


def test_no_worker_tick_or_completion_runs_on_a_down_node(monkeypatch):
    """A crash stops a worker before anything else runs: the fabric's
    down hook cancels the node's periodic tasks, and the scheduler's
    ``on_node_leave`` stops the worker's timers and cancels each held
    job's completion event.  So the heartbeat, checkpoint and steal-offer
    ticks and the job completion carry no liveness check of their own,
    and each runs only on a live node, through crashes of workers holding
    running and queued jobs and their revival."""
    from repro.compute.worker import ComputeAgent

    calls = []
    for name in ("_heartbeat_tick", "_checkpoint_tick", "_offer_tick", "_complete"):
        def spy(self, *args, _fn=getattr(ComputeAgent, name), _name=name):
            calls.append((_name, self.node.network.is_up(self.node.ident)))
            return _fn(self, *args)
        monkeypatch.setattr(ComputeAgent, name, spy)
    monkeypatch.setattr("repro.compute.worker.STEAL_INTERVAL", 4.0)
    net, grid = make_grid(n=64, seed=5)
    for i in range(40):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=2.0, work=60.0))
    net.sim.run_for(20.0)
    holders = [i for i, a in grid.agents.items()
               if (a.running or a.queue) and i != grid.scheduler_ident]
    queued = [i for i in holders if grid.agents[i].queue]
    assert queued and len(holders) > len(queued)
    victims = list(dict.fromkeys(holders[:len(holders) // 3] + queued[:1]))
    kill(net, grid, victims)
    net.sim.run_for(30.0)
    net.revive_nodes(victims[:2])
    grid.directory.refresh()
    assert grid.run_until_done(timeout=2000.0)
    assert {name for name, _ in calls} == {
        "_heartbeat_tick", "_checkpoint_tick", "_offer_tick", "_complete"}
    assert all(up for _, up in calls)


def test_the_monitor_ticks_only_on_the_live_role_holder(monkeypatch):
    """Every monitor tick finds its core holding the scheduler role on a
    live host, so the tick carries no check of its own: a crash of the
    host cancels the node-scoped timer, a revival re-arms it, and both
    role changes (failover to another peer, detach) stop the old core
    before replacing it."""
    from repro.compute.scheduler import SchedulerCore

    ticks = []

    def spy(self, _fn=SchedulerCore._monitor_tick):
        ticks.append((self.node.ident, self.agent.scheduler is self,
                      self.node.network.is_up(self.node.ident)))
        return _fn(self)

    monkeypatch.setattr(SchedulerCore, "_monitor_tick", spy)
    net = TreePNetwork(config=TreePConfig.paper_case1(), seed=5)
    net.build(64)
    cluster = Cluster(net=net).with_compute(ComputeConfig(checkpoint_interval=5.0))
    grid = cluster.compute
    for i in range(8):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=1.0, work=60.0))
    net.sim.run_for(20.0)
    first = grid.scheduler_ident
    kill(net, grid, [first])
    net.sim.run_for(20.0)               # host down: its monitor is silent
    net.revive_nodes([first])           # ... and re-armed on revival
    net.sim.run_for(20.0)
    kill(net, grid, [first])
    assert grid.ensure_scheduler()      # failover away from the dead host
    second = grid.scheduler_ident
    net.revive_nodes([first])           # the old core holds no role now
    net.sim.run_for(20.0)
    third = grid.activate_scheduler(    # a role change between live peers
        next(i for i in net.ids if i not in (first, second)
             and net.network.is_up(i)))
    net.sim.run_for(20.0)
    cluster.state.detach(grid)          # detach stops the last core
    seen = len(ticks)
    net.sim.run_for(20.0)
    assert len(ticks) == seen
    assert {host for host, _, _ in ticks} == {first, second, third}
    assert all(holds and up for _, holds, up in ticks)
