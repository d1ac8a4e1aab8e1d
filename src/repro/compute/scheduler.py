"""The scheduler role and the grid client facade.

:class:`SchedulerCore` is the node-resident half: it lives on exactly one
peer (attached to that node's :class:`~repro.compute.worker.ComputeAgent`)
and speaks only protocol messages — submissions arrive as routed
:class:`~repro.compute.messages.JobSubmit` datagrams, placements leave as
:class:`~repro.compute.messages.JobDispatch`, liveness comes back as
:class:`~repro.compute.messages.JobHeartbeat`.  Matchmaking walks the
hierarchy's capability aggregates (:class:`~repro.services.discovery.ResourceDirectory`)
and picks the admitted candidate with the most *remaining* headroom under
the scheduler's own assignment book — the discovery + load-balancing combo
the paper positions TreeP under DGET for.

:class:`JobScheduler` is the synchronous-ish client facade (the compute
analogue of :class:`~repro.storage.quorum.ReplicatedStore`): it attaches a
:class:`~repro.compute.worker.ComputeAgent` to every node, injects
submissions at any live peer, collects :class:`~repro.compute.messages.JobReport`
outcomes, and drives the simulator in bounded windows.  It also owns
**scheduler failover**: when churn kills the scheduler peer,
:meth:`JobScheduler.ensure_scheduler` promotes the best surviving peer and
resubmits every unfinished job from the client's own records with
``resume=True`` — workers then restart from their last quorum-stored
checkpoint, not from zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set

from repro.cluster.service import Handler, Service, ServiceContext
from repro.compute.job import (
    HEARTBEAT_TIMEOUT,
    MAX_ATTEMPTS,
    MAX_RESULTS,
    MONITOR_INTERVAL,
    SUBMIT_RETRY,
    ComputeConfig,
    JobRecord,
    JobResult,
    JobSpec,
    JobState,
    SchedulingStats,
)
from repro.compute.messages import (
    JobAccepted,
    JobAck,
    JobComplete,
    JobDispatch,
    JobHeartbeat,
    JobLease,
    JobRejected,
    JobReport,
    JobStealGrant,
    JobStealOffer,
    JobStealRequest,
    JobSubmit,
)
from repro.compute.worker import ComputeAgent
from repro.services.discovery import ResourceDirectory
from repro.storage.quorum import ReplicatedStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.treep import TreePNetwork

#: Virtual seconds :meth:`JobScheduler.run_until_done` runs between two
#: harvests of the finished jobs.
RUN_STEP = 10.0


class SchedulerCore:
    """Node-resident job table + matchmaker + failure detector."""

    def __init__(
        self,
        agent: ComputeAgent,
        service: "JobScheduler",
        completed: Optional[Set[int]] = None,
        failed: Optional[Set[int]] = None,
    ) -> None:
        self.agent = agent
        self.node = agent.node
        self.service = service
        self.records: Dict[int, JobRecord] = {}
        #: job id -> ids of WAITING jobs blocked on it.
        self.dependents: Dict[int, Set[int]] = {}
        #: CPU-share units this scheduler believes each worker holds.
        self.assigned: Dict[int, float] = {}
        #: Job ids known complete / failed (seeded from the client's
        #: records on failover so reconstructed DAGs neither re-run
        #: finished stages nor wait forever on failed ones).
        self.completed: Set[int] = set(completed or ())
        self.failed: Set[int] = set(failed or ())
        # Node-scoped periodic task: cancelled by the service context if the
        # scheduler host departs (failover then re-creates the core, or a
        # revival re-arms it via restart_monitor).
        self._timer = self._arm_monitor()

    def _arm_monitor(self):
        return self.service.ctx.every(
            MONITOR_INTERVAL, self._monitor_tick, node=self.node.ident,
            label=f"sched-monitor:{self.node.ident}",
        )

    def restart_monitor(self) -> None:
        """Re-arm the monitor after the host process came back up (the
        service context cancelled the node-scoped timer at departure)."""
        if not self._timer.running:
            self._timer = self._arm_monitor()

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------- helpers
    def _up(self, ident: int) -> bool:
        return self.node.network.is_up(ident)

    def _free(self, ident: int) -> float:
        cap = self.service.net.capacities[ident]
        return cap.effective_cpu - self.assigned.get(ident, 0.0)

    def _release(self, rec: JobRecord, worker: Optional[int] = None) -> None:
        w = worker if worker is not None else rec.worker
        if w is not None:
            self.assigned[w] = max(0.0, self.assigned.get(w, 0.0) - rec.spec.cpu_demand)
        if worker is None:
            rec.worker = None

    # ----------------------------------------------------------- submission
    def on_submit(self, src: int, msg: JobSubmit) -> None:
        now = self.node.sim.now
        spec = msg.spec
        ack = JobAck(msg.request_id, spec.job_id, self.node.ident, hops=msg.ttl)
        if spec.job_id in self.records or spec.job_id in self.completed:
            self.node.send(msg.origin, ack)
            return
        rec = JobRecord(
            spec=spec, origin=msg.origin, request_id=msg.request_id,
            deps_remaining={d for d in spec.deps if d not in self.completed},
            resume=msg.resume, submitted_at=now, last_heard=now,
        )
        self.records[spec.job_id] = rec
        self.node.send(msg.origin, ack)
        if self._any_dep_failed(spec.deps):
            self._fail(rec)  # a dead dependency can never be satisfied
        elif rec.deps_remaining:
            rec.state = JobState.WAITING
            for d in rec.deps_remaining:
                self.dependents.setdefault(d, set()).add(spec.job_id)
        else:
            self._dispatch(rec)

    def _any_dep_failed(self, deps) -> bool:
        for d in deps:
            if d in self.failed:
                return True
            drec = self.records.get(d)
            if drec is not None and drec.state is JobState.FAILED:
                return True
        return False

    # ------------------------------------------------------------ placement
    def _dispatch(self, rec: JobRecord, exclude: frozenset = frozenset()) -> None:
        if rec.attempt >= MAX_ATTEMPTS:
            self._fail(rec)
            return
        # Matchmake from a random live entry point: the directory walk
        # ascends only until an ancestor's aggregate admits the constraint,
        # so placements explore different subtrees instead of always
        # draining the root's first cells (sibling work stealing then
        # smooths any local saturation).
        res = self.service.directory.query(
            rec.spec.constraint, origin=self.service.random_origin(),
            max_results=MAX_RESULTS,
        )
        self.service.placement_hops += res.hops
        self.service.placements += 1
        candidates = [c for c in res.matches if self._up(c) and c not in exclude]
        if not candidates:
            rec.no_candidate_rounds += 1
            if rec.no_candidate_rounds >= MAX_ATTEMPTS:
                self._fail(rec)  # persistently unplaceable constraint
            else:
                rec.state = JobState.PENDING
                rec.worker = None
            return  # otherwise the monitor sweep retries
        rec.no_candidate_rounds = 0
        with_room = [c for c in candidates if self._free(c) >= rec.spec.cpu_demand]
        if with_room:
            worker = max(with_room, key=lambda c: (self._free(c), c))
        else:
            # Saturated: queue at the beefiest admitted peer; idle siblings
            # will steal from its queue.
            cap = self.service.net.capacities
            worker = max(candidates, key=lambda c: (cap[c].effective_cpu, c))
        rec.attempt += 1
        rec.state = JobState.RUNNING
        rec.worker = worker
        rec.last_heard = self.node.sim.now
        obs = self.node.obs
        if obs is not None:
            obs.job_place(rec.spec.job_id, worker, self.node.sim.now, rec.attempt)
        self.assigned[worker] = self.assigned.get(worker, 0.0) + rec.spec.cpu_demand
        self.node.send(worker, JobDispatch(
            rec.spec, self.node.ident, rec.attempt,
            # Only an attempt that ran can have checkpointed: a re-dispatch
            # after JobRejected must not send the next worker on a quorum
            # read (and its whole sloppy fallback) for a key nobody wrote.
            resume=rec.resume or rec.reexecutions > 0,
        ))

    def _fail(self, rec: JobRecord) -> None:
        rec.state = JobState.FAILED
        rec.completed_at = self.node.sim.now
        job_id = rec.spec.job_id
        self.failed.add(job_id)
        self._release(rec)
        self.node.send(rec.origin, JobReport(
            rec.request_id, job_id, ok=False,
            worker=-1, attempts=max(1, rec.attempt)))
        # A failed dependency can never satisfy its dependents: cascade.
        for dep_id in sorted(self.dependents.pop(job_id, ())):
            drec = self.records.get(dep_id)
            if drec is not None and drec.state is JobState.WAITING:
                self._fail(drec)

    # ------------------------------------------------------- worker traffic
    def on_accepted(self, src: int, msg: JobAccepted) -> None:
        rec = self.records.get(msg.job_id)
        if rec is None or rec.terminal or msg.attempt != rec.attempt:
            return
        rec.last_heard = self.node.sim.now
        rec.worker = msg.worker

    def on_rejected(self, src: int, msg: JobRejected) -> None:
        rec = self.records.get(msg.job_id)
        if rec is None or rec.terminal or msg.attempt != rec.attempt:
            return
        self._release(rec, msg.worker)
        rec.worker = None
        self._dispatch(rec, exclude=frozenset((msg.worker,)))

    def on_heartbeat(self, src: int, msg: JobHeartbeat) -> None:
        rec = self.records.get(msg.job_id)
        if rec is None or rec.terminal or msg.attempt != rec.attempt:
            return  # no lease ack: a stale attempt will fence itself off
        rec.last_heard = self.node.sim.now
        self.node.send(msg.worker, JobLease(msg.job_id, msg.attempt))
        if msg.worker != rec.worker:
            # Work stealing: the attempt moved to a sibling — move the
            # assignment book entry and re-own the job.
            self._release(rec, rec.worker)
            rec.worker = msg.worker
            self.assigned[msg.worker] = (
                self.assigned.get(msg.worker, 0.0) + rec.spec.cpu_demand)
            self.service.steal_reassignments += 1

    def on_complete(self, src: int, msg: JobComplete) -> None:
        rec = self.records.get(msg.job_id)
        if rec is None:
            return
        if rec.terminal:
            # A duplicate attempt (pre-failover stragglers) finished after
            # the job was already terminal: just return its share.
            self._release(rec, msg.worker)
            return
        rec.state = JobState.DONE
        rec.completed_at = self.node.sim.now
        self._release(rec, msg.worker)
        rec.worker = msg.worker  # the peer that actually finished it
        self.completed.add(msg.job_id)
        self.node.send(rec.origin, JobReport(
            rec.request_id, msg.job_id, ok=True,
            worker=msg.worker, attempts=max(1, rec.attempt)))
        self._unblock(msg.job_id)

    def _unblock(self, done_id: int) -> None:
        for dep_id in sorted(self.dependents.pop(done_id, ())):
            drec = self.records.get(dep_id)
            if drec is None or drec.state is not JobState.WAITING:
                continue
            drec.deps_remaining.discard(done_id)
            if not drec.deps_remaining:
                self._dispatch(drec)

    # ------------------------------------------------------------- monitor
    def _monitor_tick(self) -> None:
        if self.agent.scheduler is not self or not self._up(self.node.ident):
            self._timer.stop()
            return
        now = self.node.sim.now
        for rec in list(self.records.values()):
            if rec.state is JobState.RUNNING:
                if now - rec.last_heard > HEARTBEAT_TIMEOUT:
                    # Missed heartbeats: declare the worker dead for this
                    # job and re-place, resuming from the last checkpoint.
                    old = rec.worker
                    self._release(rec)
                    rec.reexecutions += 1
                    self.service.reexecutions += 1
                    rec.last_heard = now
                    self._dispatch(
                        rec,
                        exclude=frozenset(() if old is None else (old,)))
            elif rec.state is JobState.PENDING:
                self._dispatch(rec)
            elif rec.state is JobState.WAITING:
                # Failover reconstruction may have satisfied deps already —
                # or shown them unsatisfiable.
                rec.deps_remaining -= self.completed
                if self._any_dep_failed(rec.deps_remaining):
                    self._fail(rec)
                elif not rec.deps_remaining:
                    self._dispatch(rec)


@dataclass
class _ClientJob:
    """The submitter-side record of one job."""

    spec: JobSpec
    origin: int
    request_id: int
    submitted_at: float
    last_sent: float = 0.0
    acked: bool = False
    #: Whether the last send asked for checkpoint resume (kept so a lost
    #: failover resubmission is retried with the same semantics).
    resume: bool = False


class JobScheduler(Service):
    """Grid job execution client against a built TreeP network.

    >>> from repro.cluster import Cluster
    >>> grid = Cluster(seed=7).build(64).with_compute().compute
    >>> jid = grid.submit(JobSpec(job_id=1, cpu_demand=1.0, work=5.0))
    >>> grid.run_until_done(timeout=120.0)
    True
    >>> grid.results[jid].ok
    True

    As a :class:`~repro.cluster.service.Service` the facade resolves its
    dependencies at attach time: the storage service (checkpoints) and the
    discovery service (matchmaking aggregates) must already be attached —
    :meth:`~repro.cluster.cluster.Cluster.with_compute` attaches them first.
    """

    name = "compute"

    def __init__(self, *, config: Optional[ComputeConfig] = None) -> None:
        super().__init__()
        self.net: Optional["TreePNetwork"] = None
        self.config = config if config is not None else ComputeConfig()
        self.store: Optional[ReplicatedStore] = None
        self.directory: Optional[ResourceDirectory] = None
        self._rng = None
        #: ``(net.liveness_key, net.alive_ids())`` memo of :meth:`random_origin`.
        self._alive: tuple = (None, [])
        self.agents: Dict[int, ComputeAgent] = {}
        self._rid = itertools.count(1)
        #: Every job this client has (or will have) submitted: id -> spec.
        self.expected: Dict[int, JobSpec] = {}
        self.client: Dict[int, _ClientJob] = {}
        self.results: Dict[int, JobResult] = {}
        self.scheduler_ident: Optional[int] = None
        # ---- service-wide counters surviving scheduler failover ----
        # On the facade, not the SchedulerCore, so a failover keeps them.
        self.reexecutions = 0
        self.steal_reassignments = 0
        self.failovers = 0
        self.placement_hops = 0
        self.placements = 0

    # ------------------------------------------------------------ lifecycle
    def on_attach(self, ctx: ServiceContext) -> None:
        if ctx.net.layout is None:
            raise RuntimeError("network must be built first")
        self.net = ctx.net
        self._rng = ctx.net.rng.get("compute-scheduler")
        self.store = ctx.require("storage")  # type: ignore[assignment]
        self.directory = ctx.require("discovery")  # type: ignore[assignment]

    def setup_node(self, node) -> None:
        self.agents[node.ident] = ComputeAgent(node, self)

    def handlers(self) -> Mapping[type, Handler]:
        agents, on = self.agents, ComputeAgent
        return {
            JobSubmit: (agents, on.handle_submit),
            JobAck: (agents, on._on_ack),
            JobDispatch: (agents, on._on_dispatch),
            JobAccepted: (agents, on._on_accepted),
            JobRejected: (agents, on._on_rejected),
            JobHeartbeat: (agents, on._on_heartbeat),
            JobComplete: (agents, on._on_complete),
            JobLease: (agents, on._on_lease),
            JobReport: (agents, on._on_report),
            JobStealOffer: (agents, on._on_steal_offer),
            JobStealRequest: (agents, on._on_steal_request),
            JobStealGrant: (agents, on._on_steal_grant),
        }

    def on_ready(self, ctx: ServiceContext) -> None:
        self.activate_scheduler()

    def on_node_leave(self, ident: int) -> None:
        # Crash-stop: the node's periodic tasks are already cancelled;
        # wipe the in-memory worker state (a restarted process has
        # no memory) and cancel its one-shot completion events.
        agent = self.agents.get(ident)
        if agent is not None:
            agent._crash_cleanup()

    def on_node_revive(self, node) -> None:
        agent = self.agents[node.ident]
        if agent.scheduler is not None:
            # The scheduler host came back before anyone called
            # ensure_scheduler: its job table is intact (same process), but
            # its monitor was cancelled at departure — re-arm it
            # or heartbeat-loss detection stays dead for the rest of the run.
            agent.scheduler.restart_monitor()

    def on_detach(self) -> None:
        for agent in self.agents.values():
            if agent.scheduler is not None:
                agent.scheduler.stop()
                agent.scheduler = None
            agent.shutdown()

    def random_origin(self) -> int:
        """A seeded random live peer (matchmaking entry-point diversity)."""
        if self._alive[0] != self.net.liveness_key:
            self._alive = (self.net.liveness_key, self.net.alive_ids())
        alive = self._alive[1]
        if not alive:
            raise RuntimeError("no live node left")
        return alive[int(self._rng.integers(0, len(alive)))]

    # ------------------------------------------------------ scheduler role
    def _pick_scheduler(self) -> int:
        """The best surviving peer: highest level, then score, then id."""
        live = [self.net.nodes[i] for i in self.net.ids
                if self.net.network.is_up(i)]
        if not live:
            raise RuntimeError("no live node to host the scheduler")
        best = max(live, key=lambda n: (n.max_level, n.score, n.ident))
        return best.ident

    def activate_scheduler(self, ident: Optional[int] = None) -> int:
        """Install the scheduler role on *ident* (default: the best peer)."""
        ident = ident if ident is not None else self._pick_scheduler()
        if not self.net.network.is_up(ident):
            raise ValueError(f"scheduler host {ident} is down")
        old = self.scheduler_ident
        if old is not None and old in self.agents:
            core = self.agents[old].scheduler
            if core is not None:
                core.stop()
            self.agents[old].scheduler = None
        done = {jid for jid, r in self.results.items() if r.ok}
        lost = {jid for jid, r in self.results.items() if not r.ok}
        self.agents[ident].scheduler = SchedulerCore(
            self.agents[ident], self, completed=done, failed=lost)
        self.scheduler_ident = ident
        return ident

    def scheduler_core(self) -> Optional[SchedulerCore]:
        if self.scheduler_ident is None:
            return None
        agent = self.agents.get(self.scheduler_ident)
        return agent.scheduler if agent is not None else None

    def ensure_scheduler(self) -> bool:
        """Fail over the scheduler role if its host died.

        Promotes the best surviving peer and resubmits every unfinished job
        from the client's own records with ``resume=True``, so workers
        restart from their last quorum-stored checkpoint.  Returns ``True``
        when a failover happened.  Call after churn, the way the storage
        benches call :func:`~repro.core.repair.apply_failure_step`.
        """
        if (self.scheduler_ident is not None
                and self.net.network.is_up(self.scheduler_ident)
                and self.scheduler_core() is not None):
            return False
        self._harvest()
        self.failovers += 1
        self.activate_scheduler()
        for job_id, spec in self.expected.items():
            if job_id in self.results or job_id not in self.client:
                continue  # finished, or not yet submitted by the workload
            self._send_submit(spec, resume=True)
        return True

    # ----------------------------------------------------------- submission
    def submit(self, spec: JobSpec, via: Optional[int] = None) -> int:
        """Submit one job through a live entry point; returns the job id."""
        if spec.job_id in self.expected:
            raise ValueError(f"job {spec.job_id} already submitted")
        self.expected[spec.job_id] = spec
        self._send_submit(spec, via=via)
        return spec.job_id

    def _send_submit(
        self, spec: JobSpec, via: Optional[int] = None, resume: bool = False
    ) -> None:
        origin = self.net.live_origin(
            via if via is not None and self.net.network.is_up(via) else None)
        rid = next(self._rid)
        self.client[spec.job_id] = _ClientJob(
            spec=spec, origin=origin.ident, request_id=rid,
            submitted_at=(self.client[spec.job_id].submitted_at
                          if spec.job_id in self.client
                          else self.net.sim.now),
            last_sent=self.net.sim.now, resume=resume,
        )
        hub = self.net.obs
        if hub is not None:
            # Keyed + idempotent: retries and failover resubmissions extend
            # the same job span.
            hub.job_begin(spec.job_id, origin.ident, self.net.sim.now)
        msg = JobSubmit(rid, origin.ident, spec, self.scheduler_ident,
                        resume=resume)
        self.agents[origin.ident].handle_submit(origin.ident, msg)

    def schedule_submissions(self, specs: List[JobSpec]) -> None:
        """Arrange each spec's submission at absolute virtual time
        ``spec.submit_at`` (arrivals already in the past fire immediately).

        All job ids are registered in :attr:`expected` immediately, so
        :meth:`run_until_done` waits for arrivals that have not fired yet.
        """
        for spec in specs:
            if spec.job_id in self.expected:
                raise ValueError(f"job {spec.job_id} already scheduled")
            self.expected[spec.job_id] = spec
        for spec in specs:
            self.net.sim.schedule_at(
                max(self.net.sim.now, spec.submit_at),
                lambda s=spec: self._send_submit(s),
                label=f"job-submit:{spec.job_id}",
            )

    # -------------------------------------------------------------- results
    def _on_ack(self, origin: int, msg: JobAck) -> None:
        rec = self.client.get(msg.job_id)
        if rec is not None and rec.request_id == msg.request_id:
            rec.acked = True

    def _deposit(self, origin: int, msg: JobReport) -> None:
        if msg.job_id in self.results:
            return
        rec = self.client.get(msg.job_id)
        self.results[msg.job_id] = JobResult(
            job_id=msg.job_id, ok=msg.ok, worker=msg.worker,
            attempts=msg.attempts,
            submitted_at=rec.submitted_at if rec is not None else 0.0,
            completed_at=self.net.sim.now,
        )
        hub = self.net.obs
        if hub is not None:
            hub.job_end(msg.job_id, self.net.sim.now, msg.ok, msg.attempts)

    def _harvest(self) -> None:
        """Fold terminal records the origin never heard about into results.

        The driver-side converged view (mirroring the storage subsystem's
        split): a :class:`~repro.compute.messages.JobReport` to an origin that
        died after submitting would otherwise strand a finished job.
        """
        core = self.scheduler_core()
        if core is None:
            return
        hub = self.net.obs
        for job_id, rec in core.records.items():
            if rec.terminal and job_id not in self.results:
                crec = self.client.get(job_id)
                self.results[job_id] = JobResult(
                    job_id=job_id, ok=rec.state is JobState.DONE,
                    worker=rec.worker if rec.worker is not None else -1,
                    attempts=max(1, rec.attempt),
                    submitted_at=(crec.submitted_at if crec is not None
                                  else rec.submitted_at),
                    completed_at=(rec.completed_at
                                  if rec.completed_at is not None
                                  else self.net.sim.now),
                )
                if hub is not None:
                    hub.job_end(job_id, self.net.sim.now,
                                rec.state is JobState.DONE,
                                max(1, rec.attempt))

    def pending_jobs(self) -> List[int]:
        return [jid for jid in self.expected if jid not in self.results]

    def _retry_unacked(self) -> None:
        """Re-send submissions the scheduler never acknowledged.

        The submit datagram can die with a relay (UDP semantics); the
        scheduler handles re-submissions idempotently, so retrying is
        always safe."""
        now = self.net.sim.now
        for job_id, crec in list(self.client.items()):
            if job_id in self.results or crec.acked:
                continue
            if now - crec.last_sent > SUBMIT_RETRY:
                self._send_submit(crec.spec, resume=crec.resume)

    def run_until_done(self, timeout: float) -> bool:
        """Run the sim in :data:`RUN_STEP` windows until every expected job
        has a terminal result or *timeout* virtual seconds pass.  A
        *timeout* that is negative or not finite raises ``ValueError``
        before anything runs."""
        if not (math.isfinite(timeout) and timeout >= 0):
            raise ValueError(f"timeout must be finite and >= 0, got {timeout!r}")
        sim = self.net.sim
        deadline = sim.now + timeout
        while True:
            self._harvest()
            if not self.pending_jobs():
                return True
            if sim.now >= deadline:
                return False
            self._retry_unacked()
            sim.run(until=min(deadline, sim.now + RUN_STEP))

    # -------------------------------------------------------------- metrics
    def stats(self) -> SchedulingStats:
        """Scrape the subsystem's ground-truth scheduling metrics."""
        self._harvest()
        ok = [r for r in self.results.values() if r.ok]
        useful = sum(self.expected[r.job_id].work for r in ok
                     if r.job_id in self.expected)
        executed = sum(a.executed_work for a in self.agents.values())
        first_submit = min((c.submitted_at for c in self.client.values()),
                           default=0.0)
        last_done = max((r.completed_at for r in ok), default=first_submit)
        return SchedulingStats(
            submitted=len(self.expected),
            completed=len(ok),
            failed=sum(1 for r in self.results.values() if not r.ok),
            makespan=max(0.0, last_done - first_submit),
            useful_work=useful,
            executed_work=executed,
            reexecutions=self.reexecutions,
            checkpoints_written=sum(a.checkpoints_written
                                    for a in self.agents.values()),
            steals=sum(a.steals_done for a in self.agents.values()),
            steal_reassignments=self.steal_reassignments,
            leases_expired=sum(a.leases_expired for a in self.agents.values()),
            placement_hops=self.placement_hops,
            placements=self.placements,
            failovers=self.failovers,
            mean_turnaround=(sum(r.turnaround for r in ok) / len(ok))
            if ok else 0.0,
        )
