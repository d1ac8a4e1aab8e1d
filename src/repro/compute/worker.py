"""The per-node compute agent: execution, checkpointing, work stealing.

One :class:`ComputeAgent` is attached to every node by the compute
service; its methods are the service's datagram handlers, declared once in
:meth:`~repro.compute.scheduler.JobScheduler.handlers` (the same pattern as
the storage subsystem's :class:`~repro.storage.quorum.StorageAgent`), and
its timers are node-scoped periodic tasks cancelled automatically with
the node.  Every node is a potential **worker**; at most one node at a time
additionally carries the **scheduler** role
(:class:`~repro.compute.scheduler.SchedulerCore`), attached to
:attr:`ComputeAgent.scheduler`.

Execution model
---------------
A job with CPU demand ``d`` occupies ``d`` share units of the worker's
effective capacity (``cpu * (1 - cpu_load)``) while it runs, and runs at
unit rate: remaining work == remaining virtual seconds.  Heterogeneity
therefore shows up as *concurrency* — a 16-core peer runs sixteen
unit-demand jobs at once where a laptop runs one — which keeps progress
linear in time and checkpoints exact.  Jobs beyond the free capacity are
queued; queues drain on completion, and while one is non-empty its worker
advertises it (:class:`~repro.compute.messages.JobStealOffer`, on enqueue and
every :data:`~repro.compute.job.STEAL_INTERVAL`) to its cell, whose idle
members answer with a steal request.  A worker with no queue sends no
stealing traffic at all.

Fault tolerance
---------------
While a job runs the worker (a) heartbeats its progress to the scheduler
every :data:`~repro.compute.job.HEARTBEAT_INTERVAL` and (b) writes a
progress checkpoint into the replicated store (a real quorum write issued
from this node) every ``checkpoint_interval``.  A crashed worker simply goes silent: the
crash cancels its timers and job completions and wipes its in-memory job
state (a restarted process has no memory), so no tick runs on a down
node.  When the scheduler re-places the job, the new worker reads
the last checkpoint back (a quorum read) and resumes from there instead of
from zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Type, Union

from repro.compute.job import (
    CHECKPOINT_READ_TIMEOUT,
    HEARTBEAT_INTERVAL,
    LEASE_TIMEOUT,
    STEAL_INTERVAL,
    JobSpec,
    checkpoint_key,
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
from repro.core.lookup import greedy_key_next_hop
from repro.core.routing_table import SharedMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.compute.scheduler import JobScheduler, SchedulerCore
    from repro.core.node import TreePNode

#: The ``running`` map of every worker that runs nothing.
_NO_JOBS: Dict = SharedMap()


@dataclass
class HeldJob:
    """One job held by a worker (loading a checkpoint, running, or queued)."""

    spec: JobSpec
    attempt: int
    scheduler: int
    resume: bool
    state: str = "queued"  # queued | loading | running
    resume_from: float = 0.0
    start_time: float = 0.0
    last_accrual: float = 0.0
    last_lease: float = 0.0
    executed_attempt: float = 0.0
    done_event: object = None
    load_timeout: object = None

    def progress(self, now: float) -> float:
        if self.state == "running":
            return min(self.spec.work, self.resume_from + (now - self.start_time))
        return self.resume_from

    def cancel(self) -> None:
        """Cancel the job's completion and checkpoint-read events."""
        for event in (self.done_event, self.load_timeout):
            if event is not None:
                event.cancel()  # type: ignore[attr-defined]


class ComputeAgent:
    """Worker half of the grid subsystem, one per node.

    A worker that holds no job holds no container for one: ``running`` is
    the shared read-only :data:`_NO_JOBS` and ``queue`` the empty tuple
    until a job arrives, and each goes back to its shared empty when it
    empties.
    """

    __slots__ = ("node", "service", "scheduler", "running", "queue",
                 "executed_work", "checkpoints_written", "steals_done",
                 "leases_expired", "_hb_timer", "_ckpt_timer", "_steal_timer")

    def __init__(self, node: "TreePNode", service: "JobScheduler") -> None:
        self.node = node
        self.service = service
        #: Scheduler role, populated on at most one node by the facade.
        self.scheduler: Optional["SchedulerCore"] = None
        self.running: Dict[int, HeldJob] = _NO_JOBS
        self.queue: Union[List[HeldJob], Tuple[()]] = ()
        # ---- ground-truth accounting the metrics scraper reads ----
        #: Virtual compute seconds actually executed on this node (accrued
        #: at heartbeat ticks and at completion; the sub-interval between a
        #: worker's last tick and its death is unaccounted — identically so
        #: for every ablation).
        self.executed_work: float = 0.0
        self.checkpoints_written: int = 0
        self.steals_done: int = 0
        self.leases_expired: int = 0
        self._hb_timer = None
        self._ckpt_timer = None
        self._steal_timer = None

    # ------------------------------------------------------------- plumbing
    # Scheduler-bound messages go to the local role, if this node holds it.
    def _on_accepted(self, src: int, msg: JobAccepted) -> None:
        if self.scheduler is not None:
            self.scheduler.on_accepted(src, msg)

    def _on_rejected(self, src: int, msg: JobRejected) -> None:
        if self.scheduler is not None:
            self.scheduler.on_rejected(src, msg)

    def _on_heartbeat(self, src: int, msg: JobHeartbeat) -> None:
        if self.scheduler is not None:
            self.scheduler.on_heartbeat(src, msg)

    def _on_complete(self, src: int, msg: JobComplete) -> None:
        if self.scheduler is not None:
            self.scheduler.on_complete(src, msg)

    def close(self) -> None:
        """Stop this agent's timers (facade shutdown)."""
        self._stop_job_timers()
        self._hb_timer = self._ckpt_timer = self._steal_timer = None

    def shutdown(self) -> None:
        """Facade teardown: cancel in-flight work, then stop every timer."""
        self._crash_cleanup()
        self.close()

    # ------------------------------------------------------------ capacity
    def effective_cpu(self) -> float:
        return self.node.capacity.effective_cpu

    def free_cpu(self) -> float:
        used = sum(h.spec.cpu_demand for h in self.running.values())
        return self.effective_cpu() - used

    # ------------------------------------------------------ submit routing
    def handle_submit(self, src: int, msg: JobSubmit) -> None:
        """Route a submission greedily towards the scheduler's overlay ID."""
        if msg.scheduler == self.node.ident and self.scheduler is not None:
            self.scheduler.on_submit(src, msg)
            return
        if msg.ttl > self.node.config.ttl_max:
            return
        nxt = greedy_key_next_hop(self.node, msg.scheduler)
        if nxt is not None:
            self.node.send(nxt, replace(msg, ttl=msg.ttl + 1))
            return
        if self.scheduler is not None:
            # We are the closest live peer to a dead scheduler's ID and
            # carry the failed-over role: adopt the submission.
            self.scheduler.on_submit(src, msg)
        # Otherwise the walk stalled at a non-scheduler (the scheduler died
        # and no failover happened yet): drop; the facade resubmits when
        # `ensure_scheduler` promotes a replacement.

    def _on_ack(self, src: int, msg: JobAck) -> None:
        self.service._on_ack(self.node.ident, msg)

    def _on_report(self, src: int, msg: JobReport) -> None:
        self.service._deposit(self.node.ident, msg)

    def _held(self, job_id: int) -> Optional[HeldJob]:
        """The running or queued copy of *job_id*, if this worker holds one."""
        held = self.running.get(job_id)
        if held is None:
            held = next((h for h in self.queue if h.spec.job_id == job_id), None)
        return held

    # ------------------------------------------------------------ dispatch
    def _on_dispatch(self, src: int, msg: JobDispatch) -> None:
        job_id = msg.spec.job_id
        held = self._held(job_id)
        if held is not None:
            # Already holding this job (failover re-dispatch landed on the
            # worker still running it): adopt the new scheduler/attempt so
            # heartbeats and the completion go to the right place.
            held.scheduler = msg.scheduler
            held.attempt = msg.attempt
            held.last_lease = self.node.sim.now
            self.node.send(msg.scheduler, JobAccepted(
                job_id, self.node.ident, msg.attempt,
                queued=held.state == "queued"))
            return
        if msg.spec.cpu_demand > self.effective_cpu():
            self.node.send(msg.scheduler, JobRejected(
                job_id, self.node.ident, msg.attempt))
            return
        self._take(msg, JobAccepted)

    def _take(
        self,
        msg: Union[JobDispatch, JobStealGrant],
        notice: Type[Union[JobAccepted, JobHeartbeat]],
    ) -> None:
        """Hold the job *msg* hands over: tell its scheduler (a *notice*
        saying whether it queued), then run it or queue it."""
        spec = msg.spec
        queued = self.free_cpu() < spec.cpu_demand
        self.node.send(msg.scheduler, notice(
            spec.job_id, self.node.ident, msg.attempt, queued=queued))
        held = HeldJob(spec, msg.attempt, msg.scheduler, msg.resume,
                       last_lease=self.node.sim.now)
        if queued:
            self._enqueue(held)
        else:
            self._start(held)

    # ----------------------------------------------------------- execution
    def _start(self, held: HeldJob) -> None:
        """Admit *held* into the running set (loading a checkpoint first
        when this is a resumed attempt and checkpointing is on)."""
        job_id = held.spec.job_id
        if type(self.running) is not dict:
            self.running = {}
        self.running[job_id] = held
        self._ensure_timers()
        if held.resume and self.service.config.checkpointing:
            held.state = "loading"
            attempt = held.attempt
            self.service.store.get_async(
                checkpoint_key(job_id), via=self.node.ident,
                on_done=lambda res: self._on_checkpoint(job_id, attempt, res),
            )
            held.load_timeout = self.node.sim.schedule(
                CHECKPOINT_READ_TIMEOUT,
                lambda: self._on_checkpoint(job_id, attempt, None),
                label=f"ckpt-read:{job_id}",
            )
        else:
            self._begin(held, 0.0)

    def _on_checkpoint(self, job_id: int, attempt: int, result) -> None:
        """Resume from the checkpoint read's *result*; ``None`` (the read
        stalled past :data:`~repro.compute.job.CHECKPOINT_READ_TIMEOUT`)
        restarts from zero."""
        held = self.running.get(job_id)
        if held is None or held.attempt != attempt or held.state != "loading":
            return
        held.load_timeout.cancel()  # type: ignore[attr-defined]
        progress = 0.0
        if getattr(result, "found", False) and isinstance(result.value, dict):
            progress = float(result.value.get("progress", 0.0))
        self._begin(held, progress)

    def _begin(self, held: HeldJob, resume_from: float) -> None:
        now = self.node.sim.now
        held.state = "running"
        job_id, work = held.spec.job_id, held.spec.work
        held.resume_from = min(max(0.0, resume_from), work)
        held.start_time = now
        held.last_accrual = now
        held.executed_attempt = 0.0
        remaining = max(work - held.resume_from, 1e-9)
        attempt = held.attempt
        obs = self.node.obs
        if obs is not None:
            obs.job_execute_begin(job_id, attempt, self.node.ident, now)
        held.done_event = self.node.sim.schedule(
            remaining, lambda: self._complete(job_id, attempt),
            label=f"job-done:{job_id}",
        )

    def _accrue(self, held: HeldJob, now: float) -> None:
        if held.state != "running":
            return
        delta = max(0.0, now - held.last_accrual)
        held.last_accrual = now
        held.executed_attempt += delta
        self.executed_work += delta

    def _complete(self, job_id: int, attempt: int) -> None:
        held = self.running.get(job_id)
        if held is None or held.attempt != attempt or held.state != "running":
            return
        now = self.node.sim.now
        self._accrue(held, now)
        del self.running[job_id]
        obs = self.node.obs
        if obs is not None:
            obs.job_execute_end(job_id, attempt, now, held.executed_attempt)
        self.node.send(held.scheduler, JobComplete(
            job_id, self.node.ident, attempt, executed=held.executed_attempt))
        self._drain_queue()
        if not self.running and not self.queue:
            self._stop_job_timers()

    def _drain_queue(self) -> None:
        """Start queued jobs that now fit, FIFO with skips."""
        i = 0
        while i < len(self.queue):
            held = self.queue[i]
            if held.spec.cpu_demand <= self.free_cpu():
                self.queue.pop(i)
                self._start(held)
            else:
                i += 1
        self._shed()

    def _shed(self) -> None:
        """Hand an emptied ``running`` or ``queue`` back to its shared
        empty."""
        if not self.running:
            self.running = _NO_JOBS
        if not self.queue:
            self.queue = ()

    def _crash_cleanup(self) -> None:
        """The process died: wipe in-memory job state, go silent."""
        for held in self.running.values():
            held.cancel()
        self.running = _NO_JOBS
        self.queue = ()
        self._stop_job_timers()

    # --------------------------------------------------------------- timers
    def _ensure_timers(self) -> None:
        cfg = self.service.config
        me = self.node.ident
        if self._hb_timer is None or not self._hb_timer.running:
            self._hb_timer = self.service.ctx.every(
                HEARTBEAT_INTERVAL, self._heartbeat_tick, node=me,
                label=f"job-hb:{me}")
        if cfg.checkpointing and (self._ckpt_timer is None or not self._ckpt_timer.running):
            self._ckpt_timer = self.service.ctx.every(
                cfg.checkpoint_interval, self._checkpoint_tick, node=me,
                label=f"job-ckpt:{me}")

    def _stop_job_timers(self) -> None:
        for t in (self._hb_timer, self._ckpt_timer, self._steal_timer):
            if t is not None:
                t.stop()

    def _heartbeat_tick(self) -> None:
        now = self.node.sim.now
        for held in list(self.running.values()):
            self._accrue(held, now)
            self.node.send(held.scheduler, JobHeartbeat(
                held.spec.job_id, self.node.ident, held.attempt,
                progress=held.progress(now)))
        for held in self.queue:
            self.node.send(held.scheduler, JobHeartbeat(
                held.spec.job_id, self.node.ident, held.attempt,
                progress=held.resume_from, queued=True))
        self._expire_leases(now)

    def _on_lease(self, src: int, msg: JobLease) -> None:
        held = self._held(msg.job_id)
        if held is not None and held.attempt == msg.attempt:
            held.last_lease = self.node.sim.now

    def _expire_leases(self, now: float) -> None:
        """Abandon jobs whose heartbeats stopped being acknowledged.

        The scheduler died, or re-placed the job elsewhere and no longer
        answers this attempt: write a final checkpoint so the resumed
        attempt inherits our progress, then drop the run — bounding
        duplicate execution to one lease window.
        """
        expired = [h for h in (*self.running.values(), *self.queue)
                   if now - h.last_lease > LEASE_TIMEOUT]
        for held in expired:
            self.leases_expired += 1
            if held.state == "running":
                self._accrue(held, now)
                if self.service.config.checkpointing:
                    self._checkpoint(held, now)
            held.cancel()
            self.running.pop(held.spec.job_id, None)
            if held in self.queue:
                self.queue.remove(held)
        if expired:
            self._drain_queue()
            if not self.running and not self.queue:
                self._stop_job_timers()

    def _checkpoint_tick(self) -> None:
        now = self.node.sim.now
        for held in self.running.values():
            if held.state == "running":
                self._checkpoint(held, now)

    def _checkpoint(self, held: HeldJob, now: float) -> None:
        """Quorum-store *held*'s progress, unless nothing is new since its
        resume point."""
        progress = held.progress(now)
        if progress <= held.resume_from:
            return
        job_id = held.spec.job_id
        self.service.store.put_async(
            checkpoint_key(job_id),
            {"progress": progress, "attempt": held.attempt},
            via=self.node.ident,
        )
        self.checkpoints_written += 1
        obs = self.node.obs
        if obs is not None:
            obs.job_checkpoint(job_id, self.node.ident, now, progress)

    # -------------------------------------------------------- work stealing
    def _enqueue(self, held: HeldJob) -> None:
        """Queue *held*; a worker not already advertising offers its queue
        now and every :data:`~repro.compute.job.STEAL_INTERVAL` until a
        tick finds it empty."""
        if type(self.queue) is not list:
            self.queue = []
        self.queue.append(held)
        self._ensure_timers()
        if self._steal_timer is None or not self._steal_timer.running:
            self._steal_timer = self.service.ctx.every(
                STEAL_INTERVAL, self._offer_tick, node=self.node.ident,
                label=f"steal:{self.node.ident}")
            self._offer_tick()

    def _offer_tick(self) -> None:
        if not self.queue:
            self._steal_timer.stop()
            return
        offer = JobStealOffer(self.node.ident,
                              min(h.spec.cpu_demand for h in self.queue))
        # The cell seen from the loaded side: level-0 siblings plus our
        # children — exactly the peers that count us among their own
        # level-0 siblings and parents.
        table = self.node.table
        for peer in sorted((table.level0 | table.children) - {self.node.ident}):
            self.node.send(peer, offer)

    def _on_steal_offer(self, src: int, msg: JobStealOffer) -> None:
        free = self.free_cpu()
        if self.queue or free < msg.cpu_demand:
            return  # loaded ourselves, or no room for even the smallest job
        self.node.send(msg.victim, JobStealRequest(
            self.node.ident, free, self.node.capacity))

    def _on_steal_request(self, src: int, msg: JobStealRequest) -> None:
        for i, held in enumerate(self.queue):
            spec = held.spec
            if spec.cpu_demand <= msg.free_cpu and spec.constraint.admits(msg.capacity):
                self.queue.pop(i)
                self._shed()
                self.node.send(msg.thief, JobStealGrant(
                    spec, self.node.ident, held.scheduler, held.attempt,
                    resume=held.resume))
                return

    def _on_steal_grant(self, src: int, msg: JobStealGrant) -> None:
        if self._held(msg.spec.job_id) is not None:
            return
        self.steals_done += 1
        # A heartbeat tells the scheduler at once, so the job is re-owned
        # before the victim's silence could be mistaken for a failure.
        self._take(msg, JobHeartbeat)
