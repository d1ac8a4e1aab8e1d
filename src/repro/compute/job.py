"""Job model of the grid execution subsystem.

A :class:`JobSpec` is what a grid user submits: a CPU demand (share units
held while running), an amount of *work* (virtual seconds of unit-rate
compute — a job's runtime is its remaining work, heterogeneity shows up as
how many jobs a peer can hold concurrently), a minimum-capability
:class:`~repro.services.discovery.Constraint`, and optional DAG
dependencies on other job ids.

:class:`JobRecord` is the scheduler-side life-cycle state;
:class:`JobResult` the client-visible outcome; :class:`ComputeConfig` the
subsystem's one tunable (the checkpoint interval; the other cadences are
module constants); :class:`SchedulingStats` the run-level outcome
:meth:`~repro.compute.scheduler.JobScheduler.stats` scrapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Set, Tuple

from repro.services.discovery import Constraint

#: Seconds between a worker's per-job progress heartbeats; below
#: :data:`HEARTBEAT_TIMEOUT`, so one lost heartbeat is not a death.
HEARTBEAT_INTERVAL = 5.0
#: The scheduler declares a worker dead for a job after this many seconds
#: without a heartbeat (a couple of heartbeat intervals plus latency).
HEARTBEAT_TIMEOUT = 12.0
#: Cadence of the scheduler's failure-detection / retry sweep.
MONITOR_INTERVAL = 4.0
#: Cadence at which a *loaded* worker re-advertises its queue to its cell
#: (idle workers send nothing).
STEAL_INTERVAL = 6.0
#: A worker abandons a held job (after a final checkpoint) when its
#: heartbeats have gone unacknowledged this long — fencing that bounds
#: duplicate execution when a scheduler dies or a job is re-placed away
#: from a live-but-partitioned worker.  Above :data:`HEARTBEAT_INTERVAL`.
LEASE_TIMEOUT = 15.0
#: A job is FAILED after this many dispatch attempts (or this many
#: monitor rounds without a candidate).
MAX_ATTEMPTS = 64
#: Seconds a resuming worker waits for its checkpoint read before it
#: starts the job from zero anyway.
CHECKPOINT_READ_TIMEOUT = 8.0
#: Candidate pool the matchmaker asks the resource directory for per
#: placement.
MAX_RESULTS = 8
#: Seconds an un-acknowledged submission waits before the client re-sends
#: it (the submit datagram is fire-and-forget UDP; a relay dying with it
#: in flight must not strand the job).
SUBMIT_RETRY = 12.0


@dataclass(frozen=True)
class ComputeConfig:
    """The one tunable of the job-execution subsystem.

    Every other cadence and bound is a module constant
    (:data:`HEARTBEAT_INTERVAL`, :data:`HEARTBEAT_TIMEOUT`,
    :data:`MONITOR_INTERVAL`, :data:`STEAL_INTERVAL`,
    :data:`LEASE_TIMEOUT`, :data:`MAX_ATTEMPTS`,
    :data:`CHECKPOINT_READ_TIMEOUT`, :data:`MAX_RESULTS`,
    :data:`SUBMIT_RETRY`).

    Attributes
    ----------
    checkpoint_interval:
        Seconds between a worker's quorum-stored progress checkpoints;
        ``None`` disables checkpointing (the restart-from-scratch
        ablation — re-executions then restart from zero).
    """

    checkpoint_interval: Optional[float] = 10.0

    def __post_init__(self) -> None:
        # Written ``not value > 0`` so NaN fails it.
        if self.checkpoint_interval is not None and not self.checkpoint_interval > 0:
            raise ValueError("checkpoint_interval must be > 0 or None")

    @property
    def checkpointing(self) -> bool:
        return self.checkpoint_interval is not None


@dataclass(frozen=True)
class JobSpec:
    """What a submitter asks the grid to run."""

    job_id: int
    cpu_demand: float = 1.0
    work: float = 10.0
    constraint: Constraint = field(default_factory=Constraint)
    deps: Tuple[int, ...] = ()
    #: Absolute virtual arrival time used by workload replay
    #: (:meth:`JobScheduler.schedule_submissions`); 0 = immediately.
    submit_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.cpu_demand > 0:
            raise ValueError(f"cpu_demand must be > 0, got {self.cpu_demand}")
        if not self.work > 0:
            raise ValueError(f"work must be > 0, got {self.work}")
        if self.job_id in self.deps:
            raise ValueError(f"job {self.job_id} depends on itself")
        if not self.submit_at >= 0:
            raise ValueError(f"submit_at must be >= 0, got {self.submit_at}")


class JobState(str, Enum):
    """Scheduler-side life cycle."""

    WAITING = "waiting"    # DAG dependencies not yet complete
    PENDING = "pending"    # ready, no worker found yet (retried)
    RUNNING = "running"    # dispatched (running or queued at a worker)
    DONE = "done"
    FAILED = "failed"


@dataclass
class JobRecord:
    """One job's state in the scheduler's table."""

    spec: JobSpec
    origin: int
    request_id: int
    deps_remaining: Set[int]
    state: JobState = JobState.PENDING
    worker: Optional[int] = None
    attempt: int = 0
    resume: bool = False
    last_heard: float = 0.0
    submitted_at: float = 0.0
    completed_at: Optional[float] = None
    reexecutions: int = 0
    #: Consecutive matchmaking rounds that found no admitting live peer.
    no_candidate_rounds: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED)


@dataclass(frozen=True)
class JobResult:
    """Client-visible outcome of one submitted job."""

    job_id: int
    ok: bool
    worker: int = -1
    attempts: int = 1
    submitted_at: float = 0.0
    completed_at: float = 0.0

    @property
    def turnaround(self) -> float:
        """Virtual seconds from submission to the terminal report."""
        return max(0.0, self.completed_at - self.submitted_at)


@dataclass(frozen=True)
class SchedulingStats:
    """Ground-truth outcome of one scheduling run — the one shape every
    compute bench, test and example asserts on.

    The counts are scraped from ground truth (worker-side executed-work
    accounting plus the client's terminal results), so the
    checkpointing-vs-restart comparison the subsystem exists for is
    measured, not inferred:

    * **useful work** — the work of every completed job, counted once;
    * **executed work** — virtual compute seconds workers actually burned,
      including every doomed attempt;
    * **wasted work** — their difference: re-executed prefixes, duplicate
      attempts, partial runs killed by churn.
    """

    submitted: int
    completed: int
    failed: int = 0
    makespan: float = 0.0
    useful_work: float = 0.0
    executed_work: float = 0.0
    reexecutions: int = 0
    checkpoints_written: int = 0
    steals: int = 0
    steal_reassignments: int = 0
    leases_expired: int = 0
    placement_hops: int = 0
    placements: int = 0
    failovers: int = 0
    mean_turnaround: float = 0.0

    @property
    def completion_rate(self) -> float:
        """Fraction of submitted jobs that completed (1.0 == all)."""
        return self.completed / self.submitted if self.submitted else 0.0

    @property
    def wasted_work(self) -> float:
        """Executed compute that produced nothing: re-run prefixes,
        duplicate attempts, partial runs killed by churn."""
        return max(0.0, self.executed_work - self.useful_work)

    @property
    def goodput(self) -> float:
        """Useful / executed work — 1.0 means nothing was ever re-run."""
        if self.executed_work <= 0:
            return 1.0 if self.completed == self.submitted else 0.0
        return min(1.0, self.useful_work / self.executed_work)

    @property
    def mean_placement_hops(self) -> float:
        """Average tree-edge traversals per matchmaking decision."""
        return self.placement_hops / self.placements if self.placements else 0.0

    def summary_rows(self) -> List[List[str]]:
        """Rows for :func:`repro.viz.ascii.table`."""
        return [
            ["jobs completed", f"{self.completed}/{self.submitted}"],
            ["makespan (virtual s)", f"{self.makespan:.1f}"],
            ["useful work (s)", f"{self.useful_work:.1f}"],
            ["executed work (s)", f"{self.executed_work:.1f}"],
            ["wasted work (s)", f"{self.wasted_work:.1f}"],
            ["goodput", f"{self.goodput:.3f}"],
            ["re-executions", str(self.reexecutions)],
            ["checkpoints written", str(self.checkpoints_written)],
            ["jobs stolen", str(self.steals)],
            ["leases expired", str(self.leases_expired)],
            ["mean placement hops", f"{self.mean_placement_hops:.2f}"],
            ["scheduler failovers", str(self.failovers)],
            ["mean turnaround (s)", f"{self.mean_turnaround:.1f}"],
        ]


def checkpoint_key(job_id: int) -> str:
    """The replicated-store key a job's progress checkpoints live under."""
    return f"ckpt/{job_id:08d}"
