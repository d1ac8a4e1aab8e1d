"""Datagram payloads of the grid compute protocol.

:class:`JobSubmit` / :class:`JobAck` (submitter ↔ scheduler),
:class:`JobDispatch` / :class:`JobAccepted` / :class:`JobRejected`
(scheduler ↔ worker placement), :class:`JobHeartbeat` / :class:`JobLease` /
:class:`JobComplete` (worker ↔ scheduler liveness and outcome),
:class:`JobReport` (scheduler → submitter) and :class:`JobStealOffer` /
:class:`JobStealRequest` / :class:`JobStealGrant` (sibling work stealing).

Each is a frozen ``slots=True`` dataclass with a ``wire_size`` in the
overlay's convention (:mod:`repro.core.messages`).  A message that hands a
job on (submit, dispatch, steal grant) carries the submitter's
:class:`~repro.compute.job.JobSpec` itself, so the whole constraint reaches
both the matchmaker and a victim's steal check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.compute.job import JobSpec
from repro.core.capacity import NodeCapacity
from repro.core.messages import HEADER_BYTES


@dataclass(frozen=True, slots=True)
class JobSubmit:
    """Submitter → scheduler: routed greedily towards the scheduler's ID.

    Carries the job's :class:`~repro.compute.job.JobSpec` (demand, work,
    the constraint the matchmaker must honour, DAG ``deps``, each dep
    costing 8 wire bytes); ``resume`` marks a failover re-submission whose
    execution should restart from the last checkpoint.
    """

    request_id: int
    origin: int
    spec: JobSpec
    scheduler: int
    resume: bool = False
    ttl: int = 0

    @property
    def wire_size(self) -> int:
        return HEADER_BYTES + 48 + 8 * len(self.spec.deps)


@dataclass(frozen=True, slots=True)
class JobAck:
    """Scheduler → submitter: the job entered the scheduler's table."""

    request_id: int
    job_id: int
    scheduler: int
    accepted: bool = True
    hops: int = 0

    wire_size: ClassVar[int] = HEADER_BYTES + 20


@dataclass(frozen=True, slots=True)
class JobDispatch:
    """Scheduler → worker: run this job (attempt *attempt*).

    ``resume`` asks the worker to restart from the job's last quorum-stored
    checkpoint instead of from zero; the spec rides along so a queued copy
    can later be steal-matched against a thief's capabilities.
    """

    spec: JobSpec
    scheduler: int
    attempt: int
    resume: bool = False

    wire_size: ClassVar[int] = HEADER_BYTES + 48


@dataclass(frozen=True, slots=True)
class JobAccepted:
    """Worker → scheduler: dispatch acknowledged (running or queued)."""

    job_id: int
    worker: int
    attempt: int
    queued: bool = False

    wire_size: ClassVar[int] = HEADER_BYTES + 16


@dataclass(frozen=True, slots=True)
class JobRejected:
    """Worker → scheduler: cannot hold the job (no headroom); re-place."""

    job_id: int
    worker: int
    attempt: int

    wire_size: ClassVar[int] = HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JobHeartbeat:
    """Worker → scheduler: periodic liveness + progress for one held job.

    Also the vehicle by which the scheduler learns about work stealing: a
    heartbeat for a current attempt arriving from an unexpected worker
    reassigns the job to the sender.
    """

    job_id: int
    worker: int
    attempt: int
    progress: float = 0.0
    queued: bool = False

    wire_size: ClassVar[int] = HEADER_BYTES + 24


@dataclass(frozen=True, slots=True)
class JobLease:
    """Scheduler → worker: heartbeat acknowledged, keep running.

    The fencing half of failure detection: a worker whose heartbeats stop
    being acknowledged (its scheduler died, or the job was re-placed and
    its attempt is stale) writes a final checkpoint and abandons the run
    once the lease lapses, bounding duplicate execution.
    """

    job_id: int
    attempt: int

    wire_size: ClassVar[int] = HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JobComplete:
    """Worker → scheduler: the attempt finished; ``executed`` is the
    virtual compute time this attempt actually spent."""

    job_id: int
    worker: int
    attempt: int
    executed: float = 0.0

    wire_size: ClassVar[int] = HEADER_BYTES + 20


@dataclass(frozen=True, slots=True)
class JobReport:
    """Scheduler → submitter: terminal job outcome."""

    request_id: int
    job_id: int
    ok: bool
    worker: int = -1
    attempts: int = 1

    wire_size: ClassVar[int] = HEADER_BYTES + 20


@dataclass(frozen=True, slots=True)
class JobStealOffer:
    """Loaded worker → its cell (level-0 siblings and children): "I hold
    queued work, the smallest job needs ``cpu_demand``"."""

    victim: int
    cpu_demand: float

    wire_size: ClassVar[int] = HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JobStealRequest:
    """Idle worker → the victim whose :class:`JobStealOffer` it can fit.

    Carries the thief's capabilities so the victim can check a queued
    job's constraint before granting it away.
    """

    thief: int
    free_cpu: float
    capacity: NodeCapacity

    wire_size: ClassVar[int] = HEADER_BYTES + 24


@dataclass(frozen=True, slots=True)
class JobStealGrant:
    """Loaded worker → thief: hand over one queued job.

    Carries the spec so the job stays steal-matchable if the thief in
    turn queues it.
    """

    spec: JobSpec
    victim: int
    scheduler: int
    attempt: int
    resume: bool = False

    wire_size: ClassVar[int] = HEADER_BYTES + 48
