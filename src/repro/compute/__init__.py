"""Grid job execution on the TreeP overlay (the DGET headline use case).

The paper builds TreeP as the substrate of the DGET grid middleware so the
system can "take advantage of the different peers' characteristics" and
"rapidly adapt to ... load balancing, failures, network traffic" (§I, §V);
this package is the subsystem that actually *executes* work on that
substrate:

* :mod:`repro.compute.job` — the job model: :class:`JobSpec` (demand,
  work, constraint, DAG deps), scheduler-side :class:`JobRecord`,
  client-side :class:`JobResult`, :class:`ComputeConfig`, and the
  run-level :class:`SchedulingStats`.
* :mod:`repro.compute.worker` — :class:`ComputeAgent`, the per-node
  worker: capacity-bounded execution, progress heartbeats, periodic
  quorum-stored checkpoints, and level-0 sibling work stealing.
* :mod:`repro.compute.scheduler` — :class:`SchedulerCore`, the
  node-resident scheduler (aggregate-walking matchmaker, heartbeat
  failure detector, checkpointed re-execution, DAG ordering), and
  :class:`JobScheduler`, the client facade with scheduler failover.
* :mod:`repro.compute.messages` — the ``Job*`` datagram types.

Everything is message-level protocol traffic (``Job*`` datagrams through
the simulated fabric); checkpoints ride the replicated storage subsystem's
quorum path, so a worker killed mid-job is re-placed and **resumes** from
its last checkpoint instead of restarting.

Layer contract: this package *owns job execution* — matchmaking,
dispatch, heartbeat failure detection, checkpointed re-execution, DAG
ordering and scheduler failover.  Its imports are declared by
``[package.compute]`` in ``repro/lint/layers.toml`` and checked by
``python -m repro.lint`` (RPR201).  See ``docs/architecture.md``.
"""

from repro.compute.job import (
    ComputeConfig,
    JobRecord,
    JobResult,
    JobSpec,
    JobState,
    SchedulingStats,
    checkpoint_key,
)
from repro.compute.scheduler import JobScheduler, SchedulerCore
from repro.compute.worker import ComputeAgent, HeldJob

__all__ = [
    "ComputeAgent",
    "ComputeConfig",
    "HeldJob",
    "JobRecord",
    "JobResult",
    "JobScheduler",
    "JobSpec",
    "JobState",
    "SchedulerCore",
    "SchedulingStats",
    "checkpoint_key",
]
