"""Workload generators: lookup traffic, churn schedules, capacity mixes,
mixed read/write storage streams, grid job arrivals and DAG batches, plus
adversarial plans (rack failures, stragglers, partition cuts)."""

from repro.workloads.adversarial import (
    PartitionPlan,
    RackFailurePlan,
    StragglerPlan,
    children_map,
    rack_failure_plan,
    straggler_plan,
    subtree_members,
    subtree_partition_plan,
)
from repro.workloads.capacities import grid_cluster_mix
from repro.workloads.jobs import JobWorkload
from repro.workloads.lookups import LookupWorkload
from repro.workloads.churn import ChurnSchedule
from repro.workloads.storage import (
    StorageOp,
    StorageRunStats,
    StorageWorkload,
    run_storage_ops,
)

__all__ = [
    "ChurnSchedule",
    "JobWorkload",
    "LookupWorkload",
    "PartitionPlan",
    "RackFailurePlan",
    "StorageOp",
    "StorageRunStats",
    "StorageWorkload",
    "StragglerPlan",
    "children_map",
    "grid_cluster_mix",
    "rack_failure_plan",
    "run_storage_ops",
    "straggler_plan",
    "subtree_members",
    "subtree_partition_plan",
]
