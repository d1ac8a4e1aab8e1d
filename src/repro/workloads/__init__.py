"""Workload generators: lookup traffic, churn schedules, capacity mixes,
grid job arrivals and DAG batches, plus adversarial plans (rack failures,
stragglers, partition cuts)."""

from repro.workloads.adversarial import (
    RackFailurePlan,
    StragglerPlan,
    children_map,
    rack_failure_plan,
    straggler_plan,
    subtree_members,
)
from repro.workloads.capacities import grid_cluster_mix
from repro.workloads.jobs import JobWorkload
from repro.workloads.lookups import LookupWorkload
from repro.workloads.churn import ChurnSchedule

__all__ = [
    "ChurnSchedule",
    "JobWorkload",
    "LookupWorkload",
    "RackFailurePlan",
    "StragglerPlan",
    "children_map",
    "grid_cluster_mix",
    "rack_failure_plan",
    "straggler_plan",
    "subtree_members",
]
