"""Units for the job model, the grid workload generator, and the
scheduling metrics shapes."""

import numpy as np
import pytest

from repro.compute.job import ComputeConfig, JobSpec, checkpoint_key
from repro.compute import SchedulingStats
from repro.services.discovery import Constraint
from repro.workloads import JobWorkload


# ------------------------------------------------------------- job model
def test_job_spec_validation():
    with pytest.raises(ValueError):
        JobSpec(job_id=1, cpu_demand=0)
    with pytest.raises(ValueError):
        JobSpec(job_id=1, work=0)
    with pytest.raises(ValueError):
        JobSpec(job_id=1, deps=(1,))
    with pytest.raises(ValueError):
        JobSpec(job_id=1, submit_at=-1.0)
    # ``nan <= 0`` and ``nan < 0`` are False: each check must still reject NaN.
    for name in ("cpu_demand", "work", "submit_at"):
        with pytest.raises(ValueError):
            JobSpec(job_id=1, **{name: float("nan")})


def test_compute_config_validation():
    with pytest.raises(ValueError):
        ComputeConfig(heartbeat_interval=0)
    with pytest.raises(ValueError):
        ComputeConfig(heartbeat_interval=12.0)  # not below HEARTBEAT_TIMEOUT
    with pytest.raises(ValueError):
        ComputeConfig(checkpoint_interval=0)
    with pytest.raises(ValueError):
        ComputeConfig(steal_interval=-1)
    with pytest.raises(ValueError):
        ComputeConfig(lease_timeout=1.0)
    with pytest.raises(ValueError):
        ComputeConfig(max_attempts=0)
    # ``nan <= 0`` is False: each check must still reject NaN.
    nan = float("nan")
    for name in ("heartbeat_interval", "monitor_interval", "checkpoint_interval",
                 "steal_interval", "lease_timeout", "max_attempts"):
        with pytest.raises(ValueError):
            ComputeConfig(**{name: nan})
    assert not ComputeConfig(checkpoint_interval=None).checkpointing
    assert not ComputeConfig(steal_interval=None).stealing
    assert ComputeConfig().checkpointing and ComputeConfig().stealing


def test_checkpoint_key_is_stable_and_distinct():
    assert checkpoint_key(7) == checkpoint_key(7)
    assert checkpoint_key(7) != checkpoint_key(8)


# -------------------------------------------------------------- workload
def test_workload_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        JobWorkload(rng=rng, arrival_rate=0)
    with pytest.raises(ValueError):
        JobWorkload(rng=rng, demand_classes=(1.0,), demand_weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        JobWorkload(rng=rng, constrained_fraction=1.5)
    with pytest.raises(ValueError):
        JobWorkload(rng=rng, work_mean=0)
    nan = float("nan")
    for bad in ({"arrival_rate": nan}, {"work_mean": nan},
                {"demand_classes": (1.0, nan), "demand_weights": (0.5, 0.5)}):
        with pytest.raises(ValueError):
            JobWorkload(rng=rng, **bad)
    with pytest.raises(ValueError):
        JobWorkload(rng=rng).jobs(0)
    with pytest.raises(ValueError):
        JobWorkload(rng=rng).dag_batch(())


def test_workload_arrivals_monotonic_and_ids_unique():
    wl = JobWorkload(rng=np.random.default_rng(3), arrival_rate=2.0)
    specs = wl.jobs(50)
    assert len({s.job_id for s in specs}) == 50
    times = [s.submit_at for s in specs]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(s.work >= 1.0 and s.cpu_demand > 0 for s in specs)


def test_workload_constrained_fraction():
    wl = JobWorkload(rng=np.random.default_rng(5), constrained_fraction=1.0)
    assert all(s.constraint != Constraint() for s in wl.jobs(20))
    wl0 = JobWorkload(rng=np.random.default_rng(5), constrained_fraction=0.0)
    assert all(s.constraint == Constraint() for s in wl0.jobs(20))


def test_dag_batch_layering():
    wl = JobWorkload(rng=np.random.default_rng(7))
    specs = wl.dag_batch((3, 2, 1), submit_at=4.0, work=10.0)
    assert len(specs) == 6
    assert all(s.submit_at == 4.0 and s.work == 10.0 for s in specs)
    by_id = {s.job_id: s for s in specs}
    layer0 = [s for s in specs if not s.deps]
    assert len(layer0) == 3
    layer1 = [s for s in specs if set(s.deps) == {s.job_id for s in layer0}]
    assert len(layer1) == 2
    sink = [s for s in specs if set(s.deps) == {s.job_id for s in layer1}]
    assert len(sink) == 1
    # Acyclic by construction: deps always refer to earlier ids.
    assert all(d < s.job_id for s in specs for d in s.deps)
    assert all(d in by_id for s in specs for d in s.deps)


def test_ids_continue_across_draws():
    wl = JobWorkload(rng=np.random.default_rng(9))
    a = wl.jobs(5)
    b = wl.dag_batch((2, 1))
    assert len({s.job_id for s in a + b}) == 8


# --------------------------------------------------------------- metrics
def test_scheduling_stats_derived_quantities():
    s = SchedulingStats(submitted=10, completed=8, failed=2,
                        useful_work=80.0, executed_work=100.0,
                        placement_hops=30, placements=10)
    assert s.completion_rate == pytest.approx(0.8)
    assert s.wasted_work == pytest.approx(20.0)
    assert s.goodput == pytest.approx(0.8)
    assert s.mean_placement_hops == pytest.approx(3.0)


def test_scheduling_stats_edge_cases():
    empty = SchedulingStats(submitted=0, completed=0)
    assert empty.completion_rate == 0.0
    assert empty.wasted_work == 0.0
    assert empty.mean_placement_hops == 0.0
    done_free = SchedulingStats(submitted=1, completed=1, executed_work=0.0)
    assert done_free.goodput == 1.0
    # Accounting slack must never produce negative waste or goodput > 1.
    under = SchedulingStats(submitted=1, completed=1,
                            useful_work=10.0, executed_work=9.5)
    assert under.wasted_work == 0.0
    assert under.goodput == 1.0


def test_scheduling_stats_serialisation():
    s = SchedulingStats(submitted=4, completed=4, useful_work=40.0,
                        executed_work=44.0, reexecutions=1,
                        checkpoints_written=9, steals=2, leases_expired=1)
    assert s.wasted_work == pytest.approx(4.0)
    assert s.completion_rate == 1.0
    rows = s.summary_rows()
    assert any("wasted" in name for name, _ in rows)
