"""Experiment drivers shared by more than one bench scenario.

Every §IV figure derives from the same protocol (build a TreeP network,
reach steady state, disconnect 5% of the initial population per step with
no repopulation, measure a lookup batch per step), so they all funnel
through the memoised :func:`repro.experiments.common.run_failure_sweep`;
the figures themselves are defined in :mod:`repro.bench.scenarios.figures`.
:mod:`~repro.experiments.ablations`, :mod:`~repro.experiments.ngsa_cost`
and :mod:`~repro.experiments.table_sizes` are the drivers behind the
ablation and systems scenarios.
"""

from repro.experiments.common import (
    StepRecord,
    SweepConfig,
    SweepResult,
    run_failure_sweep,
)

__all__ = [
    "StepRecord",
    "SweepConfig",
    "SweepResult",
    "run_failure_sweep",
]
