"""Measurement: series and summary statistics.

Pure statistics only — :mod:`~repro.metrics.series` and
:mod:`~repro.metrics.stats`.  Span latency quantiles are computed exactly
from recorded spans in :mod:`repro.obs`, subsystem counters are plain
attributes of their owners, and result shapes live next to their
producers (``SchedulingStats`` in :mod:`repro.compute.job`,
``DurabilityTracker`` in :mod:`repro.storage.antientropy`).
"""

from repro.metrics.series import Series
from repro.metrics.stats import (
    LookupBatchStats,
    SampleSummary,
    student_t_ppf,
    summarize_batch,
    summarize_samples,
    t_interval,
)

__all__ = [
    "LookupBatchStats",
    "SampleSummary",
    "Series",
    "student_t_ppf",
    "summarize_batch",
    "summarize_samples",
    "t_interval",
]
