"""Measurement: series and summary statistics.

Pure statistics only — :mod:`~repro.metrics.series` and the lookup-batch
folds of :mod:`~repro.metrics.stats`.  Span latency quantiles are
computed exactly from recorded spans in :mod:`repro.obs`, subsystem
counters are plain attributes of their owners, and result shapes live
next to their producers (``SchedulingStats`` in :mod:`repro.compute.job`,
``SweepReport`` in :mod:`repro.storage.antientropy`).
"""

from repro.metrics.series import Series
from repro.metrics.stats import LookupBatchStats, summarize_batch

__all__ = [
    "LookupBatchStats",
    "Series",
    "summarize_batch",
]
