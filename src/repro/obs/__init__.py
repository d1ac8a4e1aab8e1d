"""Unified observability: span tracing and the columnar trace store.

One recording path (the hub, into the store) and its readers (the
queries, the causal analytics, the CLI).  Latency quantiles have one
definition: ``np.percentile`` over closed-span durations.

Layer contract: this package *owns observability* — span tracing and the
columnar trace store.  Its imports are declared by
``[package.obs]`` in ``repro/lint/layers.toml`` and checked by
``python -m repro.lint`` (RPR201).  The two modules with their own
``[overrides]`` entry there are not imported here:
:mod:`repro.obs.service` (the attachable ``Observability`` service;
``Cluster.with_observability`` imports it lazily) and :mod:`repro.obs.cli`
(the ``python -m repro.obs`` query CLI).

Typical entry points:

* ``Cluster(...).build(n).with_observability()`` then ``cluster.obs`` — the
  explicit path for library users.
* ``python -m repro.bench run <scenario> --trace-out DIR`` — ambient capture
  around a bench scenario; writes ``trace_<scenario>.npz``.
* ``python -m repro.obs summary <file.npz>`` — query a written store.
* ``python -m repro.obs critpath`` — self-time attribution and critical
  paths over the recorded parent links (:mod:`~repro.obs.critpath`).
"""

from repro.obs.columnar import StreamBuffer, StringTable
from repro.obs.critpath import (SpanTree, build_forest, critical_path,
                                self_time_by_category, span_attribution)
from repro.obs.hub import (EVENT_SCHEMA, SPAN_SCHEMA, STATUS_FAIL,
                           STATUS_NAMES, STATUS_OK, STATUS_OPEN,
                           STATUS_TIMEOUT, ObsHub)
from repro.obs.runtime import TraceCapture, ambient_hub, capture
from repro.obs.store import SCHEMA, StreamView, TraceReader, write_store

__all__ = [
    "ObsHub",
    "SPAN_SCHEMA",
    "EVENT_SCHEMA",
    "STATUS_OPEN",
    "STATUS_OK",
    "STATUS_FAIL",
    "STATUS_TIMEOUT",
    "STATUS_NAMES",
    "StreamBuffer",
    "StringTable",
    "SCHEMA",
    "TraceReader",
    "StreamView",
    "write_store",
    "TraceCapture",
    "capture",
    "ambient_hub",
    # causal analytics
    "SpanTree",
    "build_forest",
    "critical_path",
    "self_time_by_category",
    "span_attribution",
]
