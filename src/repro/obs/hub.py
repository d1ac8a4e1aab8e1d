"""`ObsHub` — the per-network span/event recorder.

One hub serves one :class:`~repro.core.treep.TreePNetwork`.  Every
instrumentation site in the stack is the same two-instruction pattern::

    obs = self.obs            # a plain attribute, None when disabled
    if obs is not None:
        obs.lookup_begin(rid, self.ident, self.sim.now)

so the disabled path (the default everywhere) costs one attribute load and
one identity check — nothing allocates, nothing is called.  The enabled
path appends typed rows to chunked NumPy column buffers
(:mod:`repro.obs.columnar`), never draws from an RNG and never schedules a
simulator event, so traced and untraced runs produce bit-identical
scenario metrics at a fixed seed (the determinism gate in
``tests/test_obs_integration.py`` proves it).

Spans are explicit begin/end records with parent links.  Request-scoped
spans (lookups by rid, jobs by job id) are *keyed*: the hub owns the
``key -> open span`` map so call sites carry no span ids around.  The
hub only records: latency quantiles are computed exactly from the span
rows by their readers (:mod:`repro.obs.query`, the scenario checks).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.obs.columnar import StreamBuffer, StringTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

__all__ = ["ObsHub", "SPAN_SCHEMA", "EVENT_SCHEMA",
           "STATUS_OPEN", "STATUS_OK", "STATUS_FAIL", "STATUS_TIMEOUT"]

# Span status codes (the ``status`` column).
STATUS_OPEN = 0     # never ended; flushed by finalize()
STATUS_OK = 1
STATUS_FAIL = 2
STATUS_TIMEOUT = 3

STATUS_NAMES = {STATUS_OPEN: "open", STATUS_OK: "ok",
                STATUS_FAIL: "fail", STATUS_TIMEOUT: "timeout"}

#: The ``spans`` stream: one row per *ended* (or finalized-open) span.
#: ``v0``/``v1`` carry category-specific payloads (hops, replicas, keys…).
SPAN_SCHEMA = (
    ("id", "i8"), ("parent", "i8"), ("cat", "u2"), ("node", "i8"),
    ("t0", "f8"), ("t1", "f8"), ("status", "i2"), ("v0", "f8"), ("v1", "f8"),
)

#: The ``events`` stream: instantaneous points (per-hop records, placements,
#: checkpoints).  ``rid`` links an event to its request/job/span key.
EVENT_SCHEMA = (
    ("cat", "u2"), ("node", "i8"), ("t", "f8"), ("rid", "i8"), ("value", "f8"),
)


class ObsHub:
    """Span/event recorder for one network.

    Parameters
    ----------
    categories:
        When given, only these span/event categories record (a gated-off
        category costs one dict read and records nothing).  ``None``
        enables every category **except** the opt-in firehose
        ``sim.event`` stream (per-simulator-event rows; its per-label
        *counts* are always kept — they are one dict add).
    """

    def __init__(self, categories: Optional[Iterable[str]] = None) -> None:
        self.categories = frozenset(categories) if categories is not None else None
        self.strings = StringTable()
        self.spans = StreamBuffer(SPAN_SCHEMA)
        self.events = StreamBuffer(EVENT_SCHEMA)
        #: category -> its string code, or -1 when gated off; resolved on
        #: the first record, so codes intern in first-recorded order.
        self._codes: Dict[str, int] = {}
        #: simulator event label -> fired count (fed by the engine hook).
        self.sim_event_counts: Dict[str, int] = {}
        self._open: Dict[int, Tuple[int, int, float, int]] = {}  # id -> (cat, node, t0, parent)
        self._keyed: Dict[Tuple[str, Any], int] = {}             # (category, key) -> id
        self._next_id = 1
        self._record_sim_events = (self.categories is not None
                                   and "sim.event" in self.categories)

    def _resolve(self, category: str) -> int:
        enabled = self.categories is None or category in self.categories
        self._codes[category] = code = self.strings.code(category) if enabled else -1
        return code

    # ------------------------------------------------------------- spans
    def begin(self, category: str, node: int, t: float, parent: int = 0) -> int:
        """Open a span; returns its id, or 0 when the category is disabled
        (``end(0, ...)`` is a no-op, so call sites never re-check)."""
        code = self._codes.get(category)
        if code is None:
            code = self._resolve(category)
        if code < 0:
            return 0
        sid = self._next_id
        self._next_id = sid + 1
        self._open[sid] = (code, node, t, parent)
        return sid

    def end(self, span_id: int, t: float, status: int = STATUS_OK,
            v0: float = 0.0, v1: float = 0.0) -> None:
        """Close span *span_id*, appending its row to the columnar stream."""
        if span_id == 0:
            return
        opened = self._open.pop(span_id, None)
        if opened is None:
            return  # already ended (double-end is a call-site race, not fatal)
        cat, node, t0, parent = opened
        self.spans.append(span_id, parent, cat, node, t0, t, status, v0, v1)

    # keyed spans: the hub owns the request-key -> span-id map ------------
    def begin_keyed(self, category: str, key: Any, node: int, t: float,
                    parent: int = 0) -> int:
        """Open a span addressed by ``(category, key)`` (idempotent: a
        duplicate begin — e.g. a failover resubmission — keeps the first)."""
        mkey = (category, key)
        sid = self._keyed.get(mkey)
        if sid is not None:
            return sid
        sid = self.begin(category, node, t, parent=parent)
        if sid:
            self._keyed[mkey] = sid
        return sid

    def keyed_id(self, category: str, key: Any) -> int:
        """The open span id for ``(category, key)``, or 0 (parent links)."""
        return self._keyed.get((category, key), 0)

    def end_keyed(self, category: str, key: Any, t: float,
                  status: int = STATUS_OK, v0: float = 0.0, v1: float = 0.0) -> None:
        sid = self._keyed.pop((category, key), None)
        if sid is not None:
            self.end(sid, t, status=status, v0=v0, v1=v1)

    def span(self, category: str, node: int, t0: float, t1: float,
             status: int = STATUS_OK, v0: float = 0.0, v1: float = 0.0,
             parent: int = 0) -> int:
        """Record an already-closed span in one call (single-callback work
        such as an anti-entropy sweep, where t0 == t1 in virtual time)."""
        sid = self.begin(category, node, t0, parent=parent)
        self.end(sid, t1, status=status, v0=v0, v1=v1)
        return sid

    # ------------------------------------------------------------- events
    def event(self, category: str, node: int, t: float, rid: int = 0,
              value: float = 0.0) -> None:
        """Record one instantaneous event row."""
        code = self._codes.get(category)
        if code is None:
            code = self._resolve(category)
        if code >= 0:
            self.events.append(code, node, t, rid, value)

    # ---------------------------------------------- domain-specific helpers
    # Encapsulated here so call sites in core/storage/compute stay one
    # guarded line and the category vocabulary lives in one place.
    def lookup_begin(self, rid: int, node: int, t: float) -> None:
        self.begin_keyed("lookup", rid, node, t)

    def lookup_hop(self, rid: int, node: int, t: float, ttl: int) -> None:
        self.event("lookup.hop", node, t, rid=rid, value=float(ttl))

    def lookup_end(self, rid: int, t: float, found: bool, hops: int,
                   timed_out: bool = False) -> None:
        status = STATUS_TIMEOUT if timed_out else (
            STATUS_OK if found else STATUS_FAIL)
        self.end_keyed("lookup", rid, t, status=status, v0=float(hops))

    def storage_begin(self, kind: str, rid: int, node: int, t: float) -> None:
        self.begin_keyed(f"storage.{kind}", rid, node, t)

    def storage_end(self, kind: str, rid: int, t: float, ok: bool,
                    hops: int = 0, replicas: int = 0,
                    timed_out: bool = False) -> None:
        status = STATUS_TIMEOUT if timed_out else (
            STATUS_OK if ok else STATUS_FAIL)
        self.end_keyed(f"storage.{kind}", rid, t, status=status,
                       v0=float(hops), v1=float(replicas))

    def sweep(self, node: int, t0: float, t1: float, keys: int,
              repairs: int) -> None:
        self.span("antientropy.sweep", node, t0, t1, status=STATUS_OK,
                  v0=float(keys), v1=float(repairs))

    def job_begin(self, job_id: int, node: int, t: float) -> None:
        self.begin_keyed("job", job_id, node, t)

    def job_place(self, job_id: int, worker: int, t: float, attempt: int) -> None:
        self.event("job.place", worker, t, rid=job_id, value=float(attempt))

    def job_execute_begin(self, job_id: int, attempt: int, worker: int,
                          t: float) -> None:
        self.begin_keyed("job.execute", (job_id, attempt), worker, t,
                         parent=self.keyed_id("job", job_id))

    def job_execute_end(self, job_id: int, attempt: int, t: float,
                        executed: float) -> None:
        self.end_keyed("job.execute", (job_id, attempt), t,
                       status=STATUS_OK, v0=executed)

    def job_checkpoint(self, job_id: int, worker: int, t: float,
                       progress: float) -> None:
        self.event("job.checkpoint", worker, t, rid=job_id, value=progress)

    def job_end(self, job_id: int, t: float, ok: bool, attempts: int) -> None:
        self.end_keyed("job", job_id, t,
                       status=STATUS_OK if ok else STATUS_FAIL,
                       v0=float(attempts))

    # ------------------------------------------------------ engine wiring
    def on_sim_event(self, ev: "Event") -> None:
        """Per-simulator-event hook (installed via
        :meth:`~repro.sim.engine.Simulator.set_event_hook` when tracing is
        on).  Always counts by label; appends a row to the events stream
        only when the opt-in ``sim.event`` category was requested."""
        label = ev.label
        counts = self.sim_event_counts
        counts[label] = counts.get(label, 0) + 1
        if self._record_sim_events:
            self.event("sim.event", -1, ev.time)

    # ------------------------------------------------------------- export
    def open_span_count(self) -> int:
        return len(self._open)

    def finalize(self) -> None:
        """Flush still-open spans (crashed workers, timed-out-but-pending
        requests at run end) into the stream with ``STATUS_OPEN`` and
        ``t1 = t0``.  Idempotent."""
        for sid in sorted(self._open):
            cat, node, t0, parent = self._open[sid]
            self.spans.append(sid, parent, cat, node, t0, t0, STATUS_OPEN,
                              0.0, 0.0)
        self._open.clear()
        self._keyed.clear()

    def export_streams(self) -> Dict[str, Dict[str, np.ndarray]]:
        """``{stream name: {column: array}}`` over everything recorded.
        Call :meth:`finalize` first to include open spans."""
        return {"spans": self.spans.columns(), "events": self.events.columns()}

    def category_counts(self) -> Dict[str, int]:
        """Recorded rows per category (the summary ground truth): the
        ``cat`` columns plus the still-open spans, in interning order."""
        total = np.zeros(len(self.strings), dtype=np.int64)
        for part in self.spans.column_parts("cat") + self.events.column_parts("cat"):
            total += np.bincount(part, minlength=len(total))
        for code, _node, _t0, _parent in self._open.values():
            total[code] += 1
        return {s: int(n) for s, n in zip(self.strings.strings, total) if n}
