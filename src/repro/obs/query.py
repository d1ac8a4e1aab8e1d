"""Store-side analysis shared by the ``repro.obs`` CLI and the tests.

Everything here operates on :class:`~repro.obs.store.StreamView` column
arrays with vectorised NumPy over the trace store's exact row data:
latency quantiles are ``np.percentile`` over closed-span durations, the
same definition the bench scenario checks use.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.obs.hub import (STATUS_FAIL, STATUS_NAMES, STATUS_OK, STATUS_OPEN,
                           STATUS_TIMEOUT)
from repro.obs.store import StreamView

__all__ = ["span_stats", "per_hop_latency", "slowest_spans", "timeline_rows"]


def span_stats(spans: StreamView) -> List[Dict[str, Any]]:
    """Per-category span statistics: count, status mix, duration quantiles.

    Durations are exact (np.percentile over the stored rows); open spans
    count but contribute no duration.
    """
    cat = spans.column("cat")
    t0 = spans.column("t0")
    t1 = spans.column("t1")
    status = spans.column("status")
    out: List[Dict[str, Any]] = []
    for code in np.unique(cat):
        mask = cat == code
        closed = mask & (status != STATUS_OPEN)
        durations = (t1 - t0)[closed]
        row: Dict[str, Any] = {
            "category": spans._strings[int(code)],
            "count": int(np.count_nonzero(mask)),
            "ok": int(np.count_nonzero(mask & (status == STATUS_OK))),
            "fail": int(np.count_nonzero(mask & (status == STATUS_FAIL))),
            "timeout": int(np.count_nonzero(mask & (status == STATUS_TIMEOUT))),
            "open": int(np.count_nonzero(mask & (status == STATUS_OPEN))),
        }
        if len(durations):
            row.update(
                mean=float(durations.mean()),
                p50=float(np.percentile(durations, 50)),
                p99=float(np.percentile(durations, 99)),
                max=float(durations.max()),
            )
        else:
            row.update(mean=0.0, p50=0.0, p99=0.0, max=0.0)
        out.append(row)
    out.sort(key=lambda r: -r["count"])
    return out


def per_hop_latency(events: StreamView) -> List[Dict[str, Any]]:
    """Per-hop latency breakdown of lookup trails.

    ``lookup.hop`` events carry (rid, arrival time, ttl); sorting by
    (rid, ttl) and differencing consecutive hops of the same request gives
    the per-hop forwarding latency at each depth.
    """
    hops = events.filter(category="lookup.hop")
    if len(hops) == 0:
        return []
    rid = hops.column("rid")
    t = hops.column("t")
    ttl = hops.column("value")
    order = np.lexsort((ttl, rid))
    rid, t, ttl = rid[order], t[order], ttl[order]
    same_req = rid[1:] == rid[:-1]
    consecutive = ttl[1:] == ttl[:-1] + 1
    mask = same_req & consecutive
    hop_idx = ttl[1:][mask].astype(np.int64)
    latency = t[1:][mask] - t[:-1][mask]
    out: List[Dict[str, Any]] = []
    for h in np.unique(hop_idx):
        sel = latency[hop_idx == h]
        out.append({
            "hop": int(h),
            "count": int(len(sel)),
            "mean": float(sel.mean()),
            "p99": float(np.percentile(sel, 99)),
        })
    return out


def slowest_spans(spans: StreamView, limit: int = 10) -> List[Dict[str, Any]]:
    """The *limit* longest closed spans, slowest first."""
    status = spans.column("status")
    mask = status != STATUS_OPEN
    view = StreamView({k: v[mask] for k, v in spans.columns.items()},
                      spans._strings, spans.run, spans.stream)
    if len(view) == 0:
        return []
    durations = view.column("t1") - view.column("t0")
    order = np.argsort(durations)[::-1][:limit]
    rows = []
    for i in order:
        rows.append({
            "category": view._strings[int(view.column("cat")[i])],
            "id": int(view.column("id")[i]),
            "node": int(view.column("node")[i]),
            "t0": float(view.column("t0")[i]),
            "duration": float(durations[i]),
            "status": STATUS_NAMES.get(int(view.column("status")[i]), "?"),
            "v0": float(view.column("v0")[i]),
        })
    return rows


def timeline_rows(spans: StreamView, events: StreamView,
                  limit: int = 50) -> List[Dict[str, Any]]:
    """A chronological merge of span-ends and events (first *limit*).

    Closed spans appear at their **end** time (``t1`` is when the outcome
    became known; ``t0`` stays in the detail); never-ended spans flushed
    with ``STATUS_OPEN`` appear at their begin, the only time they have.
    """
    merged: List[Dict[str, Any]] = []
    for row in spans:
        is_open = row["status"] == STATUS_OPEN
        merged.append({
            "time": row["t0"] if is_open else row["t1"],
            "kind": "span", "category": row["category"],
            "node": row["node"],
            "detail": (f"id={row['id']} t0={row['t0']:.4f} "
                       f"dur={row['t1'] - row['t0']:.4f} "
                       f"{STATUS_NAMES.get(row['status'], '?')} "
                       f"v0={row['v0']:g}"),
        })
    for row in events:
        merged.append({
            "time": row["t"], "kind": "event", "category": row["category"],
            "node": row["node"],
            "detail": f"rid={row['rid']} value={row['value']:g}",
        })
    merged.sort(key=lambda r: (r["time"], r["kind"]))
    return merged[:limit]
