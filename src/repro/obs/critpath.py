"""Causal-tree reconstruction and critical-path analytics over spans.

The hub records parent links (``job.execute`` under ``job``, quorum
fan-out and lookup hops under their request) but nothing interprets
them.  This module rebuilds the span forest from the stored ``parent``
column and answers the two questions a latency investigation starts
with:

* **Where did the time go?** — :func:`self_time_by_category` attributes
  every span's duration to *self-time* (duration minus the union of its
  children's intervals, clipped to the span) per category, so "jobs are
  slow" decomposes into "jobs spend 80% of their wall time waiting
  outside any execute attempt".
* **What was the chain?** — :func:`critical_path` walks a root span
  end-to-start, at each instant descending into the child that finished
  last, yielding the unbroken chronological chain of self-time segments
  whose lengths sum exactly to the root's duration.

Durations are virtual-time seconds; everything operates on the exact
stored rows (no sketches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.hub import STATUS_NAMES, STATUS_OPEN
from repro.obs.store import StreamView

__all__ = ["SpanTree", "Span", "build_forest", "critical_path",
           "self_time_by_category", "span_attribution"]


@dataclass
class Span:
    """One span row plus its resolved children (t0-ordered)."""

    sid: int
    parent: int
    category: str
    node: int
    t0: float
    t1: float
    status: int
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def child_union(self) -> float:
        """Total time covered by ≥ 1 child, clipped to this span."""
        return _union_within(self.children, self.t0, self.t1)

    def self_time(self) -> float:
        """Duration not covered by any child (≥ 0 by construction)."""
        return self.duration - self.child_union()


@dataclass
class SpanTree:
    """The reconstructed forest of one run's spans."""

    by_id: Dict[int, Span]
    roots: List[Span]
    #: Children whose ``parent`` id never closed into the stream (e.g. a
    #: category-filtered parent): promoted to roots, counted here.
    orphans: int = 0


def build_forest(spans: StreamView) -> SpanTree:
    """Rebuild the span forest of *spans* from the stored parent links."""
    ids = spans.column("id")
    parents = spans.column("parent")
    cats = spans.column("cat")
    nodes = spans.column("node")
    t0s = spans.column("t0")
    t1s = spans.column("t1")
    statuses = spans.column("status")
    strings = spans.strings

    by_id: Dict[int, Span] = {}
    for i in range(len(ids)):
        sid = int(ids[i])
        by_id[sid] = Span(sid=sid, parent=int(parents[i]),
                          category=strings[int(cats[i])], node=int(nodes[i]),
                          t0=float(t0s[i]), t1=float(t1s[i]),
                          status=int(statuses[i]))
    roots: List[Span] = []
    orphans = 0
    for span in by_id.values():
        parent = by_id.get(span.parent) if span.parent else None
        if parent is None or parent is span:
            if span.parent and span.parent != span.sid:
                orphans += 1
            roots.append(span)
        else:
            parent.children.append(span)
    for span in by_id.values():
        span.children.sort(key=lambda s: (s.t0, -s.t1))
    roots.sort(key=lambda s: (s.t0, -s.t1))
    return SpanTree(by_id=by_id, roots=roots, orphans=orphans)


def _union_within(children: List[Span], t0: float, t1: float) -> float:
    """Length of the union of child intervals clipped to ``[t0, t1]``."""
    total = 0.0
    cur0 = cur1 = None
    for c in children:  # children are t0-sorted
        a, b = max(c.t0, t0), min(c.t1, t1)
        if b <= a:
            continue
        if cur1 is None or a > cur1:
            if cur1 is not None:
                total += cur1 - cur0
            cur0, cur1 = a, b
        elif b > cur1:
            cur1 = b
    if cur1 is not None:
        total += cur1 - cur0
    return total


def critical_path(root: Span) -> List[Dict[str, Any]]:
    """The chronological chain of self-time segments explaining *root*.

    Walks backwards from the root's end: at each cursor, descend into
    the child that finished last before it; any gap between that child's
    end and the cursor is the current span's own self-time.  Segment
    durations sum exactly to the root's duration (each instant of
    ``[t0, t1]`` is attributed to exactly one span on the path).
    """
    segments: List[Dict[str, Any]] = []

    def emit(span: Span, a: float, b: float) -> None:
        segments.append({
            "span_id": span.sid, "category": span.category,
            "node": span.node, "t0": a, "t1": b, "duration": b - a,
            "status": STATUS_NAMES.get(span.status, "?"),
        })

    def walk(span: Span, t_end: float) -> None:
        cursor = min(t_end, span.t1)
        kids = sorted(span.children, key=lambda c: c.t1)
        while cursor > span.t0:
            pick: Optional[Span] = None
            while kids:
                c = kids.pop()
                if c.t0 >= cursor or c.t1 <= span.t0:
                    continue  # entirely outside the remaining window
                pick = c
                break
            if pick is None:
                break
            effective_end = min(pick.t1, cursor)
            if effective_end < cursor:
                emit(span, effective_end, cursor)
            walk(pick, effective_end)
            cursor = max(pick.t0, span.t0)
        if cursor > span.t0:
            emit(span, span.t0, cursor)

    walk(root, root.t1)
    segments.reverse()
    return segments


def self_time_by_category(tree: SpanTree) -> List[Dict[str, Any]]:
    """Per-category attribution: span count, total time, self-time.

    ``self_pct`` is the category's share of the *whole run's* self-time,
    so the rows sum to ~100% and directly rank where time was actually
    spent (total durations double-count parents over their children;
    self-times never do).
    """
    agg: Dict[str, List[float]] = {}
    for span in tree.by_id.values():
        if span.status == STATUS_OPEN and span.duration <= 0.0:
            continue  # finalized-open spans carry no interval
        row = agg.setdefault(span.category, [0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += span.self_time()
    grand_self = sum(r[2] for r in agg.values())
    out = [{
        "category": category, "count": int(row[0]),
        "total_time": row[1], "self_time": row[2],
        "self_pct": (100.0 * row[2] / grand_self) if grand_self > 0 else 0.0,
    } for category, row in agg.items()]
    out.sort(key=lambda r: -r["self_time"])
    return out


def span_attribution(tree: SpanTree,
                     category: Optional[str] = None) -> List[Dict[str, Any]]:
    """Per-root accounting: duration = child-covered time + self-time.

    ``coverage`` is the attributed fraction (child union + self-time over
    duration) — 1.0 by construction for closed spans whose children sit
    inside them; child time spilling outside the parent window shows up
    in ``child_overflow`` instead of silently inflating coverage.
    """
    roots = (tree.roots if category is None
             else [s for s in tree.roots if s.category == category])
    out: List[Dict[str, Any]] = []
    for root in roots:
        duration = root.duration
        covered = root.child_union()
        self_t = duration - covered
        raw_child = sum(max(0.0, c.t1 - c.t0) for c in root.children)
        overflow = sum(
            max(0.0, (c.t1 - c.t0) -
                (min(c.t1, root.t1) - max(c.t0, root.t0)))
            for c in root.children)
        out.append({
            "span_id": root.sid, "category": root.category, "node": root.node,
            "t0": root.t0, "duration": duration, "children": len(root.children),
            "child_time": covered, "child_raw_time": raw_child,
            "self_time": self_t, "child_overflow": overflow,
            "coverage": ((covered + self_t) / duration) if duration > 0 else 1.0,
            "status": STATUS_NAMES.get(root.status, "?"),
        })
    out.sort(key=lambda r: -r["duration"])
    return out
