"""The trace-store query CLI: ``python -m repro.obs <cmd> FILE``.

* ``summary FILE [--run R]`` — per-category span counts with the full
  status mix (ok/fail/timeout/open), duration quantiles, the per-hop
  latency breakdown of lookup trails, event counts, and the simulator
  event-label top list.
* ``runs FILE`` — one line per run: span/event/simulator-event counts
  (the way to discover run names in a multi-run store).
* ``timeline FILE [--run R] [--category C] [--limit N]`` — chronological
  span-end/event listing.
* ``slowest FILE [--run R] [--category C] [--limit N]`` — longest spans.
* ``critpath FILE [--run R] [--category C] [--limit N]`` — per-category
  self-time attribution and the critical path of the longest root spans.
* ``export FILE --stream spans|events [--run R] [--format jsonl|csv]``
  — dump raw rows for external tooling.

Reads the npz stores written by ``python -m repro.bench run --trace-out``
or :meth:`repro.obs.service.Observability.write`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.obs.query import (per_hop_latency, slowest_spans, span_stats,
                             timeline_rows)
from repro.obs.store import TraceReader


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]],
           title: str = "") -> str:
    """Minimal right-aligned text table (keeps repro.obs self-contained)."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Query a columnar trace store written by the "
                    "observability layer (--trace-out / Observability.write).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="trace store (.npz)")
        p.add_argument("--run", default=None,
                       help="restrict to one run (default: all)")

    sum_p = sub.add_parser("summary", help="per-category counts/status mix, "
                           "span latency quantiles, per-hop breakdown")
    common(sum_p)

    runs_p = sub.add_parser("runs", help="list runs: names and row counts")
    runs_p.add_argument("file", help="trace store (.npz)")

    tl_p = sub.add_parser("timeline", help="chronological span-end/event "
                          "listing")
    common(tl_p)
    tl_p.add_argument("--category", default=None)
    tl_p.add_argument("--limit", type=int, default=50)

    slow_p = sub.add_parser("slowest", help="longest spans")
    common(slow_p)
    slow_p.add_argument("--category", default=None)
    slow_p.add_argument("--limit", type=int, default=10)

    crit_p = sub.add_parser("critpath", help="critical-path + self-time "
                            "attribution from parent links")
    common(crit_p)
    crit_p.add_argument("--category", default=None,
                        help="walk roots of this category (default: longest "
                             "roots of any category)")
    crit_p.add_argument("--limit", type=int, default=3,
                        help="root spans to walk")

    exp_p = sub.add_parser("export", help="dump raw rows (jsonl/csv)")
    common(exp_p)
    exp_p.add_argument("--stream", choices=("spans", "events"),
                       default="spans")
    exp_p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    exp_p.add_argument("-o", "--output", default=None,
                       help="output path (default: stdout)")
    return parser


def _runs(reader: TraceReader, run: Optional[str]) -> List[str]:
    if run is None:
        return reader.runs
    reader.run_meta(run)  # raises with the known-run list
    return [run]


def _cmd_summary(reader: TraceReader, args: argparse.Namespace) -> int:
    for run in _runs(reader, args.run):
        spans = reader.stream(run, "spans")
        events = reader.stream(run, "events")
        print(f"== run {run}: {len(spans)} spans, {len(events)} events ==")
        stats = span_stats(spans)
        if stats:
            print(_table(
                ["category", "count", "ok", "fail", "timeout", "open",
                 "mean", "p50", "p99", "max"],
                [[s["category"], s["count"], s["ok"], s["fail"], s["timeout"],
                  s["open"], f"{s['mean']:.4f}", f"{s['p50']:.4f}",
                  f"{s['p99']:.4f}", f"{s['max']:.4f}"] for s in stats],
                title="spans (durations in virtual seconds)"))
        event_counts = events.categories()
        if event_counts:
            print(_table(["event category", "count"],
                         sorted(event_counts.items()), title="events"))
        hops = per_hop_latency(events)
        if hops:
            print(_table(
                ["hop", "count", "mean latency", "p99"],
                [[h["hop"], h["count"], f"{h['mean']:.4f}",
                  f"{h['p99']:.4f}"] for h in hops],
                title="per-hop lookup latency breakdown"))
        counts = reader.category_counts(run)
        if counts:
            print(_table(["category", "recorded"], sorted(counts.items()),
                         title="per-category totals (spans + events)"))
        sim_counts = reader.sim_event_counts(run)
        if sim_counts:
            top = sorted(sim_counts.items(), key=lambda kv: -kv[1])[:12]
            total = sum(sim_counts.values())
            print(_table(["sim event label", "fired"], top,
                         title=f"simulator events ({total} total, top 12)"))
        print()
    return 0


def _cmd_runs(reader: TraceReader, args: argparse.Namespace) -> int:
    rows = []
    for run in reader.runs:
        meta = reader.run_meta(run)
        streams = meta.get("streams", {})
        rows.append([run, streams.get("spans", 0), streams.get("events", 0),
                     sum(meta.get("sim_events", {}).values())])
    print(_table(["run", "spans", "events", "sim events"], rows,
                 title=f"{reader.path}: {len(reader.runs)} run(s)"))
    extra = reader.meta.get("extra", {})
    if extra:
        print("store extra: "
              + " ".join(f"{k}={extra[k]}" for k in sorted(extra)))
    return 0


def _cmd_timeline(reader: TraceReader, args: argparse.Namespace) -> int:
    for run in _runs(reader, args.run):
        spans = reader.stream(run, "spans")
        events = reader.stream(run, "events")
        if args.category is not None:
            spans = spans.filter(category=args.category)
            events = events.filter(category=args.category)
        rows = timeline_rows(spans, events, limit=args.limit)
        print(f"== run {run} (first {len(rows)}) ==")
        for r in rows:
            print(f"[{r['time']:10.4f}] {r['kind']:<5} "
                  f"{r['category']:<18} node={r['node']:<6} {r['detail']}")
        print()
    return 0


def _cmd_slowest(reader: TraceReader, args: argparse.Namespace) -> int:
    for run in _runs(reader, args.run):
        spans = reader.stream(run, "spans")
        if args.category is not None:
            spans = spans.filter(category=args.category)
        rows = slowest_spans(spans, limit=args.limit)
        print(_table(
            ["category", "id", "node", "t0", "duration", "status", "v0"],
            [[r["category"], r["id"], r["node"], f"{r['t0']:.4f}",
              f"{r['duration']:.4f}", r["status"], f"{r['v0']:g}"]
             for r in rows],
            title=f"run {run}: slowest {len(rows)} spans"))
        print()
    return 0


def _cmd_critpath(reader: TraceReader, args: argparse.Namespace) -> int:
    from repro.obs.critpath import (build_forest, critical_path,
                                    self_time_by_category, span_attribution)

    for run in _runs(reader, args.run):
        tree = build_forest(reader.stream(run, "spans"))
        print(f"== run {run}: {len(tree.by_id)} spans, {len(tree.roots)} "
              f"roots, {tree.orphans} orphan(s) ==")
        attribution = self_time_by_category(tree)
        if attribution:
            print(_table(
                ["category", "count", "total time", "self time", "self %"],
                [[a["category"], a["count"], f"{a['total_time']:.4f}",
                  f"{a['self_time']:.4f}", f"{a['self_pct']:.1f}"]
                 for a in attribution],
                title="per-category self-time attribution"))
        roots = span_attribution(tree, category=args.category)
        for row in roots[:args.limit]:
            root = tree.by_id[row["span_id"]]
            print(f"\ncritical path of {row['category']} span "
                  f"{row['span_id']} (node {row['node']}, "
                  f"dur {row['duration']:.4f}, {row['children']} child(ren), "
                  f"self {row['self_time']:.4f}, "
                  f"coverage {100 * row['coverage']:.1f}%):")
            for seg in critical_path(root):
                print(f"  [{seg['t0']:10.4f} → {seg['t1']:10.4f}] "
                      f"{seg['duration']:8.4f}  {seg['category']:<18} "
                      f"node={seg['node']} ({seg['status']})")
        print()
    return 0


def _cmd_export(reader: TraceReader, args: argparse.Namespace) -> int:
    out = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = None
        for run in _runs(reader, args.run):
            for row in reader.stream(run, args.stream):
                row["run"] = run
                if args.format == "jsonl":
                    out.write(json.dumps(row, sort_keys=True) + "\n")
                else:
                    if writer is None:
                        writer = csv.DictWriter(out, fieldnames=sorted(row))
                        writer.writeheader()
                    writer.writerow(row)
    finally:
        if args.output:
            out.close()
    return 0


_COMMANDS = {
    "summary": _cmd_summary,
    "runs": _cmd_runs,
    "timeline": _cmd_timeline,
    "slowest": _cmd_slowest,
    "critpath": _cmd_critpath,
    "export": _cmd_export,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS.get(args.command)
    if handler is None:  # pragma: no cover
        raise SystemExit(f"unknown command {args.command!r}")
    try:
        with TraceReader(args.file) as reader:
            return handler(reader, args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed stdout mid-render;
        # detach it so the interpreter's shutdown flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
