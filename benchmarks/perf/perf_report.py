"""Turn raw rounds into named metrics, stamp result sets, compare two sets.

Aggregation rules (one place, used by the full run and the driver run):

* ``host`` metrics are the **median over rounds**, reported with quartiles
  and n.  ``ops_per_s`` goes one level lower.  Every round of a run
  executes the same segments on the same inputs, so the rounds are repeated
  measurements of identical work, and on a shared machine noise only ever
  adds time: each segment's time is therefore its **fastest** over the
  rounds (what ``timeit`` recommends for repeated identical work), and the
  rate is ops over the sum of those.  A noisy stretch that slows a segment
  in one round drops out instead of spoiling the round, while costs every
  round pays at the same place — collector pauses included — stay in.
  The per-round rates (ops / that round's own seconds) are kept beside the
  value as ``samples`` with their quartiles.
* ``sim`` and ``count`` metrics must be identical in every round, traced
  round included; a difference fails the run (``exact.rounds_identical``).
* ``<layer>.self_s`` / ``.calls_in`` and the one ``converge()`` come from
  the traced round; a metric no round produced reads 0 (layer idle).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from perf_registry import END_TO_END, METRICS, PER_LAYER, TRACED_LAYERS


def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def best_segment_rate(rounds: List[dict]) -> float:
    """ops / sum over segments of that segment's fastest time across rounds."""
    per_segment = zip(*(r["seg_s"] for r in rounds))
    return rounds[0]["attempted"] / sum(min(s) for s in per_segment)


def _entry(name: str, value: float, samples: Optional[List[float]] = None) -> dict:
    m = METRICS[name]
    entry = {"value": value, "unit": m.unit, "clock": m.clock}
    if samples:
        q1, _, q3 = quartiles(samples)
        entry.update(q1=q1, q3=q3, n=len(samples), samples=samples)
    return entry


def aggregate(rounds: List[dict], traced: Optional[dict] = None,
              obs_off_ops_per_s: Optional[float] = None) -> dict:
    """Metrics and checks of one workload from its untraced *rounds*, the
    optional *traced* round and, for the obs pair, the obs-off rate."""
    first = rounds[0]
    every = rounds + ([traced] if traced else [])
    checks = {}
    for r in every:
        for c in r["checks"]:
            kept = checks.setdefault(c["name"], dict(c))
            if not c["ok"]:
                kept.update(ok=False, detail=c["detail"])

    differing = []
    for r in every[1:]:
        differing += [k for k, v in r["exact"].items() if first["exact"][k] != v]
        differing += [k for k, v in r["counts"].items()
                      if k in first["counts"] and first["counts"][k] != v]
        if r["input_sha256"] != first["input_sha256"] or r["seg_ops"] != first["seg_ops"]:
            differing.append("inputs")
    checks["exact.rounds_identical"] = {
        "name": "exact.rounds_identical", "ok": not differing,
        "detail": (f"differ across {len(every)} rounds: {sorted(set(differing))}"
                   if differing else f"{len(every)} rounds agree bit for bit"),
    }

    metrics: Dict[str, dict] = {}
    ops_samples = [r["attempted"] / r["measured_s"] for r in rounds]
    ops_per_s = best_segment_rate(rounds)
    setup = [r["setup_s"] for r in rounds]
    rss = [r["peak_rss_mb"] for r in rounds]
    metrics["setup_s"] = _entry("setup_s", statistics.median(setup), setup)
    metrics["ops_per_s"] = _entry("ops_per_s", ops_per_s, ops_samples)
    metrics["peak_rss_mb"] = _entry("peak_rss_mb", max(rss), rss)
    for name, value in first["exact"].items():
        metrics[name] = _entry(name, value)

    counts = dict(traced["counts"]) if traced else {}
    counts.update(first["counts"])
    host: Dict[str, List[float]] = {}
    for r in rounds:
        for name, value in r["host"].items():
            host.setdefault(name, []).append(value)
    traced_only = {}
    if traced:
        traced_only = {k: v for k, v in traced["host"].items() if k not in host}
        traced_rate = traced["attempted"] / traced["measured_s"]
        traced_only["bench.trace_overhead_ratio"] = ops_per_s / traced_rate
        profile = traced["profile"]
        for layer in TRACED_LAYERS:
            slot = profile.get(layer, {})
            traced_only[f"{layer}.self_s"] = slot.get("self_s", 0.0)
            counts[f"{layer}.calls_in"] = slot.get("calls_in", 0)
        unnamed = profile.get("?", {}).get("self_s", 0.0)
        total = sum(slot["self_s"] for slot in profile.values())
        checks["trace.layers_named"] = {
            "name": "trace.layers_named", "ok": unnamed <= 0.05 * total,
            "detail": f"{unnamed:.4f} of {total:.4f} profiled self seconds fall "
                      "in repro files no layer names",
        }
    if obs_off_ops_per_s is not None:
        traced_only["obs.hub.overhead_ratio"] = obs_off_ops_per_s / ops_per_s

    for m in PER_LAYER:
        if m.name in host:
            samples = host[m.name]
            metrics[m.name] = _entry(m.name, statistics.median(samples), samples)
        elif m.name in traced_only:
            metrics[m.name] = _entry(m.name, traced_only[m.name])
        else:
            metrics[m.name] = _entry(m.name, float(counts.get(m.name, 0.0)))

    return {
        "workload": first["workload"],
        "input_sha256": first["input_sha256"],
        "sizes": first["sizes"],
        "rounds": len(rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "measured_s": [r["measured_s"] for r in rounds],
        "seg_s": [r["seg_s"] for r in rounds],
        "calibration_s": [r["calibration_s"] for r in every],
        "metrics": metrics,
        "checks": list(checks.values()),
    }


def correct(result: dict) -> bool:
    return all(c["ok"] for c in result["checks"])


# ------------------------------------------------------------------ stamp
def stamp(seed: int, smoke: bool, root: str) -> dict:
    """Where and on what a result set was measured."""
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
        "seed": seed,
        "smoke": smoke,
    }


def warn_if_loaded() -> None:
    load, cores = os.getloadavg()[0], os.cpu_count() or 1
    if load > cores / 2:
        print(f"warning: load average {load:.2f} > nproc/2 = {cores / 2:g}; "
              "host-clock metrics will be noisy", file=sys.stderr)


# ----------------------------------------------------------------- render
def render(result: dict) -> str:
    """Every metric of one workload by name, with its unit."""
    lines = [f"== {result['workload']}  ({result['rounds']} rounds, "
             f"{result['failed']}/{result['attempted']} ops failed, "
             f"inputs sha256 {result['input_sha256'][:12]})"]
    for group, table in (("end-to-end", END_TO_END), ("per-layer", PER_LAYER)):
        lines.append(f"  -- {group}")
        for m in table:
            e = result["metrics"][m.name]
            spread = (f"  [q1 {e['q1']:.6g}  q3 {e['q3']:.6g}  n {e['n']}]"
                      if "n" in e else "")
            lines.append(f"  {m.name:<40} {e['value']:>14.6g} {m.unit:<13} "
                         f"{m.clock:<5}{spread}")
    lines.append("  -- checks")
    for c in result["checks"]:
        lines.append(f"  {'ok  ' if c['ok'] else 'FAIL'} {c['name']:<34} {c['detail']}")
    lines += [f"  {row}" for row in intent(result)]
    return "\n".join(lines)


def intent(result: dict) -> List[str]:
    """Does the traced attribution match what the workload was built to
    stress?  Informational (host-time shares), printed, never gating."""
    m = result["metrics"]
    share = {layer: m[f"{layer}.self_s"]["value"] for layer in TRACED_LAYERS}
    total = sum(share.values())
    if total <= 0:
        return []
    share = {k: v / total for k, v in share.items()}
    sim = sum(v for k, v in share.items() if k.startswith("sim."))
    top = max(share, key=share.get)
    name = result["workload"]
    rows = []

    def row(ok: bool, text: str) -> None:
        rows.append(f"intent {'ok  ' if ok else 'MISS'} {text}")

    if name.startswith("lookup"):
        routing = share["core.lookup"] + share["core.node"]
        others = max(v for k, v in share.items() if k not in ("core.lookup", "core.node"))
        row(routing >= others, f"core.lookup+core.node {routing:.1%} is the largest share")
    if name == "churn_repair":
        row(top == "core.repair", f"core.repair {share['core.repair']:.1%} is the largest "
                                  f"layer (largest: {top})")
    if name == "storage_rw":
        rest = {k: v for k, v in share.items()
                if not k.startswith("sim.") and k not in ("runtime", "bench")}
        best = max(rest, key=rest.get)
        row(best == "storage", f"storage {share['storage']:.1%} is the largest non-sim "
                               f"layer (largest: {best})")
    if name == "grid_jobs":
        row(sim + share["compute"] >= 0.70,
            f"sim.* + compute = {sim + share['compute']:.1%} (>= 70%)")
    if name == "lookup_observed":
        row(share["obs"] >= 0.05, f"obs {share['obs']:.1%} (>= 5%)")
    else:
        row(share["obs"] < 0.01, f"obs {share['obs']:.1%} (< 1%)")
    return rows


# ------------------------------------------------------------------ agree
def agree(a: dict, b: dict) -> List[dict]:
    """Apply the registry's bounds to result sets *a* (first) and *b*.

    One row per (end-to-end metric, workload): ``ok``, ``worse`` (b's
    median is worse than a's by more than the bound) or ``unresolved`` (the
    round-to-round spread of either set is wider than the bound, and b's
    rounds are not all better than a's).  Exact metrics must be identical;
    so must every exact per-layer count (one summary row per workload).
    """
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ma, mb = a["workloads"][name]["metrics"], b["workloads"][name]["metrics"]
        for m in END_TO_END:
            va, vb = ma[m.name]["value"], mb[m.name]["value"]
            sign = 1.0 if m.better == "lower" else -1.0
            change = sign * (vb - va) / abs(va) if va else 0.0   # > 0 is worse
            row = {"workload": name, "metric": m.name, "a": va, "b": vb,
                   "worse_by": change, "bound": m.bound, "spread": 0.0}
            if m.exact:
                row["verdict"] = "ok" if va == vb else "worse"
                row["bound"] = 0.0
            else:
                sa, sb = ma[m.name]["samples"], mb[m.name]["samples"]
                spread = max((e["q3"] - e["q1"]) / abs(e["value"])
                             for e in (ma[m.name], mb[m.name]))
                row["spread"] = spread
                better = (max(sb) < min(sa)) if m.better == "lower" else (min(sb) > max(sa))
                if spread > m.bound and not better:
                    row["verdict"] = "unresolved"
                else:
                    row["verdict"] = "worse" if change > m.bound else "ok"
            rows.append(row)
        moved = [m.name for m in PER_LAYER
                 if m.exact and ma[m.name]["value"] != mb[m.name]["value"]]
        rows.append({"workload": name, "metric": "(exact per-layer counts)",
                     "a": 0.0, "b": 0.0, "worse_by": 0.0, "bound": 0.0, "spread": 0.0,
                     "verdict": "worse" if moved else "ok", "moved": moved})
    return rows


def render_agree(rows: List[dict]) -> str:
    lines = [f"{'workload':<16} {'metric':<26} {'a':>12} {'b':>12} {'worse by':>9} "
             f"{'bound':>6} {'spread':>7}  verdict"]
    for r in rows:
        lines.append(f"{r['workload']:<16} {r['metric']:<26} {r['a']:>12.6g} {r['b']:>12.6g} "
                     f"{r['worse_by']:>8.1%} {r['bound']:>6.0%} {r['spread']:>6.1%}  "
                     f"{r['verdict']}" + (f" {r['moved']}" if r.get("moved") else ""))
    return "\n".join(lines)
