"""Markdown rendering: the scenario catalogue and result tables.

``python -m repro.bench report`` prints GitHub-flavoured markdown —
``docs/benchmarks.md`` embeds the catalogue table this module generates,
and the results table turns a ``benchmarks/out/`` directory into a
human-readable page.  ``python -m repro.bench campaign
report`` renders the per-point mean ± CI tables (and, behind a soft
matplotlib import, error-bar plots) for a campaign aggregate.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bench.campaign import CampaignComparison, CampaignResult
from repro.bench.compare import Comparison
from repro.bench.result import BenchResult
from repro.bench.scenario import Scenario, registry
from repro.metrics.stats import SampleSummary


def _md_table(header: List[str], rows: Iterable[List[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def _params_str(scenario: Scenario) -> str:
    full = ", ".join(f"{k}={v}" for k, v in scenario.params.items())
    if scenario.smoke_params:
        smoke = ", ".join(f"{k}={v}" for k, v in scenario.smoke_params.items())
        return f"{full} (smoke: {smoke})"
    return full


def scenario_table() -> str:
    """The catalogue: every registered scenario, in group order."""
    rows = []
    for s in registry.all():
        directional = sum(1 for m in s.metrics if m.direction != "neutral")
        rows.append([
            f"`{s.name}`", s.group, s.description,
            f"`{_params_str(s)}`",
            f"{len(s.metrics)} ({directional} gated)",
        ])
    return _md_table(
        ["scenario", "group", "what it measures", "params", "metrics"], rows)


def results_table(results: Dict[str, BenchResult]) -> str:
    """One markdown block per result: metrics + check verdicts."""
    parts: List[str] = []
    for name in sorted(results):
        r = results[name]
        failed = r.failed_checks()
        verdict = ("all checks passed" if not failed else
                   f"**{len(failed)} check(s) FAILED**: "
                   + ", ".join(c["name"] for c in failed))
        parts.append(f"### `{name}`\n")
        parts.append(
            f"seed {r.seed} · {'smoke' if r.smoke else 'full'} params · "
            f"{verdict}\n")
        parts.append(_md_table(
            ["metric", "value"],
            [[f"`{k}`", f"{v:.6g}"] for k, v in sorted(r.metrics.items())]))
        parts.append("")
    return "\n".join(parts)


def _summary_cells(s: SampleSummary) -> List[str]:
    if s.ci_lo is None or s.ci_hi is None:
        ci = "— (n=1)"
    else:
        ci = f"[{s.ci_lo:.6g}, {s.ci_hi:.6g}]"
    return [f"{s.mean:.6g}", f"{s.std:.6g}", ci, f"{s.n}"]


def campaign_table(result: CampaignResult) -> str:
    """One markdown block per param point: mean / std / CI per metric."""
    pct = 100.0 * result.confidence
    parts: List[str] = [
        f"### campaign `{result.campaign}` — scenario `{result.scenario}`\n",
        f"seeds {result.seeds} · {'smoke' if result.smoke else 'full'} params "
        f"· {result.ci_method} CIs at {pct:g}%\n",
    ]
    for i, point in enumerate(result.points):
        params = ", ".join(f"{k}={v}"
                           for k, v in sorted(point["params"].items()))
        failed = [c for c in point["checks"] if not c.get("passed")]
        verdict = ("all checks passed in every repetition" if not failed else
                   f"**{len(failed)} check(s) FAILED**: "
                   + ", ".join(f"{c['name']} (seeds {c['failed_seeds']})"
                               for c in failed))
        parts.append(f"#### point {i}: `{params}`\n")
        parts.append(verdict + "\n")
        rows = [[f"`{name}`", *_summary_cells(SampleSummary.from_dict(entry))]
                for name, entry in sorted(point["metrics"].items())]
        parts.append(_md_table(
            ["metric", "mean", "std", f"{pct:g}% CI", "n"], rows))
        parts.append("")
    return "\n".join(parts)


def campaign_comparison_table(comparison: CampaignComparison) -> str:
    """Markdown diff table for CI-overlap campaign comparison."""
    rows = []
    for d in comparison.deltas:
        flag = {"regression": "🔴 regression", "improvement": "🟢 improvement",
                "ok": "ok (CIs overlap)", "neutral": "·"}[d.status]
        point = ", ".join(f"{k}={v}" for k, v in sorted(d.params.items()))
        old_ci = ("—" if d.old.ci_lo is None
                  else f"[{d.old.ci_lo:.6g}, {d.old.ci_hi:.6g}]")
        new_ci = ("—" if d.new.ci_lo is None
                  else f"[{d.new.ci_lo:.6g}, {d.new.ci_hi:.6g}]")
        rows.append([f"`{d.campaign}`", f"`{point}`", f"`{d.metric}`",
                     d.direction, f"{d.old.mean:.6g} {old_ci}",
                     f"{d.new.mean:.6g} {new_ci}", flag])
    out = [_md_table(
        ["campaign", "point", "metric", "better", "old mean [CI]",
         "new mean [CI]", "status"], rows)]
    if comparison.mismatched:
        out.append("\nNot comparable (scenario/smoke differ): "
                   + ", ".join(comparison.mismatched))
    if comparison.unpaired_points:
        out.append("\nUnpaired param points: "
                   + "; ".join(comparison.unpaired_points))
    if comparison.only_old:
        out.append("\nOnly in OLD: " + ", ".join(comparison.only_old))
    if comparison.only_new:
        out.append("\nOnly in NEW: " + ", ".join(comparison.only_new))
    return "\n".join(out)


def campaign_plots(result: CampaignResult, out_dir: str,
                   ) -> Tuple[List[str], Optional[str]]:
    """Write one error-bar PNG per metric (x = param point, y = mean ± CI).

    matplotlib is a soft dependency: when it is not installed this
    returns ``([], reason)`` instead of raising, so ``campaign report
    --plots`` degrades to the tables alone.  Each figure carries a single
    series on a single axis (the title names it — no legend needed),
    with a recessive grid.
    """
    try:
        import matplotlib
        matplotlib.use("Agg")  # headless: never require a display
        import matplotlib.pyplot as plt
    except ImportError:
        return [], ("matplotlib is not installed — tables only "
                    "(pip install matplotlib to enable plots)")
    os.makedirs(out_dir, exist_ok=True)
    # Label x ticks with the swept axes only — fixed params are noise.
    swept = {k for p in result.points for k, v in p["params"].items()
             if any(p2["params"].get(k) != v for p2 in result.points)}
    labels = []
    for i, p in enumerate(result.points):
        lab = ", ".join(f"{k}={p['params'][k]}" for k in sorted(swept)
                        if k in p["params"])
        labels.append(lab or f"point {i}")
    metric_names = sorted(result.points[0]["metrics"])
    written: List[str] = []
    for name in metric_names:
        means, halves = [], []
        for point in result.points:
            s = SampleSummary.from_dict(point["metrics"][name])
            means.append(s.mean)
            halves.append(s.half_width or 0.0)
        fig, ax = plt.subplots(figsize=(6.4, 4.0))
        x = range(len(means))
        ax.errorbar(x, means, yerr=halves, fmt="o-", color="#4063d8",
                    ecolor="#9aa7c7", elinewidth=2, capsize=4, linewidth=2,
                    markersize=6)
        ax.set_xticks(list(x), labels, rotation=20, ha="right", fontsize=8)
        ax.set_title(f"{result.campaign}: {name} "
                     f"(mean ± {100 * result.confidence:g}% CI, "
                     f"n={len(result.seeds)} seeds)", fontsize=10)
        ax.grid(True, axis="y", alpha=0.25, linewidth=0.5)
        ax.spines[["top", "right"]].set_visible(False)
        fig.tight_layout()
        path = os.path.join(out_dir,
                            f"campaign_{result.campaign}_{name}.png")
        fig.savefig(path, dpi=120)
        plt.close(fig)
        written.append(path)
    return written, None


def comparison_table(comparison: Comparison) -> str:
    """Markdown diff table for ``compare`` output."""
    rows = []
    for d in comparison.deltas:
        flag = {"regression": "🔴 regression", "improvement": "🟢 improvement",
                "ok": "ok", "neutral": "·"}[d.status]
        rows.append([f"`{d.scenario}`", f"`{d.metric}`", d.direction,
                     f"{d.old:.6g}", f"{d.new:.6g}",
                     f"{100 * d.rel_change:+.1f}%", flag])
    out = [_md_table(
        ["scenario", "metric", "better", "old", "new", "change", "status"],
        rows)]
    if comparison.mismatched:
        out.append("\nNot comparable (seed/params/smoke differ): "
                   + ", ".join(comparison.mismatched))
    if comparison.metric_drift:
        out.append("\nMetric drift (present in only one run): "
                   + ", ".join(comparison.metric_drift))
    if comparison.only_old:
        out.append("\nOnly in OLD: " + ", ".join(comparison.only_old))
    if comparison.only_new:
        out.append("\nOnly in NEW: " + ", ".join(comparison.only_new))
    return "\n".join(out)
