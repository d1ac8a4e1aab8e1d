"""Markdown rendering: the scenario catalogue and result tables.

``python -m repro.bench report`` prints GitHub-flavoured markdown —
``docs/benchmarks.md`` embeds the catalogue table this module generates,
and the results table turns a ``benchmarks/out/`` directory into a
human-readable page.  ``python -m repro.bench campaign
report`` renders the per-point mean ± CI tables for a campaign aggregate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.bench.campaign import CampaignResult
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
            f"{len(s.metrics)} ({directional} directional)",
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
        f"· Student-t CIs at {pct:g}%\n",
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
