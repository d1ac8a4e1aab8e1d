"""Markdown rendering: the scenario catalogue.

``python -m repro.bench report`` prints the GitHub-flavoured markdown
table this module generates; ``docs/benchmarks.md`` embeds it verbatim.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.bench.scenario import Scenario, registry


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

