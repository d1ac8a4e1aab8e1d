"""Result comparison: diff two runs, flag regressions.

``python -m repro.bench compare OLD NEW`` loads two results (single
``bench_*.json`` files or whole ``benchmarks/out/`` directories), pairs
them by scenario, and evaluates every *directional* metric (declared
``"higher"`` or ``"lower"`` in the scenario's schema; ``"neutral"``
metrics are reported but never flagged).  A metric regresses when it
moves in its bad direction by more than ``threshold`` (relative, default
10%).  Identical runs therefore compare clean, and a synthetic 20%
slowdown on a lower-is-better metric trips the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bench.result import BenchResult
from repro.bench.scenario import Metric, registry

#: Default relative-change gate.
DEFAULT_THRESHOLD = 0.10

#: Ignore absolute drifts below this on near-zero baselines (a metric
#: moving 0.001 -> 0.002 is noise, not a 2x regression).  Every declared
#: metric lives in units (fractions, %, hops, ops/s, work) where a move
#: this small is meaningless.
ABS_NOISE_FLOOR = 1e-3


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between two runs of the same scenario."""

    scenario: str
    metric: str
    direction: str
    old: float
    new: float
    rel_change: float  # signed (new - old) / |old|
    status: str  # "ok" | "regression" | "improvement" | "neutral"

    def describe(self) -> str:
        pct = 100.0 * self.rel_change
        return (f"{self.scenario}.{self.metric}: {self.old:.6g} -> "
                f"{self.new:.6g} ({pct:+.1f}%, {self.direction} is better)"
                if self.direction != "neutral"
                else f"{self.scenario}.{self.metric}: {self.old:.6g} -> "
                     f"{self.new:.6g} ({pct:+.1f}%)")


@dataclass
class Comparison:
    """Full diff of two result sets."""

    deltas: List[MetricDelta]
    only_old: List[str]
    only_new: List[str]
    threshold: float
    #: Scenario pairs whose seed/params/smoke flag differ — values from
    #: different experiments are not compared, only reported here.
    mismatched: List[str] = field(default_factory=list)
    #: Metric-level drift within paired scenarios, e.g.
    #: ``"compute: -checkpoint_wasted_work"`` (a gated metric vanishing
    #: from the candidate must not pass invisibly).
    metric_drift: List[str] = field(default_factory=list)

    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions()


def _metric_direction(scenario: str, metric: str) -> str:
    """Direction from the live registry; neutral for unknown metrics, so
    old result files stay comparable after a scenario reshapes."""
    if scenario in registry:
        schema: Dict[str, Metric] = registry.get(scenario).metric_schema()
        if metric in schema:
            return schema[metric].direction
    return "neutral"


def compare_results(old: Dict[str, BenchResult], new: Dict[str, BenchResult],
                    threshold: float = DEFAULT_THRESHOLD,
                    scenario: Optional[str] = None) -> Comparison:
    """Diff two result sets keyed by scenario name."""
    if scenario is not None:
        old = {k: v for k, v in old.items() if k == scenario}
        new = {k: v for k, v in new.items() if k == scenario}
    deltas: List[MetricDelta] = []
    mismatched: List[str] = []
    metric_drift: List[str] = []
    for name in sorted(set(old) & set(new)):
        before, after = old[name], new[name]
        if (before.smoke != after.smoke or before.seed != after.seed
                or before.params != after.params):
            # A smoke run vs a full run (or different seeds/params) is a
            # different experiment — gating on it would manufacture
            # regressions, so the pair is reported, not compared.
            mismatched.append(name)
            continue
        for gone in sorted(set(before.metrics) - set(after.metrics)):
            metric_drift.append(f"{name}: -{gone}")
        for fresh in sorted(set(after.metrics) - set(before.metrics)):
            metric_drift.append(f"{name}: +{fresh}")
        for metric in sorted(set(before.metrics) & set(after.metrics)):
            ov, nv = before.metrics[metric], after.metrics[metric]
            diff = nv - ov
            rel = diff / abs(ov) if abs(ov) > 0 else (0.0 if diff == 0 else float("inf"))
            direction = _metric_direction(name, metric)
            if direction == "neutral":
                status = "neutral"
            elif abs(diff) <= ABS_NOISE_FLOOR:
                status = "ok"
            else:
                worse = rel > threshold if direction == "lower" else rel < -threshold
                better = rel < -threshold if direction == "lower" else rel > threshold
                status = ("regression" if worse
                          else "improvement" if better else "ok")
            deltas.append(MetricDelta(
                scenario=name, metric=metric, direction=direction,
                old=ov, new=nv, rel_change=rel, status=status))
    return Comparison(
        deltas=deltas,
        only_old=sorted(set(old) - set(new)),
        only_new=sorted(set(new) - set(old)),
        threshold=threshold,
        mismatched=mismatched,
        metric_drift=metric_drift,
    )
