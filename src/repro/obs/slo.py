"""Declarative SLO rules over recorded spans — the alerting tier.

A spec is a set of per-category objectives loaded from TOML or JSON::

    [slo.lookup]
    p99 = 0.5                 # latency ceiling (virtual seconds)
    max_failure_rate = 0.05   # closed spans with STATUS_FAIL
    max_timeout_rate = 0.01   # closed spans with STATUS_TIMEOUT
    node_error_budget = 10    # fail+timeout spans charged to any one node
    min_samples = 20          # below this, every rule is "skipped", not ok/fail

The category ``"*"`` applies a rule to every span category present.
:func:`evaluate_hub` (an in-memory hub) and :func:`evaluate_store` (a
written trace store) judge a spec the one way there is: exact
percentiles and rates over the recorded span rows.  Judging adds no row
to the trace it judges (:func:`evaluate_hub` only finalizes the hub, as
writing the store does anyway).

This module is core-tier (stdlib + NumPy only; see the package layering
contract).
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.obs.hub import (STATUS_FAIL, STATUS_OPEN, STATUS_TIMEOUT, ObsHub)

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.store import TraceReader

__all__ = ["SloRule", "SloSpec", "RuleResult", "SloReport", "load_slo",
           "parse_slo", "evaluate_hub", "evaluate_store"]

#: Latency-rule spec keys and the quantile each gates.
LATENCY_QUANTILES = {"p50": 0.50, "p99": 0.99, "p999": 0.999}

_RATE_KINDS = {"max_failure_rate": "failure_rate",
               "max_timeout_rate": "timeout_rate"}


# --------------------------------------------------------------- spec model
@dataclass(frozen=True)
class SloRule:
    """One objective: a ceiling on one observable of one span category."""

    category: str      # span category, or "*" for every recorded category
    kind: str          # "latency" | "failure_rate" | "timeout_rate" | "node_error_budget"
    limit: float
    quantile: float = 0.0   # latency rules only
    min_samples: int = 1

    @property
    def metric(self) -> str:
        """The gated observable (``p99``, ``failure_rate``, …)."""
        if self.kind == "latency":
            for name, q in LATENCY_QUANTILES.items():
                if q == self.quantile:
                    return name
            return f"p{self.quantile:g}"  # pragma: no cover (parser-gated)
        return self.kind

    def name_for(self, category: str) -> str:
        """Rule id as reported in violations, e.g. ``lookup.p99``."""
        return f"{category}.{self.metric}"

    @property
    def name(self) -> str:
        return self.name_for(self.category)


@dataclass(frozen=True)
class SloSpec:
    """An ordered, immutable set of :class:`SloRule` objects."""

    rules: Tuple[SloRule, ...]
    source: str = "<dict>"

    def __len__(self) -> int:
        return len(self.rules)


# ------------------------------------------------------------------ loading
def load_slo(path: str) -> SloSpec:
    """Load an SLO spec from a ``.toml`` or ``.json`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        data = json.loads(text)
    else:
        data = tomllib.loads(text)
    return parse_slo(data, source=path)


def _flatten_categories(table: Mapping[str, Any], prefix: str,
                        out: Dict[str, Dict[str, Any]]) -> None:
    """Fold TOML's nested dotted tables back into dotted category names:
    ``[slo.storage.put]`` and ``[slo."storage.put"]`` mean the same spec."""
    scalars = {k: v for k, v in table.items() if not isinstance(v, Mapping)}
    if scalars:
        out.setdefault(prefix, {}).update(scalars)
    for key, value in table.items():
        if isinstance(value, Mapping):
            name = f"{prefix}.{key}" if prefix else key
            _flatten_categories(value, name, out)


def parse_slo(data: Mapping[str, Any], source: str = "<dict>") -> SloSpec:
    """Build an :class:`SloSpec` from the parsed ``{"slo": {...}}`` mapping."""
    raw = data.get("slo")
    if not isinstance(raw, Mapping) or not raw:
        raise ValueError(
            f"{source}: an SLO spec needs a non-empty [slo.<category>] table")
    table: Dict[str, Dict[str, Any]] = {}
    _flatten_categories(raw, "", table)
    if "" in table:
        keys = sorted(table[""])
        raise ValueError(
            f"{source}: objectives {keys} sit directly under [slo] — "
            "put them in a [slo.<category>] table")
    rules: List[SloRule] = []
    for category in sorted(table):
        body = table[category]
        min_samples = body.get("min_samples", 1)
        if (not isinstance(min_samples, int) or isinstance(min_samples, bool)
                or min_samples < 0):
            raise ValueError(
                f"{source}: [slo.{category}] min_samples must be an int >= 0, "
                f"got {min_samples!r}")
        for key in sorted(body):
            if key == "min_samples":
                continue
            value = body[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"{source}: [slo.{category}] {key} must be numeric, "
                    f"got {value!r}")
            limit = float(value)
            if key in LATENCY_QUANTILES:
                rules.append(SloRule(category, "latency", limit,
                                     quantile=LATENCY_QUANTILES[key],
                                     min_samples=min_samples))
            elif key in _RATE_KINDS:
                rules.append(SloRule(category, _RATE_KINDS[key], limit,
                                     min_samples=min_samples))
            elif key == "node_error_budget":
                rules.append(SloRule(category, "node_error_budget", limit,
                                     min_samples=min_samples))
            else:
                known = sorted([*LATENCY_QUANTILES, *_RATE_KINDS,
                                "node_error_budget", "min_samples"])
                raise ValueError(
                    f"{source}: [slo.{category}] unknown objective {key!r} "
                    f"(known: {', '.join(known)})")
    if not rules:
        raise ValueError(f"{source}: spec declares no objectives")
    return SloSpec(rules=tuple(rules), source=source)


# --------------------------------------------------------------- evaluation
@dataclass
class RuleResult:
    """One rule evaluated against one concrete category's spans."""

    rule: SloRule
    category: str      # concrete (wildcards expanded)
    observed: float
    ok: bool
    samples: int
    detail: str = ""

    @property
    def name(self) -> str:
        return self.rule.name_for(self.category)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.name,
            "kind": self.rule.kind,
            "category": self.category,
            "observed": float(self.observed),
            "limit": float(self.rule.limit),
            "samples": int(self.samples),
            "ok": bool(self.ok),
            "detail": self.detail,
        }


def _evaluate_columns(spec: SloSpec, strings: List[str],
                      cols: Mapping[str, np.ndarray]) -> List[RuleResult]:
    """Exact evaluation of *spec* over one run's span columns."""
    cat = cols["cat"]
    status = cols["status"]
    node = cols["node"]
    durations = cols["t1"] - cols["t0"]
    closed = status != STATUS_OPEN
    errors = (status == STATUS_FAIL) | (status == STATUS_TIMEOUT)
    present = sorted(strings[int(c)] for c in np.unique(cat))
    code_of = {s: i for i, s in enumerate(strings)}
    results: List[RuleResult] = []
    for rule in spec.rules:
        categories = present if rule.category == "*" else [rule.category]
        for category in categories:
            mask = closed & (cat == code_of.get(category, -1))
            n = int(np.count_nonzero(mask))
            if n < max(rule.min_samples, 1):
                results.append(RuleResult(
                    rule, category, observed=0.0, ok=True, samples=n,
                    detail=f"skipped: {n} sample(s) < min_samples"))
                continue
            detail = ""
            if rule.kind == "latency":
                observed = float(np.percentile(durations[mask],
                                               rule.quantile * 100.0))
            elif rule.kind == "failure_rate":
                observed = int(np.count_nonzero(mask & (status == STATUS_FAIL))) / n
            elif rule.kind == "timeout_rate":
                observed = int(np.count_nonzero(mask & (status == STATUS_TIMEOUT))) / n
            else:  # node_error_budget
                err_nodes = node[mask & errors]
                if len(err_nodes):
                    uniq, counts = np.unique(err_nodes, return_counts=True)
                    worst = int(np.argmax(counts))
                    observed = float(counts[worst])
                    detail = (f"worst node {int(uniq[worst])}: "
                              f"{int(counts[worst])} error(s)")
                else:
                    observed = 0.0
            results.append(RuleResult(rule, category, observed=float(observed),
                                      ok=float(observed) <= rule.limit,
                                      samples=n, detail=detail))
    return results


def evaluate_hub(spec: SloSpec, hub: ObsHub) -> List[RuleResult]:
    """Evaluate *spec* against a hub's recorded spans (finalizes the hub)."""
    hub.finalize()
    return _evaluate_columns(spec, hub.strings.strings,
                             hub.export_streams()["spans"])


def evaluate_store(spec: SloSpec, reader: "TraceReader",
                   run: Optional[str] = None) -> "SloReport":
    """Evaluate *spec* against a written trace store, one or every run."""
    runs = [run] if run is not None else reader.runs
    per_run = {r: _evaluate_columns(spec, reader.strings,
                                    reader.stream(r, "spans").columns)
               for r in runs}
    return SloReport(source=spec.source, runs=per_run)


@dataclass
class SloReport:
    """Per-run rule results + the violation roll-up the gates consume."""

    source: str
    runs: Dict[str, List[RuleResult]] = field(default_factory=dict)

    def violations(self) -> List[Tuple[str, RuleResult]]:
        return [(run, res) for run in sorted(self.runs)
                for res in self.runs[run] if not res.ok]

    @property
    def passed(self) -> bool:
        return not self.violations()

    def to_dict(self) -> Dict[str, Any]:
        """The compact envelope form (``BenchResult.slo``)."""
        return {
            "spec": self.source,
            "rules": max((len(r) for r in self.runs.values()), default=0),
            "runs": len(self.runs),
            "passed": self.passed,
            "violations": [dict(res.to_dict(), run=run)
                           for run, res in self.violations()],
        }
