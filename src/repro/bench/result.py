"""The ``BenchResult`` JSON envelope — the unit of the golden.

Every harness execution of a scenario produces one :class:`BenchResult`
and writes it to ``benchmarks/out/bench_<scenario>.json`` (``.smoke.json``
for ``--smoke`` runs, so the two parameterisations never clobber each
other).  The envelope is flat, versioned (:data:`SCHEMA`) and a pure
function of (scenario, seed, params, smoke): it carries no clock reading
and no commit stamp, so the committed files under ``benchmarks/out/`` are
the golden — a re-run at the same commit reproduces them byte for byte,
and a PR that moves a metric shows it as a JSON diff.  How fast the
simulator runs is measured by ``benchmarks/perf``, not here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from repro.bench.scenario import Scenario, ScenarioOutput

#: Envelope schema identifier; bump on breaking field changes.
SCHEMA = "repro.bench/2"

#: Fields every envelope carries (``to_dict``); ``obs`` is the one optional
#: field.
REQUIRED_FIELDS = (
    "schema", "scenario", "group", "seed", "smoke", "params", "metrics",
    "checks",
)


@dataclass
class BenchResult:
    """One scenario execution, fully described."""

    scenario: str
    group: str
    seed: int
    smoke: bool
    params: Dict[str, Any]
    metrics: Dict[str, float]
    checks: List[Dict[str, Any]] = field(default_factory=list)
    schema: str = SCHEMA
    rendered: str = ""  # not serialised; kept for the caller
    wall_time_s: float = 0.0  # not serialised; the CLI's progress line
    #: Observability sidecar (``--trace-out`` runs only): trace-file path,
    #: run count, span/event totals, per-category span counts.  Optional —
    #: absent from untraced envelopes, so the golden never carries it.
    obs: Dict[str, Any] = field(default_factory=dict)

    # --------------------------------------------------------- construction
    @classmethod
    def from_output(cls, scenario: Scenario, output: ScenarioOutput, *,
                    seed: int, smoke: bool, params: Mapping[str, Any],
                    wall_time_s: float) -> "BenchResult":
        return cls(
            scenario=scenario.name,
            group=scenario.group,
            seed=seed,
            smoke=smoke,
            params=dict(params),
            metrics={k: float(v) for k, v in output.metrics.items()},
            # bool()/str() strip numpy scalar types that break json.dumps
            checks=[{"name": c.name, "passed": bool(c.passed),
                     "detail": str(c.detail)} for c in output.checks],
            rendered=output.rendered,
            wall_time_s=wall_time_s,
        )

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        out = {name: getattr(self, name) for name in REQUIRED_FIELDS}
        if self.obs:
            out["obs"] = self.obs
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, out_dir: str) -> str:
        """Write this envelope under *out_dir*; return the path.

        Smoke runs get their own ``.smoke.json`` name so a smoke pass and
        a full run never clobber each other in a shared out dir.
        """
        os.makedirs(out_dir, exist_ok=True)
        suffix = ".smoke.json" if self.smoke else ".json"
        path = os.path.join(out_dir, f"bench_{self.scenario}{suffix}")
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path

    # -------------------------------------------------------------- queries
    def failed_checks(self) -> List[Dict[str, Any]]:
        return [c for c in self.checks if not c.get("passed")]

