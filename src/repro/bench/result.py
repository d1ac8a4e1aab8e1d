"""The ``BenchResult`` JSON envelope — the unit of the perf trajectory.

Every harness execution of a scenario (CLI ``run`` or the pytest-benchmark
glue) produces one :class:`BenchResult` and writes it to
``benchmarks/out/bench_<scenario>.json`` (``.smoke.json`` for ``--smoke``
runs, so the two parameterisations never clobber each other).  The envelope is deliberately
flat and versioned (:data:`SCHEMA`): successive PRs emit files that
``python -m repro.bench compare`` can diff, so "did this hot-path change
move the needle" has a machine-checkable answer instead of a bench log.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional

from repro.bench.scenario import Check, Scenario, ScenarioOutput

#: Envelope schema identifier; bump on breaking field changes.
SCHEMA = "repro.bench/1"

#: Fields every envelope must carry (validation + forward-compat contract).
REQUIRED_FIELDS = (
    "schema", "scenario", "group", "git_sha", "seed", "smoke", "params",
    "wall_time_s", "metrics", "checks", "unix_time",
)


def git_sha(cwd: Optional[str] = None) -> str:
    """Current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


class Envelope:
    """JSON persistence shared by both envelope kinds: subclasses provide
    ``to_dict``/``from_dict``, a ``smoke`` flag, and name their file as
    ``<file_prefix>_<getattr(self, name_field)>[.smoke].json``."""

    file_prefix: ClassVar[str]
    name_field: ClassVar[str]

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, out_dir: str) -> str:
        """Write this envelope under *out_dir*; return the path.

        Smoke runs get their own ``.smoke.json`` name so a CI smoke pass
        and a local full run never clobber each other's trajectory point
        in a shared out dir.
        """
        os.makedirs(out_dir, exist_ok=True)
        suffix = ".smoke.json" if self.smoke else ".json"
        name = getattr(self, self.name_field)
        path = os.path.join(out_dir, f"{self.file_prefix}_{name}{suffix}")
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def read(cls, path: str):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    @classmethod
    def load(cls, path: str) -> Dict[str, Any]:
        """Load one envelope file, or every ``<file_prefix>_*.json`` in a
        directory, keyed by name (a full-params point outranks its smoke
        twin)."""
        if not os.path.isdir(path):
            result = cls.read(path)
            return {getattr(result, cls.name_field): result}
        out: Dict[str, Any] = {}
        for name in sorted(os.listdir(path)):
            if name.startswith(cls.file_prefix + "_") and name.endswith(".json"):
                full = os.path.join(path, name)
                try:
                    result = cls.read(full)
                except (ValueError, KeyError, json.JSONDecodeError) as exc:
                    # Foreign/legacy json is tolerated, but loudly: a
                    # corrupt baseline must not look like a clean compare.
                    print(f"skipping invalid {full}: {exc}", file=sys.stderr)
                    continue
                key = getattr(result, cls.name_field)
                existing = out.get(key)
                if (existing is not None and result.smoke
                        and not existing.smoke):
                    continue
                out[key] = result
        if not out:
            raise ValueError(
                f"no valid {cls.file_prefix}_*.json results under {path!r}")
        return out


@dataclass
class BenchResult(Envelope):
    """One scenario execution, fully described."""

    file_prefix: ClassVar[str] = "bench"
    name_field: ClassVar[str] = "scenario"

    scenario: str
    group: str
    git_sha: str
    seed: int
    smoke: bool
    params: Dict[str, Any]
    wall_time_s: float
    metrics: Dict[str, float]
    checks: List[Dict[str, Any]] = field(default_factory=list)
    unix_time: float = 0.0
    schema: str = SCHEMA
    rendered: str = ""  # not serialised; kept for the caller
    #: Observability sidecar (``--trace-out`` runs only): trace-file path,
    #: span/event counts, per-category totals, metrics snapshot.  Optional —
    #: absent from untraced envelopes, so trajectories stay diffable.
    obs: Dict[str, Any] = field(default_factory=dict)
    #: SLO evaluation report (``--slo`` runs only): the serialised
    #: :class:`~repro.obs.slo.SloReport` — spec source, per-run rule
    #: results, pass/fail verdict.  Optional — absent without ``--slo``,
    #: so pre-1.7 envelopes stay byte-identical.
    slo: Dict[str, Any] = field(default_factory=dict)

    # --------------------------------------------------------- construction
    @classmethod
    def from_output(cls, scenario: Scenario, output: ScenarioOutput, *,
                    seed: int, smoke: bool, params: Mapping[str, Any],
                    wall_time_s: float, sha: Optional[str] = None,
                    ) -> "BenchResult":
        return cls(
            scenario=scenario.name,
            group=scenario.group,
            git_sha=git_sha() if sha is None else sha,
            seed=seed,
            smoke=smoke,
            params=dict(params),
            wall_time_s=round(wall_time_s, 6),
            metrics={k: float(v) for k, v in output.metrics.items()},
            # bool()/str() strip numpy scalar types that break json.dumps
            checks=[{"name": c.name, "passed": bool(c.passed),
                     "detail": str(c.detail)} for c in output.checks],
            unix_time=time.time(),
            rendered=output.rendered,
        )

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        out = {
            "schema": self.schema,
            "scenario": self.scenario,
            "group": self.group,
            "git_sha": self.git_sha,
            "seed": self.seed,
            "smoke": self.smoke,
            "params": self.params,
            "wall_time_s": self.wall_time_s,
            "metrics": self.metrics,
            "checks": self.checks,
            "unix_time": self.unix_time,
        }
        if self.obs:
            out["obs"] = self.obs
        if self.slo:
            out["slo"] = self.slo
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchResult":
        validate_result_dict(data)
        kwargs = {k: data[k] for k in REQUIRED_FIELDS}
        kwargs["obs"] = dict(data.get("obs", {}))
        kwargs["slo"] = dict(data.get("slo", {}))
        return cls(**kwargs)

    # -------------------------------------------------------------- queries
    def failed_checks(self) -> List[Dict[str, Any]]:
        return [c for c in self.checks if not c.get("passed")]

    def check_objects(self) -> List[Check]:
        return [Check(name=c["name"], passed=bool(c["passed"]),
                      detail=c.get("detail", "")) for c in self.checks]


def validate_result_dict(data: Mapping[str, Any]) -> None:
    """Schema-validate one envelope dict; raise ``ValueError`` on violation."""
    missing = [k for k in REQUIRED_FIELDS if k not in data]
    if missing:
        raise ValueError(f"BenchResult missing fields: {missing}")
    if data["schema"] != SCHEMA:
        raise ValueError(
            f"unsupported BenchResult schema {data['schema']!r} "
            f"(expected {SCHEMA!r})")
    if not isinstance(data["metrics"], dict) or not data["metrics"]:
        raise ValueError("BenchResult.metrics must be a non-empty object")
    for key, value in data["metrics"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"metric {key!r} is not numeric: {value!r}")
    if not isinstance(data["checks"], list):
        raise ValueError("BenchResult.checks must be a list")
    for check in data["checks"]:
        if not isinstance(check, dict) or "name" not in check or "passed" not in check:
            raise ValueError(f"malformed check entry: {check!r}")
    if not isinstance(data["params"], dict):
        raise ValueError("BenchResult.params must be an object")
    if "obs" in data and not isinstance(data["obs"], dict):
        raise ValueError("BenchResult.obs must be an object when present")
    if "slo" in data and not isinstance(data["slo"], dict):
        raise ValueError("BenchResult.slo must be an object when present")


def load_results(path: str) -> Dict[str, BenchResult]:
    """Load one result file or every ``bench_*.json`` in a directory."""
    return BenchResult.load(path)
