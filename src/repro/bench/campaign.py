"""Process-parallel experiment campaigns: scenario × params × seeds.

A **campaign** turns one scenario into a distribution: a declarative
spec (TOML or JSON, the same loading discipline as :mod:`repro.obs.slo`)
names a registered scenario, a seed list, and a parameter grid; the
runner executes exactly one repetition per (param point, seed) — fanned
across ``multiprocessing`` *spawn* workers — and aggregates each metric
across seeds into mean / sample stddev / Student-t confidence interval
(the math lives in :mod:`repro.metrics.stats`).

The spec::

    [campaign]
    name = "lookup_sweep"
    scenario = "scale_lookup"
    seeds = [101, 202, 303]
    confidence = 0.95        # optional (default 0.95)

    [campaign.params]        # list => swept axis, scalar => fixed override
    lookups = [150, 300]

Every repetition runs through the single :func:`repro.bench.runner.run_scenario`
seam — the same entry point the CLI ``run`` subcommand uses — so a
campaign repetition at seed *s* is **identical** to ``python -m
repro.bench run <scenario> --seed s`` in one process, and the aggregate
does not depend on how many workers computed it
(``tests/test_campaign_determinism.py`` pins both across spawned
workers).  The aggregate envelope
(:data:`CAMPAIGN_SCHEMA`) embeds the full per-repetition
:class:`~repro.bench.result.BenchResult` dicts, and is written to
``benchmarks/out/campaign_<name>.json`` (``.smoke.json`` for smoke
runs); ``tools/diff_envelopes.py`` diffs two of them exactly.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import tomllib
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.result import Envelope, validate_result_dict
from repro.bench.runner import run_scenario
from repro.bench.scenario import registry
from repro.metrics.stats import SampleSummary, summarize_samples

#: Aggregate envelope schema identifier; bump on breaking field changes.
CAMPAIGN_SCHEMA = "repro.bench/campaign-3"

#: Fields every campaign envelope must carry.
CAMPAIGN_REQUIRED_FIELDS = (
    "schema", "campaign", "scenario", "group", "seeds", "smoke", "confidence",
    "metrics_aggregated", "points",
)


# ------------------------------------------------------------------ the spec
@dataclass(frozen=True)
class CampaignSpec:
    """A parsed, validated campaign declaration."""

    name: str
    scenario: str
    seeds: Tuple[int, ...]
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()  # sorted by axis name
    fixed: Mapping[str, Any] = field(default_factory=dict)
    confidence: float = 0.95
    source: str = "<dict>"

    def points(self) -> List[Dict[str, Any]]:
        """Every param point of the grid, in deterministic (sorted-axis,
        row-major) order; each is an overrides dict for ``run_scenario``."""
        if not self.axes:
            return [dict(self.fixed)]
        names = [a for a, _ in self.axes]
        out = []
        for combo in itertools.product(*(vals for _, vals in self.axes)):
            point = dict(self.fixed)
            point.update(zip(names, combo))
            out.append(point)
        return out

    def __len__(self) -> int:
        """Total repetitions: |grid| × |seeds|."""
        return len(self.points()) * len(self.seeds)


# ---------------------------------------------------------------- spec loading
def load_campaign(path: str) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        data = json.loads(text)
    else:
        data = tomllib.loads(text)
    return parse_campaign(data, source=path)


def parse_campaign(data: Mapping[str, Any],
                   source: str = "<dict>") -> CampaignSpec:
    """Build a :class:`CampaignSpec` from a parsed ``{"campaign": …}``
    mapping; every malformation raises ``ValueError`` naming *source*."""
    raw = data.get("campaign")
    if not isinstance(raw, Mapping) or not raw:
        raise ValueError(f"{source}: spec needs a non-empty [campaign] table")
    known = {"name", "scenario", "seeds", "confidence", "params"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(
            f"{source}: unknown [campaign] keys {unknown} "
            f"(known: {sorted(known)})")
    name = raw.get("name")
    if not isinstance(name, str) or not name or not all(
            c.isalnum() or c in "_-" for c in name):
        raise ValueError(
            f"{source}: campaign name must be a [A-Za-z0-9_-]+ string, "
            f"got {name!r}")
    scenario = raw.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise ValueError(f"{source}: campaign needs a scenario name")
    seeds = raw.get("seeds")
    if (not isinstance(seeds, Sequence) or isinstance(seeds, (str, bytes))
            or not seeds
            or not all(isinstance(s, int) and not isinstance(s, bool)
                       for s in seeds)):
        raise ValueError(
            f"{source}: seeds must be a non-empty list of ints, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"{source}: seeds must be distinct, got {list(seeds)}")
    confidence = raw.get("confidence", 0.95)
    if (not isinstance(confidence, (int, float)) or isinstance(confidence, bool)
            or not 0.0 < confidence < 1.0):
        raise ValueError(
            f"{source}: confidence must be in (0, 1), got {confidence!r}")
    params = raw.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(f"{source}: [campaign.params] must be a table")
    axes: List[Tuple[str, Tuple[Any, ...]]] = []
    fixed: Dict[str, Any] = {}
    for key in sorted(params):
        value = params[key]
        if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
            if not value:
                raise ValueError(
                    f"{source}: [campaign.params] {key} sweeps no values")
            axes.append((key, tuple(value)))
        else:
            fixed[key] = value
    return CampaignSpec(
        name=name, scenario=scenario, seeds=tuple(seeds), axes=tuple(axes),
        fixed=fixed, confidence=float(confidence), source=source)


# ----------------------------------------------------------------- execution
def _run_repetition(payload: Tuple[str, int, bool, Dict[str, Any]],
                    ) -> Dict[str, Any]:
    """One (scenario, seed, smoke, overrides) repetition → BenchResult dict.

    Module-top-level so ``multiprocessing`` *spawn* workers can import it
    by reference; the scenario registry is (re-)populated inside, because
    a spawned child starts from a fresh interpreter.
    """
    name, seed, smoke, overrides = payload
    import repro.bench.scenarios  # noqa: F401  (populates the registry)

    result = run_scenario(name, seed=seed, smoke=smoke,
                          overrides=overrides or None)
    return result.to_dict()


@dataclass
class CampaignResult(Envelope):
    """One campaign execution: per-point aggregates + embedded repetitions."""

    file_prefix: ClassVar[str] = "campaign"
    name_field: ClassVar[str] = "campaign"

    campaign: str
    scenario: str
    group: str
    seeds: List[int]
    smoke: bool
    confidence: float
    metrics_aggregated: int
    points: List[Dict[str, Any]]
    schema: str = CAMPAIGN_SCHEMA

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "campaign": self.campaign,
            "scenario": self.scenario,
            "group": self.group,
            "seeds": list(self.seeds),
            "smoke": self.smoke,
            "confidence": self.confidence,
            "metrics_aggregated": self.metrics_aggregated,
            "points": self.points,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignResult":
        validate_campaign_dict(data)
        kwargs = {k: data[k] for k in CAMPAIGN_REQUIRED_FIELDS}
        return cls(**kwargs)

    # -------------------------------------------------------------- queries
    def failed_checks(self) -> List[Dict[str, Any]]:
        """Aggregated checks that failed in at least one repetition."""
        return [c for point in self.points for c in point["checks"]
                if not c.get("passed")]

    def point_summaries(self, index: int) -> Dict[str, SampleSummary]:
        return {name: SampleSummary.from_dict(entry)
                for name, entry in self.points[index]["metrics"].items()}


def validate_campaign_dict(data: Mapping[str, Any]) -> None:
    """Schema-validate a campaign envelope; ``ValueError`` on violation."""
    missing = [k for k in CAMPAIGN_REQUIRED_FIELDS if k not in data]
    if missing:
        raise ValueError(f"campaign envelope missing fields: {missing}")
    if data["schema"] != CAMPAIGN_SCHEMA:
        raise ValueError(
            f"unsupported campaign schema {data['schema']!r} "
            f"(expected {CAMPAIGN_SCHEMA!r})")
    if not isinstance(data["seeds"], list) or not data["seeds"]:
        raise ValueError("campaign seeds must be a non-empty list")
    if not isinstance(data["points"], list) or not data["points"]:
        raise ValueError("campaign points must be a non-empty list")
    for i, point in enumerate(data["points"]):
        if not isinstance(point, Mapping):
            raise ValueError(f"point {i} is not an object")
        for key in ("params", "metrics", "checks", "repetitions"):
            if key not in point:
                raise ValueError(f"point {i} missing {key!r}")
        if not isinstance(point["metrics"], Mapping) or not point["metrics"]:
            raise ValueError(f"point {i} metrics must be a non-empty object")
        for name, entry in point["metrics"].items():
            if not isinstance(entry, Mapping):
                raise ValueError(f"point {i} metric {name!r} is not an object")
            needed = {"n", "mean", "std", "ci_lo", "ci_hi"}
            if not needed <= set(entry):
                raise ValueError(
                    f"point {i} metric {name!r} missing "
                    f"{sorted(needed - set(entry))}")
        reps = point["repetitions"]
        if not isinstance(reps, list) or len(reps) != len(data["seeds"]):
            raise ValueError(
                f"point {i} must embed exactly one repetition per seed "
                f"({len(data['seeds'])}), got "
                f"{len(reps) if isinstance(reps, list) else type(reps)}")
        for rep in reps:
            validate_result_dict(rep)


def _aggregate_point(reps: List[Dict[str, Any]], seeds: Sequence[int],
                     spec: CampaignSpec) -> Dict[str, Any]:
    """Fold one param point's per-seed repetitions into the aggregate."""
    metric_names = set(reps[0]["metrics"])
    for rep in reps[1:]:
        if set(rep["metrics"]) != metric_names:
            raise ValueError(
                f"campaign {spec.name!r}: repetitions disagree on metric "
                f"names — {sorted(metric_names ^ set(rep['metrics']))}")
    metrics = {}
    for name in sorted(metric_names):
        samples = [rep["metrics"][name] for rep in reps]
        metrics[name] = summarize_samples(
            samples, confidence=spec.confidence).to_dict()
    checks = []
    for j, check in enumerate(reps[0]["checks"]):
        failed_seeds = [seed for seed, rep in zip(seeds, reps)
                        if not rep["checks"][j].get("passed")]
        checks.append({"name": check["name"],
                       "passed": not failed_seeds,
                       "failed_seeds": failed_seeds})
    return {
        "params": dict(reps[0]["params"]),
        "metrics": metrics,
        "checks": checks,
        "repetitions": reps,
    }


def run_campaign(spec: CampaignSpec, *, smoke: bool = False,
                 workers: int = 1,
                 progress: Optional[Any] = None) -> CampaignResult:
    """Execute *spec*: one repetition per (param point, seed).

    ``workers <= 1`` runs serially in-process; ``workers > 1`` fans the
    repetitions across a *spawn* ``multiprocessing`` pool (spawn, not
    fork, so every worker owns a fresh interpreter with no inherited RNG
    or import-order state — the property the determinism test pins).
    Either way each repetition goes through the same
    :func:`_run_repetition` seam and results are assembled in submission
    order, so the envelope is independent of worker scheduling.

    *progress* is an optional callable ``(done, total, rep_dict)`` for
    CLI feedback.
    """
    scenario = registry.get(spec.scenario)  # fail fast on unknown names
    points = spec.points()
    for point in points:  # validate the whole grid before burning time
        scenario.effective_params(smoke=smoke, overrides=point or None)
    payloads = [(spec.scenario, seed, smoke, point)
                for point in points for seed in spec.seeds]
    reps: List[Dict[str, Any]] = []
    if workers <= 1:
        for i, payload in enumerate(payloads):
            rep = _run_repetition(payload)
            reps.append(rep)
            if progress is not None:
                progress(i + 1, len(payloads), rep)
    else:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=min(workers, len(payloads))) as pool:
            for i, rep in enumerate(
                    pool.imap(_run_repetition, payloads, chunksize=1)):
                reps.append(rep)
                if progress is not None:
                    progress(i + 1, len(payloads), rep)
    n_seeds = len(spec.seeds)
    out_points = [
        _aggregate_point(reps[i * n_seeds:(i + 1) * n_seeds], spec.seeds, spec)
        for i in range(len(points))
    ]
    return CampaignResult(
        campaign=spec.name,
        scenario=spec.scenario,
        group=scenario.group,
        seeds=list(spec.seeds),
        smoke=smoke,
        confidence=spec.confidence,
        metrics_aggregated=sum(len(p["metrics"]) for p in out_points),
        points=out_points,
    )


def load_campaigns(path: str) -> Dict[str, CampaignResult]:
    """Load one campaign file or every ``campaign_*.json`` in a directory,
    keyed by campaign name."""
    return CampaignResult.load(path)
