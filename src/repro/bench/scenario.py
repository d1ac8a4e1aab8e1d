"""Scenario model: the declarative unit the benchmark harness executes.

A :class:`Scenario` is what a ``benchmarks/bench_*.py`` file used to be,
made machine-readable: a name, a parameter grid (full and ``--smoke``
variants), a seed policy, a declared metrics schema
(:class:`Metric` with a *direction* — which way is better — that the
catalogue prints), and a runner returning a :class:`ScenarioOutput` — scalar
metrics plus pass/fail :class:`Check` verdicts (the invariants the old
bench files ``assert``-ed) plus the rendered ASCII figure/table.

The module-level :data:`registry` is the single :class:`ScenarioRegistry`
everything (CLI, pytest glue, tests) shares; scenario definitions live in
:mod:`repro.bench.scenarios` and register themselves on import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

#: Directions a metric may declare.
DIRECTIONS = ("higher", "lower", "neutral")

#: Scenario groups, in catalogue order.
GROUPS = ("figures", "ablations", "core", "baselines", "storage", "compute",
          "scale", "adversarial")


@dataclass(frozen=True)
class Metric:
    """One entry of a scenario's metrics schema.

    ``direction`` declares which way is *better*: ``"higher"`` (e.g.
    success rate), ``"lower"`` (e.g. wasted work), or ``"neutral"`` for
    informational values (e.g. tree height).  It is declared schema: the
    catalogue counts and prints it, and the scenario's :class:`Check`
    verdicts — not a tolerance on this field — are what gate a run.
    """

    name: str
    unit: str = ""
    direction: str = "neutral"
    description: str = ""

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"metric {self.name!r}: direction must be one of "
                f"{DIRECTIONS}, got {self.direction!r}")


@dataclass(frozen=True)
class Check:
    """One invariant verdict — a bench-file ``assert``, recorded not raised."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class ScenarioOutput:
    """What a scenario runner returns."""

    metrics: Dict[str, float]
    checks: List[Check] = field(default_factory=list)
    rendered: str = ""


#: Runner signature: ``runner(params, seed, smoke) -> ScenarioOutput``.
Runner = Callable[[Mapping[str, Any], int, bool], ScenarioOutput]


@dataclass(frozen=True)
class Scenario:
    """A registered benchmark scenario."""

    name: str
    group: str
    description: str
    runner: Runner
    params: Mapping[str, Any] = field(default_factory=dict)
    smoke_params: Mapping[str, Any] = field(default_factory=dict)
    metrics: Tuple[Metric, ...] = ()
    seed: int = 42

    def __post_init__(self) -> None:
        if self.group not in GROUPS:
            raise ValueError(
                f"scenario {self.name!r}: group must be one of {GROUPS}, "
                f"got {self.group!r}")
        unknown = set(self.smoke_params) - set(self.params)
        if unknown:
            raise ValueError(
                f"scenario {self.name!r}: smoke_params not in params: "
                f"{sorted(unknown)}")

    # ------------------------------------------------------------- helpers
    def metric_schema(self) -> Dict[str, Metric]:
        return {m.name: m for m in self.metrics}

    def effective_params(self, smoke: bool = False,
                         overrides: Optional[Mapping[str, Any]] = None,
                         ) -> Dict[str, Any]:
        """Full params, overlaid with smoke variants then CLI overrides."""
        out = dict(self.params)
        if smoke:
            out.update(self.smoke_params)
        for key, value in (overrides or {}).items():
            if key not in out:
                raise KeyError(
                    f"scenario {self.name!r} has no parameter {key!r} "
                    f"(known: {sorted(out)})")
            out[key] = self._coerce_param(key, out[key], value)
        return out

    def _coerce_param(self, name: str, default: Any, value: Any) -> Any:
        """Align an override's numeric type with the default's (the CLI
        parses ``--set lookups=1e2`` as a float, but ``range(lookups)``
        needs the int back) — rejecting lossy float→int up front."""
        if isinstance(default, bool) or isinstance(value, bool):
            return value
        if isinstance(default, int) and isinstance(value, float):
            if value.is_integer():
                return int(value)
            raise ValueError(
                f"scenario {self.name!r}: parameter {name!r} expects an "
                f"int, got {value!r}")
        if isinstance(default, float) and isinstance(value, int):
            return float(value)
        return value

    def execute(self, seed: Optional[int] = None, smoke: bool = False,
                overrides: Optional[Mapping[str, Any]] = None,
                ) -> ScenarioOutput:
        """Run the scenario and enforce its declared metrics schema."""
        params = self.effective_params(smoke=smoke, overrides=overrides)
        output = self.runner(params, self.seed if seed is None else seed, smoke)
        declared = set(self.metric_schema())
        produced = set(output.metrics)
        if produced != declared:
            missing, extra = declared - produced, produced - declared
            raise ValueError(
                f"scenario {self.name!r} violated its metrics schema: "
                f"missing={sorted(missing)} extra={sorted(extra)}")
        return output


class ScenarioRegistry:
    """Name → :class:`Scenario`, with a decorator-style ``register``.

    Every read loads the catalogue first (:mod:`repro.bench.scenarios`
    registers itself on import), so a lookup never depends on what some
    other code happened to import before it."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(self, scenario: Scenario) -> Scenario:
        if scenario.name in self._scenarios:
            raise ValueError(f"duplicate scenario name {scenario.name!r}")
        self._scenarios[scenario.name] = scenario
        return scenario

    def _catalogue(self) -> Dict[str, Scenario]:
        import repro.bench.scenarios  # noqa: F401  (registers on first import)

        return self._scenarios

    def get(self, name: str) -> Scenario:
        try:
            return self._catalogue()[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; known: {self.names()}") from None

    def names(self) -> List[str]:
        return sorted(self._catalogue())

    def all(self) -> List[Scenario]:
        """Catalogue order: by group, then name."""
        return sorted(self._catalogue().values(),
                      key=lambda s: (GROUPS.index(s.group), s.name))

    def by_group(self, group: str) -> List[Scenario]:
        if group not in GROUPS:
            raise KeyError(f"unknown group {group!r}; known: {list(GROUPS)}")
        return [s for s in self.all() if s.group == group]

    def __len__(self) -> int:
        return len(self._catalogue())


#: The process-wide registry (filled by importing repro.bench.scenarios,
#: which its first read does).
registry = ScenarioRegistry()
