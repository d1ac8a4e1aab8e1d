"""repro.bench — the unified benchmark harness and the golden.

Layer contract: this package *owns* how the repo measures its behaviour —
the declarative :class:`Scenario` registry, the ``python -m repro.bench``
CLI (``run | list | report``), and the versioned
:class:`BenchResult` JSON envelope, a pure function of (scenario, seed,
params, smoke) whose committed copies under ``benchmarks/out/`` are the
golden every PR is diffed against.  Wall-clock speed is not measured
here (``benchmarks/perf`` owns the stopwatch).  Its imports are
declared by ``[package.bench]`` in ``repro/lint/layers.toml`` and checked
by ``python -m repro.lint`` (RPR201).

Entry points:

* ``python -m repro.bench list`` — the catalogue (28 scenarios,
  including the ``scale_*`` 10k-node sweeps and the ``adv_*`` chaos
  suite).
* ``python -m repro.bench run --smoke`` — every scenario at reduced
  parameters; with ``--out benchmarks/out`` it re-records the smoke half
  of the golden.
* ``python tools/diff_envelopes.py benchmarks/out DIR`` — the one run
  comparer: an exact diff naming every metric and check that moved
  (a scenario's ``Check`` verdicts are the directional gates).
* ``python -m repro.bench report`` — the scenario catalogue
  ``docs/benchmarks.md`` embeds.

Another seed is one ``run NAME --seed S --out DIR`` away.

Scenario definitions live in :mod:`repro.bench.scenarios`; importing
that package (done by the CLI, or explicitly with ``import
repro.bench.scenarios``) populates :data:`registry`.
"""

from repro.bench.result import SCHEMA, BenchResult
from repro.bench.runner import run_scenario
from repro.bench.scenario import (
    Check,
    Metric,
    Scenario,
    ScenarioOutput,
    ScenarioRegistry,
    registry,
)

__all__ = [
    "BenchResult",
    "Check",
    "Metric",
    "SCHEMA",
    "Scenario",
    "ScenarioOutput",
    "ScenarioRegistry",
    "registry",
    "run_scenario",
]
