"""repro.bench — the unified benchmark harness and the golden.

Layer contract: this package *owns* how the repo measures its behaviour —
the declarative :class:`Scenario` registry, the ``python -m repro.bench``
CLI (``run | list | report | campaign``), and the versioned
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
* ``python -m repro.bench report`` — the markdown ``docs/benchmarks.md``
  embeds.
* ``python -m repro.bench campaign SPEC --workers N`` — a
  scenario × params × seeds matrix fanned across spawn workers,
  aggregated to mean/std/confidence-interval per metric
  (:mod:`repro.bench.campaign`; ``campaign report`` renders the
  aggregate).

Scenario definitions live in :mod:`repro.bench.scenarios`; importing
that package (done by the CLI and by campaign workers, or explicitly
with ``import repro.bench.scenarios``) populates :data:`registry`.
"""

from repro.bench.result import SCHEMA, BenchResult, load_results
from repro.bench.campaign import (
    CAMPAIGN_SCHEMA,
    CampaignResult,
    CampaignSpec,
    load_campaign,
    load_campaigns,
    parse_campaign,
    run_campaign,
)
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
    "CAMPAIGN_SCHEMA",
    "CampaignResult",
    "CampaignSpec",
    "Check",
    "Metric",
    "SCHEMA",
    "Scenario",
    "ScenarioOutput",
    "ScenarioRegistry",
    "load_campaign",
    "load_campaigns",
    "load_results",
    "parse_campaign",
    "registry",
    "run_campaign",
    "run_scenario",
]
