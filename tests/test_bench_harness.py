"""Tier-1 coverage for the repro.bench harness.

Covers the acceptance surface: the registry lists all 19 legacy
scenarios plus the four ``scale_*`` sweeps, a smoke scenario round-trips
through the BenchResult JSON envelope, and ``tools/diff_envelopes.py``
names an injected move while passing identical runs.  CLI subcommands are
exercised through ``main`` so the exit-code contract CI relies on is pinned.
"""

import json
import os
import subprocess
import sys

import pytest

import repro.bench.scenarios  # noqa: F401  (populates the registry)
from repro.bench import (
    SCHEMA,
    BenchResult,
    Metric,
    Scenario,
    ScenarioOutput,
    registry,
    run_scenario,
)
from repro.bench.cli import main
from repro.bench.result import validate_result_dict

#: Every legacy bench_*.py as a registered scenario, plus the PR-5
#: ``scale`` group (10k-node sweeps — see docs/performance.md) and the
#: ``adversarial`` chaos group (partitions, rack failures, stragglers,
#: loss bursts — see docs/benchmarks.md).
EXPECTED_SCENARIOS = {
    "figure_a", "figure_b", "figure_c", "figure_d", "figure_e",
    "figure_f", "figure_g", "figure_h", "figure_i",
    "ablation_ids", "ablation_demotion", "ablation_fallback",
    "ablation_maintenance",
    "core", "table_sizes", "ngsa_cost", "baselines", "storage", "compute",
    "scale_lookup", "scale_churn", "scale_quorum_rw", "scale_jobs",
    "adv_partition_quorum", "adv_rack_failure_jobs", "adv_straggler_tail",
    "adv_loss_burst_lookup", "adv_heal_convergence",
}


# ------------------------------------------------------------------ registry

def test_registry_lists_all_legacy_scenarios():
    assert set(registry.names()) == EXPECTED_SCENARIOS
    assert len(registry) == 28


def test_every_scenario_declares_a_metrics_schema():
    for scenario in registry.all():
        assert scenario.metrics, f"{scenario.name} declares no metrics"
        assert scenario.description
        directional = [m for m in scenario.metrics if m.direction != "neutral"]
        assert directional, (
            f"{scenario.name} has no directional metric")


def test_every_scenario_has_reduced_smoke_params():
    for scenario in registry.all():
        assert scenario.smoke_params, f"{scenario.name} has no smoke variant"
        full = scenario.effective_params(smoke=False)
        smoke = scenario.effective_params(smoke=True)
        assert set(smoke) == set(full)
        assert smoke != full


def test_param_overrides_are_validated():
    scenario = registry.get("core")
    assert scenario.effective_params(overrides={"n": 64})["n"] == 64
    with pytest.raises(KeyError, match="no parameter"):
        scenario.effective_params(overrides={"bogus": 1})


def test_param_overrides_coerce_numeric_types():
    """`--set lookups=1e2` parses as float; the int param gets an int back,
    and a lossy float is rejected up front instead of crashing mid-run."""
    scenario = registry.get("core")
    coerced = scenario.effective_params(overrides={"lookups": 1e2})
    assert coerced["lookups"] == 100 and isinstance(coerced["lookups"], int)
    with pytest.raises(ValueError, match="expects an int"):
        scenario.effective_params(overrides={"lookups": 99.5})


def test_metrics_schema_is_enforced_at_execution():
    rogue = Scenario(
        name="rogue", group="core", description="declares a, emits b",
        runner=lambda params, seed, smoke: ScenarioOutput({"b": 1.0}),
        params={"n": 1}, metrics=(Metric("a", direction="lower"),))
    with pytest.raises(ValueError, match="violated its metrics schema"):
        rogue.execute()


def test_metric_rejects_unknown_direction():
    with pytest.raises(ValueError, match="direction"):
        Metric("m", direction="sideways")


# ------------------------------------------------- BenchResult round-trip

def test_smoke_scenario_roundtrips_through_benchresult_json(tmp_path):
    result = run_scenario("core", smoke=True, out_dir=str(tmp_path))
    path = tmp_path / "bench_core.smoke.json"  # smoke never clobbers full
    assert path.exists()

    raw = json.loads(path.read_text())
    validate_result_dict(raw)  # schema-valid envelope
    assert raw["schema"] == SCHEMA
    assert raw["scenario"] == "core"
    assert raw["smoke"] is True
    assert raw["params"]["n"] == 256
    # a pure function of (scenario, seed, params, smoke): no clock, no stamp
    assert set(raw) == {"schema", "scenario", "group", "seed", "smoke",
                        "params", "metrics", "checks"}
    assert result.wall_time_s > 0  # the CLI's progress line, not serialised

    loaded = BenchResult.read(str(path))
    assert loaded.to_dict() == result.to_dict()
    assert loaded.metrics == result.metrics
    assert all(c["passed"] for c in loaded.checks)


def test_validate_rejects_malformed_envelopes():
    result = run_scenario("core", smoke=True)
    good = result.to_dict()
    for mutate in (
        lambda d: d.pop("seed"),
        lambda d: d.update(schema="repro.bench/999"),
        lambda d: d.update(metrics={}),
        lambda d: d.update(metrics={"x": "fast"}),
        lambda d: d.update(checks=[{"nope": 1}]),
    ):
        bad = json.loads(json.dumps(good))
        mutate(bad)
        with pytest.raises(ValueError):
            validate_result_dict(bad)


def test_v1_envelope_is_refused_by_schema(tmp_path):
    """A pre-golden ``repro.bench/1`` file (it carried clock readings and
    a commit stamp) is rejected outright rather than half-read."""
    v1 = run_scenario("core", smoke=True).to_dict()
    v1["schema"] = "repro.bench/1"
    with pytest.raises(ValueError, match="unsupported BenchResult schema "
                                         "'repro.bench/1'"):
        validate_result_dict(v1)
    path = tmp_path / "bench_core.json"
    path.write_text(json.dumps(v1))
    with pytest.raises(ValueError, match="unsupported BenchResult schema "
                                         "'repro.bench/1'"):
        BenchResult.read(str(path))


# ---------------------------------------------------------------------- CLI

def test_cli_list_shows_every_scenario(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_SCENARIOS:
        assert name in out


def test_cli_run_writes_envelope_and_exits_zero(tmp_path, capsys):
    rc = main(["run", "core", "--smoke", "--quiet",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "bench_core.smoke.json").exists()
    assert "[core] ok" in capsys.readouterr().out


def _diff_envelopes(*paths):
    """Run ``tools/diff_envelopes.py OLD NEW`` as CI does: stdlib-only, so
    without ``PYTHONPATH``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, os.path.join(root, "tools", "diff_envelopes.py"),
         *map(str, paths)], capture_output=True, text=True, env=env)


def test_cli_run_seed_is_the_multi_seed_path(tmp_path):
    """Another seed is ``run NAME --seed S``: two such runs write the same
    envelope, stamped with that seed, carrying the in-process metrics."""
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["run", "core", "--smoke", "--seed", "43", "--quiet",
                     "--out", str(d)]) == 0
    envelopes = [json.loads((d / "bench_core.smoke.json").read_text())
                 for d in dirs]
    assert [e["seed"] for e in envelopes] == [43, 43]
    proc = _diff_envelopes(*dirs)
    assert proc.returncode == 0, proc.stdout
    assert envelopes[0]["metrics"] == run_scenario(
        "core", smoke=True, seed=43).metrics


@pytest.mark.parametrize("command", ["compare", "campaign"])
def test_cli_compare_exit_codes(capsys, command):
    """There is no ``compare`` subcommand: envelopes are pure functions of
    their inputs, so two runs are diffed exactly by
    ``tools/diff_envelopes.py`` — and another seed is ``run --seed``.  A
    removed spelling is an argparse error, never a silent pass."""
    with pytest.raises(SystemExit) as exc:
        main([command, "old", "new"])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_cli_report_renders_catalogue(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    assert "| scenario |" in out
    for name in EXPECTED_SCENARIOS:
        assert f"`{name}`" in out


def test_cli_run_rejects_inapplicable_overrides():
    """--set across all scenarios must fail fast, not traceback mid-run."""
    with pytest.raises(SystemExit, match="does not apply"):
        main(["run", "--set", "n=512", "--no-write", "--quiet"])


def test_docs_catalogue_matches_generated_table():
    """docs/benchmarks.md embeds the generated catalogue verbatim; this
    pins it against drift when scenarios change."""
    from repro.bench.report import scenario_table
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(repo, "docs", "benchmarks.md")) as fh:
        doc = fh.read()
    assert scenario_table() in doc, (
        "docs/benchmarks.md catalogue is stale — regenerate with "
        "`python -m repro.bench report` and paste it in")


@pytest.mark.parametrize("name, builds", [("table_sizes", 2), ("ngsa_cost", 1)])
def test_scenario_measures_each_network_once(monkeypatch, name, builds):
    """A scenario renders from what it computed: one network per result,
    not a second build-and-measure pass for the printed table."""
    from repro.core.treep import TreePNetwork

    built = []
    build = TreePNetwork.build
    monkeypatch.setattr(
        TreePNetwork, "build",
        lambda self, *a, **kw: built.append(self) or build(self, *a, **kw))
    result = run_scenario(name, smoke=True)
    assert len(built) == builds
    assert result.rendered


def test_diff_envelopes_tool_names_the_moved_metric(tmp_path):
    """CI's golden and hash-seed gates: two runs of the same tree exit 0, a
    moved metric or check detail is printed ``old -> new`` and exits 1."""
    old, new = tmp_path / "old", tmp_path / "new"
    run_scenario("core", smoke=True, out_dir=str(old))
    result = run_scenario("core", smoke=True, out_dir=str(new))

    proc = _diff_envelopes(old, new)
    assert proc.returncode == 0
    assert "1/1 envelopes identical" in proc.stdout
    was = result.metrics["lookup_success_rate"]
    result.metrics["lookup_success_rate"] = was - 0.5
    check = result.checks[0]
    detail = check["detail"]
    check["detail"] = detail + " (moved)"
    result.write(str(new))
    proc = _diff_envelopes(old, new)
    assert proc.returncode == 1
    assert f"metrics.lookup_success_rate: {was} -> {was - 0.5}" in proc.stdout
    assert (f"checks.{check['name']}: ok ({detail}) -> "
            f"ok ({detail} (moved))") in proc.stdout
    assert "0/1 envelopes identical" in proc.stdout


def test_diff_envelopes_tool_takes_two_files_or_exits_with_usage(tmp_path):
    """Two envelope files diff as one pair, whatever their names; any other
    argument shape exits 2 with the usage line."""
    old, new = tmp_path / "old", tmp_path / "new"
    result = run_scenario("core", smoke=True, out_dir=str(old))
    result.write(str(new))
    name = "bench_core.smoke.json"
    proc = _diff_envelopes(old / name, new / name)
    assert proc.returncode == 0 and "1/1 envelopes identical" in proc.stdout
    was = result.metrics["lookup_success_rate"]
    result.metrics["lookup_success_rate"] = was - 0.5
    result.write(str(new))
    moved = tmp_path / "moved.json"
    (new / name).rename(moved)
    proc = _diff_envelopes(old / name, moved)
    assert proc.returncode == 1
    assert f"metrics.lookup_success_rate: {was} -> {was - 0.5}" in proc.stdout
    for args in ((old, moved), (moved, old), (old / name, tmp_path / "absent"),
                 (old,), (old, new, new)):
        proc = _diff_envelopes(*args)
        assert proc.returncode == 2 and proc.stderr.startswith("usage:"), args
