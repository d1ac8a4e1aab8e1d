"""SLO tier: spec parsing (TOML/JSON), exact evaluation of every rule
kind, the bench ``--slo`` gate, and that judging a run never writes into
its trace."""

import json

import numpy as np
import pytest

from repro.bench.cli import main as bench_cli
from repro.bench.result import BenchResult
from repro.bench.runner import run_scenario
from repro.obs import (STATUS_FAIL, STATUS_OK, STATUS_TIMEOUT, ObsHub,
                       SloSpec, TraceReader, evaluate_hub, evaluate_store,
                       load_slo, parse_slo, write_store)

SPEC_TOML = """
# latency + rates on one category, wildcard error budget
[slo.storage.put]
p99 = 0.5
max_failure_rate = 0.1
min_samples = 5

[slo."storage.get"]
p50 = 0.4
max_timeout_rate = 0.05

[slo."*"]
node_error_budget = 3
"""


def _rule_names(spec):
    return sorted(r.name for r in spec.rules)


# ------------------------------------------------------------------ parsing
def test_parse_toml_dotted_and_quoted_headers(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(SPEC_TOML)
    spec = load_slo(str(path))
    assert _rule_names(spec) == [
        "*.node_error_budget", "storage.get.p50", "storage.get.timeout_rate",
        "storage.put.failure_rate", "storage.put.p99"]
    put_p99 = next(r for r in spec.rules if r.name == "storage.put.p99")
    assert put_p99.quantile == 0.99 and put_p99.limit == 0.5
    assert put_p99.min_samples == 5


def test_parse_json_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(
        {"slo": {"lookup": {"p999": 1.0, "max_failure_rate": 0.2}}}))
    spec = load_slo(str(path))
    assert _rule_names(spec) == ["lookup.failure_rate", "lookup.p999"]


@pytest.mark.parametrize("data, fragment", [
    ({}, "non-empty"),
    ({"slo": {}}, "non-empty"),
    ({"slo": {"lookup": {"p98": 1.0}}}, "unknown objective"),
    ({"slo": {"lookup": {"p99": "fast"}}}, "must be numeric"),
    ({"slo": {"p99": 1.0}}, "directly under"),
    ({"slo": {"lookup": {"p99": 1.0, "min_samples": -1}}}, "min_samples"),
    # bool is an int subclass; objective values already refuse it
    ({"slo": {"lookup": {"p99": 1.0, "min_samples": True}}},
     r"\[slo\.lookup\] min_samples"),
])
def test_parse_rejects_malformed_specs(data, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_slo(data)


# --------------------------------------------------------------- evaluation
def _hub_with_mixed_spans():
    hub = ObsHub()
    for i in range(20):  # node 1: fast, ok
        hub.span("lookup", 1, float(i), float(i) + 0.1)
    for i in range(10):  # node 2: slow + failing
        hub.span("lookup", 2, float(i), float(i) + 2.0,
                 status=STATUS_FAIL if i < 4 else STATUS_OK)
    hub.span("lookup", 2, 50.0, 51.0, status=STATUS_TIMEOUT)
    return hub


def test_offline_evaluation_every_rule_kind():
    spec = parse_slo({"slo": {"lookup": {
        "p99": 0.5, "max_failure_rate": 0.1, "max_timeout_rate": 0.5,
        "node_error_budget": 2}}})
    results = {r.name: r for r in evaluate_hub(spec, _hub_with_mixed_spans())}
    assert not results["lookup.p99"].ok            # slow tail breaches 0.5
    assert results["lookup.p99"].observed > 0.5
    assert not results["lookup.failure_rate"].ok   # 4/31 > 0.1
    assert results["lookup.timeout_rate"].ok       # 1/31 < 0.5
    budget = results["lookup.node_error_budget"]
    assert not budget.ok and budget.observed == 5.0
    assert "worst node 2" in budget.detail


def test_min_samples_skips_instead_of_failing():
    hub = ObsHub()
    hub.span("lookup", 1, 0.0, 9.0)  # one hideous sample
    spec = parse_slo({"slo": {"lookup": {"p99": 0.1, "min_samples": 10}}})
    (res,) = evaluate_hub(spec, hub)
    assert res.ok and "skipped" in res.detail and res.samples == 1


def test_wildcard_expands_over_present_categories():
    hub = ObsHub()
    hub.span("a", 1, 0.0, 1.0, status=STATUS_FAIL)
    hub.span("b", 1, 0.0, 1.0)
    spec = parse_slo({"slo": {"*": {"max_failure_rate": 0.5}}})
    names = sorted(r.name for r in evaluate_hub(spec, hub))
    assert names == ["a.failure_rate", "b.failure_rate"]


def test_cluster_run_is_gated_by_evaluate_hub():
    from repro.cluster import Cluster

    c = Cluster(seed=321).build(24).with_observability().with_storage()
    for i in range(12):
        c.storage.put(f"k{i}", i)
    spec = parse_slo({"slo": {"storage.put": {"p99": 0.001}}})
    (res,) = evaluate_hub(spec, c.obs)
    assert not res.ok and res.samples == 12


def test_evaluate_store_roundtrip(tmp_path):
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": _hub_with_mixed_spans()})
    spec = parse_slo({"slo": {"lookup": {"max_failure_rate": 0.01}}})
    with TraceReader(path) as reader:
        report = evaluate_store(spec, reader)
    assert not report.passed
    (violation,) = report.violations()
    assert violation[0] == "run-000"
    assert violation[1].name == "lookup.failure_rate"
    d = report.to_dict()
    assert d["passed"] is False and len(d["violations"]) == 1
    assert d["violations"][0]["rule"] == "lookup.failure_rate"


# ------------------------------------------------------------ bench plumbing
def test_bench_result_slo_field_roundtrip_and_byte_identity(tmp_path):
    plain = run_scenario("storage", smoke=True)
    assert "slo" not in json.loads(plain.to_json())

    spec_path = tmp_path / "ok.toml"
    spec_path.write_text("[slo.storage.put]\np99 = 100.0\n")
    gated = run_scenario("storage", smoke=True, slo=str(spec_path))
    assert gated.slo["passed"] is True
    assert gated.slo["spec_file"] == str(spec_path)
    assert "obs" not in json.loads(gated.to_json())  # no trace written

    loaded = BenchResult.from_dict(json.loads(gated.to_json()))
    assert loaded.slo == gated.slo


def test_bench_cli_slo_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.toml"
    good.write_text("[slo.storage.put]\np99 = 100.0\n")
    assert bench_cli(["run", "storage", "--smoke", "--no-write", "--quiet",
                      "--slo", str(good)]) == 0

    bad = tmp_path / "bad.toml"
    bad.write_text("[slo.storage.put]\np99 = 0.0001\n")
    capsys.readouterr()
    assert bench_cli(["run", "storage", "--smoke", "--no-write", "--quiet",
                      "--slo", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "SLO VIOLATION" in out and "storage.put.p99" in out


def test_slo_gating_never_writes_into_the_trace(tmp_path):
    plain_dir, gated_dir = tmp_path / "plain", tmp_path / "gated"
    run_scenario("storage", smoke=True, trace_out=str(plain_dir))
    bad = tmp_path / "bad.toml"
    bad.write_text("[slo.storage.put]\np99 = 0.0001\n")
    gated = run_scenario("storage", smoke=True, trace_out=str(gated_dir),
                         slo=str(bad))
    assert gated.slo["passed"] is False
    assert {v["rule"] for v in gated.slo["violations"]} == {"storage.put.p99"}

    name = "trace_storage.smoke.npz"
    with TraceReader(str(plain_dir / name)) as plain, \
            TraceReader(str(gated_dir / name)) as judged:
        assert judged.runs == plain.runs
        assert judged.strings == plain.strings
        for run in plain.runs:
            assert judged.category_counts(run) == plain.category_counts(run)
            assert "slo.violation" not in judged.category_counts(run)
            for stream in ("spans", "events"):
                a = plain.stream(run, stream).columns
                b = judged.stream(run, stream).columns
                assert list(b) == list(a)
                for col in a:
                    np.testing.assert_array_equal(b[col], a[col])


def test_obs_cli_slo_subcommand(tmp_path, capsys):
    from repro.obs.cli import main as obs_cli

    run_scenario("storage", smoke=True, trace_out=str(tmp_path))
    trace = str(tmp_path / "trace_storage.smoke.npz")
    good = tmp_path / "good.toml"
    good.write_text("[slo.storage.put]\np99 = 100.0\n")
    assert obs_cli(["slo", trace, "--spec", str(good)]) == 0
    assert "all objectives met" in capsys.readouterr().out

    bad = tmp_path / "bad.toml"
    bad.write_text("[slo.storage.put]\np99 = 0.0001\n")
    assert obs_cli(["slo", trace, "--spec", str(bad)]) == 1
    assert "SLO VIOLATION" in capsys.readouterr().out


def test_committed_smoke_spec_passes_on_the_smoke_run():
    spec = load_slo("benchmarks/slo/smoke.toml")
    assert isinstance(spec, SloSpec) and len(spec) >= 5
    result = run_scenario("storage", smoke=True,
                          slo="benchmarks/slo/smoke.toml")
    assert result.slo["passed"] is True, result.slo["violations"]


def test_status_constants_still_cover_the_spec():
    # the rate rules key off these exact codes; a renumbering must not
    # silently invert ok/fail accounting
    assert (STATUS_OK, STATUS_FAIL, STATUS_TIMEOUT) == (1, 2, 3)
