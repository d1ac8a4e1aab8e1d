"""Self-test of the performance benchmark (tier-1, smoke sizes, < 10 s).

Runs every workload in-process at ``--smoke`` sizes and checks the
benchmark's own contracts: the registry and BENCHMARK.json agree, every
registered metric is emitted exactly once with its unit, exact metrics
repeat, inputs follow the seed, the profile fold names every package,
spans nest, and a failed oracle makes the command exit non-zero.
"""

from __future__ import annotations

import copy
import glob
import json
import os

import numpy as np
import pytest

import perf_registry as registry
import perf_report as report
import perf_round
import perf_workloads
import run

ROOT = run.ROOT
NAMES = [w.name for w in registry.WORKLOADS]


@pytest.fixture(scope="module")
def smoke():
    """Two untraced rounds + one traced round of every workload."""
    return run.run_workloads(NAMES, seed=42, smoke=True, rounds=2, in_process=True)


def test_registry_is_valid_and_matches_benchmark_json():
    registry.validate()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == registry.benchmark_json()
    assert [m.name for m in registry.END_TO_END] == [
        "setup_s", "ops_per_s", "peak_rss_mb",
        "sim_success_rate", "sim_mean_hops", "sim_msgs_per_op"]
    assert NAMES == ["lookup_steady", "lookup_observed", "churn_repair",
                     "storage_rw", "grid_jobs"]
    assert set(perf_workloads.DRIVERS) == set(NAMES)


def test_every_metric_emitted_once_with_its_unit(smoke):
    results, _ = smoke
    for name in NAMES:
        metrics = results[name]["metrics"]
        assert sorted(metrics) == sorted(registry.METRICS), name
        for metric_name, entry in metrics.items():
            assert entry["unit"] == registry.METRICS[metric_name].unit
            assert np.isfinite(entry["value"])
        text = report.render(results[name])
        for metric_name in registry.METRICS:
            assert sum(line.split()[0] == metric_name
                       for line in text.splitlines() if line.strip()) == 1
        for m in registry.END_TO_END:
            assert metrics[m.name]["value"] > 0, (name, m.name)


def test_checks_pass_and_exact_metrics_repeat(smoke):
    results, _ = smoke
    for name in NAMES:
        failed = [c for c in results[name]["checks"] if not c["ok"]]
        assert not failed, (name, failed)
        assert any(c["name"] == "exact.rounds_identical" for c in results[name]["checks"])
    # the obs-on/obs-off pair runs the same inputs and the hub changes nothing
    steady, observed = results["lookup_steady"], results["lookup_observed"]
    assert steady["input_sha256"] == observed["input_sha256"]
    for m in registry.END_TO_END:
        if m.exact:
            assert steady["metrics"][m.name]["value"] == observed["metrics"][m.name]["value"]
    assert observed["metrics"]["obs.hub.spans"]["value"] > 0
    assert observed["metrics"]["obs.hub.overhead_ratio"]["value"] > 0
    assert steady["metrics"]["core.routing_table.version_bumps"]["value"] == 0
    assert results["churn_repair"]["metrics"]["core.routing_table.version_bumps"]["value"] > 0


def test_a_second_run_at_the_same_seed_is_identical(smoke):
    results, _ = smoke
    again = perf_round.run_round("storage_rw", 42, smoke=True)
    first = results["storage_rw"]["metrics"]
    for name, value in {**again["exact"], **again["counts"]}.items():
        assert first[name]["value"] == value, name


def test_input_digest_follows_the_seed():
    for index, w in enumerate(registry.WORKLOADS):
        def digest(seed):
            rng = np.random.default_rng([seed, index])
            return perf_round.input_digest(
                perf_workloads.DRIVERS[w.name]().generate(rng, w.smoke))
        assert digest(42) == digest(42)
        assert digest(42) != digest(43)


def test_every_repro_package_maps_to_a_named_layer():
    files = glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"), recursive=True)
    assert len(files) > 80
    for path in files:
        assert registry.layer_of(path) in registry.TRACED_LAYERS, path
    assert registry.layer_of("/usr/lib/python3/heapq.py") == "runtime"
    assert registry.layer_of("~") == "runtime"
    assert registry.layer_of(perf_round.__file__) == "bench"
    assert registry.layer_of("/x/src/repro/newpkg/mod.py") is None


def test_spans_nest_and_self_time_is_not_negative(smoke):
    _, traced = smoke
    for name in NAMES:
        spans = traced[name]["spans"]
        names = {s["name"] for s in spans}
        assert {"setup", "warmup", "measure", "segment", "teardown"} <= names
        covered = [0.0] * len(spans)
        for s in spans:
            assert s["end"] >= s["start"]
            if s["parent"] >= 0:
                parent = spans[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s
                covered[s["parent"]] += s["end"] - s["start"]
            if s["name"] == "segment":
                assert spans[s["parent"]]["name"] == "measure"
        for s, child_time in zip(spans, covered):
            assert (s["end"] - s["start"]) - child_time >= -1e-9, s
        profile = traced[name]["profile"]
        assert "?" not in profile
        assert set(profile) <= set(registry.TRACED_LAYERS)
        assert profile["offline"]["self_s"] == 0 if "offline" in profile else True


def test_lww_register_flags_a_corrupted_read():
    class Res:
        def __init__(self, ok, value=None):
            self.ok = self.found = ok
            self.value, self.hops = value, 1

    reg = perf_workloads.LwwRegister()
    reg.put("k", 1, Res(True))
    reg.get("k", Res(True, 1))
    assert reg.stale_reads == 0
    reg.get("k", Res(True, "corrupted"))
    assert reg.stale_reads == 1
    reg.put("k", 2, Res(False))          # unacked: either value may be read
    reg.get("k", Res(True, 2))
    reg.get("k", Res(True, 1))
    assert reg.stale_reads == 1 and reg.put_failed == 1


def test_command_exits_nonzero_when_an_oracle_fails(monkeypatch, capsys):
    from repro.storage import ReplicatedStore

    real_get = ReplicatedStore.get
    calls = {"n": 0}

    def corrupted_get(self, key, via=None):
        result = real_get(self, key, via)
        calls["n"] += 1
        if calls["n"] == 50:
            result.value = "corrupted"
        return result

    monkeypatch.setattr(ReplicatedStore, "get", corrupted_get)
    monkeypatch.setattr(run, "spawn_round", perf_round.run_round)
    code = run.main(["--workload", "storage_rw", "--seed", "42", "--seconds", "4",
                     "--trace", "0", "--smoke"])
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0 and out["correct"] is False
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(out["metrics"]) == sorted(m.name for m in registry.END_TO_END)


def test_agree_applies_the_bounds(smoke):
    results, _ = smoke
    a = {"stamp": {}, "workloads": results}
    rows = report.agree(a, copy.deepcopy(a))
    assert rows and all(r["verdict"] == "ok" for r in rows
                        if r["metric"] not in ("setup_s", "ops_per_s", "peak_rss_mb"))
    b = copy.deepcopy(a)
    entry = b["workloads"]["grid_jobs"]["metrics"]["ops_per_s"]
    entry["value"] /= 2
    entry["samples"] = [v / 2 for v in entry["samples"]]
    entry["q1"], entry["q3"] = entry["q1"] / 2, entry["q3"] / 2
    b["workloads"]["grid_jobs"]["metrics"]["sim_mean_hops"]["value"] += 1
    verdict = {(r["workload"], r["metric"]): r["verdict"] for r in report.agree(a, b)}
    assert verdict[("grid_jobs", "ops_per_s")] in ("worse", "unresolved")
    assert verdict[("grid_jobs", "sim_mean_hops")] == "worse"
    assert verdict[("storage_rw", "sim_mean_hops")] == "ok"
