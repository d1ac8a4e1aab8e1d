"""End-to-end observability tests: RNG-neutral tracing (traced and
untraced runs bit-identical at a fixed seed), the quorum-RW store
round-trip with exact count agreement, the bench runner's --trace-out
path, and the query CLI."""

import json

import pytest

from repro.bench.runner import run_scenario
from repro.cluster import Cluster
from repro.compute.job import JobSpec
from repro.obs import TraceReader, capture
from repro.obs.cli import main as obs_cli


def _workload(with_obs: bool):
    """A deterministic mixed workload; returns its observable outcomes."""
    c = Cluster(seed=1234).build(48)
    if with_obs:
        c.with_observability()
    c = c.with_storage(anti_entropy=30.0).with_compute()
    outcomes = {}
    res = [c.net.lookup_sync(origin=c.net.ids[i], target=c.net.ids[-1 - i])
           for i in range(5)]
    outcomes["lookups"] = [(r.found, r.hops, r.path) for r in res]
    st = c.storage
    outcomes["puts"] = [(st.put(f"k{i}", {"v": i}).ok) for i in range(8)]
    outcomes["gets"] = [(st.get(f"k{i}").ok, st.get(f"k{i}").version)
                        for i in range(8)]
    c.anti_entropy.converge()
    grid = c.compute
    for i in range(3):
        grid.submit(JobSpec(job_id=i + 1, cpu_demand=1.0, work=4.0))
    grid.run_until_done(timeout=200.0)
    stats = grid.stats()
    outcomes["jobs"] = sorted(
        (jid, r.ok, r.attempts) for jid, r in grid.results.items())
    outcomes["sched"] = (stats.completed, stats.failed, stats.reexecutions,
                        stats.placements, stats.placement_hops,
                        stats.failovers, stats.makespan)
    outcomes["now"] = c.net.sim.now
    outcomes["events"] = c.net.sim.events_processed
    return c, outcomes


def test_traced_run_bit_identical_to_untraced():
    """Instrumentation draws no RNG and schedules no events, so enabling
    the full observability stack must not perturb a seeded run at all."""
    _, base = _workload(with_obs=False)
    traced_cluster, traced = _workload(with_obs=True)
    assert traced == base
    # ... and the hub actually recorded the workload.
    counts = traced_cluster.obs.category_counts()
    assert counts["lookup"] == 5
    assert counts["storage.put"] >= 8
    assert counts["job"] == 3


def test_ambient_capture_is_rng_neutral():
    """The --trace-out path (ambient capture + engine hook) is equally
    invisible to the simulation."""
    _, base = _workload(with_obs=False)
    with capture() as cap:
        _, ambient = _workload(with_obs=False)
    assert ambient == base
    assert len(cap.hubs) == 1
    assert cap.span_count() > 0  # the ambient hub records the full workload
    assert cap.category_counts()["lookup"] == 5
    assert sum(cap.hubs[0].sim_event_counts.values()) == base["events"]


def test_quorum_rw_roundtrip_counts_match_exactly(tmp_path):
    """A full quorum-RW run must round-trip through the columnar store with
    per-category counts matching the in-memory totals exactly."""
    c = (Cluster(seed=77).build(32).with_observability()
         .with_storage(anti_entropy=25.0))
    st = c.storage
    for i in range(20):
        assert st.put(f"key-{i}", {"payload": i}).ok
    for i in range(20):
        assert st.get(f"key-{i}").ok
    c.anti_entropy.converge()
    hub = c.obs
    path = str(tmp_path / "quorum.npz")
    c.observability.write(path)
    with TraceReader(path) as reader:
        assert reader.category_counts() == hub.category_counts()
        spans = reader.stream("run-000", "spans")
        assert spans.filter(category="storage.put").categories() == {
            "storage.put": 20}
        assert spans.filter(category="storage.get").categories() == {
            "storage.get": 20}
        # Every recorded span closed with a real duration.
        assert (spans.column("t1") >= spans.column("t0")).all()
        meta = reader.run_meta("run-000")
        assert meta["counts"]["storage.put"] == 20
        assert meta["streams"]["spans"] == len(spans) == hub.spans.rows


def test_observability_detach_restores_silence():
    c = Cluster(seed=5).build(16).with_observability()
    hub = c.obs
    c.net.lookup_sync(origin=c.net.ids[0], target=c.net.ids[5])
    recorded = hub.category_counts().get("lookup", 0)
    assert recorded == 1
    c.state.detach(c.observability)
    assert c.net.obs is None
    c.net.lookup_sync(origin=c.net.ids[1], target=c.net.ids[6])
    assert hub.category_counts().get("lookup", 0) == recorded  # unchanged


def test_bench_trace_out_smoke(tmp_path):
    out = str(tmp_path)
    result = run_scenario("storage", smoke=True, out_dir=out, trace_out=out)
    assert result.obs["runs"] >= 1
    assert result.obs["spans"] > 0
    trace_file = result.obs["trace_file"]
    with TraceReader(trace_file) as reader:
        assert reader.category_counts() == result.obs["categories"]
    # The envelope round-trips with the optional obs field...
    with open(f"{out}/bench_storage.smoke.json") as fh:
        loaded = json.load(fh)
    assert loaded["obs"]["trace_file"] == trace_file
    # ... and untraced envelopes omit it.
    untraced = run_scenario("storage", smoke=True)
    assert "obs" not in json.loads(untraced.to_json())
    # Traced and untraced scenario metrics are bit-identical.
    assert untraced.metrics == result.metrics


def test_obs_cli_summary_and_export(tmp_path, capsys):
    c = Cluster(seed=9).build(24).with_observability().with_storage()
    c.storage.put("k", 1)
    c.storage.get("k")
    path = str(tmp_path / "cli.npz")
    c.observability.write(path)
    assert obs_cli(["summary", path]) == 0
    out = capsys.readouterr().out
    assert "storage.put" in out and "storage.get" in out
    assert obs_cli(["slowest", path, "--limit", "2"]) == 0
    assert obs_cli(["timeline", path, "--limit", "5"]) == 0
    export = str(tmp_path / "rows.jsonl")
    assert obs_cli(["export", path, "--stream", "spans", "-o", export]) == 0
    capsys.readouterr()
    with open(export) as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 2
    assert {r["category"] for r in rows} == {"storage.put", "storage.get"}
    with pytest.raises(SystemExit):
        obs_cli(["summary", path, "--bogus"])


def test_per_hop_latency_from_store(tmp_path):
    c = Cluster(seed=3).build(64).with_observability()
    for i in range(10):
        c.net.lookup_sync(origin=c.net.ids[i], target=c.net.ids[-1 - i])
    path = str(tmp_path / "hops.npz")
    c.observability.write(path)
    from repro.obs.query import per_hop_latency

    with TraceReader(path) as reader:
        hops = per_hop_latency(reader.stream("run-000", "events"))
    assert hops, "multi-hop lookups must yield a per-hop breakdown"
    for entry in hops:
        assert entry["count"] > 0
        assert entry["mean"] >= 0.0
