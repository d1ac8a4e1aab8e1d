"""Trace-store roundtrip tests: chunk boundaries, empty runs, multi-run
string remapping, and the filter/query API."""

import json

import numpy as np
import pytest

from repro.obs.columnar import CHUNK_ROWS
from repro.obs.hub import STATUS_OK, STATUS_TIMEOUT, ObsHub
from repro.obs.store import SCHEMA, TraceReader, write_store


def _hub_with_traffic(n=10, offset=0):
    hub = ObsHub()
    for i in range(n):
        rid = offset + i
        hub.lookup_begin(rid, i, float(i))
        hub.lookup_hop(rid, i, float(i), 0)
        hub.lookup_hop(rid, i + 1, float(i) + 0.25, 1)
        hub.lookup_end(rid, float(i) + 0.5, found=(i % 3 != 0), hops=2)
    return hub


def test_roundtrip_across_chunk_boundaries(tmp_path):
    # Two events per span: the spans fill one chunk and spill into a
    # second, the events retire three chunks and start a fourth.
    n = CHUNK_ROWS + 10
    hub = _hub_with_traffic(n=n)
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": hub})
    with TraceReader(path) as reader:
        assert reader.runs == ["run-000"]
        spans = reader.stream("run-000", "spans")
        events = reader.stream("run-000", "events")
        assert len(spans) == n and len(events) == 2 * n
        np.testing.assert_array_equal(
            np.sort(spans.column("t0")), np.arange(n, dtype=float))
        assert reader.category_counts() == hub.category_counts()
        assert reader.meta["schema"] == SCHEMA


def test_empty_run_roundtrip(tmp_path):
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": ObsHub()})
    with TraceReader(path) as reader:
        spans = reader.stream("run-000", "spans")
        assert len(spans) == 0
        assert spans.categories() == {}
        assert list(spans) == []
        assert reader.category_counts() == {}


def test_multi_run_string_table_remap(tmp_path):
    # The two hubs intern categories in different orders; the writer must
    # remap both onto one global table.
    a = ObsHub()
    a.storage_begin("put", 1, 0, 0.0)
    a.storage_end("put", 1, 1.0, ok=True, hops=2, replicas=3)
    a.lookup_begin(2, 0, 0.0)
    a.lookup_end(2, 0.5, found=True, hops=1)

    b = ObsHub()
    b.lookup_begin(9, 5, 0.0)
    b.lookup_end(9, 0.25, found=True, hops=1)
    b.storage_begin("get", 10, 5, 1.0)
    b.storage_end("get", 10, 1.5, ok=True, hops=1, replicas=0)

    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": a, "run-001": b})
    with TraceReader(path) as reader:
        assert reader.runs == ["run-000", "run-001"]
        assert reader.stream("run-000", "spans").categories() == {
            "storage.put": 1, "lookup": 1}
        assert reader.stream("run-001", "spans").categories() == {
            "lookup": 1, "storage.get": 1}
        # Aggregated counts across runs.
        assert reader.category_counts() == {
            "lookup": 2, "storage.put": 1, "storage.get": 1}
        assert reader.category_counts("run-001") == {
            "lookup": 1, "storage.get": 1}


def test_open_spans_survive_roundtrip(tmp_path):
    hub = ObsHub()
    hub.lookup_begin(1, 0, 2.0)  # never ended
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": hub})
    with TraceReader(path) as reader:
        spans = reader.stream("run-000", "spans")
        assert len(spans) == 1
        row = spans.rows()[0]
        assert row["t0"] == row["t1"] == 2.0
        assert row["category"] == "lookup"


def test_filter_api(tmp_path):
    hub = _hub_with_traffic(n=10)
    hub.storage_begin("put", 99, 0, 100.0)
    hub.storage_end("put", 99, 103.0, ok=False, timed_out=True)
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": hub})
    with TraceReader(path) as reader:
        spans = reader.stream("run-000", "spans")
        assert len(spans.filter(category="lookup")) == 10
        assert len(spans.filter(category="storage.put")) == 1
        assert len(spans.filter(category="never-recorded")) == 0
        assert len(spans.filter(node=3)) == 1
        assert len(spans.filter(min_time=5.0)) == 5 + 1
        assert len(spans.filter(min_time=2.0, max_time=4.0)) == 3
        assert len(spans.filter(status=STATUS_TIMEOUT)) == 1
        # Filters compose (view-of-view).
        sub = spans.filter(category="lookup").filter(status=STATUS_OK)
        assert all(r["status"] == STATUS_OK for r in sub)
        events = reader.events("run-000", category="lookup.hop", node=4)
        assert len(events) == 2  # node 4 appears as hop 0 of rid 4, hop 1 of rid 3


def test_iteration_decodes_categories(tmp_path):
    hub = _hub_with_traffic(n=2)
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": hub})
    with TraceReader(path) as reader:
        for row in reader.stream("run-000", "events"):
            assert row["category"] == "lookup.hop"
            assert "cat" not in row
            assert isinstance(row["t"], float)


def test_run_meta_roundtrip(tmp_path):
    hub = _hub_with_traffic(n=4)
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": hub}, meta_extra={"scenario": "unit"})
    with TraceReader(path) as reader:
        meta = reader.run_meta("run-000")
        assert meta["streams"] == {"spans": 4, "events": 8}
        assert meta["counts"] == {"lookup": 4, "lookup.hop": 8}
        assert len(reader.spans("run-000", category="lookup")) == 4
        assert reader.meta["extra"] == {"scenario": "unit"}
        with pytest.raises(KeyError):
            reader.run_meta("nope")
        with pytest.raises(KeyError):
            reader.stream("run-000", "nope")


@pytest.mark.parametrize("key, value", [
    ("extras", {"topology": {"1": -1}}),
    ("metrics", {"span.lookup.latency.p99": 0.5}),
], ids=["extras", "metrics"])
def test_reader_ignores_per_run_extras_of_older_stores(tmp_path, key, value):
    # Earlier writers of schema repro.obs/1 stored hub annotations under
    # runs/<run>/extras and a metrics snapshot under runs/<run>/metrics;
    # the reader must still open such a store.
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": _hub_with_traffic(n=3)})
    with np.load(path) as npz:
        arrays = dict(npz)
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    assert key not in meta["runs"]["run-000"]
    meta["runs"]["run-000"][key] = value
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                       dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    with TraceReader(path) as reader:
        assert len(reader.stream("run-000", "spans")) == 3
        assert reader.category_counts() == {"lookup": 3, "lookup.hop": 6}


def test_write_rejects_slash_in_run_name(tmp_path):
    with pytest.raises(ValueError):
        write_store(str(tmp_path / "t.npz"), {"a/b": ObsHub()})


def test_reader_rejects_foreign_npz(tmp_path):
    path = str(tmp_path / "foreign.npz")
    np.savez(path, x=np.arange(3))
    with pytest.raises(ValueError):
        TraceReader(path)


def test_sim_event_counts_roundtrip(tmp_path):
    class Ev:
        def __init__(self, label, time):
            self.label = label
            self.time = time

    hub = ObsHub()
    for _ in range(3):
        hub.on_sim_event(Ev("dgram:LookupRequest", 1.0))
    hub.on_sim_event(Ev("keepalive", 2.0))
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": hub})
    with TraceReader(path) as reader:
        assert reader.sim_event_counts() == {
            "dgram:LookupRequest": 3, "keepalive": 1}
