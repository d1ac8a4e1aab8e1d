"""Trace-store roundtrip tests: chunk boundaries, empty runs, multi-run
string remapping, and the filter/query API."""

import hashlib
import json
import zipfile

import numpy as np
import pytest

from repro.obs.columnar import CHUNK_ROWS, STAGE_ROWS
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
        row = next(iter(spans))
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
        events = reader.stream("run-000", "events").filter(category="lookup.hop", node=4)
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
        assert len(reader.stream("run-000", "spans").filter(category="lookup")) == 4
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


# ------------------------------------------------------------ pinned bytes
#: Entry order and sha256 of every uncompressed ``.npy`` entry of
#: :func:`_pinned_run`'s store, recorded with the whole-column writer
#: (``np.savez_compressed``) that the chunk-streaming writer replaced.
PINNED_ENTRIES = [
    ("run-000/spans/id.npy",
     "bfd143d8c4f58dc6934853dc915897fd3f42a63feaf7c12084f5ef97549356d8"),
    ("run-000/spans/parent.npy",
     "ba9089cf19d2d35c910505a6f794222711591c9c3185dffb1da419a7508e4a3a"),
    ("run-000/spans/cat.npy",
     "6b36756fa2572d68f018d1cf62ff993216cbef41a1a340742585c8b74f8b1dc5"),
    ("run-000/spans/node.npy",
     "14f645e830e790790213ea9f3873d399c3ba1b9813cd731fccaf51970498b45b"),
    ("run-000/spans/t0.npy",
     "e4dd8fd9375954231143c127995e9a734b1a776a74118a08ab45f8ef56acc501"),
    ("run-000/spans/t1.npy",
     "84e2f9ebe7b61628054451f75c8dcb08cad3366a9f62bae7609785929f8ad6a0"),
    ("run-000/spans/status.npy",
     "a5cc851e5bb9a6950552d249c683d40ef1d16bb440cfb08c5c946f130fc69dfa"),
    ("run-000/spans/v0.npy",
     "9bf2b87df4db0eb73e7df457d0d665fb5d20ae787948b125990499166365dc5d"),
    ("run-000/spans/v1.npy",
     "84ed2a5ad9d1f82ee41e014afc5faedaa04e38e3990f2a74d4a8c4dd790be8c5"),
    ("run-000/events/cat.npy",
     "5d697a7e4c1b3ed7e7e1feca9f0289cb5163df06c9997e523d67f1e483bae4f7"),
    ("run-000/events/node.npy",
     "606cad42a1f6760c0f04cb74aa51ed43dbbfcec8337ce661bff000cf30a55161"),
    ("run-000/events/t.npy",
     "3e9a36458c3272eb455089e6c2e62b8038b0eb55a14062dae3bf0e87f0a8f4dc"),
    ("run-000/events/rid.npy",
     "0931214657101b416a03341410c097e13120a5e1a701e47dd718138453fd21f0"),
    ("run-000/events/value.npy",
     "98cfd6dddc8e02b27875b59ca7928ae81c0841d4eb67b405bf7d950bc3296ce1"),
    ("__meta__.npy",
     "49e5b696e3bae48b67d3e61c7ffe3c0379c2304cf2676236f89c40ee02fc2adf"),
]


def _pinned_run(path):
    """Lookups, storage ops and one compute job on 64 nodes: more than
    ``CHUNK_ROWS`` event rows, and a partly filled stage in both streams."""
    from repro.cluster import Cluster
    from repro.compute.job import JobSpec

    c = Cluster(seed=4242).build(64).with_observability().with_compute()
    ids = c.net.ids
    c.net.run_lookup_batch(
        [(ids[i % 64], ids[(7 * i + 3) % 64]) for i in range(2600)], "G")
    for i in range(6):
        c.storage.put(f"k{i}", {"v": i})
    for i in range(6):
        c.storage.get(f"k{i}")
    c.compute.submit(JobSpec(job_id=1, cpu_demand=1.0, work=4.0))
    c.compute.run_until_done(timeout=200.0)
    hub = c.obs
    assert hub.events.rows > CHUNK_ROWS
    assert hub.events.rows % STAGE_ROWS and hub.spans.rows % STAGE_ROWS
    c.observability.write(path)
    return hub


def test_store_bytes_pinned(tmp_path):
    path = str(tmp_path / "pinned.npz")
    hub = _pinned_run(path)
    with zipfile.ZipFile(path) as zf:
        got = [(name, hashlib.sha256(zf.read(name)).hexdigest())
               for name in zf.namelist()]
    assert got == PINNED_ENTRIES
    with TraceReader(path) as reader:
        assert reader.category_counts() == hub.category_counts()
        assert reader.run_meta("run-000")["streams"] == {
            "spans": hub.spans.rows, "events": hub.events.rows}
