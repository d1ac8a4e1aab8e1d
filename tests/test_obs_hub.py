"""Unit tests for the span/event hub: ordering, parents, keyed spans,
category gating, and the counts == rows invariant."""

import numpy as np
import pytest

from repro.obs.columnar import CHUNK_ROWS, STAGE_ROWS, StreamBuffer, StringTable
from repro.obs.hub import (STATUS_FAIL, STATUS_OK, STATUS_OPEN,
                           STATUS_TIMEOUT, ObsHub)


# ------------------------------------------------------------- columnar base
def test_stream_buffer_chunk_boundaries():
    buf = StreamBuffer((("a", "i8"), ("b", "f8")))
    n = 2 * CHUNK_ROWS + 3  # crosses two chunk boundaries
    for i in range(n):
        buf.append(i, i / 2)
    cols = buf.columns()
    assert list(cols["a"]) == list(range(n))
    np.testing.assert_allclose(cols["b"], np.arange(n) / 2)
    assert cols["a"].dtype == np.dtype("i8")


@pytest.mark.parametrize("n", [0, 1, STAGE_ROWS - 1, STAGE_ROWS, CHUNK_ROWS,
                               2 * CHUNK_ROWS + 3])
def test_stream_buffer_stage_and_chunk_boundaries(n):
    buf = StreamBuffer((("a", "i8"), ("b", "f8"), ("c", "u2")))
    for i in range(n):
        buf.append(i, i / 4, i % 7)
    assert buf.rows == len(buf) == n
    parts = buf.column_parts("a")
    assert [len(p) for p in parts[:-1]] == [CHUNK_ROWS] * (len(parts) - 1)
    assert sum(len(p) for p in parts) == n
    cols = buf.columns()
    np.testing.assert_array_equal(cols["a"], np.arange(n))
    np.testing.assert_array_equal(cols["b"], np.arange(n) / 4)
    np.testing.assert_array_equal(cols["c"], np.arange(n) % 7)
    assert [cols[k].dtype.str for k in "abc"] == ["<i8", "<f8", "<u2"]
    np.testing.assert_array_equal(buf.column("b"), cols["b"])


def test_stream_buffer_reads_between_appends():
    # A read flushes a partial stage, so later stages start mid-chunk and
    # must still stop at the chunk's end.
    buf = StreamBuffer((("a", "i8"),))
    expected = []
    for step in (100, 1, CHUNK_ROWS - 1, 3 * STAGE_ROWS + 7, CHUNK_ROWS):
        for _ in range(step):
            buf.append(len(expected))
            expected.append(len(expected))
        assert buf.rows == len(expected)
        np.testing.assert_array_equal(buf.column("a"), expected)
    assert all(len(p) <= CHUNK_ROWS for p in buf.column_parts("a"))


def test_stream_buffer_append_checks_arity():
    buf = StreamBuffer((("a", "i8"), ("b", "f8")))
    with pytest.raises(ValueError, match="2 values, got 1"):
        buf.append(1)
    with pytest.raises(ValueError, match="2 values, got 3"):
        buf.append(2, 3.0, 99)
    buf.append(4, 5.0)
    assert buf.rows == 1
    assert list(buf.column("a")) == [4] and list(buf.column("b")) == [5.0]


def test_stream_buffer_validation():
    with pytest.raises(ValueError):
        StreamBuffer(())
    with pytest.raises(KeyError):
        StreamBuffer((("a", "i8"),)).column_parts("b")


def test_string_table_interning():
    st = StringTable()
    assert st.code("x") == 0
    assert st.code("y") == 1
    assert st.code("x") == 0  # stable
    assert st.strings[1] == "y"
    assert st.get_code("missing") == -1
    assert st.get_code("x") == 0 and len(st) == 2


# -------------------------------------------------------------------- spans
def test_span_ids_monotonic_and_ordering():
    hub = ObsHub()
    a = hub.begin("lookup", 1, 0.0)
    b = hub.begin("lookup", 2, 1.0)
    assert 0 < a < b
    hub.end(b, 2.0, status=STATUS_OK, v0=3)
    hub.end(a, 5.0, status=STATUS_FAIL)
    cols = hub.spans.columns()
    # Rows appear in end order; every row has t1 >= t0.
    assert list(cols["id"]) == [b, a]
    assert (cols["t1"] >= cols["t0"]).all()
    assert list(cols["status"]) == [STATUS_OK, STATUS_FAIL]
    assert cols["v0"][0] == 3.0


def test_end_unknown_or_zero_span_is_noop():
    hub = ObsHub()
    hub.end(0, 1.0)
    hub.end(999, 1.0)
    sid = hub.begin("lookup", 1, 0.0)
    hub.end(sid, 1.0)
    hub.end(sid, 2.0)  # double-end ignored
    assert hub.spans.rows == 1


def test_parent_links():
    hub = ObsHub()
    hub.job_begin(7, 1, 0.0)
    job_sid = hub.keyed_id("job", 7)
    hub.job_execute_begin(7, 1, 5, 0.5)
    hub.job_execute_end(7, 1, 2.5, executed=2.0)
    hub.job_end(7, 3.0, ok=True, attempts=1)
    cols = hub.spans.columns()
    by_id = {int(i): idx for idx, i in enumerate(cols["id"])}
    exec_row = next(idx for idx in range(hub.spans.rows)
                    if cols["parent"][idx] != 0)
    assert int(cols["parent"][exec_row]) == job_sid
    assert job_sid in by_id


def test_keyed_begin_idempotent():
    hub = ObsHub()
    hub.lookup_begin(42, 1, 0.0)
    hub.lookup_begin(42, 9, 5.0)  # duplicate (e.g. a resubmission)
    assert hub.category_counts()["lookup"] == 1
    hub.lookup_end(42, 6.0, found=True, hops=2)
    cols = hub.spans.columns()
    assert hub.spans.rows == 1
    assert cols["t0"][0] == 0.0 and cols["node"][0] == 1  # first begin wins


def test_end_keyed_unknown_is_noop():
    hub = ObsHub()
    hub.lookup_end(123, 1.0, found=True, hops=1)
    assert hub.spans.rows == 0 and hub.category_counts() == {}


def test_status_mapping():
    hub = ObsHub()
    hub.lookup_begin(1, 0, 0.0)
    hub.lookup_end(1, 1.0, found=True, hops=1)
    hub.lookup_begin(2, 0, 0.0)
    hub.lookup_end(2, 1.0, found=False, hops=1)
    hub.lookup_begin(3, 0, 0.0)
    hub.lookup_end(3, 1.0, found=False, hops=0, timed_out=True)
    statuses = list(hub.spans.columns()["status"])
    assert statuses == [STATUS_OK, STATUS_FAIL, STATUS_TIMEOUT]


def test_status_constants_still_cover_the_spec():
    # written stores and the query summary's ok/fail/timeout accounting
    # key off these exact codes; a renumbering must not silently invert
    # that accounting or misread a written store
    assert (STATUS_OPEN, STATUS_OK, STATUS_FAIL, STATUS_TIMEOUT) == (0, 1, 2, 3)


# ------------------------------------------------------------------ gating
def test_category_gating_spans_and_events():
    hub = ObsHub(categories=["lookup"])
    assert hub.begin("storage.put", 1, 0.0) == 0
    hub.event("lookup.hop", 1, 0.0, rid=1, value=0)  # not enabled
    sid = hub.begin("lookup", 1, 0.0)
    assert sid != 0
    hub.end(sid, 1.0)
    assert hub.category_counts() == {"lookup": 1}
    assert hub.events.rows == 0


def test_sim_event_rows_are_opt_in():
    class Ev:
        label = "dgram:X"
        time = 1.0

    default = ObsHub()
    default.on_sim_event(Ev())
    assert default.sim_event_counts == {"dgram:X": 1}
    assert default.events.rows == 0  # counts always, rows only on opt-in

    opted = ObsHub(categories=["sim.event"])
    opted.on_sim_event(Ev())
    assert opted.events.rows == 1
    assert opted.category_counts() == {"sim.event": 1}


# -------------------------------------------------------- counts invariant
def test_finalize_flushes_open_spans_and_counts_match_rows():
    hub = ObsHub()
    hub.lookup_begin(1, 0, 0.0)
    hub.lookup_end(1, 1.0, found=True, hops=2)
    hub.lookup_begin(2, 0, 5.0)        # never ends (crash)
    hub.storage_begin("put", 3, 0, 6.0)  # never ends
    hub.event("lookup.hop", 0, 0.5, rid=1, value=0)
    assert hub.open_span_count() == 2
    hub.finalize()
    assert hub.open_span_count() == 0
    cols = hub.spans.columns()
    span_rows = {}
    for idx in range(hub.spans.rows):
        name = hub.strings.strings[int(cols["cat"][idx])]
        span_rows[name] = span_rows.get(name, 0) + 1
    event_rows = {}
    ecols = hub.events.columns()
    for idx in range(hub.events.rows):
        name = hub.strings.strings[int(ecols["cat"][idx])]
        event_rows[name] = event_rows.get(name, 0) + 1
    total = dict(span_rows)
    for k, v in event_rows.items():
        total[k] = total.get(k, 0) + v
    assert total == hub.category_counts()
    # Flushed spans carry STATUS_OPEN and t1 == t0.
    open_mask = cols["status"] == STATUS_OPEN
    assert open_mask.sum() == 2
    np.testing.assert_array_equal(cols["t0"][open_mask], cols["t1"][open_mask])
