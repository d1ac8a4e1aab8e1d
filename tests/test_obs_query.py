"""Query-layer satellites: span_stats' status mix keyed off the STATUS_*
constants, timeline rows at span-end time, TraceReader filter
composition, timeout-span roundtrips, and the ``runs`` subcommand."""

import pytest

from repro.obs import (STATUS_FAIL, STATUS_OK, STATUS_OPEN, STATUS_TIMEOUT,
                       ObsHub, TraceReader, write_store)
from repro.obs.cli import main as obs_cli
from repro.obs.query import slowest_spans, span_stats, timeline_rows
from repro.obs.store import StreamView


def _view(hub, run="run-000"):
    hub.finalize()
    return StreamView(hub.export_streams()["spans"], hub.strings.strings,
                      run, "spans")


def _mixed_hub():
    hub = ObsHub()
    hub.span("lookup", 1, 0.0, 0.1, status=STATUS_OK)
    hub.span("lookup", 1, 1.0, 1.4, status=STATUS_FAIL)
    hub.span("lookup", 2, 2.0, 2.9, status=STATUS_TIMEOUT)
    hub.begin("lookup", 3, 3.0)  # left open; finalize flushes STATUS_OPEN
    return hub


def test_span_stats_reports_the_full_status_mix():
    (row,) = span_stats(_view(_mixed_hub()))
    assert row["category"] == "lookup"
    assert row["count"] == 4
    assert (row["ok"], row["fail"], row["timeout"], row["open"]) == (1, 1, 1, 1)
    # durations come from the three closed spans only
    assert row["max"] == pytest.approx(0.9)
    assert row["mean"] == pytest.approx((0.1 + 0.4 + 0.9) / 3)


def test_span_stats_ok_is_status_ok_not_just_closed():
    """The pre-1.7 bug: "ok" counted ``status == 1`` by magic number but a
    fail/timeout span is also closed — the constants must partition."""
    hub = ObsHub()
    hub.span("q", 1, 0.0, 1.0, status=STATUS_FAIL)
    (row,) = span_stats(_view(hub))
    assert row["ok"] == 0 and row["fail"] == 1


def test_timeline_places_closed_spans_at_end_time():
    rows = timeline_rows(_view(_mixed_hub()),
                         _view(ObsHub(), run="e").filter(category="none"))
    span_rows = [r for r in rows if r["kind"] == "span"]
    # closed spans sort by t1; the open span by its only timestamp, t0
    assert [r["time"] for r in span_rows] == [0.1, 1.4, 2.9, 3.0]
    closed = span_rows[1]
    assert "t0=1.0000" in closed["detail"] and "dur=0.4000" in closed["detail"]
    assert "fail" in closed["detail"]


def test_timeline_interleaves_events_by_time():
    hub = _mixed_hub()
    hub.event("lookup.hop", 9, 0.5, rid=1, value=1.0)
    hub.finalize()
    streams = hub.export_streams()
    spans = StreamView(streams["spans"], hub.strings.strings, "r", "spans")
    events = StreamView(streams["events"], hub.strings.strings, "r", "events")
    rows = timeline_rows(spans, events)
    kinds = [(r["time"], r["kind"]) for r in rows]
    assert kinds.index((0.5, "event")) == 1  # between the two span ends


def test_reader_filters_compose(tmp_path):
    hub = ObsHub()
    for node in (1, 2):
        for i in range(10):
            status = STATUS_TIMEOUT if (node == 2 and i >= 7) else STATUS_OK
            hub.span("storage.put", node, float(i), float(i) + 0.2,
                     status=status)
            hub.span("storage.get", node, float(i), float(i) + 0.1)
    path = str(tmp_path / "f.npz")
    write_store(path, {"run-000": hub})
    with TraceReader(path) as reader:
        spans = reader.stream("run-000", "spans")
        chained = (spans.filter(category="storage.put")
                   .filter(node=2)
                   .filter(min_time=5.0, max_time=9.0)
                   .filter(status=STATUS_TIMEOUT))
        assert len(chained) == 3  # i in {7, 8, 9}
        assert set(chained.column("node").tolist()) == {2}
        assert (chained.column("status") == STATUS_TIMEOUT).all()
        # kwargs form composes identically
        assert len(reader.spans("run-000", category="storage.put", node=2,
                                min_time=5.0, max_time=9.0,
                                status=STATUS_TIMEOUT)) == 3
        # unknown category yields empty, never raises
        assert len(spans.filter(category="nope")) == 0


def test_timeout_spans_roundtrip_through_summary_and_slowest(tmp_path):
    hub = ObsHub()
    hub.span("lookup", 1, 0.0, 5.0, status=STATUS_TIMEOUT)  # the slowest
    hub.span("lookup", 2, 0.0, 0.1)
    path = str(tmp_path / "t.npz")
    write_store(path, {"run-000": hub})
    with TraceReader(path) as reader:
        spans = reader.stream("run-000", "spans")
        (row,) = span_stats(spans)
        assert row["timeout"] == 1 and row["ok"] == 1
        top = slowest_spans(spans, limit=1)
        assert top[0]["status"] == "timeout"
        assert top[0]["duration"] == pytest.approx(5.0)


def test_open_spans_are_excluded_from_slowest():
    hub = ObsHub()
    hub.begin("lookup", 1, 0.0)   # still open at finalize
    hub.span("lookup", 2, 0.0, 0.3)
    rows = slowest_spans(_view(hub))
    assert len(rows) == 1 and rows[0]["status"] == "ok"


def test_runs_subcommand_lists_counts(tmp_path, capsys):
    h1, h2 = ObsHub(), ObsHub()
    h1.span("lookup", 1, 0.0, 1.0)
    h2.event("lookup.hop", 1, 0.5, rid=1, value=1.0)
    path = str(tmp_path / "runs.npz")
    write_store(path, {"run-000": h1, "run-001": h2},
                meta_extra={"scenario": "unit"})
    assert obs_cli(["runs", path]) == 0
    out = capsys.readouterr().out
    assert "2 run(s)" in out
    assert "scenario=unit" in out
    lines = [l for l in out.splitlines() if l.strip().startswith("run-")]
    # run, spans, events, sim events
    assert [l.split() for l in lines] == [["run-000", "1", "0", "0"],
                                          ["run-001", "0", "1", "0"]]


def test_summary_table_shows_fail_and_timeout_columns(tmp_path, capsys):
    path = str(tmp_path / "s.npz")
    write_store(path, {"run-000": _mixed_hub()})
    assert obs_cli(["summary", path]) == 0
    out = capsys.readouterr().out
    assert "fail" in out and "timeout" in out


def test_status_open_spans_keep_t0_semantics():
    hub = ObsHub()
    hub.begin("lookup", 1, 7.5)
    view = _view(hub)
    assert (view.column("status") == STATUS_OPEN).all()
    rows = timeline_rows(view, view.filter(category="none"))
    assert rows[0]["time"] == 7.5  # an open span only has its begin
