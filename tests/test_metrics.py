"""Unit + property tests for series, histograms and batch stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lookup import LookupAlgorithm, LookupResult
from repro.metrics import Series, summarize_batch


class TestSeries:
    def test_add_and_read(self):
        s = Series("t")
        s.add(1.0, 2.0)
        s.add(2.0, 4.0)
        assert list(s.xs()) == [1.0, 2.0]
        assert list(s.ys()) == [2.0, 4.0]
        assert len(s) == 2

    def test_x_must_not_decrease(self):
        s = Series("t")
        s.add(2.0, 1.0)
        with pytest.raises(ValueError):
            s.add(1.0, 1.0)

    def test_interp(self):
        s = Series("t")
        s.add(0.0, 0.0)
        s.add(10.0, 100.0)
        assert s.interp(5.0) == 50.0

    def test_aggregates(self):
        s = Series("t")
        for x, y in [(0, 1), (1, 5), (2, 3)]:
            s.add(x, y)
        assert s.max_y() == 5.0

    def test_empty_interp_raises(self):
        with pytest.raises(ValueError):
            Series("t").interp(1.0)


def _result(found, hops, timed_out=False):
    return LookupResult(request_id=1, origin=1, target=2,
                        algo=LookupAlgorithm.GREEDY, found=found, hops=hops,
                        timed_out=timed_out)


class TestHopPercentRow:
    """``LookupBatchStats.hops_percent`` — the exact per-hop-count % row
    behind Figures F-I."""

    @staticmethod
    def row(hops):
        return summarize_batch([_result(True, h) for h in hops]).hops_percent

    def test_percentages(self):
        row = self.row([1, 1, 2, 3])
        assert row == (0.0, 50.0, 25.0, 25.0)

    def test_empty(self):
        assert summarize_batch([_result(False, 2)]).hops_percent == ()

    def test_row_shape(self):
        row = self.row([0, 1, 35])
        assert len(row) == 36  # dense up to the largest hop count seen
        assert row[0] == pytest.approx(100 / 3)

    @given(hops=st.lists(st.integers(0, 40), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_property_percentages_sum_to_100(self, hops):
        row = self.row(hops)
        assert sum(row) == pytest.approx(100.0)
        assert all(row[h] > 0 for h in hops)


class TestSummarizeBatch:
    def test_basic_stats(self):
        results = [_result(True, 3), _result(True, 5), _result(False, 7)]
        s = summarize_batch(results)
        assert s.issued == 3 and s.found == 2 and s.failed == 1
        assert s.failure_rate == pytest.approx(1 / 3)
        assert s.hops_mean == 4.0
        assert s.failed_hops_max == 7

    def test_explicit_failed_hops(self):
        results = [_result(True, 3), _result(False, 0, timed_out=True)]
        s = summarize_batch(results, failed_hop_counts=[12])
        assert s.failed_hops_max == 12 and s.failed_hops_min == 12
        assert s.timed_out == 1

    def test_all_failed(self):
        s = summarize_batch([_result(False, 2)])
        assert s.hops_mean == 0.0 and s.failure_rate == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_batch([])

    def test_histogram_contains_successes_only(self):
        results = [_result(True, 2), _result(True, 2), _result(False, 9)]
        s = summarize_batch(results)
        assert s.hops_percent == (0.0, 0.0, 100.0)
