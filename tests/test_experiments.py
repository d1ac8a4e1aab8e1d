"""Tests for the sweep driver, its memo, and every figure scenario.

These run small (n=96-128) sweeps — enough to exercise every code path and
check the *shape* constraints the paper reports, while keeping the suite
fast.  The benches run the full-size versions.
"""

import numpy as np
import pytest

import repro.bench.scenarios  # noqa: F401  (populates the registry)
from repro.bench.runner import run_scenario
from repro.bench.sweep import SweepConfig, run_failure_sweep

N = 128
LPS = 60


@pytest.fixture(scope="module")
def sweep1():
    return run_failure_sweep(SweepConfig(n=N, seed=3, case="case1", lookups_per_step=LPS))


@pytest.fixture(scope="module")
def sweep2():
    return run_failure_sweep(SweepConfig(n=N, seed=3, case="case2", lookups_per_step=LPS))


class TestSweepDriver:
    def test_steps_cover_5_to_95(self, sweep1):
        fracs = [r.failed_fraction for r in sweep1.records]
        assert fracs[0] == pytest.approx(0.05, abs=0.01)
        assert fracs[-1] >= 0.90
        assert fracs == sorted(fracs)

    def test_all_algorithms_recorded(self, sweep1):
        for r in sweep1.records:
            assert set(r.per_algo) == {"G", "NG", "NGSA"}
            for stats in r.per_algo.values():
                assert stats.issued == LPS

    def test_surviving_counts_decrease(self, sweep1):
        s = [r.surviving for r in sweep1.records]
        assert s == sorted(s, reverse=True)

    def test_deterministic(self):
        cfg = SweepConfig(n=64, seed=9, lookups_per_step=30)
        a = run_failure_sweep(cfg)
        run_failure_sweep.cache_clear()  # or the second call is the memo
        b = run_failure_sweep(cfg)
        assert a is not b
        for ra, rb in zip(a.records, b.records):
            for algo in ("G", "NG", "NGSA"):
                assert ra.per_algo[algo].failure_rate == rb.per_algo[algo].failure_rate

    def test_height_recorded(self, sweep1):
        assert sweep1.height >= 2


class TestCache:
    def test_cache_hits(self):
        run_failure_sweep.cache_clear()
        cfg = SweepConfig(n=64, seed=1, lookups_per_step=20)
        a = run_failure_sweep(cfg)
        b = run_failure_sweep(cfg)
        assert a is b
        assert run_failure_sweep.cache_info().currsize == 1
        run_failure_sweep(SweepConfig(n=64, seed=2, lookups_per_step=20))
        assert run_failure_sweep.cache_info().currsize == 2
        run_failure_sweep.cache_clear()
        assert run_failure_sweep.cache_info().currsize == 0


class TestPaperShapes:
    """The qualitative claims of §IV, asserted on the small sweep."""

    def test_failure_curve_grows(self, sweep1):
        """Fig A: failures grow with dead fraction (allowing noise)."""
        s = sweep1.failure_series("G")
        early = np.mean([s.ys()[i] for i in range(3)])
        late = np.mean([s.ys()[i] for i in range(-4, -1)])
        assert late > early

    def test_failures_moderate_at_30pct(self, sweep1):
        """Fig A: far from total collapse at 30% dead — the headline
        robustness claim (paper: ~10%)."""
        s = sweep1.failure_series("G")
        assert s.interp(30.0) <= 35.0

    def test_algorithms_within_band(self, sweep1):
        """Fig A: G / NG / NGSA comparable (paper: ~2%; noise at n=128)."""
        at30 = [sweep1.failure_series(a).interp(30.0) for a in ("G", "NG", "NGSA")]
        assert max(at30) - min(at30) <= 25.0

    def test_ngsa_no_worse_than_ng(self, sweep1):
        """Fig A: NGSA's fallback never hurts success."""
        ng = sweep1.failure_series("NG")
        ngsa = sweep1.failure_series("NGSA")
        assert np.mean(ngsa.ys()[:10]) <= np.mean(ng.ys()[:10]) + 6.0

    def test_hops_stable_until_high_failure(self, sweep1):
        """Fig B: hop count roughly flat over the first half of the sweep."""
        s = sweep1.hops_series("G")
        first = np.mean(s.ys()[:4])
        mid = np.mean(s.ys()[5:9])
        assert abs(mid - first) <= 3.0

    def test_case2_same_family_shape(self, sweep2):
        """Fig C: variable-nc failure curves resemble case 1's."""
        s = sweep2.failure_series("G")
        assert s.interp(30.0) <= 40.0
        early = np.mean(s.ys()[:3])
        late = np.mean(s.ys()[-4:-1])
        assert late > early - 5.0

    def test_fig_d_variable_nc_flatter_at_low_failure(self, sweep1, sweep2):
        """Fig D: the flattened variable-nc hierarchy needs fewer hops
        early in the sweep."""
        fixed = sweep1.hops_series("G").interp(10.0)
        variable = sweep2.hops_series("G").interp(10.0)
        assert variable <= fixed + 0.5

    def test_fig_e_failed_hops_bounded_by_ttl(self, sweep1):
        smax, smin = sweep1.failed_hops_series("G")
        assert smax.max_y() <= 256
        assert all(a >= b for a, b in zip(smax.ys(), smin.ys()))

    def test_surfaces_ridge_near_log_n(self, sweep1):
        """Figs F/G: the hop distribution peaks at a small constant."""
        surf = sweep1.surface("G")
        early_ridge = surf.ridge_hops()[:6]
        assert all(1 <= r <= 12 for r in early_ridge)

    def test_case2_peak_sharper(self, sweep1, sweep2):
        """Figs H/I vs F/G: variable-nc concentrates the distribution
        (paper: peak ~60% vs ~50%)."""
        peak1 = sweep1.surface("G").peak()[1]
        peak2 = sweep2.surface("G").peak()[1]
        assert peak2 >= peak1 - 10.0


class TestFigureRunners:
    """The figure scenarios at test size: the legend carries one entry per
    series the figure derives, the title names the figure."""

    @staticmethod
    def rendered(name):
        result = run_scenario(
            name, seed=3, overrides={"n": N, "lookups_per_step": LPS})
        return result.rendered

    def test_figure_a(self):
        out = self.rendered("figure_a")
        for algo in ("G", "NG", "NGSA"):
            assert f"{algo} failed lookups %" in out
        assert "Figure A" in out

    def test_figure_b(self, sweep1):
        assert all(len(sweep1.hops_series(a)) > 10 for a in ("G", "NG", "NGSA"))
        out = self.rendered("figure_b")
        for algo in ("G", "NG", "NGSA"):
            assert f"{algo} avg hops" in out
        assert "Figure B" in out

    def test_figure_c(self):
        out = self.rendered("figure_c")
        for algo in ("G", "NG", "NGSA"):
            assert f"{algo} failed lookups %" in out
        assert "Figure C" in out

    def test_figure_d(self):
        out = self.rendered("figure_d")
        assert "fixed nc=4 (G)" in out and "variable nc (G)" in out
        assert "Figure D" in out

    def test_figure_e(self):
        out = self.rendered("figure_e")
        assert "G max failed hops" in out and "G min failed hops" in out
        assert "Figure E" in out

    def test_figure_fg(self, sweep1):
        assert sweep1.surface("G").as_array().shape[1] == 31
        for name in ("figure_f", "figure_g"):
            out = self.rendered(name)
            assert "Figure F" in out and "algorithm G," in out
            assert "Figure G" in out and "algorithm NG," in out

    def test_figure_hi(self):
        for name in ("figure_h", "figure_i"):
            out = self.rendered(name)
            assert "Figure H" in out and "algorithm G," in out
            assert "Figure I" in out and "algorithm NG," in out
