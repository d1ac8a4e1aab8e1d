"""Tier-1 coverage for the campaign statistics in repro.metrics.stats.

The Student-t quantile is computed in-repo (incomplete beta + bisection,
no SciPy) — these tests pin it against closed-form table values, and
against scipy when it happens to be installed.  The degenerate-sample
contract (n=1 → no CI, zero variance → zero-width CI) is what the
campaign aggregator relies on, so it is pinned explicitly, as is the
SampleSummary JSON round-trip the campaign envelope embeds.
"""

import json
import math

import pytest

from repro.metrics.stats import (
    SampleSummary,
    student_t_cdf,
    student_t_ppf,
    summarize_samples,
    t_interval,
)

#: Two-sided 95% critical values (p = 0.975) from the standard t table.
T_TABLE_975 = {
    1: 12.706204736432095,
    2: 4.302652729911275,
    4: 2.7764451051977987,
    10: 2.2281388519862735,
    30: 2.0422724563012373,
}


# ------------------------------------------------------------- t quantile

def test_t_ppf_matches_table_values():
    for df, expected in T_TABLE_975.items():
        assert student_t_ppf(0.975, df) == pytest.approx(expected, abs=1e-8)


def test_t_ppf_is_symmetric_and_centred():
    assert student_t_ppf(0.5, 7) == 0.0
    assert student_t_ppf(0.025, 4) == pytest.approx(
        -student_t_ppf(0.975, 4), abs=1e-10)


def test_t_cdf_inverts_ppf():
    for df in (1, 2, 5, 30, 2.5):
        for p in (0.6, 0.9, 0.975, 0.999):
            assert student_t_cdf(student_t_ppf(p, df), df) == pytest.approx(
                p, abs=1e-9)


def test_t_ppf_approaches_normal_at_large_df():
    # z_{0.975} = 1.959964...; df=10^8 routes through the erf branch.
    assert student_t_ppf(0.975, 1e8) == pytest.approx(1.959964, abs=1e-4)


def test_t_ppf_rejects_bad_arguments():
    with pytest.raises(ValueError, match="p must be"):
        student_t_ppf(0.0, 5)
    with pytest.raises(ValueError, match="df must be"):
        student_t_ppf(0.9, 0)
    with pytest.raises(ValueError, match="df must be"):
        student_t_cdf(1.0, -1)


def test_t_ppf_cross_checks_scipy_when_available():
    stats = pytest.importorskip("scipy.stats")
    for df in (1, 3, 10, 120, 2.5):
        for p in (0.6, 0.95, 0.975, 0.9995):
            assert student_t_ppf(p, df) == pytest.approx(
                float(stats.t.ppf(p, df)), abs=1e-7)


# ------------------------------------------------------------ t interval

def test_t_interval_matches_closed_form():
    # mean=3, std=sqrt(2.5), half = t_{.975,4} * std / sqrt(5)
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    std = math.sqrt(2.5)
    half = T_TABLE_975[4] * std / math.sqrt(5)
    lo, hi = t_interval(xs)
    assert lo == pytest.approx(3.0 - half, abs=1e-9)
    assert hi == pytest.approx(3.0 + half, abs=1e-9)
    assert (lo, hi) == pytest.approx(
        (1.0367568385222716, 4.963243161477728), abs=1e-9)


def test_t_interval_degenerate_contract():
    assert t_interval([3.0]) is None                # n=1: no honest interval
    assert t_interval([3.0, 3.0, 3.0, 3.0]) == (3.0, 3.0)  # zero variance
    with pytest.raises(ValueError, match="at least one sample"):
        t_interval([])
    with pytest.raises(ValueError, match="confidence"):
        t_interval([1.0, 2.0], confidence=1.0)


def test_t_interval_narrows_with_lower_confidence():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    lo95, hi95 = t_interval(xs, 0.95)
    lo80, hi80 = t_interval(xs, 0.80)
    assert lo95 < lo80 < hi80 < hi95


# --------------------------------------------------------- SampleSummary

def test_summarize_samples_t_method():
    s = summarize_samples([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.n == 5
    assert s.mean == pytest.approx(3.0)
    assert s.std == pytest.approx(1.5811388300841898)
    assert (s.ci_lo, s.ci_hi) == pytest.approx(t_interval([1, 2, 3, 4, 5]))
    assert s.half_width == pytest.approx(0.5 * (s.ci_hi - s.ci_lo))


def test_summarize_samples_n1_has_no_interval():
    s = summarize_samples([7.25])
    assert (s.n, s.mean, s.std) == (1, 7.25, 0.0)
    assert s.ci_lo is None and s.ci_hi is None
    assert s.half_width is None


def test_sample_summary_json_roundtrip():
    for samples in ([1.0, 2.0, 3.0, 4.0, 5.0], [7.25]):
        s = summarize_samples(samples)
        # through real JSON, as the campaign envelope stores it: n=1's
        # missing interval must survive as null, not crash or become 0
        back = SampleSummary.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back == s
