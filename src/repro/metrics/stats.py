"""Summary statistics: per-batch lookup folds and cross-seed intervals.

Two families live here:

* :func:`summarize_batch` / :class:`LookupBatchStats` — the per-batch
  folds the figure experiments consume;
* :func:`t_interval` / :func:`summarize_samples` — Student-t confidence
  intervals over repeated measurements (one value per seed), the math
  behind ``python -m repro.bench campaign`` aggregation.  The Student-t
  quantile is computed in-repo (regularised incomplete beta + bisection,
  no SciPy dependency) and pinned against closed-form table values in
  ``tests/test_metrics_stats.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.lookup import LookupResult


@dataclass(frozen=True)
class LookupBatchStats:
    """Everything the figures need from one batch at one failure level.

    ``failed_hops_max`` / ``failed_hops_min`` cover *failed* lookups only —
    the quantity of Figure E; failed hop counts come from NotFound replies
    and, for black-holed/timed-out requests, from the sweep's hop observer
    (measurement infrastructure, not protocol knowledge).
    """

    issued: int
    found: int
    failed: int
    timed_out: int
    failure_rate: float
    hops_mean: float
    #: ``hops_percent[k]`` — % of *found* lookups resolved in exactly *k*
    #: hops (the z-axis of Figures F-I), dense up to the largest hop count
    #: seen; empty when nothing was found.
    hops_percent: Tuple[float, ...]
    failed_hops_max: int
    failed_hops_min: int

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failure_rate


def summarize_batch(
    results: Sequence[LookupResult],
    failed_hop_counts: Optional[Iterable[int]] = None,
) -> LookupBatchStats:
    """Fold a batch of :class:`LookupResult` into :class:`LookupBatchStats`.

    Parameters
    ----------
    results:
        Origin-side outcomes.
    failed_hop_counts:
        Optional hop counts for the failed lookups (from a hop
        observer); defaults to the hops recorded in NotFound replies.
    """
    if not results:
        raise ValueError("empty batch")
    found = [r for r in results if r.found]
    failed = [r for r in results if not r.found]
    hops = [r.hops for r in found]

    if failed_hop_counts is not None:
        fh = [int(h) for h in failed_hop_counts]
    else:
        fh = [r.hops for r in failed if not r.timed_out]

    return LookupBatchStats(
        issued=len(results),
        found=len(found),
        failed=len(failed),
        timed_out=sum(1 for r in failed if r.timed_out),
        failure_rate=len(failed) / len(results),
        hops_mean=float(np.mean(hops)) if found else 0.0,
        hops_percent=tuple(
            ((100.0 * np.bincount(hops)) / len(hops)).tolist()) if found else (),
        failed_hops_max=max(fh) if fh else 0,
        failed_hops_min=min(fh) if fh else 0,
    )


# ---------------------------------------------------------------------------
# Confidence intervals over repeated measurements (one sample per seed).
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularised incomplete beta (modified
    Lentz); standard Numerical-Recipes form, converges in ~10 iterations
    for every (a, b) a t-distribution produces."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with *df* degrees of freedom."""
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if t == 0.0:
        return 0.5
    if df > 1e7:  # numerically normal; the beta CF loses precision here
        return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))
    tail = 0.5 * _betainc(df / 2.0, 0.5, df / (df + t * t))
    return 1.0 - tail if t > 0 else tail


def student_t_ppf(p: float, df: float) -> float:
    """Quantile (inverse CDF) of Student's t — ``scipy.stats.t.ppf``
    without the SciPy dependency.  Bisection on :func:`student_t_cdf`;
    accurate to ~1e-10, pinned against table values in the tests."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if df <= 0:
        raise ValueError(f"df must be positive, got {df}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_ppf(1.0 - p, df)
    lo, hi = 0.0, 1.0
    while student_t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover — p astronomically close to 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _mean_std(xs: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and (ddof=1) standard deviation; std is 0.0 at n=1."""
    n = len(xs)
    mean = math.fsum(xs) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((x - mean) ** 2 for x in xs) / (n - 1)
    return mean, math.sqrt(var)


def t_interval(samples: Sequence[float], confidence: float = 0.95,
               ) -> Optional[Tuple[float, float]]:
    """Student-t confidence interval for the mean of *samples*.

    Returns ``None`` when ``n == 1`` (one observation carries no spread
    information — there is no honest interval) and a zero-width interval
    at the mean when the sample variance is exactly zero.
    """
    xs = [float(v) for v in samples]
    if not xs:
        raise ValueError("t_interval needs at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if len(xs) == 1:
        return None
    mean, std = _mean_std(xs)
    if std == 0.0:
        return (mean, mean)
    half = student_t_ppf(0.5 + confidence / 2.0, len(xs) - 1) \
        * std / math.sqrt(len(xs))
    return (mean - half, mean + half)


@dataclass(frozen=True)
class SampleSummary:
    """Mean/spread/interval of one metric across repetitions (seeds)."""

    n: int
    mean: float
    std: float                      # sample std (ddof=1); 0.0 at n=1
    ci_lo: Optional[float]          # None when n == 1 (no interval)
    ci_hi: Optional[float]
    confidence: float = 0.95

    @property
    def half_width(self) -> Optional[float]:
        if self.ci_lo is None or self.ci_hi is None:
            return None
        return 0.5 * (self.ci_hi - self.ci_lo)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "confidence": self.confidence,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SampleSummary":
        return cls(
            n=int(data["n"]),
            mean=float(data["mean"]),
            std=float(data["std"]),
            ci_lo=None if data.get("ci_lo") is None else float(data["ci_lo"]),
            ci_hi=None if data.get("ci_hi") is None else float(data["ci_hi"]),
            confidence=float(data.get("confidence", 0.95)),
        )


def summarize_samples(samples: Sequence[float],
                      confidence: float = 0.95) -> SampleSummary:
    """Fold repeated measurements into a :class:`SampleSummary`."""
    xs = [float(v) for v in samples]
    if not xs:
        raise ValueError("summarize_samples needs at least one sample")
    mean, std = _mean_std(xs)
    ci = t_interval(xs, confidence)
    lo, hi = (None, None) if ci is None else ci
    return SampleSummary(n=len(xs), mean=mean, std=std, ci_lo=lo, ci_hi=hi,
                         confidence=confidence)
