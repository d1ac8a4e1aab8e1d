"""The metrics registry: named counters, gauges and quantile histograms.

Subsystems register a metric **once** (``registry.counter("reexecutions")``)
and then mutate the returned handle on their hot path — registration cost
is paid at attach time, the per-increment cost is one attribute add.  The
bench runner snapshots every registry adopted by the active
:class:`~repro.obs.hub.ObsHub` into the BenchResult envelope, so the same
counters the subsystem reads for its own accounting feed the perf
trajectory without a second bookkeeping path.

The histogram is a streaming log-bucketed quantile sketch (the HDR idea):
values land in geometrically growing buckets, so p50/p99/p999 come back
with a bounded *relative* error (``growth - 1`` per bucket, ~2.5% at the
default growth of 1.05 using geometric-midpoint estimates) from O(buckets)
memory regardless of how many values were observed.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Union

__all__ = ["Counter", "Gauge", "QuantileHistogram", "MetricsRegistry"]


class Counter:
    """Monotonic named counter (floats allowed: e.g. seconds of work)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> Dict[str, float]:
        return {self.name: float(self.value)}

    def reset(self) -> None:
        self.value = 0.0


class Gauge:
    """Last-write-wins named value (queue depth, live-node count, …)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> Dict[str, float]:
        return {self.name: float(self.value)}

    def reset(self) -> None:
        self.value = 0.0


class QuantileHistogram:
    """Streaming quantile sketch over log-spaced buckets.

    An estimate, not a census: it cannot stand in for an exact integer
    distribution, which is why the hop counts behind Figures F-I stay an
    exact ``np.bincount`` row (``LookupBatchStats.hops_percent``).

    Parameters
    ----------
    min_value:
        Values at or below this land in a dedicated underflow bucket and
        are reported as ``min_value`` (virtual-time latencies are positive;
        exact zeros only appear for degenerate same-callback spans).
    growth:
        Geometric bucket width; the relative quantile error is bounded by
        ``sqrt(growth) - 1`` (midpoint estimate within a bucket).
    """

    __slots__ = ("name", "min_value", "_log_growth", "_growth", "_buckets",
                 "_under", "count", "total", "_max", "_min")

    def __init__(self, name: str = "", *, min_value: float = 1e-9,
                 growth: float = 1.05) -> None:
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if min_value <= 0.0:
            raise ValueError(f"min_value must be > 0, got {min_value}")
        self.name = name
        self.min_value = float(min_value)
        self._growth = float(growth)
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self._under = 0
        self.count = 0
        self.total = 0.0
        self._max = float("-inf")
        self._min = float("inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value
        if value <= self.min_value:
            self._under += 1
            return
        idx = int(math.log(value / self.min_value) / self._log_growth)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    # ------------------------------------------------------------ quantiles
    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0 <= q <= 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # Rank of the requested quantile, 1-based (q=1 -> the max).
        rank = max(1, math.ceil(q * self.count))
        if rank <= self._under:
            return max(self._min, 0.0) if self._min < self.min_value else self.min_value
        seen = self._under
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                # Geometric midpoint of [min * g^idx, min * g^(idx+1)).
                est = self.min_value * self._growth ** (idx + 0.5)
                return min(max(est, self._min), self._max)
        return self._max  # numerical fallback: rank beyond the last bucket

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        base = self.name
        return {
            f"{base}.count": float(self.count),
            f"{base}.mean": self.mean,
            f"{base}.p50": self.quantile(0.50),
            f"{base}.p99": self.quantile(0.99),
            f"{base}.p999": self.quantile(0.999),
            f"{base}.max": self.max,
        }

    def reset(self) -> None:
        self._buckets.clear()
        self._under = 0
        self.count = 0
        self.total = 0.0
        self._max = float("-inf")
        self._min = float("inf")


Metric = Union[Counter, Gauge, QuantileHistogram]


class MetricsRegistry:
    """Named metric store with get-or-create registration.

    Re-registering the same name with the same kind returns the existing
    handle (so a service reattached after failover keeps its totals);
    re-registering with a *different* kind is a wiring bug and raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # --------------------------------------------------------- registration
    def _get_or_create(self, name: str, kind: type, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None:
            if not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}")
            return metric
        metric = kind(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str, *, min_value: float = 1e-9,
                  growth: float = 1.05) -> QuantileHistogram:
        return self._get_or_create(  # type: ignore[return-value]
            name, QuantileHistogram, min_value=min_value, growth=growth)

    # -------------------------------------------------------------- queries
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self, prefix: str = "") -> Dict[str, float]:
        """Flatten every metric to ``{name: value}`` (histograms expand to
        ``.count/.mean/.p50/.p99/.p999/.max``), optionally prefixed."""
        out: Dict[str, float] = {}
        for name in sorted(self._metrics):
            for key, value in self._metrics[name].snapshot().items():
                out[f"{prefix}{key}" if prefix else key] = value
        return out

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()
