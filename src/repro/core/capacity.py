"""Heterogeneous node capability model.

The paper promotes nodes on "CPU, Memory, Bandwidth, network load, systems
load, Uptime and Storage Space" (§III.a) and sizes election countdowns and
the variable maximum-children parameter from the same characteristics.  This
module defines the capability vector, the scalar **capacity score** those
mechanisms consume, and samplers producing realistic heterogeneous
populations (log-normal bandwidth, discrete CPU classes, Pareto uptime — the
shapes reported by the P2P measurement studies the paper cites).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

#: The five resources the score combines, in the order it reads them.
_RESOURCES = ("cpu", "memory_gb", "bandwidth_mbps", "storage_gb", "uptime_hours")


@dataclass(frozen=True)
class NodeCapacity:
    """Static capabilities plus slowly-varying load of one peer.

    Units are normalised: ``cpu`` in abstract cores, ``memory_gb`` /
    ``storage_gb`` in GB, ``bandwidth_mbps`` in Mbit/s, ``uptime_hours`` the
    node's historical mean session length, loads in ``[0, 1]``.
    """

    cpu: float = 1.0
    memory_gb: float = 1.0
    bandwidth_mbps: float = 10.0
    storage_gb: float = 50.0
    uptime_hours: float = 10.0
    cpu_load: float = 0.0
    net_load: float = 0.0

    def __post_init__(self) -> None:
        for name in _RESOURCES:
            v = getattr(self, name)
            if not 0.0 < v < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        for name in ("cpu_load", "net_load"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")

    # ------------------------------------------------------------- scoring
    @property
    def effective_cpu(self) -> float:
        """CPU shares actually available: capacity minus current load.

        The one definition the scheduler matchmaker and the workers both
        size assignments against.
        """
        return self.cpu * (1.0 - self.cpu_load)

    def score(self) -> float:
        """Scalar capacity in ``(0, +inf)``; higher is better.

        Geometric mean of log-scaled resources, discounted by current load
        (see :func:`fill_scores`, the one evaluation of the formula).
        Computed once per instance: the fields are frozen, and
        ``dataclasses.replace()`` builds a new instance that computes its own.
        """
        try:
            return self._score  # type: ignore[attr-defined]
        except AttributeError:
            fill_scores((self,))
            return self._score  # type: ignore[attr-defined]

    # ------------------------------------------------- protocol quantities
    def max_children(self, floor: int = 2, ceiling: int = 8, pivot: float = 2.2) -> int:
        """Variable-``nc``: children this node can parent (paper case 2).

        Maps the score onto ``[floor, ceiling]`` with *pivot* the score that
        earns the midpoint.  Monotone in the score.
        """
        if floor < 2:
            raise ValueError("a parent must support at least 2 children")
        if ceiling < floor:
            raise ValueError(f"ceiling {ceiling} < floor {floor}")
        s = self.score()
        frac = s / (s + pivot)  # in (0, 1), 0.5 at s == pivot
        return int(round(floor + frac * (ceiling - floor)))

    def promotion_countdown(self, base: float = 1.0, rng: np.random.Generator | None = None) -> float:
        """Election countdown: *higher* capacity → *shorter* countdown (§III.b).

        A small random jitter (up to 10%) breaks exact-score ties without
        materially changing the ordering.
        """
        jitter = 1.0 + (0.1 * float(rng.random()) if rng is not None else 0.0)
        return base * jitter / (1.0 + self.score())

    def demotion_countdown(self, base: float = 1.0, rng: np.random.Generator | None = None) -> float:
        """Under-filled-parent countdown: *higher* capacity → *longer* wait.

        Powerful parents linger, giving the system time to route new
        children to them before they abdicate (§III.b).
        """
        jitter = 1.0 + (0.1 * float(rng.random()) if rng is not None else 0.0)
        return base * jitter * (1.0 + self.score())


def fill_scores(capacities: Iterable[NodeCapacity]) -> None:
    """Memoise :meth:`NodeCapacity.score` on every capacity lacking it, with
    one ``(k, 5)`` NumPy evaluation: the geometric mean of the log-scaled
    resources, times the load penalty.  The geometric mean keeps any single
    huge resource from dominating (a fat pipe on a loaded CPU should not win
    every election).  Each row's result is bit-identical whatever *k* is.
    """
    todo = [c for c in capacities if not hasattr(c, "_score")]
    if not todo:
        return
    resources = np.log1p(np.array(
        [(c.cpu, c.memory_gb, c.bandwidth_mbps, c.storage_gb, c.uptime_hours) for c in todo],
        dtype=np.float64,
    ))
    gmean = np.exp(np.mean(np.log(resources + 1e-9), axis=1))
    for c, g in zip(todo, gmean.tolist()):
        load_penalty = (1.0 - 0.5 * c.cpu_load) * (1.0 - 0.5 * c.net_load)
        # Not via ``c.__dict__``: that would materialise a dict per
        # instance (+64 B each); this keeps CPython's inline attribute storage.
        object.__setattr__(c, "_score", g * load_penalty)


#: ``CapacityDistribution``'s CPU classes and the normalised cdf NumPy's
#: ``Generator.choice(_CPU, p=_CPU_P)`` looks one ``random()`` draw up in.
_CPU = (1.0, 2.0, 4.0, 8.0, 16.0)
_CPU_P = (0.35, 0.3, 0.2, 0.1, 0.05)
_CPU_CDF = (np.cumsum(_CPU_P) / np.cumsum(_CPU_P)[-1]).tolist()
_LOG_10 = np.log(10.0)
_LOG_100 = np.log(100.0)


class CapacityDistribution:
    """Sampler of heterogeneous capability vectors.

    The defaults model a mixed desktop/server population:

    * CPU: discrete classes {1, 2, 4, 8, 16} with a skew towards small.
    * Memory: 2**U(0, 6) GB.
    * Bandwidth: log-normal (median ~10 Mbit/s, long upper tail).
    * Storage: log-normal around ~100 GB.
    * Uptime: Pareto (most sessions short, a stable core very long).
    * Loads: Beta(2, 5) — mostly lightly loaded.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def sample(self) -> NodeCapacity:
        r = self.rng
        # ``r.choice(_CPU, p=_CPU_P)``'s own draw and lookup, without its
        # per-call validation of ``p``: the same one double, the same class.
        cpu = _CPU[bisect_right(_CPU_CDF, r.random())]
        memory = float(2.0 ** r.uniform(0, 6))
        bandwidth = float(np.exp(r.normal(_LOG_10, 1.0)))
        storage = float(np.exp(r.normal(_LOG_100, 0.8)))
        uptime = float((r.pareto(1.5) + 1.0) * 2.0)
        cpu_load = float(r.beta(2, 5))
        net_load = float(r.beta(2, 5))
        return NodeCapacity(
            cpu=cpu,
            memory_gb=memory,
            bandwidth_mbps=bandwidth,
            storage_gb=storage,
            uptime_hours=uptime,
            cpu_load=cpu_load,
            net_load=net_load,
        )

    def sample_many(self, count: int) -> List[NodeCapacity]:
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")
        return [self.sample() for _ in range(count)]
