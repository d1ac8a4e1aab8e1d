"""Grid job traffic: arrival processes, mixed demands, DAG batches.

:class:`JobWorkload` draws :class:`~repro.compute.job.JobSpec` streams:
a Poisson arrival process over jobs with discrete CPU-demand classes and
log-normal work sizes, an optional fraction carrying minimum-capability
constraints, plus layered DAG batches (every job in layer *i* depends on
every job in layer *i-1* — the fan-out/fan-in shape of a staged grid
computation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.compute.job import JobSpec
from repro.services.discovery import Constraint


@dataclass
class JobWorkload:
    """Generator of seeded grid-job streams.

    Parameters
    ----------
    rng:
        Randomness source (use a dedicated substream).
    arrival_rate:
        Mean job arrivals per virtual second (exponential inter-arrivals).
    demand_classes / demand_weights:
        Discrete CPU-demand mix (share units), sampled per job.
    work_mean / work_sigma:
        Log-normal work size (virtual seconds of unit-rate compute).
    constrained_fraction:
        Probability a job carries a minimum-capability constraint drawn
        from :attr:`constraint_pool`.
    """

    rng: np.random.Generator
    arrival_rate: float = 0.5
    demand_classes: Sequence[float] = (0.5, 1.0, 2.0)
    demand_weights: Sequence[float] = (0.5, 0.35, 0.15)
    work_mean: float = 20.0
    work_sigma: float = 0.5
    constrained_fraction: float = 0.25
    constraint_pool: Sequence[Constraint] = (
        Constraint(min_cpu=2.0),
        Constraint(min_memory_gb=4.0),
        Constraint(min_cpu=2.0, min_bandwidth_mbps=20.0),
    )
    _ids: "itertools.count" = field(default_factory=lambda: itertools.count(1),
                                    repr=False)

    def __post_init__(self) -> None:
        if not self.arrival_rate > 0:
            raise ValueError(f"arrival_rate must be > 0, got {self.arrival_rate}")
        if len(self.demand_classes) != len(self.demand_weights):
            raise ValueError("demand_classes and demand_weights must align")
        if not all(d > 0 for d in self.demand_classes):
            raise ValueError("demand classes must be > 0")
        if not 0.0 <= self.constrained_fraction <= 1.0:
            raise ValueError("constrained_fraction must be in [0, 1]")
        if not self.work_mean > 0:
            raise ValueError(f"work_mean must be > 0, got {self.work_mean}")

    # ------------------------------------------------------------- sampling
    def _demand(self) -> float:
        w = np.asarray(self.demand_weights, dtype=float)
        idx = int(self.rng.choice(len(self.demand_classes), p=w / w.sum()))
        return float(self.demand_classes[idx])

    def _work(self) -> float:
        mu = np.log(self.work_mean) - 0.5 * self.work_sigma ** 2
        return float(max(1.0, self.rng.lognormal(mu, self.work_sigma)))

    def _constraint(self) -> Constraint:
        if self.rng.random() >= self.constrained_fraction:
            return Constraint()
        return self.constraint_pool[int(self.rng.integers(0, len(self.constraint_pool)))]

    def jobs(self, count: int, start: float = 0.0) -> List[JobSpec]:
        """Draw *count* independent jobs with Poisson arrivals from *start*."""
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")
        t = start
        out: List[JobSpec] = []
        for _ in range(count):
            t += float(self.rng.exponential(1.0 / self.arrival_rate))
            out.append(JobSpec(
                job_id=next(self._ids),
                cpu_demand=self._demand(),
                work=self._work(),
                constraint=self._constraint(),
                submit_at=t,
            ))
        return out

    def dag_batch(
        self,
        layers: Sequence[int],
        submit_at: float = 0.0,
        work: Optional[float] = None,
    ) -> List[JobSpec]:
        """A layered DAG: ``layers[i]`` jobs, each depending on all of
        layer ``i-1`` (fan-out then fan-in when widths shrink).

        The whole batch is submitted at *submit_at* — ordering is enforced
        by the scheduler's dependency tracking, not by arrival times.
        """
        if not layers or any(w < 1 for w in layers):
            raise ValueError("layers must be a non-empty sequence of >= 1")
        out: List[JobSpec] = []
        prev: Tuple[int, ...] = ()
        for width in layers:
            ids = [next(self._ids) for _ in range(width)]
            for jid in ids:
                out.append(JobSpec(
                    job_id=jid,
                    cpu_demand=self._demand(),
                    work=work if work is not None else self._work(),
                    deps=prev,
                    submit_at=submit_at,
                ))
            prev = tuple(ids)
        return out
