"""Failure injection.

:class:`FailureSchedule` is the paper's evaluation protocol: repeatedly
disconnect a fixed fraction (default 5%) of the *initial* population at
random, with no repair, until only a small remnant survives.  Continuous
join/leave churn is a workload, not a substrate feature: see
:class:`repro.workloads.churn.ChurnSchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.sim.network import Network


@dataclass(frozen=True)
class FailureStep:
    """One step of the paper's sweep."""

    step_index: int
    newly_failed: tuple[int, ...]
    cumulative_failed_fraction: float
    surviving: tuple[int, ...]


class FailureSchedule:
    """The paper's 5%-step random disconnect schedule.

    Parameters
    ----------
    population:
        Addresses present at steady state; fractions are of this set.
    step_fraction:
        Fraction of the initial population disconnected per step (paper: 5%).
    stop_fraction:
        Sweep ends when the surviving fraction would drop below this
        (paper: 5% of the initial topology remains).
    rng:
        Source of the kill order; the whole permutation is drawn up front so
        the set of nodes failed by step *k* is independent of how results
        are consumed.
    """

    def __init__(
        self,
        population: Sequence[int],
        rng: np.random.Generator,
        step_fraction: float = 0.05,
        stop_fraction: float = 0.05,
    ) -> None:
        if not population:
            raise ValueError("population must be non-empty")
        if not 0 < step_fraction < 1:
            raise ValueError(f"step_fraction must be in (0,1), got {step_fraction}")
        if not 0 <= stop_fraction < 1:
            raise ValueError(f"stop_fraction must be in [0,1), got {stop_fraction}")
        self.population: List[int] = list(population)
        self.step_fraction = step_fraction
        self.stop_fraction = stop_fraction
        # ``tolist`` hands back Python ints: NumPy scalars would compare
        # with float radii in float64, inexactly past 2**53.
        self._order: List[int] = rng.permutation(self.population).tolist()

    def steps(self) -> Iterator[FailureStep]:
        """Yield successive failure steps.

        Step *k* (1-based) has killed ``k * step_fraction`` of the initial
        population in total.  The final step leaves at least
        ``stop_fraction`` of the population alive.
        """
        n = len(self.population)
        per_step = max(1, int(round(self.step_fraction * n)))
        max_killed = int(np.floor((1.0 - self.stop_fraction) * n))
        killed = 0
        step_index = 0
        while killed < max_killed:
            take = min(per_step, max_killed - killed)
            newly = tuple(self._order[killed : killed + take])
            killed += take
            step_index += 1
            surviving = tuple(self._order[killed:])
            yield FailureStep(
                step_index=step_index,
                newly_failed=newly,
                cumulative_failed_fraction=killed / n,
                surviving=surviving,
            )

    def apply_step(self, network: Network, step: FailureStep) -> None:
        """Crash-stop the step's victims on *network*."""
        for addr in step.newly_failed:
            network.set_down(addr)
