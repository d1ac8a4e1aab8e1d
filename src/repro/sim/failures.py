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


#: Fraction of the initial population disconnected per step (paper: 5%).
STEP_FRACTION = 0.05

#: The sweep ends when the surviving fraction would drop below this
#: (paper: 5% of the initial topology remains).
STOP_FRACTION = 0.05


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
        Addresses present at steady state; :data:`STEP_FRACTION` and
        :data:`STOP_FRACTION` are fractions of this set.
    rng:
        Source of the kill order; the whole permutation is drawn up front so
        the set of nodes failed by step *k* is independent of how results
        are consumed.
    """

    def __init__(
        self,
        population: Sequence[int],
        rng: np.random.Generator,
    ) -> None:
        if not population:
            raise ValueError("population must be non-empty")
        self.population: List[int] = list(population)
        # ``tolist`` hands back Python ints: NumPy scalars would compare
        # with float radii in float64, inexactly past 2**53.
        self._order: List[int] = rng.permutation(self.population).tolist()

    def steps(self) -> Iterator[FailureStep]:
        """Yield successive failure steps.

        Step *k* (1-based) has killed ``k * STEP_FRACTION`` of the initial
        population in total.  The final step leaves at least
        ``STOP_FRACTION`` of the population alive.
        """
        n = len(self.population)
        per_step = max(1, int(round(STEP_FRACTION * n)))
        max_killed = int(np.floor((1.0 - STOP_FRACTION) * n))
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
