"""Churn schedules beyond the paper's no-repair failure sweep.

§VI plans "various churn rates" on Grid-5000; :class:`ChurnSchedule` is the
declarative version: a sequence of timed join/leave events, either scripted
or sampled from session/downtime distributions, replayable onto a network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Literal, Sequence

import numpy as np

EventKind = Literal["leave", "rejoin"]


@dataclass(frozen=True)
class ChurnEvent:
    time: float
    kind: EventKind
    node: int


@dataclass
class ChurnSchedule:
    """A precomputed, sorted list of churn events."""

    events: List[ChurnEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events.sort(key=lambda e: e.time)

    def __iter__(self) -> Iterator[ChurnEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def until(self, t: float) -> List[ChurnEvent]:
        return [e for e in self.events if e.time <= t]

    @staticmethod
    def sampled(
        population: Sequence[int],
        rng: np.random.Generator,
        duration: float,
        mean_uptime: float = 300.0,
        mean_downtime: float = 60.0,
    ) -> "ChurnSchedule":
        """Exponential on/off sessions for every node over *duration*.

        Nodes start up; leave after Exp(mean_uptime); rejoin after
        Exp(mean_downtime); repeat.  The classic P2P churn model.
        """
        if not duration > 0:
            raise ValueError("duration must be > 0")
        if not (mean_uptime > 0 and mean_downtime > 0):
            raise ValueError("mean_uptime and mean_downtime must be > 0")
        events: List[ChurnEvent] = []
        for node in population:
            t = float(rng.exponential(mean_uptime))
            up = True
            while t < duration:
                events.append(ChurnEvent(time=t, kind="leave" if up else "rejoin", node=node))
                t += float(rng.exponential(mean_downtime if up else mean_uptime))
                up = not up
        return ChurnSchedule(events=events)

    def churn_rate(self, duration: float) -> float:
        """Leave events per node-second (a scalar intensity measure)."""
        if not duration > 0:
            raise ValueError("duration must be > 0")
        leaves = sum(1 for e in self.events if e.kind == "leave")
        nodes = len({e.node for e in self.events}) or 1
        return leaves / (nodes * duration)
