"""Reference helpers the tests compare the package against.

None of these is on a path the package runs: each is an invariant
checker, a closed-form figure or a fixed model that a test holds the
real code up to, so they live with the tests.  Import them as
``from reference import ...`` (pytest puts ``tests/`` on ``sys.path``).
"""

from __future__ import annotations

import bisect
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TreePConfig
from repro.core.hierarchy import HierarchyLayout
from repro.core.tessellation import cell_owner
from repro.sim.latency import LatencyModel


# ------------------------------------------------------------- hierarchy

def validate(layout: HierarchyLayout, config: TreePConfig) -> None:
    """Assert every structural invariant of *layout*; raises
    ``AssertionError``."""
    space = config.space
    for j, bus in enumerate(layout.levels):
        assert bus == sorted(bus), f"level {j} bus not sorted"
        assert len(set(bus)) == len(bus), f"level {j} bus has duplicates"
    for j in range(1, len(layout.levels)):
        upper, lower = set(layout.levels[j]), set(layout.levels[j - 1])
        assert upper <= lower, f"level {j} not a subset of level {j-1}"
    for (p, j), kids in layout.children.items():
        assert p in layout.levels[j], f"parent {p} not on bus {j}"
        limit = layout.nc[p]
        assert len(kids) <= limit, (
            f"parent {p} at level {j} has {len(kids)} children > nc={limit}"
        )
        for k in kids:
            assert cell_owner(space, layout.levels[j], k) == p, (
                f"child {k} not in cell of {p} at level {j}"
            )


def theoretical_height(n: int, c: float) -> float:
    """§III.e: ``h = log_c((n + 1) / 2)`` for average children *c*."""
    if n < 1 or c <= 1:
        raise ValueError("need n >= 1 and c > 1")
    return float(np.log((n + 1) / 2.0) / np.log(c))


def bus_neighbours(bus: Sequence[int], ident: int) -> Tuple[Optional[int], Optional[int]]:
    """Left and right bus neighbours of *ident* (``None`` at endpoints)."""
    idx = bisect.bisect_left(bus, ident)
    if idx >= len(bus) or bus[idx] != ident:
        raise ValueError(f"{ident} not on the bus")
    left = bus[idx - 1] if idx > 0 else None
    right = bus[idx + 1] if idx < len(bus) - 1 else None
    return left, right


# ------------------------------------------------------------------- sim

class ConstantLatency(LatencyModel):
    """Every datagram takes exactly *value* seconds: the fixed latency
    tests pin delivery times and arrival order against."""

    def __init__(self, value: float = 0.01) -> None:
        if not value > 0:
            raise ValueError(f"latency must be > 0, got {value}")
        self.value = float(value)

    def sample(self, src: int, dst: int) -> float:
        return self.value


def heap_size(queue) -> int:
    """An :class:`~repro.sim.events.EventQueue`'s physical heap length,
    tombstones included (``len(queue)`` counts live events only)."""
    return len(queue._heap)


def live_timers(group) -> list:
    """The still-running timers of a :class:`~repro.sim.engine.TimerGroup`;
    none for ``None`` (a node that never armed one has no group)."""
    if group is None:
        return []
    return [t for t in group._timers if t.running]


# ------------------------------------------------------- tables, storage

def membership(table) -> int:
    """A routing table's membership epoch: it moves exactly when the set
    of known ids does."""
    return table._membership


def live_replica_count(store, key_id: int) -> int:
    """Live copies of *key_id* across a
    :class:`~repro.storage.quorum.ReplicatedStore`."""
    return len(store.replica_map(live_only=True).get(key_id, ()))
