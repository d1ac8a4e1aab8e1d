"""1-D tessellation (Voronoi) math over level buses.

A level ``j > 0`` of TreeP is a *bus*: its nodes sorted by ID, each linked to
its left/right neighbour.  Every bus node owns the **cell** of the 1-D space
between the midpoints towards its neighbours (endpoints extend to the edges
of the space).  A node's children at level ``j-1`` are exactly the nodes
whose IDs fall inside its cell — that is the "tessellation" of §III.a and
Figure 1.

All functions operate on plain sorted ID lists so they are reusable by the
builder, the protocol engine and the property tests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.ids import IdSpace


@dataclass(frozen=True)
class Cell:
    """Half-open interval ``[lo, hi)`` of the space owned by *owner*."""

    owner: int
    lo: int
    hi: int


def cells_of_bus(space: IdSpace, bus: Sequence[int]) -> List[Cell]:
    """Tessellate the space among the sorted IDs of *bus*.

    Boundaries are midpoints between consecutive bus nodes; the first and
    last cells extend to the space edges.  The cells partition
    ``[0, extent)`` exactly (adjacent cells share boundaries, no gaps, no
    overlaps) — a property test asserts this invariant.
    """
    if not bus:
        raise ValueError("bus must be non-empty")
    ids = list(bus)
    if any(ids[i] >= ids[i + 1] for i in range(len(ids) - 1)):
        raise ValueError("bus must be strictly sorted by ID")
    if not space.contains(ids[0]) or not space.contains(ids[-1]):
        raise ValueError("bus IDs outside the space")

    cells: List[Cell] = []
    lo = 0
    for i, owner in enumerate(ids):
        hi = space.extent if i == len(ids) - 1 else space.midpoint(ids[i], ids[i + 1]) + 1
        cells.append(Cell(owner=owner, lo=lo, hi=hi))
        lo = hi
    return cells


def cell_owner(space: IdSpace, bus: Sequence[int], ident: int) -> int:
    """The bus node whose cell contains *ident* — i.e. the closest one.

    O(log |bus|) via bisection; ties broken towards the lower ID, matching
    :func:`cells_of_bus` (midpoint belongs to the left cell).
    """
    if not bus:
        raise ValueError("bus must be non-empty")
    space.validate(ident)
    idx = bisect.bisect_left(bus, ident)
    if idx == 0:
        return bus[0]
    if idx == len(bus):
        return bus[-1]
    left, right = bus[idx - 1], bus[idx]
    # Left cell is [.., midpoint]; midpoint+1 starts the right cell.
    return left if ident <= space.midpoint(left, right) else right


def children_of(space: IdSpace, bus: Sequence[int], lower_level: Sequence[int]) -> dict[int, List[int]]:
    """Partition *lower_level* IDs among the cells of *bus*.

    Returns ``{parent_id: sorted children ids}``.  Every parent appears in
    the result (possibly with an empty list); every lower-level ID is
    assigned to exactly one parent.  Linear merge — O(|bus| + |lower|);
    *lower_level* must be sorted ascending.
    """
    if not bus:
        raise ValueError("bus must be non-empty")
    if any(lower_level[i] > lower_level[i + 1] for i in range(len(lower_level) - 1)):
        raise ValueError("lower_level must be sorted ascending")
    out: dict[int, List[int]] = {p: [] for p in bus}
    cells = cells_of_bus(space, bus)
    ci = 0
    for ident in lower_level:
        while ident >= cells[ci].hi:
            ci += 1
        out[cells[ci].owner].append(ident)
    return out
