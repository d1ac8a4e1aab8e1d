"""Steady-state hierarchy construction.

:func:`build_layout` is the deterministic construction of the full TreeP
hierarchy from a node population.  The paper evaluates TreeP "when the
system reaches its steady state"; this builder produces exactly such a
state (every level a sorted bus, every cell within its parent's ``nc``
bound, parents the highest-capacity members of their cells — the fixed
point the countdown elections converge to).  Experiments start here and
then stress the topology; the *dynamic* countdown protocols of §III.b run
in the live protocol engine (:class:`~repro.core.node.TreePNode`) when
nodes join, leave or fail.

The builder enforces the tessellation invariant (children are exactly the
nodes inside the parent's 1-D Voronoi cell) by iterated refinement: seed
parents greedily, assign children by cells, then split over-full cells by
promoting their best child until every cell respects ``nc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.capacity import NodeCapacity, fill_scores
from repro.core.config import TreePConfig
from repro.core.tessellation import cell_owner, children_of


@dataclass(slots=True)
class HierarchyLayout:
    """The complete steady-state structure of a TreeP overlay.

    Attributes
    ----------
    levels:
        ``levels[0]`` is the sorted list of all IDs; ``levels[j]`` (j > 0)
        the sorted bus of level *j*.  ``len(levels) - 1`` is the height.
    max_level:
        Highest level of each node.
    parent:
        ``parent[(ident, j)]`` is the level-(j+1) cell owner covering
        *ident*'s position on bus *j* — only stored for ``j = max_level``
        (below that a node covers itself).
    children:
        ``children[(parent, j)]`` — IDs on bus ``j-1`` inside the parent's
        level-``j`` cell, excluding the parent itself.
    nc:
        Effective maximum-children bound used for each node.
    """

    levels: List[List[int]]
    max_level: Dict[int, int]
    parent: Dict[int, Optional[int]]
    children: Dict[tuple[int, int], List[int]]
    nc: Dict[int, int]
    scores: Dict[int, float]

    @property
    def height(self) -> int:
        """Number of levels above 0 — the paper's ``h``."""
        return len(self.levels) - 1

    def ancestors(self, ident: int) -> List[int]:
        """The superior chain of *ident* (Figure 2), nearest first."""
        out: List[int] = []
        cur: Optional[int] = self.parent.get(ident)
        seen = {ident}
        while cur is not None and cur not in seen:
            out.append(cur)
            seen.add(cur)
            cur = self.parent.get(cur)
        return out

    def average_children(self) -> float:
        counts = [len(v) for v in self.children.values()]
        return float(np.mean(counts)) if counts else 0.0


def _effective_nc(config: TreePConfig, cap: NodeCapacity) -> int:
    """A parent's children bound: ``nc_fixed``, or in variable mode what
    its capacity affords (the builder and every live node read this)."""
    if config.nc_mode == "fixed":
        return config.nc_fixed
    return cap.max_children()


def _seed_parents(
    bus: Sequence[int],
    scores: Dict[int, float],
    nc_of: Dict[int, int],
) -> List[int]:
    """Greedy sweep: pick one parent per contiguous group.

    Walk the bus left to right; look at the next window of nodes, choose the
    highest-score one as parent, and size the group by *that* parent's
    ``nc``.  This is the deterministic analogue of "the node with the
    shortest countdown wins the election in its neighbourhood".
    """
    parents: List[int] = []
    i = 0
    n = len(bus)
    while i < n:
        # Pick the best-score node in a bounded look-ahead window.
        window = bus[i : i + 8]
        p = max(window, key=lambda b: (scores[b], -b))
        size = max(2, min(nc_of[p], n - i))
        group = bus[i : i + size]
        if p not in group:
            p = max(group, key=lambda b: (scores[b], -b))
        parents.append(p)
        i += size
    return sorted(parents)


def _split_overfull(
    space_cfg: TreePConfig,
    bus_lower: Sequence[int],
    parents: List[int],
    scores: Dict[int, float],
    nc_of: Dict[int, int],
) -> tuple[List[int], Dict[int, List[int]]]:
    """Assign children by tessellation; promote best children until no cell
    exceeds its owner's ``nc``.  Returns (final sorted bus, children map
    *excluding* the parent itself from its own cell)."""
    space = space_cfg.space
    bus = sorted(parents)
    for _ in range(len(bus_lower) + 1):  # each pass adds >= 1 parent; bounded
        assignment = children_of(space, bus, list(bus_lower))
        overfull = []
        for p, members in assignment.items():
            kids = [m for m in members if m != p]
            if len(kids) > nc_of[p]:
                overfull.append((p, kids))
        if not overfull:
            return bus, {
                p: [m for m in members if m != p]
                for p, members in assignment.items()
            }
        for p, kids in overfull:
            # Promote the highest-capacity child — B-tree-style cell split.
            promoted = max(kids, key=lambda b: (scores[b], -b))
            bus.append(promoted)
        bus = sorted(set(bus))
    raise RuntimeError("cell splitting did not converge")  # pragma: no cover


def build_layout(
    ids: Sequence[int],
    capacities: Dict[int, NodeCapacity],
    config: TreePConfig,
) -> HierarchyLayout:
    """Construct the steady-state hierarchy for *ids*.

    Parameters
    ----------
    ids:
        Node IDs (any order, must be distinct and inside the space).
    capacities:
        Capability vector per ID — drives parent choice and variable ``nc``.
    config:
        The overlay configuration (nc mode, height bound, …).
    """
    if len(ids) < 2:
        raise ValueError("a TreeP network needs at least 2 nodes")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate node IDs")
    for i in ids:
        config.space.validate(i)

    fill_scores(capacities[i] for i in ids)
    scores = {i: capacities[i].score() for i in ids}
    nc_of = {i: _effective_nc(config, capacities[i]) for i in ids}

    levels: List[List[int]] = [sorted(ids)]
    children: Dict[tuple[int, int], List[int]] = {}

    while len(levels[-1]) > 1 and len(levels) - 1 < config.max_height:
        lower = levels[-1]
        j = len(levels)  # level being built
        seeds = _seed_parents(lower, scores, nc_of)
        if len(seeds) >= len(lower):
            # Cannot shrink further (e.g. 2 nodes, both seeded): promote one.
            seeds = [max(lower, key=lambda b: (scores[b], -b))]
        bus, kids_map = _split_overfull(config, lower, seeds, scores, nc_of)
        if len(bus) >= len(lower):
            break  # no progress; stop growing
        for p, kids in kids_map.items():
            children[(p, j)] = kids
        levels.append(bus)

    max_level = {i: 0 for i in ids}
    for j in range(1, len(levels)):
        for i in levels[j]:
            max_level[i] = j

    parent: Dict[int, Optional[int]] = {}
    for i in ids:
        m = max_level[i]
        if m + 1 < len(levels):
            parent[i] = cell_owner(config.space, levels[m + 1], i)
        else:
            parent[i] = None

    return HierarchyLayout(
        levels=levels,
        max_level=max_level,
        parent=parent,
        children=children,
        nc=nc_of,
        scores=scores,
    )
