"""Adversarial workload plans: rack failures, stragglers, partition cuts.

The propagation physics (how a cut blocks datagrams, how a straggler
slows a link) lives in :mod:`repro.sim.conditions`; this module makes the
*topology* decisions — which overlay subtree counts as a rack, which
address sets end up on each side of a cut, who runs slow — from nothing
but a ``topology_snapshot()`` mapping (``{node: parent, root: -1}``) and
a dedicated RNG stream.  Like :mod:`repro.workloads.churn` it is purely
declarative (no sim import): plans are values a driver replays onto a
cluster, so the same plan can feed a scenario or a test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.churn import ChurnEvent, ChurnSchedule

__all__ = [
    "PartitionPlan",
    "RackFailurePlan",
    "StragglerPlan",
    "children_map",
    "subtree_members",
    "subtree_in_span",
    "subtree_partition_plan",
    "rack_failure_plan",
    "straggler_plan",
]


def children_map(topology: Mapping[int, int]) -> Dict[int, List[int]]:
    """Invert a ``{node: parent}`` snapshot into sorted child lists."""
    children: Dict[int, List[int]] = {}
    for node in sorted(topology):
        parent = topology[node]
        if parent >= 0:
            children.setdefault(parent, []).append(node)
    return children


def subtree_members(topology: Mapping[int, int], root: int) -> List[int]:
    """Every node in the subtree rooted at *root* (inclusive), sorted."""
    if root not in topology:
        raise ValueError(f"node {root} not in topology")
    children = children_map(topology)
    members: List[int] = []
    frontier = [root]
    while frontier:
        node = frontier.pop()
        members.append(node)
        frontier.extend(children.get(node, ()))
    return sorted(members)


def _internal_nodes(topology: Mapping[int, int]) -> List[int]:
    """Nodes with at least one child, excluding the overlay root (killing
    the root's subtree is the whole network, not a rack)."""
    children = children_map(topology)
    return sorted(n for n in children if topology.get(n, -1) >= 0)


def subtree_in_span(
    topology: Mapping[int, int],
    rng: np.random.Generator,
    lo: float,
    hi: float,
) -> int:
    """Pick an internal non-root node whose subtree covers a fraction of
    the population within ``[lo, hi]`` — the "one rack, but not half the
    overlay" cut used by partition scenarios.  Candidates are visited in
    a *rng*-permuted order; if none lands in the span, the nearest miss
    is returned (small topologies may only offer leaves-plus-everything).
    """
    if not 0.0 <= lo <= hi:
        raise ValueError(f"need 0 <= lo <= hi, got [{lo}, {hi}]")
    candidates = _internal_nodes(topology)
    if not candidates:
        raise ValueError("topology has no internal non-root nodes")
    population = len(topology)
    order = [candidates[i] for i in rng.permutation(len(candidates))]
    best, best_err = order[0], float("inf")
    for root in order:
        frac = len(subtree_members(topology, root)) / population
        if lo <= frac <= hi:
            return root
        err = (lo - frac) if frac < lo else (frac - hi)
        if err < best_err:
            best, best_err = root, err
    return best


@dataclass(frozen=True)
class RackFailurePlan:
    """Correlated kill-set: whole subtrees instead of a random sample.

    ``racks`` are disjoint subtree member tuples in kill order;
    :attr:`victims` flattens them.  ``fraction`` is the *achieved* kill
    fraction over the snapshot population (the plan stops adding racks
    once the target is met, so it can overshoot by at most one rack).
    """

    racks: Tuple[Tuple[int, ...], ...]
    population: int
    fraction: float

    @property
    def victims(self) -> Tuple[int, ...]:
        return tuple(n for rack in self.racks for n in rack)

    def as_schedule(self, start: float, spacing: float) -> ChurnSchedule:
        """One leave event per victim, racks staggered ``spacing`` apart
        (members of one rack fail at the same instant — that is the
        correlation)."""
        events = [ChurnEvent(time=start + i * spacing, kind="leave", node=n)
                  for i, rack in enumerate(self.racks) for n in rack]
        return ChurnSchedule(events=events)


def rack_failure_plan(
    topology: Mapping[int, int],
    rng: np.random.Generator,
    fraction: float,
    max_rack_span: Optional[float] = 0.5,
) -> RackFailurePlan:
    """Pick disjoint overlay subtrees ("racks") until at least
    ``fraction`` of the snapshot population is covered.

    Candidate racks are the subtrees under internal non-root nodes,
    visited in a *rng*-permuted order; a candidate overlapping an
    already-chosen rack, or spanning more than ``max_rack_span`` of the
    population (a cap that keeps one giant subtree from trivially being
    "the failure"), is skipped.  When the candidates run dry before the
    target, leaves are drafted as single-node racks so ``fraction=1.0``
    and leaf-heavy topologies still terminate.
    """
    if not topology:
        raise ValueError("topology is empty")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    population = len(topology)
    target = int(np.ceil(fraction * population))
    cap = population if max_rack_span is None else max(
        1, int(max_rack_span * population))

    candidates = _internal_nodes(topology)
    order = [candidates[i] for i in rng.permutation(len(candidates))]
    chosen: List[Tuple[int, ...]] = []
    covered: set = set()
    for root in order:
        if len(covered) >= target:
            break
        members = subtree_members(topology, root)
        if len(members) > cap or covered.intersection(members):
            continue
        chosen.append(tuple(members))
        covered.update(members)
    if len(covered) < target:
        spares = [n for n in sorted(topology) if n not in covered]
        order = [spares[i] for i in rng.permutation(len(spares))]
        for node in order:
            if len(covered) >= target:
                break
            chosen.append((node,))
            covered.add(node)
    return RackFailurePlan(racks=tuple(chosen), population=population,
                           fraction=len(covered) / population)


@dataclass(frozen=True)
class StragglerPlan:
    """A victim set and how much slower its links run."""

    victims: Tuple[int, ...]
    factor: float

    @property
    def victim_set(self) -> frozenset:
        return frozenset(self.victims)


def straggler_plan(
    population: Sequence[int],
    rng: np.random.Generator,
    fraction: float,
    factor: float,
) -> StragglerPlan:
    """Draw ``ceil(fraction * len(population))`` stragglers uniformly."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    pool = sorted(int(n) for n in population)
    count = int(np.ceil(fraction * len(pool))) if pool else 0
    picks = (rng.choice(len(pool), size=count, replace=False)
             if count else np.empty(0, dtype=int))
    return StragglerPlan(victims=tuple(sorted(pool[i] for i in picks)),
                         factor=float(factor))


@dataclass(frozen=True)
class PartitionPlan:
    """A timed cut between two address sets, ready for
    ``NetworkConditions.schedule`` (or a manual cut/heal pair)."""

    a: Tuple[int, ...]
    b: Tuple[int, ...]
    start: float
    duration: float
    bidirectional: bool = True
    name: str = ""

    @property
    def heal_time(self) -> float:
        return self.start + self.duration


def subtree_partition_plan(
    topology: Mapping[int, int],
    root: int,
    start: float,
    duration: float,
    *,
    bidirectional: bool = True,
    name: str = "",
) -> PartitionPlan:
    """Cut the subtree under *root* off from the rest of the overlay —
    the canonical rack-uplink failure."""
    inside = subtree_members(topology, root)
    inside_set = set(inside)
    outside = sorted(n for n in topology if n not in inside_set)
    if not outside:
        raise ValueError(f"subtree at {root} spans the whole topology")
    return PartitionPlan(a=tuple(inside), b=tuple(outside), start=start,
                         duration=duration, bidirectional=bidirectional,
                         name=name or f"subtree-{root}")
