"""Replica placement strategies.

A strategy answers two questions:

* :meth:`~PlacementStrategy.replicas` — **node-local**: where should the
  coordinating (responsible) node place the N copies of a key, using only
  its own routing table?  This is what quorum writes use.
* :meth:`~PlacementStrategy.repair_targets` — **converged view**: given the
  network's current live population, where *should* the N copies live?
  This is what the anti-entropy sweep uses to detect and fix
  under-replication, mirroring the converged-mode healing in
  :mod:`repro.core.repair`.

Two strategies ship:

* :class:`Level0Placement` — the seed DHT's scheme: the responsible node
  plus its level-0 bus neighbours.  Cheap (the copies ride links the
  overlay already maintains) but correlated: adjacent IDs fail together
  under spatially correlated churn.
* :class:`SuccessorPlacement` — ID-space successor-style placement over the
  tessellation: the N live peers Euclidean-closest to the key.  Because the
  level-0 bus is ID-ordered, the responsible node's own neighbourhood
  usually *is* that set, so the node-local and converged answers agree once
  maintenance has healed the tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Type

from repro.core.ids import closest_first

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode
    from repro.core.treep import TreePNetwork


class PlacementStrategy(Protocol):
    """Where the N replicas of a key should live."""

    name: str

    def replicas(self, node: "TreePNode", key_id: int, n: int) -> List[int]:
        """Up to *n* distinct targets, the coordinator (*node*) first."""
        ...

    def repair_targets(
        self,
        net: "TreePNetwork",
        key_id: int,
        n: int,
        live: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """The ideal live replica set for *key_id* given current liveness.

        *live* lets a sweep pass the precomputed live population — in
        **ascending** id order — instead of re-scanning (and re-sorting) it
        per key.
        """
        ...


def _pad_with_closest(
    out: List[int], sorted_pool: Sequence[int], key_id: int, n: int
) -> List[int]:
    """Extend *out* to *n* entries with the members of the ascending
    *sorted_pool* closest to the key (ties to the smaller id)."""
    for _, ident in closest_first(sorted_pool, key_id):
        if len(out) >= n:
            break
        if ident not in out:
            out.append(ident)
    return out


class Level0Placement:
    """Responsible node + its level-0 neighbours (the seed DHT's scheme)."""

    name = "level0"

    def replicas(self, node: "TreePNode", key_id: int, n: int) -> List[int]:
        out = _pad_with_closest([node.ident], sorted(node.table.level0), key_id, n)
        if len(out) < n:
            # Thin neighbourhood (bus endpoint): widen to indirect knowledge.
            _pad_with_closest(out, sorted(node.table.level0_indirect), key_id, n)
        return out[:n]

    def repair_targets(
        self,
        net: "TreePNetwork",
        key_id: int,
        n: int,
        live: Optional[Sequence[int]] = None,
    ) -> List[int]:
        if live is None:
            live = sorted(net.alive_ids())
        if not live:
            return []
        out = _pad_with_closest([], live, key_id, 1)  # the responsible node
        up = net.network.is_up
        neighbours = sorted(i for i in net.nodes[out[0]].table.level0 if up(i))
        _pad_with_closest(out, neighbours, key_id, n)
        return _pad_with_closest(out, live, key_id, n)[:n]


class SuccessorPlacement:
    """The N peers Euclidean-closest to the key in the ID space."""

    name = "successor"

    def replicas(self, node: "TreePNode", key_id: int, n: int) -> List[int]:
        return _pad_with_closest(
            [node.ident], node.table.sorted_ids(), key_id, n)[:n]

    def repair_targets(
        self,
        net: "TreePNetwork",
        key_id: int,
        n: int,
        live: Optional[Sequence[int]] = None,
    ) -> List[int]:
        if live is None:
            live = sorted(net.alive_ids())
        return _pad_with_closest([], live, key_id, n)


_STRATEGIES: Dict[str, Type] = {
    Level0Placement.name: Level0Placement,
    SuccessorPlacement.name: SuccessorPlacement,
}


def make_placement(name_or_strategy) -> PlacementStrategy:
    """Resolve a strategy instance from a name or pass an instance through."""
    if isinstance(name_or_strategy, str):
        try:
            return _STRATEGIES[name_or_strategy]()
        except KeyError:
            raise ValueError(
                f"unknown placement strategy {name_or_strategy!r}; "
                f"choose from {sorted(_STRATEGIES)}"
            ) from None
    return name_or_strategy
