"""Replica placement: the N ids closest to a key, successor-list style.

The N copies of a key live on the N peers Euclidean-closest to it in the
ID space: Chord's successor list (Stoica et al., SIGCOMM 2001), with
closeness measured both ways along TreeP's line.  Two functions answer
that question from two vantage points:

* :func:`replicas` — **node-local**: where the coordinating (responsible)
  node places the copies, using only its own routing table.  This is what
  quorum writes and reads use.
* :func:`repair_targets` — **converged view**: given the network's live
  population, where the copies *should* live.  This is what the
  anti-entropy sweep uses to detect and fix under-replication, mirroring
  the converged-mode healing in :mod:`repro.core.repair`.

Because the level-0 bus is ID-ordered, the responsible node's own
neighbourhood usually *is* the converged set, so the two answers agree
once maintenance has healed the tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.core.ids import closest_first

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode


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


def replicas(node: "TreePNode", key_id: int, n: int) -> List[int]:
    """Up to *n* distinct targets: the coordinator (*node*) first, then
    the ids in its table closest to *key_id*."""
    return _pad_with_closest([node.ident], node.table.sorted_ids(), key_id, n)[:n]


def repair_targets(live: Sequence[int], key_id: int, n: int) -> List[int]:
    """The ideal replica set for *key_id*: the *n* ids of *live* — the
    live population in **ascending** id order, sorted once per sweep —
    closest to it."""
    return _pad_with_closest([], live, key_id, n)
