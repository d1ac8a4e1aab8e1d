"""Random degree-``k`` overlays — the unstructured substrate.

Gnutella-class networks have no structure beyond "every peer keeps a handful
of random links"; this module builds such graphs for the flooding baseline
and for ablations that need a structure-free comparator.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

import numpy as np


def random_overlay(
    ids: Sequence[int],
    rng: np.random.Generator,
    degree: int = 4,
) -> Dict[int, List[int]]:
    """Connected random overlay with ~``degree`` links per node.

    Construction: a random Hamiltonian backbone (guarantees connectivity,
    the standard trick in overlay simulators) plus random extra edges until
    the average degree reaches *degree*.  Returns a symmetric adjacency
    mapping.
    """
    n = len(ids)
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    if len(set(ids)) != n:
        raise ValueError("duplicate ids")

    adj: Dict[int, Set[int]] = {i: set() for i in ids}
    order = list(rng.permutation(list(ids)))
    for a, b in zip(order, order[1:] + order[:1]):
        a, b = int(a), int(b)
        adj[a].add(b)
        adj[b].add(a)

    target_edges = max(n, (degree * n) // 2)
    edges = n  # the cycle
    id_arr = np.array(ids)
    attempts = 0
    while edges < target_edges and attempts < 20 * target_edges:
        a, b = (int(x) for x in rng.choice(id_arr, size=2, replace=False))
        attempts += 1
        if b not in adj[a]:
            adj[a].add(b)
            adj[b].add(a)
            edges += 1
    return {i: sorted(neigh) for i, neigh in adj.items()}
