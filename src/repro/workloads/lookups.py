"""Lookup traffic generation.

The paper's batches are uniform random (origin, target) pairs over the
surviving population: :func:`lookup_pairs` draws them one pair at a time
(the benchmark scenarios' and examples' draw), :class:`LookupWorkload` in
vectorised blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


def lookup_pairs(rng, population, count) -> List[Tuple[int, int]]:
    """*count* (origin, target) pairs of distinct ids, one
    ``rng.choice(population, 2, replace=False)`` draw per pair."""
    pop = list(population)
    return [tuple(int(x) for x in rng.choice(pop, 2, replace=False))
            for _ in range(count)]


@dataclass
class LookupWorkload:
    """Generator of uniform (origin, target) pairs over a node population:
    both endpoints uniform and distinct (the paper's setup).

    Parameters
    ----------
    rng:
        Randomness source (use a dedicated substream).
    """

    rng: np.random.Generator

    def pairs(self, population: Sequence[int], count: int) -> List[Tuple[int, int]]:
        """Draw *count* (origin, target) pairs with origin != target."""
        pop = list(population)
        if len(pop) < 2:
            raise ValueError("population must have at least 2 nodes")
        if count <= 0:
            raise ValueError(f"count must be > 0, got {count}")

        out: List[Tuple[int, int]] = []
        n = len(pop)
        while len(out) < count:
            idx = self.rng.integers(0, n, size=2 * (count - len(out)) + 4)
            for a, b in zip(idx[::2], idx[1::2]):
                if a != b:
                    out.append((pop[int(a)], pop[int(b)]))
                    if len(out) == count:
                        break
        return out
