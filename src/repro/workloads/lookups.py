"""Lookup traffic generation.

The paper's batches are uniform random (origin, target) pairs over the
surviving population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


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
