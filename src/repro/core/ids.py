"""The 1-D ID space and ID assignment strategies.

TreeP maps every peer onto a 1-D space; the ID *is* the peer's virtual
location, and the hierarchy is a tessellation of that space (paper §III).
The space is the integer interval ``[0, extent)`` with the Euclidean metric
``d(a, b) = |a - b|`` — a line, not a ring: level buses have two endpoints,
exactly as in the paper's B+tree analogy.

Three assignment strategies from §III (and §VI future work):

* ``random`` — uniform random IDs (the paper's default experimental setup).
* ``hash`` — SHA-256 of an ``(ip, port)`` string, the "hash of the IP/Port
  numbers" option; statistically identical to random but stable across
  reconnects.
* ``balanced`` — the "preliminary search for an ID range" option: IDs are
  stratified so the tree starts balanced.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, List, Literal, Optional, Sequence, Tuple

import numpy as np

AssignStrategy = Literal["random", "hash", "balanced"]

#: Default ID-space size; 2**32 mirrors an IPv4-derived space.
DEFAULT_EXTENT = 2**32


@dataclass(frozen=True)
class IdSpace:
    """The 1-D coordinate space.

    Attributes
    ----------
    extent:
        Exclusive upper bound of the space; IDs live in ``[0, extent)``.
    """

    extent: int = DEFAULT_EXTENT

    def __post_init__(self) -> None:
        if self.extent < 4:
            raise ValueError(f"extent must be >= 4, got {self.extent}")

    def contains(self, ident: int) -> bool:
        return 0 <= ident < self.extent

    def distance(self, a: int, b: int) -> int:
        """Euclidean distance on the line: ``|a - b|``."""
        return abs(a - b)

    def midpoint(self, a: int, b: int) -> int:
        """Integer midpoint, used for tessellation cell boundaries."""
        return (a + b) // 2

    def validate(self, ident: int) -> int:
        if not self.contains(ident):
            raise ValueError(f"id {ident} outside [0, {self.extent})")
        return ident


def closest_first(sorted_ids: Sequence[int], key: int) -> Iterator[Tuple[int, int]]:
    """Walk ascending *sorted_ids* outward from *key*, nearest first.

    Yields ``(|id - key|, id)`` in ascending ``(distance, id)`` order — what
    ``sorted(ids, key=lambda i: (abs(i - key), i))`` gives — lazily: one
    bisect, then O(1) per id consumed (placement wants the first few).
    """
    hi = bisect_left(sorted_ids, key)
    lo, n = hi - 1, len(sorted_ids)
    while lo >= 0 or hi < n:
        # Below the key while that side is nearer; a tie goes to the smaller id.
        if hi == n or (lo >= 0 and key - sorted_ids[lo] <= sorted_ids[hi] - key):
            yield key - sorted_ids[lo], sorted_ids[lo]
            lo -= 1
        else:
            yield sorted_ids[hi] - key, sorted_ids[hi]
            hi += 1


def _hash_id(space: IdSpace, host: str, port: int) -> int:
    digest = hashlib.sha256(f"{host}:{port}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % space.extent


def assign_ids(
    space: IdSpace,
    count: int,
    rng: np.random.Generator,
    strategy: AssignStrategy = "random",
    hosts: Optional[Sequence[tuple[str, int]]] = None,
) -> List[int]:
    """Draw *count* distinct IDs with the given strategy.

    Parameters
    ----------
    space:
        Target ID space.
    count:
        Number of distinct IDs required.
    rng:
        Randomness source (``random`` and ``balanced`` strategies).
    strategy:
        One of ``random``, ``hash``, ``balanced``.
    hosts:
        Required for ``hash``: the ``(ip, port)`` pairs to hash.  Collisions
        are resolved by linear probing in the space (deterministic).

    Returns
    -------
    list[int]
        ``count`` distinct IDs, in assignment order (NOT sorted).
    """
    if count <= 0:
        raise ValueError(f"count must be > 0, got {count}")
    if count > space.extent // 2:
        raise ValueError(
            f"count {count} too large for space extent {space.extent}"
        )

    if strategy == "random":
        # Sample without replacement; for huge spaces rejection is cheaper
        # than permutation, so draw with a margin and deduplicate.
        seen: set[int] = set()
        out: List[int] = []
        while len(out) < count:
            draw = rng.integers(0, space.extent, size=count - len(out) + 16)
            for v in draw:
                iv = int(v)
                if iv not in seen:
                    seen.add(iv)
                    out.append(iv)
                    if len(out) == count:
                        break
        return out

    if strategy == "hash":
        if hosts is None or len(hosts) < count:
            raise ValueError("hash strategy requires >= count (ip, port) pairs")
        seen = set()
        out = []
        for host, port in hosts[:count]:
            ident = _hash_id(space, host, port)
            while ident in seen:  # linear probe on collision
                ident = (ident + 1) % space.extent
            seen.add(ident)
            out.append(ident)
        return out

    if strategy == "balanced":
        # Stratified: one ID uniform in each of `count` equal strata, then
        # shuffled so arrival order is not sorted.
        bounds = np.linspace(0, space.extent, count + 1, dtype=np.int64)
        ids = [
            int(rng.integers(bounds[i], max(bounds[i] + 1, bounds[i + 1])))
            for i in range(count)
        ]
        # Strata are disjoint except possibly at shared bounds; dedupe safely.
        seen = set()
        out = []
        for ident in ids:
            while ident in seen:
                ident = (ident + 1) % space.extent
            seen.add(ident)
            out.append(ident)
        rng.shuffle(out)  # type: ignore[arg-type]
        return [int(v) for v in out]

    raise ValueError(f"unknown strategy {strategy!r}")
