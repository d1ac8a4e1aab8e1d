"""Per-node versioned key/value state.

Every node participating in the replicated store owns one :class:`KVStore`
(replacing the ad-hoc ``kv_store`` dict the first DHT cut grafted onto
:class:`~repro.core.node.TreePNode`).  Values carry a three-part
last-write-wins stamp ``(timestamp, version, writer)``:

* **timestamp** — the (simulated) time the write was coordinated.  It
  leads the stamp because per-key version counters restart when
  coordination moves to a node that never saw the key (e.g. after the
  whole replica set died); the globally monotonic clock keeps a later
  acknowledged write dominant over any stale higher-versioned copy a
  rejoining replica may carry.
* **version** — the per-key monotonically increasing counter the
  coordinator maintains (client-visible versioning, and the tie-break
  for same-instant writes).
* **writer** — the coordinating node's id, the deterministic final
  tie-break.

Replicas merge copies last-write-wins on that stamp, so concurrent writes
converge to the same value on every replica regardless of delivery order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.routing_table import SharedMap

#: The partition of every node that holds no key yet.
_NO_DATA: Dict = SharedMap()


def hash_key(key: str, extent: int) -> int:
    """Map an application key onto the overlay ID space (SHA-256)."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % extent


@dataclass(frozen=True)
class VersionedValue:
    """One stored value with its last-write-wins stamp."""

    value: Any
    version: int
    writer: int = -1
    timestamp: float = 0.0

    def stamp(self) -> Tuple[float, int, int]:
        """The total-order key used for conflict resolution."""
        return (self.timestamp, self.version, self.writer)

    def dominates(self, other: Optional["VersionedValue"]) -> bool:
        """True when this copy wins LWW against *other* (or fills a hole)."""
        return other is None or self.stamp() > other.stamp()


class KVStore:
    """The versioned key/value partition held by one node: the shared
    read-only :data:`_NO_DATA` until it adopts its first copy.

    >>> s = KVStore(owner=7)
    >>> s.apply(42, "a", version=1, writer=7)
    True
    >>> s.apply(42, "stale", version=1, writer=3)  # loses the tie-break
    False
    >>> s.get(42).value
    'a'
    """

    __slots__ = ("owner", "_data")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._data: Dict[int, VersionedValue] = _NO_DATA

    # ------------------------------------------------------------- mutation
    def apply(
        self,
        key_id: int,
        value: Any,
        version: int,
        writer: int = -1,
        timestamp: float = 0.0,
    ) -> bool:
        """Merge a copy last-write-wins; returns True when it was adopted.
        The stamps are compared before a losing copy costs a record."""
        held = self._data.get(key_id)
        if held is not None and not ((timestamp, version, writer)
                                     > (held.timestamp, held.version, held.writer)):
            return False
        if type(self._data) is not dict:
            self._data = {}
        self._data[key_id] = VersionedValue(value, version, writer, timestamp)
        return True

    # -------------------------------------------------------------- queries
    def get(self, key_id: int) -> Optional[VersionedValue]:
        return self._data.get(key_id)

    def version_of(self, key_id: int) -> int:
        """Current version of *key_id* (0 when absent)."""
        vv = self._data.get(key_id)
        return vv.version if vv is not None else 0

    def next_version(self, key_id: int) -> int:
        """The per-key version counter a coordinating write should use."""
        return self.version_of(key_id) + 1

    def keys(self) -> List[int]:
        return list(self._data)

    def items(self) -> Iterator[Tuple[int, VersionedValue]]:
        return iter(self._data.items())
