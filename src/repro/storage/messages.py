"""Datagram payloads of the replicated storage protocol.

The client requests :class:`StorePut` / :class:`StoreGet` are routed to the
key's responsible node; :class:`StoreReplicate` / :class:`StoreAck` carry
coordinator ↔ replica write traffic (also used by read repair and
anti-entropy); :class:`StoreRead` / :class:`StoreReadReply` are the quorum
reads; :class:`StorePutResult` / :class:`StoreGetResult` are the
coordinator → client outcomes.

Each is a ``NamedTuple`` (several are rebuilt per hop or several times per
request; no per-field ``object.__setattr__``), with a ``wire_size`` in the
overlay's convention (:mod:`repro.core.messages`).
"""

from __future__ import annotations

from typing import Any, NamedTuple, Tuple

from repro.core.messages import HEADER_BYTES


class StorePut(NamedTuple):
    """Client write, routed greedily towards the key's responsible node."""

    request_id: int
    origin: int
    key_id: int
    value: Any = None
    ttl: int = 0

    wire_size = HEADER_BYTES + 72


class StoreGet(NamedTuple):
    """Client read, routed like :class:`StorePut`.

    ``path`` records the nodes visited so the sloppy-read fallback (an
    NGSA-style sideways hop taken when a coordinator's replicas all miss)
    never loops; ``fallbacks`` counts those non-improving hops against the
    configured budget.
    """

    request_id: int
    origin: int
    key_id: int
    ttl: int = 0
    fallbacks: int = 0
    path: Tuple[int, ...] = ()

    @property
    def wire_size(self) -> int:
        return HEADER_BYTES + 16 + 8 * len(self.path)


class StoreReplicate(NamedTuple):
    """Coordinator → replica: adopt this version of the key.

    Carries the full ``(timestamp, version, writer)`` stamp so the receiver
    merges it last-write-wins; also the vehicle for read repair and
    anti-entropy re-replication (with a request id no coordinator is
    waiting on).
    """

    request_id: int
    coordinator: int
    key_id: int
    value: Any
    version: int
    writer: int
    timestamp: float = 0.0

    wire_size = HEADER_BYTES + 88


class StoreAck(NamedTuple):
    """Replica → coordinator write acknowledgement (the dedicated ack type)."""

    request_id: int
    key_id: int
    holder: int
    version: int
    ok: bool = True

    wire_size = HEADER_BYTES + 24


class StoreRead(NamedTuple):
    """Coordinator → replica: report your version of the key."""

    request_id: int
    coordinator: int
    key_id: int

    wire_size = HEADER_BYTES + 16


class StoreReadReply(NamedTuple):
    """Replica → coordinator: the replica's versioned copy (or a miss)."""

    request_id: int
    key_id: int
    holder: int
    found: bool
    value: Any = None
    version: int = 0
    writer: int = -1
    timestamp: float = 0.0

    wire_size = HEADER_BYTES + 88


class StorePutResult(NamedTuple):
    """Coordinator → client: quorum write outcome."""

    request_id: int
    key_id: int
    ok: bool
    version: int = 0
    replicas: Tuple[int, ...] = ()
    hops: int = 0

    @property
    def wire_size(self) -> int:
        return HEADER_BYTES + 24 + 8 * len(self.replicas)


class StoreGetResult(NamedTuple):
    """Coordinator → client: quorum read outcome (freshest version wins)."""

    request_id: int
    key_id: int
    found: bool
    value: Any = None
    version: int = 0
    quorum_met: bool = True
    hops: int = 0

    wire_size = HEADER_BYTES + 80
