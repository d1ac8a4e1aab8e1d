"""Datagram payloads of the TreeP overlay.

Every message is a small frozen, ``slots=True`` dataclass (messages are
allocated once per datagram on the simulator's hottest path — slots cut
both per-instance memory and attribute-access cost at 10k nodes), except
the lookup pair, rebuilt on every hop, which are ``NamedTuple`` classes
(same fields, defaults, immutability; no per-field ``object.__setattr__``).
Each has an approximate ``wire_size`` (bytes) so the network layer can
account control-plane overhead: a class-level constant, or a property where
the size depends on a variable-length field — never a constructor argument.
Sizes follow the paper's entry format — an entry is ``(ID, IP, Port)`` plus
metadata, ~16 bytes on the wire — on top of :data:`HEADER_BYTES`.

Every class here is handled by :class:`~repro.core.node.TreePNode` in its
``_on_<Name>`` method.  The services on top of the overlay keep their wire
formats beside their code: :mod:`repro.storage.messages` and
:mod:`repro.compute.messages`.

Message families:

* **Bootstrap / join** — :class:`Hello`, :class:`HelloAck`, :class:`JoinRequest`,
  :class:`JoinAccept`, :class:`Splice`.
* **Maintenance** — :class:`KeepAlive`, :class:`KeepAliveAck`,
  :class:`ChildReport` (child → parent heartbeat; §III.a "if they do not
  report regularly they will simply be deleted").
* **Hierarchy** — :class:`ElectionStart`, :class:`ParentClaim`,
  :class:`ParentAnnounce`, :class:`PromoteGrant`, :class:`Demote`.
* **Lookup** — :class:`LookupRequest`, :class:`LookupReply`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, NamedTuple, Optional, Tuple

EntryTuple = Tuple[int, int, float, int, float]  # (id, max_level, score, nc, last_seen)

_ENTRY_BYTES = 16
HEADER_BYTES = 28  # UDP/IP header + message tag


def _entries_size(entries: Tuple[EntryTuple, ...]) -> int:
    return HEADER_BYTES + _ENTRY_BYTES * len(entries)


# --------------------------------------------------------------- bootstrap
@dataclass(frozen=True, slots=True)
class Hello:
    """First contact: §III.d — exchange resources and state."""

    max_level: int
    score: float
    nc: int

    wire_size: ClassVar[int] = HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class HelloAck:
    max_level: int
    score: float
    nc: int

    wire_size: ClassVar[int] = HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JoinRequest:
    """A joining node asks *dst* to place it on level 0."""

    joiner: int
    score: float
    nc: int

    wire_size: ClassVar[int] = HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JoinAccept:
    """Placement result: the joiner's level-0 neighbours and parent."""

    left: Optional[int]
    right: Optional[int]
    parent: Optional[int]

    wire_size: ClassVar[int] = HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class Splice:
    """Level-0 bus splice: *joiner* now sits between *left* and *right*.

    Sent by the accepting node to the displaced neighbours so they update
    their level-0 links to point at the joiner.
    """

    joiner: int
    left: Optional[int]
    right: Optional[int]

    wire_size: ClassVar[int] = HEADER_BYTES + 12


# -------------------------------------------------------------- maintenance
@dataclass(frozen=True, slots=True)
class KeepAlive:
    """Periodic liveness probe carrying a piggybacked delta (§III.d)."""

    entries: Tuple[EntryTuple, ...] = ()
    since: float = 0.0

    @property
    def wire_size(self) -> int:
        return _entries_size(self.entries)


@dataclass(frozen=True, slots=True)
class KeepAliveAck:
    entries: Tuple[EntryTuple, ...] = ()

    @property
    def wire_size(self) -> int:
        return _entries_size(self.entries)


@dataclass(frozen=True, slots=True)
class ChildReport:
    """Child → parent heartbeat with current load/score."""

    child: int
    score: float
    max_level: int

    wire_size: ClassVar[int] = HEADER_BYTES + 12


# ---------------------------------------------------------------- hierarchy
@dataclass(frozen=True, slots=True)
class ElectionStart:
    """A node with degree >= 2 and no parent triggers an election (§III.b)."""

    level: int
    initiator: int

    wire_size: ClassVar[int] = HEADER_BYTES + 8


@dataclass(frozen=True, slots=True)
class ParentClaim:
    """Countdown winner announces itself parent to the electorate."""

    level: int  # the level the winner now occupies (electorate level + 1)
    winner: int
    score: float

    wire_size: ClassVar[int] = HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class ParentAnnounce:
    """Parent → child adoption notice with the parent's ancestry.

    ``superiors`` seeds the child's superior-node list (Figure 2).
    """

    level: int
    parent: int
    superiors: Tuple[int, ...] = ()

    @property
    def wire_size(self) -> int:
        return HEADER_BYTES + 8 + 8 * len(self.superiors)


@dataclass(frozen=True, slots=True)
class PromoteGrant:
    """Parent promotes *child* to its own level (cell overflow split)."""

    child: int
    to_level: int

    wire_size: ClassVar[int] = HEADER_BYTES + 8


@dataclass(frozen=True, slots=True)
class Demote:
    """An under-filled parent abdicates level *level* (§III.b)."""

    node: int
    level: int

    wire_size: ClassVar[int] = HEADER_BYTES + 8


# ------------------------------------------------------------------- lookup
class LookupRequest(NamedTuple):
    """One routed lookup packet.

    A ``NamedTuple`` rather than a frozen dataclass: a fresh request object
    is built on *every* forwarding hop (immutable wire semantics), and
    tuple construction skips the per-field ``object.__setattr__`` cost of
    frozen dataclasses — measurably the hottest allocation of a 10k-node
    lookup run.  Same field order, defaults, and immutability.

    Attributes
    ----------
    request_id:
        Origin-unique id; the origin matches replies to requests.
    origin:
        Node that issued the lookup (replies go straight back — the paper's
        "transmit back the result").
    target:
        The ID being resolved.
    algo:
        ``"G"``, ``"NG"`` or ``"NGSA"``.
    ttl:
        Hops consumed so far; discarded above the configured cap (255).
    from_parent_level:
        When the previous hop was the receiver's parent at level ``l``,
        Fig. 3 takes different branches; 0 means "not from a parent".
    alternates:
        NGSA only: fallback candidates accumulated along the path, consumed
        on dead ends ("at the expense of adding data to the request").
    path:
        IDs visited (loop avoidance + failed-hop accounting).
    """

    request_id: int
    origin: int
    target: int
    algo: str
    ttl: int = 0
    from_parent_level: int = 0
    alternates: Tuple[int, ...] = ()
    path: Tuple[int, ...] = ()

    @property
    def wire_size(self) -> int:
        return HEADER_BYTES + 24 + 8 * len(self.alternates) + 8 * len(self.path)


class LookupReply(NamedTuple):
    """Terminal answer sent straight to the origin (``NamedTuple`` for the
    same hot-allocation reason as :class:`LookupRequest`)."""

    request_id: int
    target: int
    found: bool
    resolved: Optional[int]  # the (ID == address) resolved, when found
    hops: int
    path: Tuple[int, ...] = ()

    @property
    def wire_size(self) -> int:
        return HEADER_BYTES + 16 + 8 * len(self.path)
