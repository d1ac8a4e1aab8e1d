"""Datagram payloads of the TreeP protocol.

Every message is a small frozen, ``slots=True`` dataclass (messages are
allocated once per datagram on the simulator's hottest path — slots cut
both per-instance memory and attribute-access cost at 10k nodes), except
the messages rebuilt on every hop or several times per request — the
lookup pair and the ``Store*`` family — which are ``NamedTuple`` classes
(same fields, defaults, immutability; no per-field ``object.__setattr__``).
Each has an approximate ``wire_size`` (bytes) so the network layer can
account control-plane overhead: a class-level constant, or a property where
the size depends on a variable-length field — never a constructor argument.
Sizes follow the paper's entry format — an entry is ``(ID, IP, Port)`` plus
metadata, ~16 bytes on the wire.

Message families:

* **Bootstrap / join** — :class:`Hello`, :class:`HelloAck`, :class:`JoinRequest`,
  :class:`JoinAccept`.
* **Maintenance** — :class:`KeepAlive`, :class:`KeepAliveAck`,
  :class:`ChildReport` (child → parent heartbeat; §III.a "if they do not
  report regularly they will simply be deleted").
* **Hierarchy** — :class:`ElectionStart`, :class:`ParentClaim`,
  :class:`ParentAnnounce`, :class:`PromoteGrant`, :class:`Demote`.
* **Lookup** — :class:`LookupRequest`, :class:`LookupReply`.
* **Replicated storage** — :class:`StorePut` / :class:`StoreGet` (client
  requests routed to the key's responsible node), :class:`StoreReplicate` /
  :class:`StoreAck` (coordinator ↔ replica write traffic, also used by
  read repair and anti-entropy), :class:`StoreRead` /
  :class:`StoreReadReply` (quorum reads), :class:`StorePutResult` /
  :class:`StoreGetResult` (coordinator → client outcomes).
* **Grid compute** — :class:`JobSubmit` / :class:`JobAck` (submitter ↔
  scheduler), :class:`JobDispatch` / :class:`JobAccepted` /
  :class:`JobRejected` (scheduler ↔ worker placement),
  :class:`JobHeartbeat` / :class:`JobComplete` (worker → scheduler
  liveness and outcome), :class:`JobReport` (scheduler → submitter),
  :class:`JobStealOffer` / :class:`JobStealRequest` /
  :class:`JobStealGrant` (sibling work stealing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, NamedTuple, Optional, Tuple

EntryTuple = Tuple[int, int, float, int, float]  # (id, max_level, score, nc, last_seen)

_ENTRY_BYTES = 16
_HEADER_BYTES = 28  # UDP/IP header + message tag


def _entries_size(entries: Tuple[EntryTuple, ...]) -> int:
    return _HEADER_BYTES + _ENTRY_BYTES * len(entries)


# --------------------------------------------------------------- bootstrap
@dataclass(frozen=True, slots=True)
class Hello:
    """First contact: §III.d — exchange resources and state."""

    max_level: int
    score: float
    nc: int

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class HelloAck:
    max_level: int
    score: float
    nc: int

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JoinRequest:
    """A joining node asks *dst* to place it on level 0."""

    joiner: int
    score: float
    nc: int

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JoinAccept:
    """Placement result: the joiner's level-0 neighbours and parent."""

    left: Optional[int]
    right: Optional[int]
    parent: Optional[int]

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class Splice:
    """Level-0 bus splice: *joiner* now sits between *left* and *right*.

    Sent by the accepting node to the displaced neighbours so they update
    their level-0 links to point at the joiner.
    """

    joiner: int
    left: Optional[int]
    right: Optional[int]

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


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

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


# ---------------------------------------------------------------- hierarchy
@dataclass(frozen=True, slots=True)
class ElectionStart:
    """A node with degree >= 2 and no parent triggers an election (§III.b)."""

    level: int
    initiator: int

    wire_size: ClassVar[int] = _HEADER_BYTES + 8


@dataclass(frozen=True, slots=True)
class ParentClaim:
    """Countdown winner announces itself parent to the electorate."""

    level: int  # the level the winner now occupies (electorate level + 1)
    winner: int
    score: float

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


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
        return _HEADER_BYTES + 8 + 8 * len(self.superiors)


@dataclass(frozen=True, slots=True)
class PromoteGrant:
    """Parent promotes *child* to its own level (cell overflow split)."""

    child: int
    to_level: int

    wire_size: ClassVar[int] = _HEADER_BYTES + 8


@dataclass(frozen=True, slots=True)
class Demote:
    """An under-filled parent abdicates level *level* (§III.b)."""

    node: int
    level: int

    wire_size: ClassVar[int] = _HEADER_BYTES + 8


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
        return _HEADER_BYTES + 24 + 8 * len(self.alternates) + 8 * len(self.path)


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
        return _HEADER_BYTES + 16 + 8 * len(self.path)


# -------------------------------------------------------- replicated storage
class StorePut(NamedTuple):
    """Client write, routed greedily towards the key's responsible node."""

    request_id: int
    origin: int
    key_id: int
    value: Any = None
    ttl: int = 0

    wire_size = _HEADER_BYTES + 72


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
        return _HEADER_BYTES + 16 + 8 * len(self.path)


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

    wire_size = _HEADER_BYTES + 88


class StoreAck(NamedTuple):
    """Replica → coordinator write acknowledgement (the dedicated ack type)."""

    request_id: int
    key_id: int
    holder: int
    version: int
    ok: bool = True

    wire_size = _HEADER_BYTES + 24


class StoreRead(NamedTuple):
    """Coordinator → replica: report your version of the key."""

    request_id: int
    coordinator: int
    key_id: int

    wire_size = _HEADER_BYTES + 16


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

    wire_size = _HEADER_BYTES + 88


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
        return _HEADER_BYTES + 24 + 8 * len(self.replicas)


class StoreGetResult(NamedTuple):
    """Coordinator → client: quorum read outcome (freshest version wins)."""

    request_id: int
    key_id: int
    found: bool
    value: Any = None
    version: int = 0
    quorum_met: bool = True
    hops: int = 0

    wire_size = _HEADER_BYTES + 80


# ------------------------------------------------------------- grid compute
@dataclass(frozen=True, slots=True)
class JobSubmit:
    """Submitter → scheduler: routed greedily towards the scheduler's ID.

    Carries the job's demand vector: ``cpu_demand`` in CPU-share units, ``work`` in virtual seconds
    of unit-rate compute, plus the minimum-capability constraint the
    matchmaker must honour.  ``deps`` lists job ids that must complete
    first (DAG edges); ``resume`` marks a failover re-submission whose
    execution should restart from the last checkpoint.
    """

    request_id: int
    origin: int
    job_id: int
    scheduler: int
    cpu_demand: float = 1.0
    work: float = 10.0
    min_cpu: float = 0.0
    min_memory_gb: float = 0.0
    min_bandwidth_mbps: float = 0.0
    deps: Tuple[int, ...] = ()
    resume: bool = False
    ttl: int = 0

    @property
    def wire_size(self) -> int:
        return _HEADER_BYTES + 48 + 8 * len(self.deps)


@dataclass(frozen=True, slots=True)
class JobAck:
    """Scheduler → submitter: the job entered the scheduler's table."""

    request_id: int
    job_id: int
    scheduler: int
    accepted: bool = True
    hops: int = 0

    wire_size: ClassVar[int] = _HEADER_BYTES + 20


@dataclass(frozen=True, slots=True)
class JobDispatch:
    """Scheduler → worker: run this job (attempt *attempt*).

    ``resume`` asks the worker to restart from the job's last quorum-stored
    checkpoint instead of from zero; the constraint triple rides along so a
    queued copy can later be steal-matched against a thief's capabilities.
    """

    job_id: int
    scheduler: int
    attempt: int
    cpu_demand: float = 1.0
    work: float = 10.0
    min_cpu: float = 0.0
    min_memory_gb: float = 0.0
    min_bandwidth_mbps: float = 0.0
    resume: bool = False

    wire_size: ClassVar[int] = _HEADER_BYTES + 48


@dataclass(frozen=True, slots=True)
class JobAccepted:
    """Worker → scheduler: dispatch acknowledged (running or queued)."""

    job_id: int
    worker: int
    attempt: int
    queued: bool = False

    wire_size: ClassVar[int] = _HEADER_BYTES + 16


@dataclass(frozen=True, slots=True)
class JobRejected:
    """Worker → scheduler: cannot hold the job (no headroom); re-place."""

    job_id: int
    worker: int
    attempt: int

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JobHeartbeat:
    """Worker → scheduler: periodic liveness + progress for one held job.

    Also the vehicle by which the scheduler learns about work stealing: a
    heartbeat for a current attempt arriving from an unexpected worker
    reassigns the job to the sender.
    """

    job_id: int
    worker: int
    attempt: int
    progress: float = 0.0
    queued: bool = False

    wire_size: ClassVar[int] = _HEADER_BYTES + 24


@dataclass(frozen=True, slots=True)
class JobLease:
    """Scheduler → worker: heartbeat acknowledged, keep running.

    The fencing half of failure detection: a worker whose heartbeats stop
    being acknowledged (its scheduler died, or the job was re-placed and
    its attempt is stale) writes a final checkpoint and abandons the run
    once the lease lapses, bounding duplicate execution.
    """

    job_id: int
    attempt: int

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JobComplete:
    """Worker → scheduler: the attempt finished; ``executed`` is the
    virtual compute time this attempt actually spent."""

    job_id: int
    worker: int
    attempt: int
    executed: float = 0.0

    wire_size: ClassVar[int] = _HEADER_BYTES + 20


@dataclass(frozen=True, slots=True)
class JobReport:
    """Scheduler → submitter: terminal job outcome."""

    request_id: int
    job_id: int
    ok: bool
    worker: int = -1
    attempts: int = 1

    wire_size: ClassVar[int] = _HEADER_BYTES + 20


@dataclass(frozen=True, slots=True)
class JobStealOffer:
    """Loaded worker → its cell (level-0 siblings and children): "I hold
    queued work, the smallest job needs ``cpu_demand``"."""

    victim: int
    cpu_demand: float

    wire_size: ClassVar[int] = _HEADER_BYTES + 12


@dataclass(frozen=True, slots=True)
class JobStealRequest:
    """Idle worker → the victim whose :class:`JobStealOffer` it can fit.

    Carries the thief's static capabilities so the victim can check a
    queued job's constraint before granting it away.
    """

    thief: int
    free_cpu: float
    cpu: float = 1.0
    memory_gb: float = 1.0
    bandwidth_mbps: float = 10.0

    wire_size: ClassVar[int] = _HEADER_BYTES + 24


@dataclass(frozen=True, slots=True)
class JobStealGrant:
    """Loaded worker → thief: hand over one queued job.

    Carries the constraint triple so the job stays steal-matchable if the
    thief in turn queues it.
    """

    job_id: int
    victim: int
    scheduler: int
    attempt: int
    cpu_demand: float = 1.0
    work: float = 10.0
    min_cpu: float = 0.0
    min_memory_gb: float = 0.0
    min_bandwidth_mbps: float = 0.0
    resume: bool = False

    wire_size: ClassVar[int] = _HEADER_BYTES + 48
