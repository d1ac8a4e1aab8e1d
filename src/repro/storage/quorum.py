"""Sloppy-quorum replication: coordinator logic and the client facade.

The write/read path is Dynamo-shaped, grafted onto TreeP routing:

1. A client injects a :class:`~repro.storage.messages.StorePut` /
   :class:`~repro.storage.messages.StoreGet` at any live node; the request is
   routed greedily towards the key (``greedy_key_next_hop``) until it
   reaches the **responsible node** — the live peer locally closest to the
   key in the ID space.  A node that has been answered for a key before
   skips the walk: it remembers which peer answered and sends its next
   request for that key there directly (see
   :attr:`StorageAgent.coordinators`).
2. The responsible node **coordinates**: it picks the replica set — itself
   plus the ids in its table closest to the key
   (:func:`~repro.storage.replication.replicas`) — stamps writes with the
   per-key version counter (last-write-wins, writer id as tie-break), fans out
   :class:`~repro.storage.messages.StoreReplicate` / ``StoreRead`` datagrams,
   and answers the client once **W** acks / **R** replies are in (or its
   timeout fires — the *sloppy* part: the best effort achieved is
   reported, never rolled back).
3. Quorum reads return the freshest stamp seen and **read-repair** any
   replica that reported a stale or missing copy.

:class:`StorageAgent` is the per-node server side; :class:`ReplicatedStore`
is the synchronous client the examples, benches and tests drive, and it
implements the :class:`~repro.cluster.service.Service` lifecycle protocol —
the agents' handlers are declared once via :meth:`ReplicatedStore.handlers`
and filed in the network's handler table by the service's context (no
monkey-patching, no per-node wiring, no leak on teardown).

Construct through :meth:`repro.cluster.Cluster.with_storage`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster.service import Handler, Service, ServiceContext
from repro.core.lookup import greedy_key_next_hop
from repro.core.routing_table import SharedMap
from repro.storage.messages import (
    StoreAck,
    StoreGet,
    StoreGetResult,
    StorePut,
    StorePutResult,
    StoreRead,
    StoreReadReply,
    StoreReplicate,
)
from repro.storage.replication import replicas
from repro.storage.store import KVStore, VersionedValue, hash_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode
    from repro.core.treep import TreePNetwork

#: Request id used by repair/anti-entropy replication no coordinator waits on.
REPAIR_RID = 0

#: Virtual seconds a coordinator waits for replica acks/replies before it
#: answers with the best effort achieved (the *sloppy* part).
QUORUM_TIMEOUT = 5.0

#: Extra non-improving read hops allowed when a coordinator's replicas all
#: miss (greedy local minimum after churn).  A GET of a key that exists
#: nowhere cannot be told from a stalled walk, so it explores up to this
#: many extra coordinators before reporting the miss.
READ_FALLBACK = 16

#: Completion callbacks remembered per agent (oldest dropped).
_CALLBACK_CAP = 4096

#: Coordinator hints remembered per agent (oldest dropped).
_HINT_CAP = 4096

#: Every agent map nothing has written, and every emptied quorum map.
_NO_STATE: Dict = SharedMap()


@dataclass(frozen=True)
class QuorumConfig:
    """Replication degree and quorum sizes.

    ``w + r > n`` makes read/write quorums overlap, so a read always sees
    the latest acknowledged write; smaller values trade consistency for
    availability (the classic sloppy-quorum dial).
    """

    n: int = 3
    w: int = 2
    r: int = 2

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.w <= self.n:
            raise ValueError(f"need 1 <= w <= n, got w={self.w}, n={self.n}")
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")


@dataclass
class StoreResult:
    """Client-visible outcome of one quorum PUT or GET."""

    key: str
    key_id: int
    ok: bool
    value: Any = None
    version: int = 0
    replicas: Tuple[int, ...] = ()
    quorum_met: bool = False
    hops: int = 0

    @property
    def found(self) -> bool:
        """GET alias: the read resolved to a value."""
        return self.ok


@dataclass(slots=True)
class _PendingWrite:
    request_id: int
    origin: int
    key_id: int
    version: int
    targets: Tuple[int, ...]
    acks: Set[int]
    hops: int
    timeout_event: object = None


@dataclass(slots=True)
class _PendingRead:
    request_id: int
    origin: int
    key_id: int
    targets: Tuple[int, ...]
    replies: Dict[int, Optional[VersionedValue]]
    hops: int
    fallbacks: int = 0
    path: Tuple[int, ...] = ()
    timeout_event: object = None
    #: The version the origin was answered with; set once the read is
    #: answered, after which replies still outstanding are only repaired.
    winner: Optional[VersionedValue] = None


class StorageAgent:
    """Per-node storage server: the KVStore plus coordinator state.

    One agent per node per :class:`ReplicatedStore`; its methods are the
    store's datagram handlers (:meth:`ReplicatedStore.handlers`).  Each map
    is the shared read-only :data:`_NO_STATE` until its first write, and
    the quorums a node coordinates (``_writes``, ``_reads``) hand it back
    when they empty: most peers never originate a request, and a
    coordinator holds its quorums only while they are open.
    """

    __slots__ = ("node", "quorum", "store", "_writes", "_reads",
                 "callbacks", "coordinators")

    def __init__(self, node: "TreePNode", quorum: QuorumConfig) -> None:
        self.node = node
        self.quorum = quorum
        self.store = KVStore(node.ident)
        self._writes: Dict[int, _PendingWrite] = _NO_STATE
        self._reads: Dict[int, _PendingRead] = _NO_STATE
        #: The one completion map: ``callbacks[rid]`` is invoked (once)
        #: with the :class:`StorePutResult` / :class:`StoreGetResult` of a
        #: request this node originated.  In-sim clients (the compute
        #: subsystem's checkpointing) register their own callback; the
        #: blocking client registers a slot and pumps the simulator.  A
        #: result whose rid has no callback (fire-and-forget, or the
        #: client timed out and dropped it) is discarded.
        self.callbacks: Dict[int, Callable[[Any], None]] = _NO_STATE
        #: ``key id -> node that last coordinated it for us``: learnt from
        #: the ``src`` of every result this node receives, popped by the
        #: next request for that key (:meth:`ReplicatedStore._issue`), so a
        #: hint is used at most once before a fresh result re-teaches it.
        self.coordinators: Dict[int, int] = _NO_STATE

    def forget(self) -> None:
        """Drop what the process holds in memory (its store is disk):
        learnt coordinators, registered completions, and every quorum it
        is coordinating, with its timeout cancelled so it never answers."""
        for pending in (self._writes, self._reads):
            for pend in pending.values():
                pend.timeout_event.cancel()  # type: ignore[attr-defined]
        self._writes = self._reads = self.callbacks = self.coordinators = _NO_STATE

    # -------------------------------------------------------------- writes
    def handle_put(self, src: int, msg: StorePut) -> None:
        if msg.ttl > self.node.config.ttl_max:
            return  # drop: the client's pump ends with no reply
        nxt = greedy_key_next_hop(self.node, msg.key_id)
        if nxt is not None:
            self.node.send(nxt, StorePut(msg.request_id, msg.origin, msg.key_id,
                                         msg.value, msg.ttl + 1))
            return
        # We are the responsible node: coordinate the quorum write.  The
        # stamp leads with coordination time so this write dominates any
        # stale copy on replicas that are down right now (LWW survives a
        # per-key version-counter restart on a fresh coordinator).
        version = self.store.next_version(msg.key_id)
        now = self.node.sim.now
        self.store.apply(msg.key_id, msg.value, version,
                         writer=self.node.ident, timestamp=now)
        targets = tuple(replicas(self.node, msg.key_id, self.quorum.n))
        pend = _PendingWrite(
            request_id=msg.request_id, origin=msg.origin, key_id=msg.key_id,
            version=version, targets=targets,
            acks={self.node.ident}, hops=msg.ttl,
        )
        rep = StoreReplicate(msg.request_id, self.node.ident, msg.key_id,
                             msg.value, version, self.node.ident, now)
        for t in targets:
            if t != self.node.ident:
                self.node.send(t, rep)
        # Like the read path: never wait for acks that can't exist when the
        # placement couldn't name w distinct targets (thin table, tiny net).
        if len(pend.acks) >= min(self.quorum.w, len(targets)):
            self._finish_write(pend)
            return
        if type(self._writes) is not dict:
            self._writes = {}
        self._writes[msg.request_id] = pend
        pend.timeout_event = self.node.sim.schedule(
            QUORUM_TIMEOUT,
            partial(self._write_timeout, msg.request_id),
            label=f"store-put-timeout:{msg.request_id}",
        )

    def _on_replicate(self, src: int, msg: StoreReplicate) -> None:
        applied = self.store.apply(msg.key_id, msg.value, msg.version,
                                   writer=msg.writer, timestamp=msg.timestamp)
        if msg.request_id != REPAIR_RID:
            # A rejection (the replica holds a newer-stamped copy — this
            # write already lost LWW to a concurrent one) must not count
            # towards W.  Holding this exact stamp already (a repair or
            # read-repair of the same write raced the fanout here) IS
            # success, or the write would spuriously time out.
            held = self.store.get(msg.key_id)
            ok = applied or (held is not None and held.stamp()
                             == (msg.timestamp, msg.version, msg.writer))
            self.node.send(msg.coordinator, StoreAck(
                msg.request_id, msg.key_id, self.node.ident,
                self.store.version_of(msg.key_id), ok=ok))

    def _on_ack(self, src: int, msg: StoreAck) -> None:
        pend = self._writes.get(msg.request_id)
        if pend is None or not msg.ok:
            return
        pend.acks.add(msg.holder)
        if len(pend.acks) >= min(self.quorum.w, len(pend.targets)):
            del self._writes[msg.request_id]
            if not self._writes:
                self._writes = _NO_STATE
            if pend.timeout_event is not None:
                pend.timeout_event.cancel()  # type: ignore[attr-defined]
            self._finish_write(pend)

    def _write_timeout(self, rid: int) -> None:
        pend = self._writes.pop(rid, None)
        if pend is not None:
            if not self._writes:
                self._writes = _NO_STATE
            self._finish_write(pend)  # sloppy: report what was achieved

    def _finish_write(self, pend: _PendingWrite) -> None:
        ok = len(pend.acks) >= self.quorum.w
        self.node.send(pend.origin, StorePutResult(
            pend.request_id, pend.key_id, ok, pend.version,
            tuple(sorted(pend.acks)), pend.hops))

    # --------------------------------------------------------------- reads
    def handle_get(self, src: int, msg: StoreGet) -> None:
        if msg.ttl > self.node.config.ttl_max:
            return
        path = msg.path + (self.node.ident,)
        nxt = greedy_key_next_hop(self.node, msg.key_id, frozenset(path))
        if nxt is not None:
            self.node.send(nxt, StoreGet(msg.request_id, msg.origin, msg.key_id,
                                         msg.ttl + 1, msg.fallbacks, path))
            return
        targets = tuple(replicas(self.node, msg.key_id, self.quorum.n))
        pend = _PendingRead(
            request_id=msg.request_id, origin=msg.origin, key_id=msg.key_id,
            targets=targets, replies={self.node.ident: self.store.get(msg.key_id)},
            hops=msg.ttl, fallbacks=msg.fallbacks, path=path,
        )
        for t in targets:
            if t != self.node.ident:
                self.node.send(t, StoreRead(msg.request_id, self.node.ident, msg.key_id))
        if self._read_complete(pend):
            self._finish_read(pend)
            if len(pend.replies) >= len(targets):
                return
        if type(self._reads) is not dict:
            self._reads = {}
        self._reads[msg.request_id] = pend
        pend.timeout_event = self.node.sim.schedule(
            QUORUM_TIMEOUT,
            partial(self._read_timeout, msg.request_id),
            label=f"store-get-timeout:{msg.request_id}",
        )

    def _on_read(self, src: int, msg: StoreRead) -> None:
        vv = self.store.get(msg.key_id)
        if vv is None:
            reply = StoreReadReply(msg.request_id, msg.key_id, self.node.ident, False)
        else:
            reply = StoreReadReply(msg.request_id, msg.key_id, self.node.ident,
                                   True, vv.value, vv.version, vv.writer,
                                   vv.timestamp)
        self.node.send(msg.coordinator, reply)

    def _on_read_reply(self, src: int, msg: StoreReadReply) -> None:
        pend = self._reads.get(msg.request_id)
        if pend is None:
            return
        vv = (VersionedValue(msg.value, msg.version, msg.writer, msg.timestamp)
              if msg.found else None)
        pend.replies[msg.holder] = vv
        if pend.winner is not None:
            # Answered already (R found replies were in): a replica that
            # replies after that is still owed its read repair.
            if pend.winner.dominates(vv):
                self._repair(msg.holder, pend.key_id, pend.winner)
        elif self._read_complete(pend):
            self._finish_read(pend)
        else:
            return
        if len(pend.replies) >= len(pend.targets):
            del self._reads[msg.request_id]
            if not self._reads:
                self._reads = _NO_STATE
            if pend.timeout_event is not None:
                pend.timeout_event.cancel()  # type: ignore[attr-defined]

    def _read_complete(self, pend: _PendingRead) -> bool:
        """R *found* replies satisfy the quorum early; otherwise wait for
        every target (a quick self-miss at a coordinator that merely hasn't
        received its copy yet must not out-race the real holders' replies).
        """
        found = 0
        for vv in pend.replies.values():
            if vv is not None:
                found += 1
        return found >= self.quorum.r or len(pend.replies) >= len(pend.targets)

    def _read_timeout(self, rid: int) -> None:
        pend = self._reads.pop(rid, None)
        if not self._reads:
            self._reads = _NO_STATE
        if pend is not None and pend.winner is None:
            self._finish_read(pend)  # sloppy: answer from the replies we got

    def _fallback_read(self, pend: _PendingRead) -> bool:
        """Sloppy-read fallback: every replica missed, so hand the request to
        the closest *unvisited* candidate (an NGSA-style non-improving hop —
        after churn the greedy walk can stall at a local minimum that never
        heard of the key's true neighbourhood).  True when forwarded."""
        if pend.fallbacks >= READ_FALLBACK:
            return False
        # The path already ends at this coordinator (handle_get).
        best = greedy_key_next_hop(self.node, pend.key_id, frozenset(pend.path),
                                   improving_only=False)
        if best is None:
            return False
        self.node.send(best, StoreGet(pend.request_id, pend.origin, pend.key_id,
                                      ttl=pend.hops + 1,
                                      fallbacks=pend.fallbacks + 1,
                                      path=pend.path))
        return True

    def _finish_read(self, pend: _PendingRead) -> None:
        present = [vv for vv in pend.replies.values() if vv is not None]
        freshest = max(present, key=VersionedValue.stamp, default=None)
        quorum_met = len(pend.replies) >= self.quorum.r
        if freshest is None and self._fallback_read(pend):
            return  # a downstream coordinator will answer the origin
        if freshest is not None:
            # Read repair: push the winning version to stale/missing holders
            # (those yet to reply are repaired as their replies land).
            pend.winner = freshest
            for holder, vv in pend.replies.items():
                if holder != self.node.ident and freshest.dominates(vv):
                    self._repair(holder, pend.key_id, freshest)
            self.store.apply(pend.key_id, freshest.value, freshest.version,
                             freshest.writer, freshest.timestamp)
            result = StoreGetResult(pend.request_id, pend.key_id, True,
                                    freshest.value, freshest.version,
                                    quorum_met, pend.hops)
        else:
            result = StoreGetResult(pend.request_id, pend.key_id, False,
                                    None, 0, quorum_met, pend.hops)
        self.node.send(pend.origin, result)

    def _repair(self, holder: int, key_id: int, vv: VersionedValue) -> None:
        self.node.send(holder, StoreReplicate(
            REPAIR_RID, self.node.ident, key_id,
            vv.value, vv.version, vv.writer, vv.timestamp))

    # ----------------------------------------------------------- client side
    def _on_result(self, src: int, msg) -> None:
        hints = self.coordinators
        if type(hints) is not dict:
            hints = self.coordinators = {}
        hints[msg.key_id] = src
        if len(hints) > _HINT_CAP:
            del hints[next(iter(hints))]
        cb = self.callbacks.pop(msg.request_id, None)
        if cb is not None:
            cb(msg)


class ReplicatedStore(Service):
    """Synchronous quorum PUT/GET client against a built TreeP network.

    >>> from repro.cluster import Cluster
    >>> store = Cluster(seed=7).build(64).with_storage(
    ...     QuorumConfig(n=3, w=2, r=2)).storage
    >>> store.put("job/42", {"state": "done"}).ok
    True
    >>> store.get("job/42").value
    {'state': 'done'}
    """

    name = "storage"

    def __init__(self, *, quorum: Optional[QuorumConfig] = None) -> None:
        super().__init__()
        self.net: Optional["TreePNetwork"] = None
        self.quorum = quorum if quorum is not None else QuorumConfig()
        self.agents: Dict[int, StorageAgent] = {}
        #: Requests issued so far; the last request id.
        self._rid = 0
        #: key ids successfully written at least once (durability baseline).
        self.tracked_keys: Dict[int, str] = {}

    # ------------------------------------------------------------ lifecycle
    def on_attach(self, ctx: ServiceContext) -> None:
        self.net = ctx.net

    def setup_node(self, node: "TreePNode") -> None:
        self.agents[node.ident] = StorageAgent(node, self.quorum)

    def handlers(self) -> Mapping[type, Handler]:
        agents, on = self.agents, StorageAgent
        return {
            StorePut: (agents, on.handle_put),
            StoreGet: (agents, on.handle_get),
            StoreReplicate: (agents, on._on_replicate),
            StoreAck: (agents, on._on_ack),
            StoreRead: (agents, on._on_read),
            StoreReadReply: (agents, on._on_read_reply),
            StorePutResult: (agents, on._on_result),
            StoreGetResult: (agents, on._on_result),
        }

    def on_node_leave(self, ident: int) -> None:
        """A crashed process forgets what it learnt and what it was waiting
        for: results addressed to it are never delivered, so a completion
        left registered would stay for good, and a quorum it was
        coordinating must not answer from the dead when its timeout fires."""
        self.agents[ident].forget()

    def on_detach(self) -> None:
        """Nothing handles a detached store's datagrams, so no agent may
        keep a quorum whose timeout would still send its result."""
        for agent in self.agents.values():
            agent.forget()

    def key_id(self, key: str) -> int:
        return hash_key(key, self.net.config.space.extent)

    def _put_deadline(self) -> float:
        """One coordination (plus routing slack)."""
        return 4 * QUORUM_TIMEOUT

    def _get_deadline(self) -> float:
        """Reads must outlive the worst sloppy-fallback chain: every
        fallback hop can burn a full read timeout on dead targets, and a
        genuine late result must not be dropped with its callback."""
        return (READ_FALLBACK + 2) * QUORUM_TIMEOUT

    # ------------------------------------------------------------ async API
    def _issue(self, op: str, key_id: int, value: Any, via: Optional[int],
               on_done: Optional[Callable[[Any], None]]):
        """Inject one client request at a live node; ``(rid, agent,
        hinted)``.

        A key this origin was answered for before goes straight to the
        node that answered (``ttl=1``, no greedy walk); the hint is
        consumed, so a coordinator that died costs one unanswered request
        and the next one routes.  The receiver runs the ordinary handler:
        a hinted node that is no longer closest to the key just forwards.
        """
        node = self.net.live_origin(via)
        agent = self.agents[node.ident]
        self._rid += 1
        rid = self._rid  # facade-unique; safe across origins
        if on_done is not None:
            callbacks = agent.callbacks
            if type(callbacks) is not dict:
                callbacks = agent.callbacks = {}
            callbacks[rid] = on_done
            # A result that never arrives (its coordinator died) must not
            # pin its closure forever: oldest registrations are dropped.
            while len(callbacks) > _CALLBACK_CAP:
                callbacks.pop(next(iter(callbacks)))
        coordinator = agent.coordinators.pop(key_id, node.ident)
        hinted = coordinator != node.ident
        ttl = 1 if hinted else 0  # the direct send is the request's one hop
        if op == "put":
            msg = StorePut(rid, node.ident, key_id, value, ttl)
        else:
            msg = StoreGet(rid, node.ident, key_id, ttl)
        if hinted:
            node.send(coordinator, msg)
        elif op == "put":
            agent.handle_put(node.ident, msg)
        else:
            agent.handle_get(node.ident, msg)
        return rid, agent, hinted

    def put_async(
        self,
        key: str,
        value: Any,
        via: Optional[int] = None,
        on_done: Optional[Callable[[Any], None]] = None,
    ) -> int:
        """Issue a quorum write without pumping the simulator.

        For protocol code running *inside* the sim (timers, handlers): the
        write proceeds as real datagram traffic and *on_done*, when given,
        is invoked with the :class:`~repro.storage.messages.StorePutResult`
        when the coordinator answers; without it the write is
        fire-and-forget (nothing is registered, the result is discarded).
        Returns the request id.  Unlike :meth:`put`, the key is not added
        to the durability-tracked set — callers that want anti-entropy
        accounting should use :meth:`put`.
        """
        return self._issue("put", self.key_id(key), value, via, on_done)[0]

    def get_async(
        self,
        key: str,
        via: Optional[int] = None,
        on_done: Optional[Callable[[Any], None]] = None,
    ) -> int:
        """Issue a quorum read without pumping the simulator (see
        :meth:`put_async`); *on_done* receives the
        :class:`~repro.storage.messages.StoreGetResult`."""
        return self._issue("get", self.key_id(key), None, via, on_done)[0]

    # --------------------------------------------------------- blocking API
    def _call(self, op: str, key_id: int, value: Any, via: Optional[int],
              deadline: float):
        """The async op plus one pump: returns the coordinator's result,
        or ``None`` when *deadline* virtual seconds pass without one.  A
        hinted request nobody answered (the remembered coordinator died)
        is re-issued once; the hint is gone, so the retry routes."""
        net = self.net
        slot: List[Any] = []
        rid, agent, hinted = self._issue(op, key_id, value, via, slot.append)
        hub = net.obs
        if hub is not None:
            hub.storage_begin(op, rid, agent.node.ident, net.sim.now)
        attempt = rid
        if (not net.pump(slot, deadline) and hinted
                and net.network.is_up(agent.node.ident)):
            agent.callbacks.pop(attempt, None)
            attempt, agent, _ = self._issue(op, key_id, value, via,
                                            slot.append)
            net.pump(slot, deadline)
        if not slot:
            agent.callbacks.pop(attempt, None)  # a late result is dropped
        reply = slot[0] if slot else None
        if hub is not None:
            if reply is None:
                hub.storage_end(op, rid, net.sim.now, ok=False,
                                hops=0, replicas=0, timed_out=True)
            elif op == "put":
                hub.storage_end(op, rid, net.sim.now, ok=reply.ok,
                                hops=reply.hops,
                                replicas=len(reply.replicas),
                                timed_out=False)
            else:
                hub.storage_end(op, rid, net.sim.now, ok=reply.found,
                                hops=reply.hops, replicas=0,
                                timed_out=False)
        return reply

    def put(self, key: str, value: Any, via: Optional[int] = None) -> StoreResult:
        """Quorum write; blocks (runs the sim) until resolved or timed out."""
        key_id = self.key_id(key)
        reply = self._call("put", key_id, value, via, self._put_deadline())
        if reply is None:
            return StoreResult(key=key, key_id=key_id, ok=False)
        if reply.ok:
            self.tracked_keys[key_id] = key
        return StoreResult(key=key, key_id=key_id, ok=reply.ok,
                           version=reply.version, replicas=reply.replicas,
                           quorum_met=reply.ok, hops=reply.hops)

    def get(self, key: str, via: Optional[int] = None) -> StoreResult:
        """Quorum read; blocks until the coordinator answers or times out."""
        key_id = self.key_id(key)
        reply = self._call("get", key_id, None, via, self._get_deadline())
        if reply is None:
            return StoreResult(key=key, key_id=key_id, ok=False)
        return StoreResult(key=key, key_id=key_id, ok=reply.found,
                           value=reply.value, version=reply.version,
                           quorum_met=reply.quorum_met, hops=reply.hops)

    # ---------------------------------------------------------- diagnostics
    def replica_map(self, live_only: bool = True) -> Dict[int, List[int]]:
        """``{key id: sorted holder ids}`` across the (live) population."""
        out: Dict[int, List[int]] = {}
        for ident, agent in self.agents.items():
            if live_only and not self.net.network.is_up(ident):
                continue
            for key_id in agent.store.keys():
                out.setdefault(key_id, []).append(ident)
        for holders in out.values():
            holders.sort()
        return out

    def replication_factors(self) -> Dict[int, int]:
        """Live replica count for every tracked key (0 == lost)."""
        counts = {k: 0 for k in self.tracked_keys}
        for key_id, holders in self.replica_map(live_only=True).items():
            if key_id in counts:
                counts[key_id] = len(holders)
        return counts
