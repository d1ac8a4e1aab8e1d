"""DHT functionality on TreeP (§I: "easily modified to provide DHT").

Keys are hashed into the overlay's 1-D ID space; the **responsible node**
for a key is the live peer whose ID is Euclidean-closest among those the
routing walk encounters — the natural TreeP analogue of consistent
hashing's successor rule.  PUT routes the value to the responsible node and
replicates it to the node's level-0 neighbours (cheap fault tolerance on
the same links the overlay already maintains); GET routes the same way and
returns on the first replica hit.

This is the *simple* key/value service — single coordinator, no quorum, no
re-replication; :mod:`repro.storage` is the durable subsystem built on the
same primitives.  The facade implements the
:class:`~repro.cluster.service.Service` lifecycle protocol: its datagram
handlers are declared via :meth:`TreePDht.node_handlers` and installed (and
torn down again) by the per-node service registry, covering nodes that join
later without monkey-patching.  PUT acks travel as the dedicated
:class:`~repro.core.messages.DhtPutAck` (carrying the replica set in its
own field), replica copies as ``DhtPut(direct=True)`` — no TTL abuse, and
a store confirmation can never be mistaken for a GET hit.

Construct through :meth:`repro.cluster.Cluster.with_dht`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.cluster.service import Handler, Service, ServiceContext
from repro.core.lookup import greedy_key_next_hop
from repro.core.messages import DhtGet, DhtPut, DhtPutAck, DhtValue
from repro.core.node import TreePNode
from repro.core.treep import TreePNetwork
from repro.storage.replication import Level0Placement
from repro.storage.store import KVStore, hash_key

__all__ = ["DhtResult", "TreePDht", "hash_key"]


@dataclass
class DhtResult:
    """Outcome of one PUT or GET."""

    key: str
    key_id: int
    found: bool
    value: Any = None
    hops: int = 0
    stored_on: Tuple[int, ...] = ()


class TreePDht(Service):
    """Client API: synchronous PUT/GET against a built TreeP network.

    >>> from repro.cluster import Cluster
    >>> dht = Cluster(seed=7).build(64).with_dht().dht
    >>> dht.put("job/42", {"state": "done"}).found
    True
    >>> dht.get("job/42").value
    {'state': 'done'}
    """

    name = "dht"

    def __init__(self, *, replicas: int = 2) -> None:
        super().__init__()
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.net: Optional[TreePNetwork] = None
        self.replicas = replicas
        #: Per-node key/value partitions (was an ad-hoc dict on the node).
        self.stores: Dict[int, KVStore] = {}
        self._placement = Level0Placement()
        #: rid -> completion callback of a request still being waited on;
        #: a reply whose rid is absent (the client timed out) is dropped.
        self._callbacks: Dict[int, Callable[[Any], None]] = {}
        self._rid = itertools.count(1)

    # ------------------------------------------------------------ lifecycle
    def on_attach(self, ctx: ServiceContext) -> None:
        self.net = ctx.net

    def setup_node(self, node: TreePNode) -> None:
        """Give *node* a (fresh) key/value partition."""
        self.stores[node.ident] = KVStore(node.ident)

    def node_handlers(self, node: TreePNode) -> Mapping[type, Handler]:
        return {
            DhtPut: lambda src, msg, node=node: self._on_put(node, src, msg),
            DhtGet: lambda src, msg, node=node: self._on_get(node, src, msg),
            DhtValue: self._on_reply,
            DhtPutAck: self._on_reply,
        }

    def close(self) -> None:
        """Tear the service down (registry-owned handler cleanup)."""
        self.detach()

    def _on_put(self, node: TreePNode, src: int, msg: DhtPut) -> None:
        store = self.stores[node.ident]
        if msg.direct:
            # Replica copy from the responsible node: store, don't re-route.
            store.apply(msg.key_id, msg.value, store.next_version(msg.key_id),
                        writer=src, timestamp=node.sim.now)
            return
        if msg.ttl > node.config.ttl_max:
            return
        nxt = greedy_key_next_hop(node, msg.key_id)
        if nxt is not None:
            node.send(nxt, DhtPut(msg.request_id, msg.origin, msg.key_id,
                                  msg.value, msg.ttl + 1, msg.replicas))
            return
        # We are the responsible node: store and replicate sideways, using
        # the same level-0 placement the storage subsystem implements.
        store.apply(msg.key_id, msg.value, store.next_version(msg.key_id),
                    writer=node.ident, timestamp=node.sim.now)
        stored = self._placement.replicas(node, msg.key_id, msg.replicas)
        replica = DhtPut(msg.request_id, msg.origin, msg.key_id, msg.value,
                         0, 0, direct=True)
        for n in stored[1:]:
            node.send(n, replica)
        node.send(msg.origin, DhtPutAck(msg.request_id, msg.key_id, True,
                                        tuple(stored), msg.ttl))

    def _on_get(self, node: TreePNode, src: int, msg: DhtGet) -> None:
        if msg.ttl > node.config.ttl_max:
            return
        vv = self.stores[node.ident].get(msg.key_id)
        if vv is not None:
            node.send(msg.origin, DhtValue(msg.request_id, msg.key_id, True,
                                           vv.value, msg.ttl))
            return
        nxt = greedy_key_next_hop(node, msg.key_id)
        if nxt is not None:
            node.send(nxt, DhtGet(msg.request_id, msg.origin, msg.key_id, msg.ttl + 1))
            return
        node.send(msg.origin, DhtValue(msg.request_id, msg.key_id, False, None, msg.ttl))

    def _on_reply(self, src: int, msg) -> None:
        cb = self._callbacks.pop(msg.request_id, None)
        if cb is not None:
            cb(msg)

    # ---------------------------------------------------------- client side
    def _call(self, handler, node: TreePNode, msg):
        """Inject *msg* at *node* and pump the sim to its reply (``None``
        when none arrives within twice the lookup timeout)."""
        slot: List[Any] = []
        self._callbacks[msg.request_id] = slot.append
        handler(node, node.ident, msg)
        if not self.net.pump(slot, 2 * self.net.config.lookup_timeout):
            self._callbacks.pop(msg.request_id, None)
            return None
        return slot[0]

    def put(self, key: str, value: Any, via: Optional[int] = None) -> DhtResult:
        """Store *value* under *key*; blocks (runs the sim) until done."""
        node = self.net.live_origin(via)
        key_id = hash_key(key, self.net.config.space.extent)
        reply = self._call(self._on_put, node, DhtPut(
            next(self._rid), node.ident, key_id, value, 0, self.replicas))
        if reply is None:
            return DhtResult(key=key, key_id=key_id, found=False)
        return DhtResult(key=key, key_id=key_id, found=reply.ok,
                         hops=reply.hops, stored_on=reply.stored_on)

    def get(self, key: str, via: Optional[int] = None) -> DhtResult:
        """Fetch the value under *key*; blocks until resolved or failed."""
        node = self.net.live_origin(via)
        key_id = hash_key(key, self.net.config.space.extent)
        reply = self._call(self._on_get, node,
                           DhtGet(next(self._rid), node.ident, key_id, 0))
        if reply is None or not reply.found:
            return DhtResult(key=key, key_id=key_id, found=False,
                             hops=reply.hops if reply else 0)
        return DhtResult(key=key, key_id=key_id, found=True,
                         value=reply.value, hops=reply.hops)

    def stored_keys(self) -> Dict[int, List[int]]:
        """``{node id: key ids held}`` — distribution diagnostics."""
        out: Dict[int, List[int]] = {}
        for ident, store in self.stores.items():
            if len(store):
                out[ident] = sorted(store.keys())
        return out
