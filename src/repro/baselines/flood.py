"""Gnutella-style TTL-limited flooding — the unstructured baseline.

The paper's §I critique of the decentralised-unstructured family: "they rely
on a blind flood lookup algorithm … techniques that do not scale well."
This baseline makes the critique measurable: lookups succeed with high
probability while the flood horizon covers the network, but message cost is
exponential in the TTL and plummeting coverage under failures.

Message-driven on the shared substrate: each node forwards an unseen query
to all neighbours except the sender, TTL decrementing per hop; the target
answers the origin directly.  Duplicate suppression by request id, exactly
as in Gnutella 0.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.baselines.harness import BaselineNetwork
from repro.baselines.random_graph import random_overlay
from repro.core.lookup import LookupAlgorithm
from repro.core.node import LookupClient, PendingLookup
from repro.sim.network import Datagram

#: Random-overlay degree every peer gets at build.
DEGREE = 4
#: Flood horizon of a lookup that names no TTL (Gnutella's customary 7).
DEFAULT_TTL = 7


@dataclass(frozen=True)
class FloodQuery:
    request_id: int
    origin: int
    target: int
    ttl: int
    hops: int = 0

    wire_size: int = 40


@dataclass(frozen=True)
class FloodHit:
    request_id: int
    target: int
    hops: int

    wire_size: int = 36


class FloodNode(LookupClient):
    """One unstructured peer: random neighbours, duplicate-suppressed flood."""

    def __init__(self, ident: int) -> None:
        super().__init__(ident)
        self.neighbours: List[int] = []
        self.seen: Set[int] = set()

    def issue_lookup(self, target: int, ttl: int = DEFAULT_TTL) -> PendingLookup:
        pend = self._open_lookup(target, LookupAlgorithm.GREEDY)
        rid = pend.request_id
        self.seen.add(rid)
        if target == self.ident:
            self._close_lookup(rid, True, 0)
        else:
            for n in self.neighbours:
                self.send(n, FloodQuery(rid, self.ident, target, ttl, 1))
        return pend

    def on_datagram(self, dgram: Datagram) -> None:
        payload = dgram.payload
        if isinstance(payload, FloodQuery):
            self._on_query(dgram.src, payload)
        elif isinstance(payload, FloodHit):
            # The first hit wins; the pending record ignores duplicates.
            self._close_lookup(payload.request_id, True, payload.hops)

    def _on_query(self, src: int, q: FloodQuery) -> None:
        if q.request_id in self.seen:
            return
        self.seen.add(q.request_id)
        if q.target == self.ident:
            self.send(q.origin, FloodHit(q.request_id, q.target, q.hops))
            return
        if q.ttl <= 1:
            return
        for n in self.neighbours:
            if n != src:
                self.send(n, FloodQuery(q.request_id, q.origin, q.target,
                                        q.ttl - 1, q.hops + 1))


class FloodNetwork(BaselineNetwork):
    """A complete unstructured deployment with the shared failure harness."""

    node_type = FloodNode

    def build(self, n: int) -> None:
        super().build(n)
        adj = random_overlay(self.ids, self.rng.get("topology"), degree=DEGREE)
        for i in self.ids:
            self.nodes[i].neighbours = adj[i]

    def repair_step(self) -> None:
        """Drop dead links (unstructured nets do no more than that)."""
        up = self.network.is_up
        for i in self.ids:
            if up(i):
                self.nodes[i].neighbours = [n for n in self.nodes[i].neighbours if up(n)]
