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

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.baselines.random_graph import random_overlay
from repro.core.lookup import LookupAlgorithm, LookupResult
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.network import Datagram, Network, Process
from repro.sim.rng import RngRegistry


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


@dataclass
class FloodPending:
    request_id: int
    target: int
    timeout_event: object = None
    result: Optional[LookupResult] = None


class FloodNode(Process):
    """One unstructured peer: random neighbours, duplicate-suppressed flood."""

    def __init__(self, ident: int) -> None:
        super().__init__(ident)
        self.ident = ident
        self.neighbours: List[int] = []
        self.seen: Set[int] = set()
        self.pending: Dict[int, FloodPending] = {}
        self._rid = itertools.count(1)
        self.lookup_timeout = 30.0

    def issue_lookup(self, target: int, ttl: int = 7) -> FloodPending:
        rid = (self.ident << 20) | next(self._rid)
        pend = FloodPending(request_id=rid, target=target)
        self.pending[rid] = pend
        pend.timeout_event = self.sim.schedule(
            self.lookup_timeout, lambda: self._timeout(rid), label=f"flood-to:{rid}"
        )
        self.seen.add(rid)
        if target == self.ident:
            self._on_hit(FloodHit(rid, target, 0))
            return pend
        for n in self.neighbours:
            self.send(n, FloodQuery(rid, self.ident, target, ttl, 1))
        return pend

    def _timeout(self, rid: int) -> None:
        pend = self.pending.pop(rid, None)
        if pend is None:
            return
        pend.result = LookupResult(
            request_id=rid, origin=self.ident, target=pend.target,
            algo=LookupAlgorithm.GREEDY, found=False, hops=0, timed_out=True)

    def on_datagram(self, dgram: Datagram) -> None:
        payload = dgram.payload
        if isinstance(payload, FloodQuery):
            self._on_query(dgram.src, payload)
        elif isinstance(payload, FloodHit):
            self._on_hit(payload)

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

    def _on_hit(self, hit: FloodHit) -> None:
        pend = self.pending.pop(hit.request_id, None)
        if pend is None:
            return  # duplicate hit; first answer wins
        if pend.timeout_event is not None:
            pend.timeout_event.cancel()  # type: ignore[attr-defined]
        pend.result = LookupResult(
            request_id=hit.request_id, origin=self.ident, target=pend.target,
            algo=LookupAlgorithm.GREEDY, found=True, hops=hit.hops)


class FloodNetwork:
    """A complete unstructured deployment with the shared failure harness."""

    def __init__(
        self,
        seed: int = 0,
        degree: int = 4,
        default_ttl: int = 7,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
    ) -> None:
        self.rng = RngRegistry(seed)
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            latency=latency if latency is not None else UniformLatency(self.rng.get("latency")),
            loss=loss,
            rng=self.rng.get("loss"),
        )
        self.degree = degree
        self.default_ttl = default_ttl
        self.nodes: Dict[int, FloodNode] = {}
        self.ids: List[int] = []

    def build(self, n: int) -> None:
        if self.nodes:
            raise RuntimeError("network already built")
        rng = self.rng.get("ids")
        seen: set[int] = set()
        while len(seen) < n:
            for v in rng.integers(0, 2**32, size=n - len(seen) + 8):
                seen.add(int(v))
                if len(seen) == n:
                    break
        self.ids = sorted(seen)
        adj = random_overlay(self.ids, self.rng.get("topology"), degree=self.degree)
        for i in self.ids:
            node = FloodNode(i)
            node.neighbours = adj[i]
            self.network.register(node)
            self.nodes[i] = node

    def fail_nodes(self, idents: Iterable[int]) -> None:
        for i in idents:
            self.network.set_down(i)

    def repair_step(self) -> None:
        """Drop dead links (unstructured nets do no more than that)."""
        up = self.network.is_up
        for i in self.ids:
            if up(i):
                self.nodes[i].neighbours = [n for n in self.nodes[i].neighbours if up(n)]

    def run_lookup_batch(
        self, pairs: Iterable[Tuple[int, int]], ttl: Optional[int] = None
    ) -> List[LookupResult]:
        t = ttl if ttl is not None else self.default_ttl
        pending = [self.nodes[o].issue_lookup(tgt, t) for o, tgt in pairs]
        self.sim.run()
        assert all(p.result is not None for p in pending)
        return [p.result for p in pending]

    def alive_ids(self) -> List[int]:
        return [i for i in self.ids if self.network.is_up(i)]
