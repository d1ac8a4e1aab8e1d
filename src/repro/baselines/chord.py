"""Chord (Stoica et al., SIGCOMM'01) on the shared simulation substrate.

The structured-DHT baseline the paper's related work measures itself
against.  Implemented faithfully at the routing level:

* IDs on a ring of size ``2**m``; node responsible for a key = its
  **successor** on the ring.
* Finger table: entry ``i`` points at ``successor(n + 2**i)``.
* Successor list of length ``r`` for failure tolerance.
* Greedy message-driven lookup: forward to the closest *preceding* finger;
  terminal when the key falls between predecessor and self.

As with TreeP, the experiment harness builds the converged steady state
directly (fingers computed from the full membership) and then kills nodes;
the per-step "maintenance" purges dead fingers/successors and reroutes
through the survivors, mirroring :mod:`repro.core.repair`.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


from repro.core.lookup import LookupResult, LookupAlgorithm
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.network import Datagram, Network, Process
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class ChordLookup:
    request_id: int
    origin: int
    target: int
    hops: int = 0

    wire_size: int = 44


@dataclass(frozen=True)
class ChordReply:
    request_id: int
    target: int
    found: bool
    hops: int

    wire_size: int = 40


@dataclass
class ChordPending:
    request_id: int
    target: int
    timeout_event: object = None
    result: Optional[LookupResult] = None


class ChordNode(Process):
    """One Chord peer: fingers, successor list, greedy routing."""

    def __init__(self, ident: int, m_bits: int, succ_count: int = 4) -> None:
        super().__init__(ident)
        self.ident = ident
        self.m_bits = m_bits
        self.ring = 1 << m_bits
        self.fingers: List[int] = []
        self.successors: List[int] = []
        self.predecessor: Optional[int] = None
        self.succ_count = succ_count
        self.pending: Dict[int, ChordPending] = {}
        self._rid = itertools.count(1)
        self.lookup_timeout = 30.0

    # -------------------------------------------------------------- helpers
    def _in_range(self, x: int, a: int, b: int) -> bool:
        """x in (a, b] on the ring."""
        if a < b:
            return a < x <= b
        return x > a or x <= b

    def owns(self, key: int) -> bool:
        """Responsible iff key in (predecessor, self]."""
        if self.predecessor is None:
            return True
        return self._in_range(key, self.predecessor, self.ident)

    def closest_preceding(self, key: int) -> Optional[int]:
        """Closest live-believed finger strictly preceding *key*."""
        for f in reversed(self.fingers):
            if f != self.ident and self._in_range(f, self.ident, (key - 1) % self.ring):
                return f
        for s in self.successors:
            if s != self.ident and self._in_range(s, self.ident, (key - 1) % self.ring):
                return s
        return self.successors[0] if self.successors else None

    # --------------------------------------------------------------- lookup
    def issue_lookup(self, target: int) -> ChordPending:
        rid = (self.ident << 20) | next(self._rid)
        pend = ChordPending(request_id=rid, target=target)
        self.pending[rid] = pend
        pend.timeout_event = self.sim.schedule(
            self.lookup_timeout, lambda: self._timeout(rid), label=f"chord-to:{rid}"
        )
        self._handle(ChordLookup(rid, self.ident, target, 0))
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
        if isinstance(payload, ChordLookup):
            self._handle(payload)
        elif isinstance(payload, ChordReply):
            self._on_reply(payload)

    def _handle(self, msg: ChordLookup) -> None:
        if msg.hops > 255:
            return
        if msg.target == self.ident or self.owns(msg.target):
            # Node-lookup semantics: the lookup succeeded iff we *are* the
            # target (or hold it as an immediate successor); being merely
            # responsible for a vanished ID is a miss.
            found = msg.target == self.ident or msg.target in self.successors
            reply = ChordReply(msg.request_id, msg.target, found, msg.hops)
            if msg.origin == self.ident:
                self._on_reply(reply)
            else:
                self.send(msg.origin, reply)
            return
        nxt = self.closest_preceding(msg.target)
        if nxt is None or nxt == self.ident:
            reply = ChordReply(msg.request_id, msg.target, False, msg.hops)
            if msg.origin == self.ident:
                self._on_reply(reply)
            else:
                self.send(msg.origin, reply)
            return
        self.send(nxt, ChordLookup(msg.request_id, msg.origin, msg.target, msg.hops + 1))

    def _on_reply(self, reply: ChordReply) -> None:
        pend = self.pending.pop(reply.request_id, None)
        if pend is None:
            return
        if pend.timeout_event is not None:
            pend.timeout_event.cancel()  # type: ignore[attr-defined]
        pend.result = LookupResult(
            request_id=reply.request_id, origin=self.ident, target=pend.target,
            algo=LookupAlgorithm.GREEDY, found=reply.found, hops=reply.hops)


class ChordNetwork:
    """A complete simulated Chord deployment (builder + failure harness)."""

    def __init__(
        self,
        m_bits: int = 32,
        seed: int = 0,
        succ_count: int = 4,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
    ) -> None:
        if not 4 <= m_bits <= 62:
            raise ValueError(f"m_bits must be in [4, 62], got {m_bits}")
        self.m_bits = m_bits
        self.ring = 1 << m_bits
        self.succ_count = succ_count
        self.rng = RngRegistry(seed)
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            latency=latency if latency is not None else UniformLatency(self.rng.get("latency")),
            loss=loss,
            rng=self.rng.get("loss"),
        )
        self.nodes: Dict[int, ChordNode] = {}
        self.ids: List[int] = []

    # ------------------------------------------------------------- building
    def build(self, n: int) -> None:
        if self.nodes:
            raise RuntimeError("network already built")
        rng = self.rng.get("ids")
        seen: set[int] = set()
        while len(seen) < n:
            for v in rng.integers(0, self.ring, size=n - len(seen) + 8):
                iv = int(v)
                if iv not in seen:
                    seen.add(iv)
                    if len(seen) == n:
                        break
        self.ids = sorted(seen)
        for i in self.ids:
            node = ChordNode(i, self.m_bits, self.succ_count)
            self.network.register(node)
            self.nodes[i] = node
        self._install_tables(self.ids)

    def _successor_of(self, sorted_ids: List[int], key: int) -> int:
        idx = bisect_left(sorted_ids, key)
        return sorted_ids[idx % len(sorted_ids)]

    def _install_tables(self, members: List[int]) -> None:
        """Converged fingers/successors for the given live membership."""
        members = sorted(members)
        n = len(members)
        for i in members:
            node = self.nodes[i]
            pos = bisect_left(members, i)
            node.predecessor = members[(pos - 1) % n]
            node.successors = [members[(pos + k + 1) % n] for k in range(min(self.succ_count, n - 1))]
            fingers = []
            for b in range(self.m_bits):
                f = self._successor_of(members, (i + (1 << b)) % self.ring)
                if f != i and (not fingers or fingers[-1] != f):
                    fingers.append(f)
            node.fingers = sorted(set(fingers))

    # ------------------------------------------------------------- failures
    def fail_nodes(self, idents: Iterable[int]) -> None:
        for i in idents:
            self.network.set_down(i)

    def repair_step(self) -> None:
        """Purge dead pointers and re-stabilise among survivors.

        Mirrors Chord's stabilisation fixed point: fingers recomputed over
        the live membership (what periodic ``fix_fingers`` converges to),
        so the baseline gets the same converged-maintenance treatment as
        TreeP's :func:`repro.core.repair.apply_failure_step`.
        """
        live = [i for i in self.ids if self.network.is_up(i)]
        if live:
            self._install_tables(live)

    # -------------------------------------------------------------- lookups
    def run_lookup_batch(self, pairs: Iterable[Tuple[int, int]]) -> List[LookupResult]:
        pending = [self.nodes[o].issue_lookup(t) for o, t in pairs]
        self.sim.run()
        assert all(p.result is not None for p in pending)
        return [p.result for p in pending]

    def alive_ids(self) -> List[int]:
        return [i for i in self.ids if self.network.is_up(i)]
