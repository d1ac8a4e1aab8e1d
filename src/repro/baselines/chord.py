"""Chord (Stoica et al., SIGCOMM'01) on the shared simulation substrate.

The structured-DHT baseline the paper's related work measures itself
against.  Implemented faithfully at the routing level:

* IDs on a ring of size ``2**M_BITS`` (32 bits, TreeP's ID space); node
  responsible for a key = its **successor** on the ring.
* Finger table: entry ``i`` points at ``successor(n + 2**i)``.
* Successor list of length ``SUCC_COUNT`` (4) for failure tolerance.
* Greedy message-driven lookup: forward to the closest *preceding* finger;
  terminal when the key falls between predecessor and self.

As with TreeP, the experiment harness builds the converged steady state
directly (fingers computed from the full membership) and then kills nodes;
the per-step "maintenance" purges dead fingers/successors and reroutes
through the survivors, mirroring :mod:`repro.core.repair`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Optional

from repro.baselines.harness import ID_SPACE, BaselineNetwork
from repro.core.lookup import LookupAlgorithm
from repro.core.node import LookupClient, PendingLookup
from repro.sim.network import Datagram

#: Ring bits: the 2**32 ring every run uses, TreeP's default ID space.
M_BITS = 32
RING = ID_SPACE
#: Successor-list length each node keeps for failure tolerance.
SUCC_COUNT = 4


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


class ChordNode(LookupClient):
    """One Chord peer: fingers, successor list, greedy routing."""

    def __init__(self, ident: int) -> None:
        super().__init__(ident)
        self.fingers: List[int] = []
        self.successors: List[int] = []
        self.predecessor: Optional[int] = None

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
            if f != self.ident and self._in_range(f, self.ident, (key - 1) % RING):
                return f
        for s in self.successors:
            if s != self.ident and self._in_range(s, self.ident, (key - 1) % RING):
                return s
        return self.successors[0] if self.successors else None

    # --------------------------------------------------------------- lookup
    def issue_lookup(self, target: int) -> PendingLookup:
        pend = self._open_lookup(target, LookupAlgorithm.GREEDY)
        self._handle(ChordLookup(pend.request_id, self.ident, target, 0))
        return pend

    def on_datagram(self, dgram: Datagram) -> None:
        payload = dgram.payload
        if isinstance(payload, ChordLookup):
            self._handle(payload)
        elif isinstance(payload, ChordReply):
            self._close_lookup(payload.request_id, payload.found, payload.hops)

    def _handle(self, msg: ChordLookup) -> None:
        if msg.hops > 255:
            return
        if msg.target == self.ident or self.owns(msg.target):
            # Node-lookup semantics: the lookup succeeded iff we *are* the
            # target (or hold it as an immediate successor); being merely
            # responsible for a vanished ID is a miss.
            self._answer(msg, msg.target == self.ident or msg.target in self.successors)
            return
        nxt = self.closest_preceding(msg.target)
        if nxt is None or nxt == self.ident:
            self._answer(msg, False)
            return
        self.send(nxt, ChordLookup(msg.request_id, msg.origin, msg.target, msg.hops + 1))

    def _answer(self, msg: ChordLookup, found: bool) -> None:
        if msg.origin == self.ident:
            self._close_lookup(msg.request_id, found, msg.hops)
        else:
            self.send(msg.origin, ChordReply(msg.request_id, msg.target, found, msg.hops))


class ChordNetwork(BaselineNetwork):
    """A complete simulated Chord deployment (builder + failure harness)."""

    node_type = ChordNode

    # ------------------------------------------------------------- building
    def build(self, n: int) -> None:
        super().build(n)
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
            node.successors = [members[(pos + k + 1) % n] for k in range(min(SUCC_COUNT, n - 1))]
            fingers = []
            for b in range(M_BITS):
                f = self._successor_of(members, (i + (1 << b)) % RING)
                if f != i and (not fingers or fingers[-1] != f):
                    fingers.append(f)
            node.fingers = sorted(set(fingers))

    # ------------------------------------------------------------- failures
    def repair_step(self) -> None:
        """Purge dead pointers and re-stabilise among survivors.

        Mirrors Chord's stabilisation fixed point: fingers recomputed over
        the live membership (what periodic ``fix_fingers`` converges to),
        so the baseline gets the same converged-maintenance treatment as
        TreeP's :func:`repro.core.repair.apply_failure_step`.
        """
        live = self.alive_ids()
        if live:
            self._install_tables(live)

