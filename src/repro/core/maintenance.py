"""Routing-table maintenance: keep-alives with delta piggybacking (§III.d).

The paper's maintenance rules:

* On first contact two nodes exchange resources and state (the Hello
  handshake in :mod:`repro.core.node`).
* Afterwards, peers on an *active connection* exchange **only out-of-date
  information**, piggybacked on periodic keep-alives.
* A parent does not probe its children; children report
  (:class:`~repro.core.messages.ChildReport`) and silent children simply
  expire out of the table.
* Every entry carries a timestamp, reset on each active communication, and
  is deleted after expiry.

The :class:`MaintenanceManager` owns the per-node timer, tracks the last
synchronisation time per peer (so each delta contains exactly the entries
refreshed since that peer last heard from us), and runs lazy expiry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from repro.core.messages import ChildReport, KeepAlive, KeepAliveAck

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode


@dataclass
class MaintenanceStats:
    """Counters consumed by the overhead benches."""

    keepalives_sent: int = 0
    acks_sent: int = 0
    entries_shipped: int = 0
    entries_expired: int = 0
    child_reports_sent: int = 0


class MaintenanceManager:
    """Periodic maintenance loop of one node.

    Parameters
    ----------
    node:
        Owning protocol engine.
    jitter_fraction:
        Keep-alive periods are jittered by up to this fraction to
        de-synchronise the population (avoids synchronized bursts, which
        both overstate instantaneous load and under-exercise the protocol).
    """

    def __init__(self, node: "TreePNode", jitter_fraction: float = 0.1) -> None:
        self.node = node
        self.jitter_fraction = jitter_fraction
        self.stats = MaintenanceStats()
        #: Last time we shipped a delta to each peer.
        self._last_sync: Dict[int, float] = {}
        self._timer = None
        node.maintenance = self

    # ------------------------------------------------------------- control
    def start(self) -> None:
        """Arm the periodic keep-alive timer."""
        if self._timer is not None and self._timer.running:
            return
        node = self.node
        interval = node.config.keepalive_interval
        rng = None
        jitter = None
        if self.jitter_fraction > 0:
            import random

            # Deterministic per-node phase, independent of global RNG state.
            rng = random.Random(node.ident)
            jitter = lambda: (rng.random() - 0.5) * 2 * self.jitter_fraction * interval
        self._timer = node.sim.every(interval, self.tick, jitter=jitter,
                                     label=f"keepalive:{node.ident}")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    # ----------------------------------------------------------------- tick
    def tick(self) -> None:
        """One maintenance round: expiry, keep-alives, child report."""
        node = self.node
        now = node.sim.now
        expired = node.table.expire(now, node.config.entry_ttl)
        self.stats.entries_expired += len(expired)
        for peer in expired:  # a re-learnt peer gets a first-contact delta
            self._last_sync.pop(peer, None)

        for peer in node.table.active_connections():
            since = self._last_sync.get(peer, -1.0)
            delta = tuple(node.table.delta_since(since))
            node.send(peer, KeepAlive(entries=delta, since=since))
            self._last_sync[peer] = now
            self.stats.keepalives_sent += 1
            self.stats.entries_shipped += len(delta)

        # Children report to their parent; silent children get expired.
        parent = node.table.parents.get(node.max_level + 1)
        if parent is not None:
            node.send(parent, ChildReport(node.ident, node.score, node.max_level))
            self.stats.child_reports_sent += 1

        node.check_demotion()

    # ------------------------------------------------------------ receive
    def on_keepalive(self, src: int, msg: KeepAlive) -> None:
        """Reply with our delta since the peer's recorded sync point."""
        node = self.node
        since = self._last_sync.get(src, -1.0)
        delta = tuple(node.table.delta_since(since))
        node.send(src, KeepAliveAck(entries=delta))
        self._last_sync[src] = node.sim.now
        self.stats.acks_sent += 1
        self.stats.entries_shipped += len(delta)
