"""Anti-entropy: churn-driven re-replication.

Node departures shrink replica sets silently — the quorum path only ever
touches keys that are read or written.  The :class:`AntiEntropy` task closes
the gap: a sweep that

1. catalogues every key held by a **live** node,
2. resolves the freshest ``(version, writer)`` copy per key,
3. compares the live holder set against the placement ideal
   (:func:`~repro.storage.replication.repair_targets`), and
4. pushes the freshest copy to targets that lack it — as real
   :class:`~repro.storage.messages.StoreReplicate` datagrams through the
   fabric, so re-replication traffic shows up in the network counters the
   benches read.

The sweep itself is the *converged-view* half (mirroring
:mod:`repro.core.repair`'s converged mode): detection uses global liveness,
repair happens with protocol messages.  Rejoined nodes holding stale
versions are overwritten the same way (the sweep pushes to any target whose
stamp is dominated), complementing per-read repair.

Each sweep appends one :class:`SweepReport` to :attr:`AntiEntropy.reports`
— keys catalogued, under-replicated, repairs sent, tracked keys lost.

Drivers run sweeps with :meth:`AntiEntropy.converge` after churn.  Nothing
arms the periodic sweep: :meth:`AntiEntropy.start` would register one on the
simulator (like a node's keep-alive loop, :meth:`TreePNode.start_keepalive
<repro.core.node.TreePNode.start_keepalive>`), paced by ``interval``, but no scenario, example or perf workload calls it
(arming it is ROADMAP item 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cluster.service import Service, ServiceContext, ServiceError
from repro.storage.messages import StoreReplicate
from repro.storage.quorum import REPAIR_RID, ReplicatedStore
from repro.storage.replication import repair_targets
from repro.storage.store import VersionedValue

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import PeriodicTimer

#: Virtual seconds one converge pass runs to deliver its repairs — a
#: generous multiple of the default per-hop latency ceiling.
SETTLE = 1.0
#: Passes :meth:`AntiEntropy.converge` runs at most.
MAX_SWEEPS = 8


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one anti-entropy pass."""

    time: float
    keys: int
    under_replicated: int
    repairs_sent: int
    lost: int


class AntiEntropy(Service):
    """Re-replication maintenance for a :class:`ReplicatedStore`.

    Run it with :meth:`converge` (or one :meth:`sweep`); *interval* only
    paces the periodic timer :meth:`start` arms, and nothing calls
    :meth:`start` today.  As a :class:`~repro.cluster.service.Service`
    that timer registers through the service context, so detaching the
    service (or shutting a :class:`~repro.cluster.Cluster` down) cancels it
    even when the caller forgot :meth:`stop`.  Construct through
    ``Cluster.with_storage(anti_entropy=interval)``.
    """

    name = "anti-entropy"

    def __init__(self, *, interval: float = 30.0) -> None:
        super().__init__()
        if not interval > 0:  # NaN fails too
            raise ValueError(f"interval must be > 0, got {interval}")
        self.store: Optional[ReplicatedStore] = None
        self.interval = interval
        self.reports: List[SweepReport] = []
        self._timer: Optional["PeriodicTimer"] = None

    # ------------------------------------------------------------ lifecycle
    def on_attach(self, ctx: ServiceContext) -> None:
        self.store = ctx.require("storage")  # type: ignore[assignment]

    def on_detach(self) -> None:
        self.stop()

    def _resolved_store(self) -> ReplicatedStore:
        """The attached store this task sweeps — loud failure otherwise
        (an unattached store has no agents: a sweep over it would report
        'healthy' while repairing nothing)."""
        if self.store is None or not self.store.attached:
            raise ServiceError(
                "anti-entropy has no attached store: construct it through "
                "Cluster.with_storage(..., anti_entropy=interval) or attach "
                "it (and its store) with add_service first"
            )
        return self.store

    # ------------------------------------------------------------ scheduling
    @property
    def running(self) -> bool:
        return self._timer is not None and self._timer.running

    def start(self) -> None:
        """Arm the periodic sweep on the network's simulator."""
        if self.running:
            return
        self._timer = self.ctx.every(self.interval, self.sweep,
                                     label="anti-entropy")

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()
            self._timer = None

    # ----------------------------------------------------------------- sweep
    def _catalogue(self) -> Dict[int, Dict[int, VersionedValue]]:
        """``{key id: {live holder: copy}}`` over the current population."""
        net = self.store.net
        up = net.network.is_up
        catalog: Dict[int, Dict[int, VersionedValue]] = {}
        for ident, agent in self.store.agents.items():
            if not up(ident):
                continue
            for key_id, vv in agent.store.items():
                catalog.setdefault(key_id, {})[ident] = vv
        return catalog

    def sweep(self) -> SweepReport:
        """One detection + repair pass; returns what it found and sent."""
        store = self._resolved_store()
        net = store.net
        n = store.quorum.n
        catalog = self._catalogue()
        live = sorted(net.alive_ids())  # hoisted per sweep

        repairs = 0
        under = 0
        for key_id, holders in catalog.items():
            freshest = max(holders.values(), key=VersionedValue.stamp)
            fresh_holders = [
                i for i, vv in holders.items() if vv.stamp() == freshest.stamp()
            ]
            if len(holders) < n:
                under += 1
            source = min(fresh_holders)
            # Always compare against the placement ideal: besides refilling
            # after departures, this follows the targets as the topology
            # grows (joins closer to the key), so routed reads keep landing
            # on holders.  Old copies are left in place (conservative:
            # extra durability over strict ownership hand-off).
            targets = repair_targets(live, key_id, n)
            rep = StoreReplicate(REPAIR_RID, source, key_id,
                                 freshest.value, freshest.version,
                                 freshest.writer, freshest.timestamp)
            # Push to ideal targets missing a fresh copy, and reconcile
            # stale holders *outside* the target set too — a rejoined node
            # carrying an old value must not keep it, or a later failure
            # burst could route reads onto the stale copy.
            stale_holders = [h for h, vv in holders.items()
                             if h not in targets and freshest.dominates(vv)]
            for t in list(targets) + stale_holders:
                if t == source:
                    continue
                if freshest.dominates(holders.get(t)):
                    net.nodes[source].send(t, rep)
                    repairs += 1

        lost = sum(1 for k in store.tracked_keys if k not in catalog)
        report = SweepReport(time=net.sim.now, keys=len(catalog),
                             under_replicated=under, repairs_sent=repairs,
                             lost=lost)
        self.reports.append(report)
        hub = net.obs
        if hub is not None:
            hub.sweep(-1, report.time, net.sim.now, len(catalog), repairs)
        return report

    def converge(self) -> int:
        """Sweep-and-settle until a pass sends no repairs; returns passes run.

        Each pass's replication datagrams are delivered (the sim runs for a
        bounded :data:`SETTLE` window — a run to an empty queue would never
        return while this task's own periodic timer or the overlay's
        keep-alives keep re-arming) before the next detection, so
        convergence normally takes one repairing pass plus one clean
        confirmation pass; it gives up after :data:`MAX_SWEEPS` passes.
        """
        for i in range(1, MAX_SWEEPS + 1):
            report = self.sweep()
            self.store.net.sim.run_for(SETTLE)
            if report.repairs_sent == 0:
                return i
        return MAX_SWEEPS
