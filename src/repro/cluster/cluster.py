"""`Cluster` — the unified entry point to a TreeP deployment.

One object owns what used to be five hand-composed facades: the overlay
build, service construction order, cross-service dependencies
(compute → storage → overlay) and clean shutdown::

    from repro import Cluster, ComputeConfig, JobSpec, QuorumConfig

    cluster = (
        Cluster(seed=42)
        .build(n=128)
        .with_storage(QuorumConfig(n=3, w=2, r=2), anti_entropy=10.0)
        .with_compute(ComputeConfig(checkpoint_interval=8.0))
    )
    cluster.storage.put("job/42", {"state": "queued"})
    cluster.compute.submit(JobSpec(job_id=1, cpu_demand=2.0, work=60.0))
    cluster.compute.run_until_done(timeout=300.0)
    cluster.shutdown()

``with_compute`` attaches storage and discovery first when absent;
``shutdown`` (or the context-manager exit) detaches everything in reverse
attach order, so no handler or periodic task outlives the facade.  New
subsystems plug in through :meth:`Cluster.add_service` with any
:class:`~repro.cluster.service.Service` implementation — no core changes
needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Tuple

from repro.cluster.service import ClusterState, Service, ServiceError
from repro.core.config import TreePConfig
from repro.core.treep import TreePNetwork

if TYPE_CHECKING:  # pragma: no cover
    from repro.compute.job import ComputeConfig
    from repro.compute.scheduler import JobScheduler
    from repro.obs.hub import ObsHub
    from repro.obs.service import Observability
    from repro.core.capacity import NodeCapacity
    from repro.core.hierarchy import HierarchyLayout
    from repro.core.ids import AssignStrategy
    from repro.services.discovery import ResourceDirectory
    from repro.storage.antientropy import AntiEntropy
    from repro.storage.quorum import QuorumConfig, ReplicatedStore

__all__ = ["Cluster"]


class Cluster:
    """Fluent facade over a :class:`~repro.core.treep.TreePNetwork` plus its
    attached services.

    Parameters mirror ``TreePNetwork``; an existing network can be wrapped
    with ``Cluster(net=existing)`` (the service plane is shared either way,
    so facade styles compose instead of colliding).
    """

    def __init__(
        self,
        config: Optional[TreePConfig] = None,
        seed: int = 0,
        *,
        net: Optional[TreePNetwork] = None,
    ) -> None:
        if net is not None:
            if config is not None or seed != 0:
                raise ValueError(
                    "Cluster(net=...) wraps an existing network: config "
                    "and seed are that network's own and cannot be "
                    "overridden here"
                )
            self.net = net
        else:
            self.net = TreePNetwork(config=config, seed=seed)

    # ------------------------------------------------------------- building
    @property
    def built(self) -> bool:
        return bool(self.net.nodes)

    def build(
        self,
        n: int,
        strategy: "AssignStrategy" = "random",
        capacities: Optional[Sequence["NodeCapacity"]] = None,
    ) -> "Cluster":
        """Create *n* peers in steady state; returns ``self`` (fluent)."""
        self.net.build(n, strategy=strategy, capacities=capacities)
        return self

    @property
    def layout(self) -> "HierarchyLayout":
        if self.net.layout is None:
            raise ServiceError("cluster not built: call build(n) first")
        return self.net.layout

    def _require_built(self, what: str) -> None:
        if not self.built:
            raise ServiceError(f"{what} needs a built overlay: call build(n) first")

    # ------------------------------------------------------------- services
    @property
    def state(self) -> ClusterState:
        """The network's service plane (shared by every facade wrapping this network)."""
        return ClusterState.of(self.net)

    @property
    def services(self) -> Tuple[Service, ...]:
        """Attached services in attach (dependency) order."""
        return tuple(self.state.services.values())

    def service(self, name: str) -> Optional[Service]:
        return self.state.services.get(name)

    def add_service(self, service: Service) -> "Cluster":
        """Attach any :class:`Service` implementation (the generic plug-in
        point new subsystems use); returns ``self`` (fluent)."""
        self.state.attach(service)
        return self

    def _get(self, name: str, hint: str) -> Service:
        svc = self.state.services.get(name)
        if svc is None:
            raise ServiceError(f"no {name!r} service attached: call {hint} first")
        return svc

    # ------------------------------------------------- the four subsystems
    def with_discovery(self) -> "Cluster":
        """Attach hierarchy-walking grid resource discovery."""
        from repro.services.discovery import ResourceDirectory

        self._require_built("with_discovery")
        self.state.attach(ResourceDirectory())
        return self

    def with_storage(
        self,
        quorum: Optional["QuorumConfig"] = None,
        anti_entropy: Optional[float] = None,
    ) -> "Cluster":
        """Attach the replicated quorum store.

        ``anti_entropy=interval`` additionally attaches the re-replication
        service.  Nothing arms its periodic sweep: drive it with
        ``cluster.anti_entropy.converge()`` after churn.  *interval* only
        paces the timer ``.start()`` would arm, which no scenario, example
        or perf workload calls (arming it is ROADMAP item 5).
        """
        from repro.storage.antientropy import AntiEntropy
        from repro.storage.quorum import ReplicatedStore

        self._require_built("with_storage")
        self.state.attach(ReplicatedStore(quorum=quorum))
        if anti_entropy is not None:
            self.state.attach(AntiEntropy(interval=anti_entropy))
        return self

    def with_compute(self, config: Optional["ComputeConfig"] = None) -> "Cluster":
        """Attach grid job execution.

        Owns the dependency chain: a missing storage service (checkpoints)
        or discovery service (matchmaking aggregates) is attached first with
        its defaults — call :meth:`with_storage` beforehand to choose the
        quorum.  If the scheduler's attach raises, the services attached
        here are detached again.
        """
        from repro.compute.scheduler import JobScheduler

        self._require_built("with_compute")
        state = self.state
        added = []
        try:
            for name, attach in (("storage", self.with_storage),
                                 ("discovery", self.with_discovery)):
                if name not in state.services:
                    attach()
                    added.append(state.services[name])
            state.attach(JobScheduler(config=config))
        except Exception:
            for svc in reversed(added):
                state.detach(svc)
            raise
        return self

    def with_observability(self) -> "Cluster":
        """Attach the observability layer (span and event tracing).

        Records into the network's hub when an ambient capture
        (``--trace-out``) gave it one, else into a new
        :class:`~repro.obs.hub.ObsHub`; read it back via :attr:`obs`, or
        write a trace store with ``cluster.observability.write(path)``.
        Instrumentation draws no randomness and schedules no events, so
        enabling it never changes a seeded run's outcome.
        """
        from repro.obs.service import Observability

        self._require_built("with_observability")
        self.state.attach(Observability())
        return self

    # ------------------------------------------------------ typed accessors
    @property
    def directory(self) -> "ResourceDirectory":
        return self._get("discovery", "with_discovery() or with_compute()")  # type: ignore[return-value]

    @property
    def storage(self) -> "ReplicatedStore":
        return self._get("storage", "with_storage()")  # type: ignore[return-value]

    @property
    def anti_entropy(self) -> "AntiEntropy":
        return self._get("anti-entropy", "with_storage(anti_entropy=...)")  # type: ignore[return-value]

    @property
    def compute(self) -> "JobScheduler":
        return self._get("compute", "with_compute()")  # type: ignore[return-value]

    @property
    def observability(self) -> "Observability":
        return self._get("observability", "with_observability()")  # type: ignore[return-value]

    @property
    def obs(self) -> "ObsHub":
        """The attached observability hub (spans and events)."""
        return self.observability.hub

    # ------------------------------------------------------- overlay driving
    def fail_nodes(self, idents: Iterable[int], heal: bool = False) -> None:
        """Crash-stop peers; every service's churn callbacks fire.

        ``heal=True`` additionally runs one converged table-repair pass
        (:func:`~repro.core.repair.apply_failure_step`), the usual
        between-bursts step of the churn drivers.
        """
        idents = list(idents)
        self.net.fail_nodes(idents)
        if heal:
            from repro.core.repair import FULL_POLICY, apply_failure_step

            apply_failure_step(self.net, idents, FULL_POLICY)

    # -------------------------------------------------------------- shutdown
    def shutdown(self) -> None:
        """Detach every service (reverse attach order) and stop the
        overlay's keep-alive loops.  Idempotent."""
        self.state.detach_all()
        self.net.stop_maintenance()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
