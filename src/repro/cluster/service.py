"""The `Service` lifecycle protocol: one contract for every overlay service.

Before this layer existed each subsystem invented its own wiring —
:class:`~repro.storage.quorum.ReplicatedStore` and
:class:`~repro.compute.scheduler.JobScheduler` both took a network and
independently spliced handlers, node hooks and periodic timers onto nodes,
leaving the caller to compose them in a fragile, order-sensitive way.  A
:class:`Service` instead *declares* what it needs and a
:class:`ServiceContext` (handed to it at attach time) does the wiring with
full bookkeeping, so everything a service installs can be torn down again —
per node when a peer departs, or wholesale when the service is detached.

Lifecycle
---------
::

    attach            on_attach(ctx)          service-wide setup
      └ per node      setup_node(node)        per-node state (stores, agents)
      └ once          handlers()              declarative handler table
      └ finally       on_ready(ctx)           runs once all nodes are wired
    churn             setup_node(node)        exactly once per protocol join
                      on_node_leave(ident)    exactly once per crash-stop
                      on_node_revive(node)    exactly once per revival
    detach            on_detach()             after the context's cleanup

Every node of a network handles a message type the same way, so a
service's handlers are one entry per type in the network's one handler
table (:attr:`~repro.sim.network.Network.handlers`), not a map per node:
``(agents, fn)`` runs ``fn(agents[ident], src, payload)`` on the receiving
node's agent.  Each context records the types it claimed
(:attr:`ServiceContext.claimed`) and, per node, the periodic tasks it armed
(:attr:`ServiceContext.node_timers`); departures cancel the node's tasks (a
down node is delivered nothing, so its handlers need no removal), and
:meth:`ClusterState.detach` sweeps everything — the handler/hook leak the
old facades had is structurally impossible.

:class:`ClusterState` is the one-per-network service plane: the attached
services in attach order, and the network's only subscriber to node
creation and liveness, relaying each event to the services in that order.

Construction goes through :class:`~repro.cluster.cluster.Cluster`
(``Cluster(...).build(n).with_storage(...)``); service constructors take
configuration only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional, Tuple

from repro.sim.engine import PeriodicTimer, TimerGroup
from repro.sim.network import Handler

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode
    from repro.core.treep import TreePNetwork

__all__ = ["ClusterState", "Service", "ServiceContext", "ServiceError"]


class ServiceError(RuntimeError):
    """Misuse of the service lifecycle (double attach, missing dependency…)."""


class Service:
    """Base class of the service lifecycle protocol.

    Subclasses set :attr:`name` (the key the service plane files it under —
    one attached service per name) and override any of the lifecycle hooks
    below.  All wiring goes through the :class:`ServiceContext` received in
    :meth:`on_attach` and the :meth:`handlers` declaration, never directly
    through ``network.handlers`` / ``sim.every`` — that is what makes
    teardown automatic.
    """

    #: Service-plane key; subclasses must override.
    name: str = ""

    def __init__(self) -> None:
        self._ctx: Optional["ServiceContext"] = None

    # ------------------------------------------------------------ lifecycle
    @property
    def attached(self) -> bool:
        return self._ctx is not None

    @property
    def ctx(self) -> "ServiceContext":
        if self._ctx is None:
            raise ServiceError(
                f"service {self.name!r} is not attached to a network"
            )
        return self._ctx

    # --------------------------------------------------- overridable hooks
    def on_attach(self, ctx: "ServiceContext") -> None:
        """Service-wide setup; runs before any per-node wiring.  Resolve
        cross-service dependencies here via :meth:`ServiceContext.require`."""

    def on_ready(self, ctx: "ServiceContext") -> None:
        """Runs once every existing node has been through :meth:`setup_node`
        (role election, initial aggregate computation, …)."""

    def on_detach(self) -> None:
        """Runs after the context removed this service's handlers/tasks."""

    def setup_node(self, node: "TreePNode") -> None:
        """Create per-node state (stores, agents).  Called for every node
        that exists at attach time and for every node created afterwards."""

    def handlers(self) -> Mapping[type, Handler]:
        """Declarative typed-message handlers, read once per attach:
        ``{payload type: (agents, fn)}``, where *agents* maps every node id
        to the object :meth:`setup_node` made for it and a datagram of that
        type runs ``fn(agents[ident], src, payload)`` on the receiving node.
        They take precedence over the overlay's built-in handlers until the
        service is detached."""
        return {}

    def on_node_leave(self, ident: int) -> None:
        """Churn callback: a live peer crash-stopped.  The context has
        already cancelled the node's periodic tasks; the fabric delivers
        the node nothing until it is revived."""

    def on_node_revive(self, node: "TreePNode") -> None:
        """Churn callback: a crash-stopped peer came back (same process).
        Its routing table is as the crash left it (its keep-alive loop
        stopped at the crash and restarts now if maintenance is running);
        the service's per-node state is what :meth:`on_node_leave` left.
        Its datagrams reach the service's handlers again; re-arm any
        node-scoped periodic tasks here."""


class ServiceContext:
    """What a service sees of the network: mediated, bookkept wiring.

    One context per attached service; created by :meth:`ClusterState.attach`.
    """

    def __init__(self, net: "TreePNetwork", service: Service, state: "ClusterState") -> None:
        self.net = net
        self.service = service
        self.state = state
        #: Service-wide periodic tasks; cancelled wholesale at detach.
        self.timers = TimerGroup()
        #: node id -> periodic tasks armed with ``every(node=...)``;
        #: cancelled when that node departs, and at detach.
        self.node_timers: Dict[int, TimerGroup] = {}
        #: The payload types this service holds in the network's handler
        #: table; removed from it at detach.
        self.claimed: Tuple[type, ...] = ()

    # ---------------------------------------------------------- composition
    def require(self, name: str) -> Service:
        """The attached service *name* (cross-service dependency); raises
        when it is not attached."""
        svc = self.state.services.get(name)
        if svc is None:
            raise ServiceError(
                f"service {self.service.name!r} requires {name!r}, which "
                f"is not attached; add it to the Cluster first"
            )
        return svc

    # -------------------------------------------------------- periodic tasks
    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        *,
        node: Optional[int] = None,
        label: str = "",
    ) -> PeriodicTimer:
        """Register a periodic task with automatic cancellation.

        Service-scoped by default (cancelled at detach); with ``node=ident``
        the task is filed under that node in :attr:`node_timers` and
        additionally cancelled when the node departs.
        """
        timer = self.net.sim.every(
            interval, callback, label=label or f"{self.service.name}-task")
        if node is not None:
            return self.node_timers.setdefault(node, TimerGroup()).add(timer)
        return self.timers.add(timer)

    # ------------------------------------------------------------- wiring
    def claim_handlers(self) -> None:
        """File the service's :meth:`~Service.handlers` in the network's
        handler table.  A type another service already claimed is refused
        — silently stealing it would black-hole that service's traffic."""
        table = self.net.network.handlers
        declared = dict(self.service.handlers())
        for msg_type in declared:
            if msg_type in table:
                raise ServiceError(
                    f"service {self.service.name!r} claims {msg_type.__name__}, "
                    f"already handled by another service"
                )
        table.update(declared)
        self.claimed = tuple(declared)

    def teardown_node(self, ident: int) -> None:
        """Cancel the node's periodic tasks."""
        group = self.node_timers.pop(ident, None)
        if group is not None:
            group.stop_all()

    def teardown(self) -> None:
        """Sweep every handler and periodic task this service installed."""
        table = self.net.network.handlers
        for msg_type in self.claimed:
            del table[msg_type]
        self.claimed = ()
        for ident in list(self.node_timers):
            self.teardown_node(ident)
        self.timers.stop_all()


class ClusterState:
    """Per-network service plane: the attached services, in attach order.

    Created on first use and cached on the network, so every
    :class:`~repro.cluster.cluster.Cluster` wrapping the same network shares
    it.  It is the network's one subscriber to node creation and liveness:
    one dispatcher each on ``net.node_hooks`` and the fabric's
    ``down_hooks`` / ``up_hooks`` relays every event to the services in
    attach order.
    """

    def __init__(self, net: "TreePNetwork") -> None:
        self.net = net
        #: name -> service, in attach order (detach-all runs in reverse:
        #: compute before storage).
        self.services: Dict[str, Service] = {}
        net.node_hooks.append(self._on_join)
        net.network.down_hooks.append(self._on_leave)
        net.network.up_hooks.append(self._on_revive)

    @classmethod
    def of(cls, net: "TreePNetwork") -> "ClusterState":
        """The network's service plane, created on first use."""
        state = getattr(net, "_cluster_state", None)
        if state is None:
            state = cls(net)
            net._cluster_state = state
        return state

    # --------------------------------------------------------------- attach
    def attach(self, service: Service) -> Service:
        """Attach *service*: service-wide setup, then per-node wiring.

        One service per name: attaching under a name already attached
        raises, as does attaching a service that is attached elsewhere.
        """
        if not service.name:
            raise ServiceError(f"{type(service).__name__} has no service name")
        if service.attached or service.name in self.services:
            raise ServiceError(f"service {service.name!r} is already attached")
        ctx = ServiceContext(self.net, service, self)
        service._ctx = ctx
        try:
            service.on_attach(ctx)
            for node in list(self.net.nodes.values()):
                service.setup_node(node)
            ctx.claim_handlers()
            service.on_ready(ctx)
        except Exception:
            ctx.teardown()
            service._ctx = None
            raise
        self.services[service.name] = service
        return service

    # --------------------------------------------------------------- detach
    def detach(self, service: Service) -> None:
        """Sweep *service*'s handlers and tasks, then run its
        ``on_detach`` (idempotent)."""
        ctx = service._ctx
        if ctx is None or ctx.state is not self:
            return
        ctx.teardown()
        del self.services[service.name]
        service._ctx = None
        service.on_detach()

    def detach_all(self) -> None:
        """Detach every service, newest first (reverse attach order)."""
        for svc in reversed(list(self.services.values())):
            self.detach(svc)

    # --------------------------------------------------------- churn relays
    def _on_join(self, node: "TreePNode") -> None:
        for svc in list(self.services.values()):
            svc.setup_node(node)

    def _on_leave(self, ident: int) -> None:
        for svc in list(self.services.values()):
            svc.ctx.teardown_node(ident)
            svc.on_node_leave(ident)

    def _on_revive(self, ident: int) -> None:
        node = self.net.nodes[ident]
        for svc in list(self.services.values()):
            svc.on_node_revive(node)
