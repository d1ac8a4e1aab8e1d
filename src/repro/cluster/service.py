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
                      node_handlers(node)     declarative handler mapping
      └ finally       on_ready(ctx)           runs once all nodes are wired
    churn             on_node_join(node)      exactly once per protocol join
                      on_node_leave(ident)    exactly once per crash-stop
                      on_node_revive(node)    exactly once per revival
    detach            on_detach()             after the context's cleanup

Each context records, per node, the handlers it installed
(:attr:`ServiceContext.handlers`) and the periodic tasks it armed
(:attr:`ServiceContext.node_timers`); departures cancel the node's tasks
and unregister its handlers, revivals re-install them, and
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

from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional

from repro.sim.engine import PeriodicTimer, TimerGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode
    from repro.core.treep import TreePNetwork

__all__ = ["ClusterState", "Service", "ServiceContext", "ServiceError"]

#: Handler signature services declare: ``handler(src, payload)``.
Handler = Callable[[int, Any], None]


class ServiceError(RuntimeError):
    """Misuse of the service lifecycle (double attach, missing dependency…)."""


class Service:
    """Base class of the service lifecycle protocol.

    Subclasses set :attr:`name` (the key the service plane files it under —
    one attached service per name) and override any of the lifecycle hooks
    below.  All wiring goes through the :class:`ServiceContext` received in
    :meth:`on_attach`, never directly through ``node.register_handler`` /
    ``sim.every`` — that is what makes teardown automatic.
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

    def node_handlers(self, node: "TreePNode") -> Mapping[type, Handler]:
        """Declarative typed-message handler registration: the mapping is
        installed on *node* by the context (after :meth:`setup_node`),
        re-installed on revival, and unregistered on departure/detach."""
        return {}

    def on_node_join(self, node: "TreePNode") -> None:
        """Churn callback: a brand-new peer joined (post :meth:`setup_node`)."""

    def on_node_leave(self, ident: int) -> None:
        """Churn callback: a live peer crash-stopped.  The context has
        already cancelled the node's periodic tasks and unregistered this
        service's handlers from it."""

    def on_node_revive(self, node: "TreePNode") -> None:
        """Churn callback: a crash-stopped peer came back (same process).
        Its routing table is as the crash left it, or expired if
        maintenance ran while it was down (a down node's keep-alive timer
        keeps ticking); the service's per-node state is what
        :meth:`on_node_leave` left.  Handlers are already re-installed;
        re-arm any node-scoped periodic tasks here."""


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
        #: node id -> the handler mapping installed on that node.
        self.handlers: Dict[int, Dict[type, Handler]] = {}

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
        jitter: Optional[Callable[[], float]] = None,
        label: str = "",
    ) -> PeriodicTimer:
        """Register a periodic task with automatic cancellation.

        Service-scoped by default (cancelled at detach); with ``node=ident``
        the task is filed under that node in :attr:`node_timers` and
        additionally cancelled when the node departs.
        """
        timer = self.net.sim.every(
            interval, callback, jitter=jitter,
            label=label or f"{self.service.name}-task",
        )
        if node is not None:
            return self.node_timers.setdefault(node, TimerGroup()).add(timer)
        return self.timers.add(timer)

    # --------------------------------------------------------- node wiring
    def install_handlers(self, node: "TreePNode") -> None:
        """Register the service's handler mapping on *node*, replacing what
        this service installed there before.

        A message type already claimed on the node by another service is
        refused — silently stealing it would black-hole that service's
        traffic.
        """
        self.uninstall_handlers(node.ident)
        mapping = dict(self.service.node_handlers(node))
        for msg_type in mapping:
            if msg_type in node.handlers:
                raise ServiceError(
                    f"service {self.service.name!r} claims {msg_type.__name__} "
                    f"on node {node.ident}, already handled by another service"
                )
        for msg_type, handler in mapping.items():
            node.register_handler(msg_type, handler)
        if mapping:
            self.handlers[node.ident] = mapping

    def uninstall_handlers(self, ident: int) -> None:
        node = self.net.nodes[ident]
        for msg_type in self.handlers.pop(ident, ()):
            node.unregister_handler(msg_type)

    def teardown_node(self, ident: int) -> None:
        """Cancel the node's periodic tasks and unregister its handlers."""
        group = self.node_timers.pop(ident, None)
        if group is not None:
            group.stop_all()
        self.uninstall_handlers(ident)

    def teardown(self) -> None:
        """Sweep every handler and periodic task this service installed."""
        for ident in [*self.node_timers, *self.handlers]:
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
                ctx.install_handlers(node)
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
            svc.ctx.install_handlers(node)
            svc.on_node_join(node)

    def _on_leave(self, ident: int) -> None:
        for svc in list(self.services.values()):
            svc.ctx.teardown_node(ident)
            svc.on_node_leave(ident)

    def _on_revive(self, ident: int) -> None:
        node = self.net.nodes[ident]
        for svc in list(self.services.values()):
            svc.ctx.install_handlers(node)
            svc.on_node_revive(node)
