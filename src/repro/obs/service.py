"""`Observability` — the hub as an attachable cluster service.

``Cluster(...).build(n).with_observability(...)`` attaches this service;
it owns (or is handed) one :class:`~repro.obs.hub.ObsHub`, publishes it
at ``net.obs`` / ``node.obs`` (the plain attributes every instrumentation
site checks) and installs the simulator event hook.  The hub records
spans and events only; subsystems keep their own counters.

Detach (or ``cluster.shutdown()``) reverses all of it: the hub keeps its
recorded data for post-run queries, but the network records nothing more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.cluster.service import Service, ServiceContext
from repro.obs.hub import ObsHub
from repro.obs.store import write_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode

__all__ = ["Observability"]


class Observability(Service):
    """Span/event tracing for one cluster.

    Parameters
    ----------
    categories:
        Span/event categories to record (``None`` = all except the opt-in
        ``sim.event`` firehose; see :class:`ObsHub`).
    hub:
        An externally owned hub to record into (e.g. shared with a test's
        assertions); one is created when omitted.
    """

    name = "observability"

    def __init__(self, categories: Optional[Iterable[str]] = None,
                 hub: Optional[ObsHub] = None) -> None:
        super().__init__()
        self.hub = hub if hub is not None else ObsHub(categories=categories)

    # ------------------------------------------------------------ lifecycle
    def on_attach(self, ctx: ServiceContext) -> None:
        self._net = ctx.net
        ctx.net.obs = self.hub
        ctx.net.sim.set_event_hook(self.hub.on_sim_event)

    def setup_node(self, node: "TreePNode") -> None:
        node.obs = self.hub

    def on_detach(self) -> None:
        net = getattr(self, "_net", None)
        if net is None:
            return
        if net.obs is self.hub:
            net.obs = None
        net.sim.set_event_hook(None)
        for node in net.nodes.values():
            if getattr(node, "obs", None) is self.hub:
                node.obs = None
        self._net = None

    # -------------------------------------------------------------- export
    def write(self, path: str, run: str = "run-000") -> str:
        """Write the hub's recorded trace as a single-run store file."""
        return write_store(path, {run: self.hub})
