"""`Observability` — the hub as an attachable cluster service.

``Cluster(...).build(n).with_observability()`` attaches this service.
It records into the network's hub when an ambient capture
(:mod:`repro.obs.runtime`) gave the network one, else into a new
:class:`~repro.obs.hub.ObsHub`, and publishes it through
:meth:`~repro.core.treep.TreePNetwork.set_obs` — the one writer of
``net.obs``, every ``node.obs`` and the simulator event hook.  The hub
records spans and events only; subsystems keep their own counters.

Detach (or ``cluster.shutdown()``) reverses all of it: the hub keeps its
recorded data for post-run queries, but the network records nothing more.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.cluster.service import Service, ServiceContext
from repro.obs.hub import ObsHub
from repro.obs.store import write_store

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.treep import TreePNetwork

__all__ = ["Observability"]


class Observability(Service):
    """Span/event tracing for one cluster: :attr:`hub` is the network's
    one hub from attach on, and keeps its data after detach."""

    name = "observability"

    def __init__(self) -> None:
        super().__init__()
        self.hub: Optional[ObsHub] = None
        self._net: Optional["TreePNetwork"] = None

    # ------------------------------------------------------------ lifecycle
    def on_attach(self, ctx: ServiceContext) -> None:
        net = self._net = ctx.net
        hub = net.obs
        if hub is None:
            hub = ObsHub()
        self.hub = hub
        net.set_obs(hub)

    def on_detach(self) -> None:
        net = self._net
        if net is not None:
            net.set_obs(None)
            self._net = None

    # -------------------------------------------------------------- export
    def write(self, path: str, run: str = "run-000") -> str:
        """Write the hub's recorded trace as a single-run store file."""
        return write_store(path, {run: self.hub})
