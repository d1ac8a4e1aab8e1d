"""The experiment harness the Chord and flooding deployments share.

A :class:`BaselineNetwork` owns what TreeP's own network owns below the
overlay: seeded substreams, one simulator and the ``UniformLatency``
fabric, plus the failure harness and a lookup batch.  A subclass builds
its nodes (each a :class:`~repro.core.node.LookupClient`) and wires them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.lookup import LookupResult
from repro.core.node import LookupClient
from repro.sim.engine import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.network import Network
from repro.sim.rng import RngRegistry

#: Size of the ID space every baseline draws from: TreeP's default 32 bits.
ID_SPACE = 1 << 32


class BaselineNetwork:
    """A simulated baseline deployment; *seed* roots every substream."""

    #: The node class :meth:`build` creates, one per id.
    node_type: type

    def __init__(self, seed: int = 0) -> None:
        self.rng = RngRegistry(seed)
        self.sim = Simulator()
        self.network = Network(self.sim, latency=UniformLatency(self.rng.get("latency")))
        self.nodes: Dict[int, LookupClient] = {}
        self.network.handlers.update(self.node_type.handlers(self.nodes))
        self.ids: List[int] = []

    def build(self, n: int) -> None:
        """Draw *n* distinct ids from the ``"ids"`` stream and register one
        node per id, ascending; a subclass then wires them."""
        if self.nodes:
            raise RuntimeError("network already built")
        rng = self.rng.get("ids")
        seen: set[int] = set()
        while len(seen) < n:
            for v in rng.integers(0, ID_SPACE, size=n - len(seen) + 8):
                seen.add(int(v))
                if len(seen) == n:
                    break
        self.ids = sorted(seen)
        for i in self.ids:
            node = self.nodes[i] = self.node_type(i)
            self.network.register(node)

    def fail_nodes(self, idents: Iterable[int]) -> None:
        for i in idents:
            self.network.set_down(i)

    def alive_ids(self) -> List[int]:
        return [i for i in self.ids if self.network.is_up(i)]

    def run_lookup_batch(self, pairs: Iterable[Tuple[int, int]]) -> List[LookupResult]:
        """Issue every lookup, run the queue empty and return the results
        in order.  Running to empty, not to the last result, lets a
        flood's queries after its first hit travel and be counted."""
        pending = [self.nodes[o].issue_lookup(t) for o, t in pairs]
        self.sim.run()
        assert all(p.result is not None for p in pending)
        return [p.result for p in pending]
