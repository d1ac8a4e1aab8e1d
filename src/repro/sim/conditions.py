"""Adversarial network conditions: loss bursts, partitions, stragglers.

The bare network models an *ideal* fabric: one latency distribution for
every pair and no loss.  Real overlays — the
Grid-5000 deployments the paper evaluates on — fail in correlated ways:
losses arrive in bursts on specific links, whole address sets get cut
off and later reconnected, and individual machines run slow without
being down.  This module supplies each of those as a pluggable model
for one of the fabric's seams (:class:`~repro.sim.latency.LatencyModel`,
``Network.partition_filter``, ``Network.loss_model``) so the default fabric — and therefore every
pre-existing scenario — is bit-identical until a condition is explicitly
installed.

Split of responsibilities (the SPE topology/propagation split):

* *Propagation* models live here and answer per-datagram questions —
  :class:`GilbertElliott` (two-state burst loss, assigned to
  ``network.loss_model``) and :class:`StragglerLatency` (victim slowdown,
  wrapping ``network.latency``).
* *Topology* decisions — which subtree is a rack, who becomes a victim —
  live in :mod:`repro.workloads.adversarial`, which never imports sim.
* :class:`NetworkConditions` owns the network's ``partition_filter``:
  partitions are first-class values.  Cutting an already-active
  partition (or healing an inactive one) is a no-op, so a scheduled heal
  racing a manual one counts once in its ``cuts`` / ``heals``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.latency import LatencyModel
from repro.sim.network import Network

__all__ = [
    "StragglerLatency",
    "GilbertElliott",
    "Partition",
    "NetworkConditions",
]


class StragglerLatency(LatencyModel):
    """Multiplies delay on any link touching a victim address.

    Wraps an arbitrary base model and scales its sample by ``factor``
    when either endpoint is a victim.  The base model is always sampled
    exactly once per call, so its RNG stream advances identically whether
    or not the link is slow — a run with ``factor=1.0`` (or an empty
    victim set) is bit-identical to the unwrapped network, which is what
    lets a straggler experiment keep its control run honest.
    """

    def __init__(self, base: LatencyModel, victims: Iterable[int],
                 factor: float) -> None:
        if factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self.base = base
        self.victims: FrozenSet[int] = frozenset(int(v) for v in victims)
        self.factor = float(factor)
        #: Datagrams that paid the slowdown (per-condition accounting).
        self.slowed = 0

    def sample(self, src: int, dst: int) -> float:
        delay = self.base.sample(src, dst)
        if src in self.victims or dst in self.victims:
            self.slowed += 1
            return delay * self.factor
        return delay


class GilbertElliott:
    """Two-state (good/bad) Markov burst-loss model, one chain per link.

    In the *good* state datagrams drop with ``loss_good`` (usually 0);
    in the *bad* state with ``loss_bad``.  Each observed datagram first
    advances the link's chain (``p_enter_bad`` / ``p_exit_bad``), then
    draws the loss decision — always exactly two draws from the dedicated
    stream, so the draw count (and thus everything downstream of the
    stream) is independent of the chain's path.

    Plugs into ``Network.loss_model`` (called as a predicate; ``True``
    drops, counted into ``dropped_loss``).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        loss_good: float = 0.0,
        loss_bad: float = 0.5,
        p_enter_bad: float = 0.02,
        p_exit_bad: float = 0.2,
    ) -> None:
        for name, p in (("loss_good", loss_good), ("loss_bad", loss_bad),
                        ("p_enter_bad", p_enter_bad), ("p_exit_bad", p_exit_bad)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.rng = rng
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self.p_enter_bad = float(p_enter_bad)
        self.p_exit_bad = float(p_exit_bad)
        self._bad: Dict[Tuple[int, int], bool] = {}
        self.packets = 0
        self.drops = 0
        self.bad_packets = 0
        self.transitions = 0

    def __call__(self, src: int, dst: int) -> bool:
        self.packets += 1
        key = (src, dst)
        bad = self._bad.get(key, False)
        flip = float(self.rng.random())
        if bad:
            if flip < self.p_exit_bad:
                bad = False
                self.transitions += 1
        elif flip < self.p_enter_bad:
            bad = True
            self.transitions += 1
        self._bad[key] = bad
        p_loss = self.loss_bad if bad else self.loss_good
        if bad:
            self.bad_packets += 1
        drop = float(self.rng.random()) < p_loss
        if drop:
            self.drops += 1
        return drop

    # ----------------------------------------------------------- analytics
    def stationary_bad(self) -> float:
        """Long-run fraction of time a link spends in the bad state."""
        denom = self.p_enter_bad + self.p_exit_bad
        return self.p_enter_bad / denom if denom > 0 else 0.0

    def expected_loss(self) -> float:
        """Stationary mean loss rate implied by the chain parameters."""
        pi_bad = self.stationary_bad()
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    def observed_loss(self) -> float:
        return self.drops / self.packets if self.packets else 0.0


@dataclass(frozen=True)
class Partition:
    """A cut between two address sets.

    ``bidirectional=True`` blocks both directions; ``False`` models an
    asymmetric failure — datagrams from ``a`` to ``b`` are dropped while
    ``b`` can still reach ``a`` (the direction a one-way routing
    blackhole takes).  Partitions are values: equality is by content, and
    :class:`NetworkConditions` treats equal partitions as the same cut.
    """

    a: FrozenSet[int]
    b: FrozenSet[int]
    bidirectional: bool = True
    name: str = ""

    def blocks(self, src: int, dst: int) -> bool:
        if src in self.a and dst in self.b:
            return True
        return self.bidirectional and src in self.b and dst in self.a


class NetworkConditions:
    """The partitions of one network.

    Construction takes the network's ``partition_filter``, which nothing
    else may hold: a second owner raises.  :attr:`cuts` / :attr:`heals`
    count transitions, exactly once each no matter how many times
    :meth:`cut`/:meth:`heal` are called or how schedules overlap.
    """

    def __init__(self, network: Network) -> None:
        if network.partition_filter is not None:
            raise ValueError("the network's partition_filter is already owned")
        self.network = network
        self.sim: Simulator = network.sim
        network.partition_filter = self._filter
        self._active: Dict[Partition, None] = {}  # insertion-ordered set
        self.cuts = 0
        self.heals = 0

    # ----------------------------------------------------------- partitions
    def partition(self, a: Iterable[int], b: Optional[Iterable[int]] = None,
                  *, bidirectional: bool = True, name: str = "") -> Partition:
        """Build (but do not activate) a partition.

        ``b=None`` isolates *a* from everyone else: the complement is
        computed over the addresses registered *now*, so build the
        partition when the membership you mean to cut exists.
        """
        side_a = frozenset(int(x) for x in a)
        if b is None:
            everyone = frozenset(p.ident for p in self.network.processes())
            side_b = everyone - side_a
        else:
            side_b = frozenset(int(x) for x in b)
        if side_a & side_b:
            raise ValueError(
                f"partition sides overlap: {sorted(side_a & side_b)}")
        if not name:
            name = f"cut-{self.cuts + len(self._active)}"
        return Partition(a=side_a, b=side_b, bidirectional=bidirectional,
                         name=name)

    def cut(self, partition: Partition) -> bool:
        """Activate *partition*.  Returns False (and counts nothing) if it
        is already active."""
        if partition in self._active:
            return False
        self._active[partition] = None
        self.cuts += 1
        return True

    def heal(self, partition: Partition) -> bool:
        """Deactivate *partition*.  Returns False (and counts nothing) if
        it is not active."""
        if partition not in self._active:
            return False
        del self._active[partition]
        self.heals += 1
        return True

    def active(self) -> Tuple[Partition, ...]:
        return tuple(self._active)

    def schedule(self, start: float, duration: float, a: Iterable[int],
                 b: Optional[Iterable[int]] = None, *,
                 bidirectional: bool = True, name: str = ""
                 ) -> Tuple[Partition, Event, Event]:
        """Schedule a partition that heals: cut at absolute virtual time
        *start*, heal at ``start + duration``.

        Both events route through :meth:`cut`/:meth:`heal`, so a manual
        heal before the scheduled one leaves the scheduled event a no-op
        and each transition still counts once.  Returns the
        partition and both events (cancel them to abort the schedule).
        """
        if not duration > 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        partition = self.partition(a, b, bidirectional=bidirectional,
                                   name=name)
        tag = partition.name
        cut_ev = self.sim.schedule_at(
            start, partial(self.cut, partition), label=f"conditions:cut:{tag}")
        heal_ev = self.sim.schedule_at(
            start + duration, partial(self.heal, partition),
            label=f"conditions:heal:{tag}")
        return partition, cut_ev, heal_ev

    def _filter(self, src: int, dst: int) -> bool:
        """Whether an active partition blocks *src* → *dst* (the fabric
        counts the drop, as ``stats.dropped_partition``)."""
        return any(partition.blocks(src, dst) for partition in self._active)
