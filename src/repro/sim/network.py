"""A UDP-like datagram network connecting simulated processes.

Semantics (deliberately matching what a UDP overlay sees):

* **Unreliable** — datagrams are dropped silently when the destination is
  down or unknown, and whenever the installed ``loss_model`` predicate says
  so (random loss has that one path).  No acknowledgements; protocols that
  need liveness use keep-alives, exactly as TreeP does.
* **Unordered between pairs only via latency** — each datagram samples its
  own latency, so two messages to the same peer may arrive out of order.
* **No connections** — any process can send to any address it knows.

The network also keeps per-message-type counters, which the maintenance
overhead benches read to compare control traffic between configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.latency import LatencyModel


class Datagram(Event):
    """One simulated UDP packet — and the event record of its own delivery:
    ``time`` is its arrival and ``label`` its ``dgram:<Type>`` tag, and
    firing it delivers it through ``network``, so a packet in flight is one
    object on the simulator's heap and its delivery one call."""

    __slots__ = ("network", "src", "dst", "payload", "send_time", "size")

    def __init__(self, time: float, seq: int, label: str, queue: "EventQueue",
                 network: "Network", src: int, dst: int, payload: Any,
                 send_time: float, size: int = 0) -> None:
        self.time = time
        self.seq = seq
        self.cancelled = False
        self.label = label
        self._queue = queue
        self.network = network
        self.src = src
        self.dst = dst
        self.payload = payload
        self.send_time = send_time
        self.size = size  # approximate wire size in bytes, for overhead accounting

    def fire(self) -> None:
        """Call its payload type's entry in :attr:`Network.handlers` (or,
        for a type with none, the destination's :meth:`~Process.on_datagram`),
        unless the destination died while the packet was in flight."""
        network = self.network
        dst = self.dst
        if dst in network._down:
            network.stats.dropped_down += 1
            return
        network.stats.delivered += 1
        payload = self.payload
        entry = network.handlers.get(type(payload))
        if entry is None:
            network._procs[dst].on_datagram(self)
            return
        receivers, fn = entry
        fn(receivers[dst], self.src, payload)


#: type -> (type name, event label) — computed once per payload type so the
#: per-datagram path never re-derives ``type(payload).__name__`` or
#: re-formats the scheduling label (both showed up in 10k-node profiles).
_TYPE_META: Dict[type, tuple] = {}


#: A payload type's entry in :attr:`Network.handlers`: ``(receivers, fn)``,
#: run as ``fn(receivers[dst], src, payload)``.
Handler = Tuple[Mapping[int, Any], Callable[[Any, int, Any], None]]


class Process:  # repro-lint: disable=RPR401 per-node engine base, not a per-message record; subclasses attach ad-hoc attributes (obs, protocol state) so it keeps a __dict__
    """Base class for anything that receives datagrams.

    A datagram finds its handler in :attr:`Network.handlers`;
    :meth:`on_datagram` gets only those of a type with no entry there.
    ``ident`` is the address, and the overlay ID in every overlay here.
    """

    def __init__(self, ident: int) -> None:
        self.ident = int(ident)
        self.network: Optional["Network"] = None

    @property
    def sim(self) -> Simulator:
        assert self.network is not None, "process not attached to a network"
        return self.network.sim

    # -- I/O ---------------------------------------------------------------
    def send(self, dst: int, payload: Any) -> None:
        """Fire-and-forget datagram to *dst*."""
        assert self.network is not None, "process not attached to a network"
        self.network.send(self.ident, dst, payload)

    def on_datagram(self, dgram: Datagram) -> None:
        """A datagram of a type with no handler table entry: dropped."""


@dataclass(slots=True)
class NetworkStats:
    """Aggregate traffic counters."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_down: int = 0
    dropped_unknown: int = 0
    dropped_partition: int = 0
    bytes_sent: int = 0
    by_type: Dict[str, int] = field(default_factory=dict)

    def drop_total(self) -> int:
        return (
            self.dropped_loss
            + self.dropped_down
            + self.dropped_unknown
            + self.dropped_partition
        )


class Network:  # repro-lint: disable=RPR401 one instance per simulation; slotting buys nothing and hooks/partition state evolve per PR
    """The datagram fabric.

    Parameters
    ----------
    sim:
        The event kernel datagrams are scheduled on.
    latency:
        Per-datagram latency model.
    """

    def __init__(self, sim: Simulator, latency: LatencyModel) -> None:
        self.sim = sim
        self.latency = latency
        self._procs: Dict[int, Process] = {}
        self._down: Set[int] = set()
        #: Monotonic count of liveness transitions (registrations, crashes,
        #: revivals) — a cheap exact invalidation key for caches derived
        #: from the live population (``ResourceDirectory._sync``,
        #: ``JobScheduler.random_origin``, both via ``TreePNetwork.liveness_key``).
        self.liveness_epoch: int = 0
        self.stats = NetworkStats()
        #: Optional predicate; return True to block delivery (partitions).
        #: Its one owner is :class:`~repro.sim.conditions.NetworkConditions`.
        self.partition_filter: Optional[Callable[[int, int], bool]] = None
        #: Optional per-link loss predicate (return True to drop, counted
        #: as ``dropped_loss``): the one way a datagram is lost at random —
        #: a :class:`~repro.sim.conditions.GilbertElliott` chain, or any
        #: predicate drawing from its own stream.
        self.loss_model: Optional[Callable[[int, int], bool]] = None
        #: Liveness transition hooks, fired exactly once per transition
        #: (``set_down`` on an up process / ``set_up`` on a down one) with
        #: the affected address.  The service plane (:mod:`repro.cluster`)
        #: subscribes one dispatcher to each, so churn callbacks and per-node
        #: cleanup run no matter which driver crashed the node
        #: (``TreePNetwork.fail_nodes``, a
        #: :class:`~repro.sim.failures.FailureSchedule`, or a direct call).
        self.down_hooks: list[Callable[[int], None]] = []
        self.up_hooks: list[Callable[[int], None]] = []
        #: payload type -> ``(receivers, fn)``, the one way a datagram finds
        #: its handler: one of that type delivered to *a* runs
        #: ``fn(receivers[a], src, payload)``.  The overlay files its types
        #: when built, the service plane (:mod:`repro.cluster`) its services'.
        self.handlers: Dict[type, Handler] = {}
        #: The simulator's event queue, which :meth:`send` pushes onto.
        self._queue = sim._queue

    # ---------------------------------------------------------- membership
    def register(self, proc: Process) -> None:
        """Add *proc* to the fabric; its ``ident`` must be unique."""
        if proc.ident in self._procs:
            raise ValueError(f"address {proc.ident} already registered")
        self._procs[proc.ident] = proc
        self._down.discard(proc.ident)
        proc.network = self

    def processes(self) -> list[Process]:
        return list(self._procs.values())

    # -------------------------------------------------------------- up/down
    def set_down(self, address: int) -> None:
        """Crash-stop *address*: it silently drops all traffic."""
        if address in self._procs and address not in self._down:
            self._down.add(address)
            self.liveness_epoch += 1
            for hook in list(self.down_hooks):
                hook(address)

    def set_up(self, address: int) -> None:
        if address in self._down:
            self._down.discard(address)
            self.liveness_epoch += 1
            for hook in list(self.up_hooks):
                hook(address)

    def is_up(self, address: int) -> bool:
        return address in self._procs and address not in self._down

    # ------------------------------------------------------------------ I/O
    def send(self, src: int, dst: int, payload: Any) -> None:
        """Inject one datagram.  A down *src* cannot send.

        One frame from payload to heap: the latency draw, the record and
        the push onto the simulator's queue (the same ``(time, seq)`` key
        :meth:`Simulator.schedule <repro.sim.engine.Simulator.schedule>`
        would give it, and its negative-delay and NaN guards)."""
        stats = self.stats
        stats.sent += 1
        ptype = type(payload)
        meta = _TYPE_META.get(ptype)
        if meta is None:
            name = ptype.__name__
            meta = _TYPE_META[ptype] = (name, f"dgram:{name}")
        tname, label = meta
        by_type = stats.by_type
        by_type[tname] = by_type.get(tname, 0) + 1
        size = getattr(payload, "wire_size", 64)
        stats.bytes_sent += size

        if src in self._down:
            stats.dropped_down += 1
            return
        if dst not in self._procs:
            stats.dropped_unknown += 1
            return
        if self.partition_filter is not None and self.partition_filter(src, dst):
            stats.dropped_partition += 1
            return
        if self.loss_model is not None and self.loss_model(src, dst):
            stats.dropped_loss += 1
            return

        delay = self.latency.sample(src, dst)
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r} for event {label!r}")
        now = self.sim._now
        time = now + delay
        if time != time:  # NaN guard: a NaN timestamp would corrupt the heap
            raise ValueError("event time must not be NaN")
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        heappush(queue._heap, (time, seq, Datagram(
            time, seq, label, queue, self, src, dst, payload, now, size)))
        queue._live += 1

    # ------------------------------------------------------------ accounting
    def reset_stats(self) -> None:
        self.stats = NetworkStats()
