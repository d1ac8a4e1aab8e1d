"""Unit tests for the datagram network."""

import numpy as np
import pytest

from reference import ConstantLatency, heap_size, on_delivery
from repro.sim.engine import Simulator
from repro.sim.network import Datagram, Network, Process


class Echo(Process):
    """Records everything it receives."""

    def __init__(self, address):
        super().__init__(address)
        self.inbox = []

    def on_datagram(self, dgram: Datagram) -> None:
        self.inbox.append((dgram.src, dgram.payload))


def make_net():
    sim = Simulator()
    net = Network(sim, latency=ConstantLatency(0.01))
    return sim, net


def test_basic_delivery():
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    a.send(2, "hello")
    sim.run()
    assert b.inbox == [(1, "hello")]
    assert net.stats.delivered == 1


def test_latency_delays_delivery():
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    a.send(2, "x")
    sim.run()
    assert sim.now == pytest.approx(0.01)


def test_duplicate_address_rejected():
    _, net = make_net()
    net.register(Echo(1))
    with pytest.raises(ValueError, match="already registered"):
        net.register(Echo(1))


def test_send_to_unknown_is_dropped():
    sim, net = make_net()
    a = Echo(1)
    net.register(a)
    a.send(99, "void")
    sim.run()
    assert net.stats.dropped_unknown == 1
    assert net.stats.delivered == 0


def test_down_destination_drops():
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    net.set_down(2)
    a.send(2, "x")
    sim.run()
    assert b.inbox == []
    assert net.stats.dropped_down == 1


def test_down_source_cannot_send():
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    net.set_down(1)
    net.send(1, 2, "x")
    sim.run()
    assert b.inbox == []
    assert net.stats.dropped_down == 1


def test_crash_mid_flight_drops():
    """A packet in flight to a node that dies before delivery is lost."""
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    a.send(2, "x")
    sim.schedule(0.005, lambda: net.set_down(2))
    sim.run()
    assert b.inbox == []
    assert net.stats.dropped_down == 1


def test_set_up_restores_delivery():
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    net.set_down(2)
    net.set_up(2)
    a.send(2, "x")
    sim.run()
    assert b.inbox == [(1, "x")]


def test_loss_drops_fraction():
    sim, net = make_net()
    rng = np.random.default_rng(0)
    net.loss_model = lambda src, dst: rng.random() < 0.5
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    for _ in range(400):
        a.send(2, "x")
    sim.run()
    assert 120 <= len(b.inbox) <= 280  # ~200 expected
    assert net.stats.dropped_loss == 400 - len(b.inbox)


def test_partition_filter_blocks():
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    net.partition_filter = lambda s, d: (s, d) == (1, 2)
    a.send(2, "blocked")
    b.send(1, "allowed")
    sim.run()
    assert a.inbox == [(2, "allowed")]
    assert b.inbox == []
    assert net.stats.dropped_partition == 1


def test_by_type_counter():
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    a.send(2, "s")
    a.send(2, 42)
    sim.run()
    assert net.stats.by_type == {"str": 1, "int": 1}


def test_wire_size_accounting():
    class Sized:
        wire_size = 100

    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    a.send(2, Sized())
    sim.run()
    assert net.stats.bytes_sent == 100


def test_event_hook_observes_deliveries():
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    seen = []
    on_delivery(net, lambda d: seen.append(d.payload))
    a.send(2, "observed")
    sim.run()
    assert seen == ["observed"]


def test_reset_stats():
    sim, net = make_net()
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    a.send(2, "x")
    sim.run()
    net.reset_stats()
    assert net.stats.sent == 0 and net.stats.delivered == 0


def test_drop_total():
    sim, net = make_net()
    a = Echo(1)
    net.register(a)
    a.send(99, "x")
    sim.run()
    assert net.stats.drop_total() == 1


# ------------------------------------------ a datagram is its own event record

class _FixedLatency(ConstantLatency):
    """A latency model that returns whatever it is told to (even nonsense)."""

    def __init__(self, value):
        self.value = value


def _pair(latency=None):
    sim, net = make_net()
    if latency is not None:
        net.latency = latency
    a, b = Echo(1), Echo(2)
    net.register(a)
    net.register(b)
    return sim, net, a, b


def test_negative_latency_still_raises_from_send():
    from repro.sim.engine import SimulationError

    sim, net, a, b = _pair(_FixedLatency(-0.5))
    with pytest.raises(SimulationError, match="negative delay.*dgram:str"):
        a.send(2, "x")
    assert sim.pending == 0


def test_nan_latency_still_raises_from_send():
    sim, net, a, b = _pair(_FixedLatency(float("nan")))
    with pytest.raises(ValueError, match="NaN"):
        a.send(2, "x")
    assert sim.pending == 0


def test_pending_counts_datagrams_in_flight():
    sim, net, a, b = _pair()
    for i in range(5):
        a.send(2, i)
    sim.schedule(1.0, lambda: None)
    assert sim.pending == 6
    assert all(type(ev).__name__ in ("Datagram", "Event")
               for _, _, ev in sim._queue._heap)
    sim.run()
    assert sim.pending == 0 and b.inbox == [(1, i) for i in range(5)]


def test_compaction_keeps_datagrams_in_flight():
    """Tombstone compaction rebuilds the heap around live records — timers
    and datagrams alike — without changing their pop order."""
    sim, net, a, b = _pair()
    for i in range(10):
        a.send(2, i)
    timers = [sim.schedule(50.0 + i, lambda: None) for i in range(200)]
    for t in timers:
        t.cancel()
    assert sim.pending == 10
    assert heap_size(sim._queue) <= 64  # compacted: tombstones gone
    sim.run()
    assert [p for _, p in b.inbox] == list(range(10))
    assert net.stats.delivered == 10


def test_hooks_observe_the_datagram_record():
    """The engine's event hook sees the delivered datagram as the event
    record itself, with the packet fields and the event fields both
    readable."""
    sim, net, a, b = _pair()
    events = []
    sim.set_event_hook(events.append)
    sim.schedule(0.004, lambda: None, label="tick")
    sim.run_for(0.002)
    a.send(2, ("payload", 7))
    sim.run()
    assert [ev.label for ev in events] == ["tick", "dgram:tuple"]
    (dgram,) = [ev for ev in events if isinstance(ev, Datagram)]
    assert dgram is events[1] and isinstance(dgram, Datagram)
    assert (dgram.src, dgram.dst, dgram.payload) == (1, 2, ("payload", 7))
    assert dgram.send_time == pytest.approx(0.002)
    assert dgram.time == pytest.approx(0.012) == sim.now
    assert dgram.size == 64 and dgram.label == "dgram:tuple"
    assert not dgram.cancelled


def test_datagrams_and_timers_interleave_in_schedule_order():
    """``seq`` is drawn at push for both kinds of record, so same-instant
    events fire in the order they were scheduled."""
    sim, net, a, b = _pair()
    order = []
    on_delivery(net, lambda d: order.append(d.payload))
    a.send(2, "d1")
    sim.schedule(0.01, lambda: order.append("t1"))
    a.send(2, "d2")
    sim.schedule(0.01, lambda: order.append("t2"))
    sim.run()
    assert order == ["d1", "t1", "d2", "t2"]
