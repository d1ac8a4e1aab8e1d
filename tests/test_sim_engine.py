"""Unit tests for the discrete-event kernel."""

from functools import partial

import pytest

from repro.sim.engine import PeriodicTimer, SimulationError, Simulator
from repro.sim.network import Network, Process


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=100.0).now == 100.0


def test_schedule_and_run():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run()
    assert fired == [1, 10]


def test_run_for_advances_relative():
    sim = Simulator()
    sim.run_for(3.0)
    sim.run_for(2.0)
    assert sim.now == 5.0


def test_nan_until_fires_nothing():
    """``nxt > nan`` is always False: a NaN bound would never stop a run
    with a periodic timer armed, so it is refused before anything fires."""
    sim = Simulator()
    sim.max_events = 1000
    sim.every(1.0, lambda: None)
    with pytest.raises(ValueError, match="until"):
        sim.run_for(float("nan"))
    assert sim.events_processed == 0 and sim.now == 0.0


def test_until_in_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError, match="until"):
        sim.run(until=-5.0)
    with pytest.raises(ValueError, match="until"):
        sim.run_for(-5)
    assert sim.events_processed == 0 and sim.pending == 1
    assert sim.run(until=sim.now) == 0  # now itself is a valid bound


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative delay"):
        sim.schedule(-1.0, lambda: None)


def test_schedule_keeps_the_guards():
    """A negative delay names the event's label, a NaN delay is refused,
    and neither leaves anything queued."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="negative delay.*'rec'"):
        sim.schedule(-1.0, lambda: None, label="rec")
    with pytest.raises(ValueError, match="NaN"):
        sim.schedule(float("nan"), lambda: None, label="rec")
    assert sim.pending == 0


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError, match="before now"):
        sim.schedule_at(0.5, lambda: None)


def test_zero_delay_schedule_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_events_cascade():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_run_on_an_empty_queue_fires_nothing():
    sim = Simulator()
    assert sim.run() == 0 and sim.now == 0.0


def test_run_returns_event_count():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    assert sim.run() == 5


def test_run_done_stops_before_the_first_event_after_it_turns_true():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0, 4.0):
        sim.schedule(t, lambda t=t: fired.append(t))
    assert sim.run(done=lambda: True) == 0  # true at entry: nothing fires
    calls = []

    def done():
        calls.append(sim.now)
        return len(fired) == 2

    assert sim.run(done=done) == 2
    assert fired == [1.0, 2.0] and sim.now == 2.0 and sim.pending == 2
    assert calls == [0.0, 1.0, 2.0]  # checked once before each event


def test_run_until_with_done_advances_clock_unless_done_stopped_it():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(8.0, lambda: fired.append(8))
    assert sim.run(until=5.0, done=lambda: False) == 1
    assert sim.now == 5.0  # horizon reached: clock moved to *until*
    assert sim.run(until=20.0, done=lambda: bool(fired[1:])) == 1
    assert fired == [1, 8] and sim.now == 8.0  # done stopped it: clock stays


def test_drain_enforces_budget():
    """Running the queue dry -- ``run()`` with no horizon, or until a
    ``done`` predicate that never turns true -- trips the budget on a
    re-arming timer instead of looping forever."""
    for kwargs in ({}, {"done": lambda: False}):
        sim = Simulator()
        sim.max_events = 100

        def rearm(sim=sim):
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(SimulationError, match="exceeded max_events=100"):
            sim.run(**kwargs)
        assert sim.events_processed == 100


def test_max_events_guard():
    """``max_events`` bounds each call: a re-arming timer may fire ten
    events a call for as many calls as it likes, and trips the budget in
    the call that would fire an eleventh."""
    sim = Simulator()
    sim.max_events = 10

    def rearm():
        sim.schedule(1.0, rearm)

    sim.schedule(1.0, rearm)
    for _ in range(5):
        assert sim.run(until=sim.now + 10.0) == 10
    assert sim.events_processed == 50
    with pytest.raises(SimulationError, match="exceeded max_events=10"):
        sim.run()


def test_events_processed_counter():
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    assert sim.events_processed == 3


def test_pending_counts_live():
    sim = Simulator()
    e = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    e.cancel()
    sim.run()
    assert sim.pending == 0


def test_cancel_after_fire_is_a_noop():
    sim = Simulator()
    fired = [sim.schedule(float(i + 1), lambda: None) for i in range(3)]
    sim.schedule(5.0, lambda: None)
    sim.run(until=3.5)
    for e in fired:  # already fired: must not be accounted a second time
        e.cancel()
        e.cancel()
        assert sim.pending == 1
    sim.run()
    for e in fired:
        e.cancel()
    assert sim.pending == 0 and len(sim._queue) == 0 and not sim._queue


class TestPeriodicTimer:
    def test_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now))
        sim.run(until=5.5)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_stop_halts_timer(self):
        sim = Simulator()
        fired = []
        timer = sim.every(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.5, timer.stop)
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_stop_from_callback(self):
        sim = Simulator()
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: (fired.append(sim.now), timer.stop()))
        timer.start()
        sim.run(until=10.0)
        assert fired == [1.0]

    def test_stop_from_callback_keeps_pending_exact(self):
        # The fired event used to be decremented a second time by the
        # stop() -> cancel() issued from inside its own callback.
        sim = Simulator()
        timers = []
        timers.append(sim.every(1.0, lambda: timers[0].stop()))
        sim.schedule(5.0, lambda: None)
        assert sim.pending == 2
        sim.run(until=2.0)
        assert not timers[0].running
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0

    def test_jitter_applied(self):
        sim = Simulator()
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now), jitter=lambda: 0.5)
        sim.run(until=4.0)
        assert fired == [1.5, 3.0]

    def test_zero_interval_rejected(self):
        with pytest.raises(SimulationError, match="interval"):
            PeriodicTimer(Simulator(), 0.0, lambda: None)
        with pytest.raises(SimulationError, match="interval"):
            PeriodicTimer(Simulator(), float("nan"), lambda: None)

    def test_start_is_idempotent(self):
        sim = Simulator()
        fired = []
        timer = sim.every(1.0, lambda: fired.append(1))
        timer.start()
        sim.run(until=1.5)
        assert fired == [1]


def test_not_reentrant():
    sim = Simulator()
    err = []

    def nested():
        try:
            sim.run()
        except SimulationError as e:
            err.append(str(e))

    sim.schedule(1.0, nested)
    sim.run()
    assert err and "reentrant" in err[0]


class _Latencies:
    """Hands out the given latencies in order, one per datagram."""

    def __init__(self, *values):
        self.values = list(values)

    def sample(self, src, dst):
        return self.values.pop(0)


class _Sink(Process):
    """Records each datagram it receives as (label, time, seq)."""

    def __init__(self, address, out):
        super().__init__(address)
        self.out = out

    def on_datagram(self, dgram):
        self.out.append((dgram.label, dgram.time, dgram.seq))


def test_a_datagram_is_the_record_run_fires():
    """A datagram is pushed as its own event record (no callback bound to
    it): it takes the next seq, and ``run`` fires it in (time, seq) order
    like any timer, bounded by *until*."""
    sim = Simulator()
    net = Network(sim, _Latencies(1.0, 2.0))
    out = []
    src, dst = _Sink(1, out), _Sink(2, out)
    net.register(src)
    net.register(dst)
    sim.schedule(1.0, lambda: out.append("cb"))
    src.send(2, "a")
    src.send(2, "b")
    assert sim.pending == 3
    assert sim.run(until=1.0) == 2            # bounded by until
    assert out == ["cb", ("dgram:str", 1.0, 1)]
    assert sim.run() == 1                     # run to an empty queue
    assert out[-1] == ("dgram:str", 2.0, 2) and sim.now == 2.0


def test_scheduled_record_can_be_cancelled():
    sim = Simulator()
    out = []
    rec = sim.schedule(1.0, lambda: out.append("rec"))
    rec.cancel()
    assert sim.pending == 0
    sim.run()
    assert out == []


def test_a_tripped_budget_keeps_the_next_event():
    """The event that would exceed ``max_events`` stays queued: a second
    run fires it, so no event is lost to the budget."""
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), partial(fired.append, i))
    sim.max_events = 3
    with pytest.raises(SimulationError, match="exceeded max_events=3"):
        sim.run()
    assert fired == [0, 1, 2] and sim.pending == 2 and sim.now == 3.0
    assert sim.run() == 2
    assert fired == [0, 1, 2, 3, 4] and sim.pending == 0
