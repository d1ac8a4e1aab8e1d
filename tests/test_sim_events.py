"""Unit tests for the event queue, driven through the simulator that pops it."""

from functools import partial

import pytest

from repro.sim.engine import Simulator
from repro.sim.events import EventQueue


def test_push_pop_orders_by_time():
    sim = Simulator()
    fired = []
    sim.schedule_at(3.0, lambda: fired.append(3))
    sim.schedule_at(1.0, lambda: fired.append(1))
    sim.schedule_at(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2, 3]


def test_same_time_fifo_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule_at(5.0, partial(fired.append, i))
    sim.run()
    assert fired == list(range(10))


def test_len_counts_live_events():
    sim = Simulator()
    fired = []
    e1 = sim.schedule_at(1.0, lambda: fired.append(1.0))
    sim.schedule_at(2.0, lambda: fired.append(sim.now))
    assert sim.pending == 2
    e1.cancel()
    # Lazy deletion: the live count drops at cancel, the tombstone at pop.
    assert sim.pending == 1
    assert sim.run() == 1 and fired == [2.0]
    assert sim.pending == 0


def test_cancelled_event_skipped():
    sim = Simulator()
    fired = []
    e = sim.schedule_at(1.0, lambda: fired.append(1.0))
    e.cancel()
    assert sim.run() == 0 and fired == []


def test_run_skips_a_cancelled_event_to_the_next_live_time():
    """Past a cancelled event the next live time is the one after it: the
    run stops at a horizon before that, and fires it at its time."""
    sim = Simulator()
    fired = []
    e1 = sim.schedule_at(1.0, lambda: fired.append(1.0))
    sim.schedule_at(2.0, lambda: fired.append(sim.now))
    e1.cancel()
    assert sim.run(until=1.5) == 0 and sim.now == 1.5
    assert sim.run(until=2.0) == 1 and fired == [2.0] and sim.now == 2.0


def test_an_empty_queue_has_no_next_event():
    """A fresh queue and one that holds only a tombstone are both empty:
    nothing is pending, and a run fires nothing and leaves the clock."""
    sim = Simulator()
    assert sim.pending == 0 and sim.run() == 0 and sim.now == 0.0
    sim.schedule_at(1.0, lambda: None).cancel()
    assert sim.pending == 0 and sim.run() == 0 and sim.now == 0.0


def test_cancel_is_idempotent():
    sim = Simulator()
    e = sim.schedule_at(1.0, lambda: None)
    e.cancel()
    e.cancel()
    assert sim.pending == 0
    assert sim.run() == 0


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError, match="NaN"):
        q.push(float("nan"), lambda: None)


def test_bool_reflects_liveness():
    q = EventQueue()
    assert not q
    q.push(1.0, lambda: None)
    assert q
