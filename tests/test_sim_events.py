"""Unit tests for the event queue."""

import pytest

from repro.sim.events import Event, EventQueue


def test_push_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, lambda: fired.append(3))
    q.push(1.0, lambda: fired.append(1))
    q.push(2.0, lambda: fired.append(2))
    while (ev := q.pop()) is not None:
        ev.callback()
    assert fired == [1, 2, 3]


def test_same_time_fifo_order():
    q = EventQueue()
    fired = []
    for i in range(10):
        q.push(5.0, lambda i=i: fired.append(i))
    while (ev := q.pop()) is not None:
        ev.callback()
    assert fired == list(range(10))


def test_len_counts_live_events():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    e1.cancel()
    # Lazy deletion: logical length drops immediately on pop of cancelled.
    assert q.pop().time == 2.0
    assert len(q) == 0


def test_cancelled_event_skipped():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    e.cancel()
    assert q.pop() is None


def test_cancel_is_idempotent():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    e.cancel()
    e.cancel()
    assert q.pop() is None


def test_peek_time_skips_cancelled():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    e1.cancel()
    assert q.peek_time() == 2.0


def test_peek_time_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_nan_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError, match="NaN"):
        q.push(float("nan"), lambda: None)


def test_clear_empties_queue():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.clear()
    assert not q
    assert q.pop() is None


def test_bool_reflects_liveness():
    q = EventQueue()
    assert not q
    q.push(1.0, lambda: None)
    assert q


def test_event_ordering_dataclass():
    a = Event(time=1.0, seq=0, callback=lambda: None)
    b = Event(time=1.0, seq=1, callback=lambda: None)
    c = Event(time=0.5, seq=2, callback=lambda: None)
    assert c < a < b
