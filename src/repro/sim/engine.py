"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue.  Protocol code
never sleeps or spins; it schedules callbacks at future virtual times.  The
kernel is deliberately tiny — the hot loop does one heap pop and one callback
per event, with no allocation beyond the event records themselves, and a
datagram is its own event record (:class:`~repro.sim.network.Datagram`), so
its callback is its delivery.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable, Optional

from repro.sim.events import Callback, Event, EventQueue


class SimulationError(RuntimeError):
    """Raised when the kernel detects an inconsistent schedule."""


class Simulator:
    """Single-threaded discrete-event simulator.

    :meth:`run` is the one event loop and :attr:`max_events` its one
    budget: a blocking call waits by running it with a ``done`` predicate
    (a client pump, a lookup batch) or an ``until`` time, so it returns
    while periodic timers stay armed.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock (seconds; the unit is arbitrary
        but all built-in latency/maintenance defaults assume seconds).

    Usage
    -----
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    1
    >>> fired
    [5.0]
    """

    __slots__ = ("_queue", "_now", "_running", "_event_count", "max_events",
                 "_event_hook")

    def __init__(self, start_time: float = 0.0) -> None:
        self._queue = EventQueue()
        self._now = float(start_time)
        self._running = False
        self._event_count = 0
        #: The event budget of one :meth:`run` call: it raises rather than
        #: fire more (protects against runaway keep-alive loops).
        self.max_events: int = 10_000_000
        self._event_hook: Optional[Callable[[Event], None]] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Total events fired since construction."""
        return self._event_count

    # -------------------------------------------------------------- schedule
    def schedule(self, delay: float, callback: Callback, label: str = "") -> Event:
        """Schedule *callback* to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r} for event {label!r}")
        return self._queue.push(self._now + delay, callback, label)

    def schedule_at(self, time: float, callback: Callback, label: str = "") -> Event:
        """Schedule *callback* at absolute virtual *time* (>= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {time} before now={self._now}"
            )
        return self._queue.push(time, callback, label)

    def set_event_hook(self, hook: Optional[Callable[[Event], None]]) -> None:
        """Install (or clear, with ``None``) the per-event observer.

        The one way to watch a run event by event: the observability layer
        counts event labels through it, and a datagram arrives as its
        :class:`~repro.sim.network.Datagram` record.  The hook fires after
        the clock advances and before the callback runs — for a datagram,
        before delivery re-checks that its destination is up.  It must not
        schedule events or draw RNG; the run loop pays one cached
        ``is not None`` check per event when no hook is installed.
        """
        self._event_hook = hook

    # ------------------------------------------------------------------- run
    def run(
        self,
        until: Optional[float] = None,
        done: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Fire events until the queue empties, the clock would pass *until*,
        or ``done()`` turns true; returns the number of events fired.

        The one event loop: every blocking wait in the repo is a call to
        it.  *done* is checked before each event, so the run stops before
        the first event after it turns true; a waiter passes a C callable
        (``slot.__len__``) so the check runs no Python.  With *until*, the
        clock is advanced to exactly *until* (unless *done* stopped the
        run) even if the last event fires earlier, so periodic processes
        observe a consistent end time.  :attr:`max_events` bounds each
        call, so a protocol bug (two nodes ping-ponging updates forever, a
        runaway timer) fails loudly; the event that would exceed it stays
        queued, so a later call fires it.  An *until* that is NaN or
        earlier than :attr:`now` raises ``ValueError`` before anything
        fires.

        The loop pops the heap itself: one ``heappop`` and one
        ``ev.fire()`` per event, tombstones discarded as they surface, and
        an event past *until* or over the budget pushed back unchanged (its
        ``(time, seq)`` key is unique, so the heap pops in the same order).
        :attr:`events_processed` is brought up to date as the call returns.
        """
        if until is not None and not until >= self._now:  # NaN fails too
            raise ValueError(f"until must be a time >= now ({self._now}), got {until}")
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        queue = self._queue
        heap = queue._heap  # compaction rewrites this list in place
        hook = self._event_hook
        budget = self.max_events
        stop = math.inf if until is None else until
        now = self._now
        fired = 0
        try:
            while done is None or not done():
                while heap:
                    entry = heappop(heap)
                    ev = entry[2]
                    if not ev.cancelled:
                        break
                else:
                    break  # nothing left to fire
                time = entry[0]
                if time > stop:
                    heappush(heap, entry)
                    break
                if fired >= budget:
                    heappush(heap, entry)
                    raise SimulationError(
                        f"exceeded max_events={budget}; runaway periodic process?"
                    )
                if time < now:
                    raise SimulationError(
                        f"event {ev.label!r} scheduled at {time} < now {now}"
                    )
                queue._live -= 1
                ev._queue = None  # fired: a late cancel() must not touch _live
                self._now = now = time
                fired += 1
                if hook is not None:
                    hook(ev)
                ev.fire()
            else:
                return fired  # done() stopped the run: the clock stays put
        finally:
            self._event_count += fired
            self._running = False
        if until is not None and now < until:
            self._now = until
        return fired

    def run_for(self, duration: float) -> int:
        """Run for *duration* virtual time units from now."""
        return self.run(until=self._now + duration)

    # ---------------------------------------------------------------- timers
    def every(
        self,
        interval: float,
        callback: Callback,
        *,
        jitter: Callable[[], float] | None = None,
        label: str = "",
    ) -> "PeriodicTimer":
        """Create (and start) a periodic timer firing every *interval*.

        ``jitter()``, when given, is sampled each period and added to the
        interval — used to de-synchronise keep-alive storms.
        """
        timer = PeriodicTimer(self, interval, callback, jitter=jitter, label=label)
        timer.start()
        return timer


class TimerGroup:
    """Owns a set of :class:`PeriodicTimer`\\ s with one-call cancellation.

    The service layer (:mod:`repro.cluster`) files every periodic task a
    service registers into a group — per service, or per service per node —
    so tearing a service (or a departed node) down cannot leak a re-arming
    timer.  Adding a timer opportunistically prunes already-stopped ones,
    keeping the group bounded for services that start and stop tasks
    repeatedly (e.g. per-job heartbeat loops).
    """

    __slots__ = ("_timers",)

    def __init__(self) -> None:
        self._timers: list[PeriodicTimer] = []

    def add(self, timer: "PeriodicTimer") -> "PeriodicTimer":
        """Track *timer*; returns it for call-through convenience."""
        self._timers = [t for t in self._timers if t.running]
        self._timers.append(timer)
        return timer

    def stop_all(self) -> int:
        """Stop every tracked timer; returns how many were still running."""
        stopped = 0
        for t in self._timers:
            if t.running:
                t.stop()
                stopped += 1
        self._timers.clear()
        return stopped


class PeriodicTimer:
    """Re-arming timer owned by a :class:`Simulator`.

    The timer re-schedules itself *after* invoking the callback, so a
    callback that calls :meth:`stop` prevents the next occurrence.
    """

    __slots__ = ("_sim", "interval", "_callback", "_jitter", "_event", "_stopped", "label")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callback,
        *,
        jitter: Callable[[], float] | None = None,
        label: str = "",
    ) -> None:
        if not interval > 0:  # NaN fails too
            raise SimulationError(f"periodic interval must be > 0, got {interval}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._jitter = jitter
        self._event: Optional[Event] = None
        self._stopped = True
        self.label = label

    @property
    def running(self) -> bool:
        return not self._stopped

    def start(self) -> None:
        if not self._stopped:
            return
        self._stopped = False
        self._arm()

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _arm(self) -> None:
        delay = self.interval + (self._jitter() if self._jitter is not None else 0.0)
        if delay <= 0:
            delay = self.interval
        self._event = self._sim.schedule(delay, self._fire, label=self.label)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        if not self._stopped:
            self._arm()
