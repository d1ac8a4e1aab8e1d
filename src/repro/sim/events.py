"""Event records and the simulator's priority queue.

The queue is a binary heap (``heapq``) of :class:`Event` records.  Events
firing at the same timestamp are ordered by a monotonically increasing
sequence number, which makes every run fully deterministic: two events
scheduled at the same time always fire in scheduling order.

Cancellation is *lazy* (O(1)): a cancelled event is only marked, and the
run loop discards it when it surfaces.  To keep the heap bounded under
heavy timer churn (services arming and cancelling ``ctx.every`` tasks far
faster than their periods elapse — see ``cluster/service.py``), the queue
**compacts** itself whenever tombstones outnumber live events: dead
entries are filtered out and the heap is rebuilt in O(live).  Because
every entry carries a unique ``(time, seq)`` key, compaction can never
change the order in which live events pop — rebuild-then-heapify yields
the same total order, so simulation results are bit-identical with or
without compaction.  The amortised cost per cancel is O(1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional

#: Type of an event callback.  Callbacks receive no arguments; bind state as
#: a bound method or a ``functools.partial`` of one — or subclass
#: :class:`Event`.  A closure would capture the objects it names, so a
#: ``copy.deepcopy`` of the simulation would still call the original's,
#: and ``pickle`` refuses it.
Callback = Callable[[], None]

#: Compaction never bothers with heaps smaller than this (the rebuild
#: would cost more than the memory it reclaims).
_COMPACT_MIN = 64


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulated time at which the callback fires.
    seq:
        Tie-breaker; assigned by the queue, increases monotonically.
    callback:
        Zero-argument callable invoked when the event fires (unset on a
        :class:`~repro.sim.network.Datagram`, which delivers itself).
    cancelled:
        Cancelled events stay in the heap (bounded by compaction) and are
        skipped when popped (lazy deletion — O(1) cancel).
    label:
        Optional human-readable tag used by traces and error messages.

    A subclass is the record of something that *is* its own event (a
    :class:`~repro.sim.network.Datagram` in flight): it overrides
    :meth:`fire`, and its sender pushes it onto the queue's heap.
    """

    time: float
    seq: int
    callback: Callable[..., None] = field(repr=False)
    cancelled: bool = False
    label: str = ""
    _queue: Optional["EventQueue"] = field(default=None, repr=False)

    def fire(self) -> None:
        """Run the event (the kernel calls this once, when it pops)."""
        self.callback()

    def cancel(self) -> None:
        """Mark the event so the queue skips it.  Idempotent, amortised O(1)."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._note_cancel()


class EventQueue:
    """Binary-heap event store with lazy, compacting cancellation.

    Heap entries are plain ``(time, seq, Event)`` tuples rather than the
    :class:`Event` records themselves: tuple comparison runs entirely in C
    (float, then int), so the few hundred thousand sift comparisons of a
    large run never call back into the interpreter.  The unique ``seq``
    guarantees the third element is never compared.

    The queue only stores: :meth:`Simulator.run
    <repro.sim.engine.Simulator.run>` pops ``_heap`` itself (one
    ``heappop`` per event, ``_live`` decremented as the event fires), and
    :meth:`Network.send <repro.sim.network.Network.send>` pushes its
    datagram itself, each in its own frame.

    >>> q = EventQueue()
    >>> e = q.push(1.0, lambda: None, label="hello")
    >>> len(q)
    1
    >>> e.cancel()
    >>> len(q)
    0
    """

    __slots__ = ("_heap", "_next_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: Callback, label: str = "") -> Event:
        """Schedule *callback* at absolute simulated *time*."""
        if time != time:  # NaN guard: a NaN timestamp would corrupt the heap
            raise ValueError("event time must not be NaN")
        seq = self._next_seq
        self._next_seq = seq + 1
        ev = Event(time, seq, callback, False, label, self)
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    # ------------------------------------------------------------ internals
    def _note_cancel(self) -> None:
        """Account one cancellation; compact when tombstones dominate.

        Keeps ``len(_heap) <= max(2 * live, _COMPACT_MIN)`` at all times, so
        a service that arms and cancels timers in a tight loop cannot grow
        the heap without bound while the cancelled firing times are still
        far in the virtual future.  Compaction rebuilds the heap from the
        live entries in O(live), in place, so the run loop's local
        reference to the list stays the heap; the unique ``(time, seq)``
        keys mean the rebuilt heap pops in exactly the same order, so
        results are bit-identical with or without it.
        """
        self._live -= 1
        heap = self._heap
        if len(heap) > _COMPACT_MIN and len(heap) - self._live > self._live:
            heap[:] = [item for item in heap if not item[2].cancelled]
            heapq.heapify(heap)
