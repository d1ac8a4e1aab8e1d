"""Event records and the simulator's priority queue.

The queue is a binary heap (``heapq``) of :class:`Event` records.  Events
firing at the same timestamp are ordered by a monotonically increasing
sequence number, which makes every run fully deterministic: two events
scheduled at the same time always fire in scheduling order.

Cancellation is *lazy* (O(1)): a cancelled event is only marked, and the
pop path discards it when it surfaces.  To keep the heap bounded under
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

#: Type of an event callback.  Callbacks receive no arguments; bind state via
#: closures or ``functools.partial`` — or subclass :class:`Event`.
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
        Zero-argument callable invoked when the event fires.
    cancelled:
        Cancelled events stay in the heap (bounded by compaction) and are
        skipped when popped (lazy deletion — O(1) cancel).
    label:
        Optional human-readable tag used by traces and error messages.

    A subclass is the record of something that *is* its own event (a
    :class:`~repro.sim.network.Datagram` in flight): it overrides
    :meth:`fire` and enters the queue through :meth:`EventQueue.push_event`.
    """

    time: float
    seq: int
    callback: Callable[..., None]
    cancelled: bool = False
    label: str = ""
    _queue: Optional["EventQueue"] = field(default=None, repr=False)

    def __lt__(self, other: "Event") -> bool:
        # API-level ordering by (time, seq), kept for callers sorting
        # event collections.  NOT the heap hot path: EventQueue compares
        # (time, seq, Event) tuples, which never reach this method.
        t, o = self.time, other.time
        if t != o:
            return t < o
        return self.seq < other.seq

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
    """Binary-heap event queue with lazy, compacting cancellation.

    Heap entries are plain ``(time, seq, Event)`` tuples rather than the
    :class:`Event` records themselves: tuple comparison runs entirely in C
    (float, then int), so the few hundred thousand sift comparisons of a
    large run never call back into the interpreter.  The unique ``seq``
    guarantees the third element is never compared.

    >>> q = EventQueue()
    >>> e = q.push(1.0, lambda: None, label="hello")
    >>> q.peek_time()
    1.0
    >>> e.cancel()
    >>> q.pop() is None
    True
    """

    __slots__ = ("_heap", "_next_seq", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    @property
    def heap_size(self) -> int:
        """Physical heap length, tombstones included (observability: the
        bounded-heap regression tests assert ``heap_size`` stays within a
        constant factor of ``len(queue)``)."""
        return len(self._heap)

    def push(self, time: float, callback: Callback, label: str = "") -> Event:
        """Schedule *callback* at absolute simulated *time*."""
        return self.push_event(Event(time, 0, callback, label=label))

    def push_event(self, ev: Event) -> Event:
        """Schedule the ready-made record *ev* at its own ``ev.time`` — an
        :class:`Event` subclass carrying its own state (a datagram) is one
        object in flight, not record + bound callback + event."""
        time = ev.time
        if time != time:  # NaN guard: a NaN timestamp would corrupt the heap
            raise ValueError("event time must not be NaN")
        ev.seq = seq = self._next_seq
        self._next_seq = seq + 1
        ev._queue = self
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def pop(self) -> Optional[Event]:
        """Pop the earliest live event, or ``None`` if the heap is empty.

        Cancelled events are discarded transparently; a single ``pop`` may
        discard many cancelled entries but returns at most one live event.
        """
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[2]
            if ev.cancelled:
                continue
            self._live -= 1
            ev._queue = None  # fired: a late cancel() must not touch _live
            return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def clear(self) -> None:
        """Drop every pending event."""
        for _, _, ev in self._heap:
            ev._queue = None  # detach so late cancels cannot corrupt _live
        self._heap.clear()
        self._live = 0

    # ------------------------------------------------------------ internals
    def _note_cancel(self) -> None:
        """Account one cancellation; compact when tombstones dominate.

        Keeps ``heap_size <= max(2 * live, _COMPACT_MIN)`` at all times, so
        a service that arms and cancels timers in a tight loop cannot grow
        the heap without bound while the cancelled firing times are still
        far in the virtual future.  Compaction rebuilds the heap from the
        live entries in O(live); the unique ``(time, seq)`` keys mean the
        rebuilt heap pops in exactly the same order, so results are
        bit-identical with or without it.
        """
        self._live -= 1
        heap = self._heap
        if len(heap) > _COMPACT_MIN and len(heap) - self._live > self._live:
            self._heap = [item for item in heap if not item[2].cancelled]
            heapq.heapify(self._heap)
