"""Event calendar primitives for the discrete-event kernel.

An :class:`Event` is a scheduled callback with a firing time.  The
:class:`EventQueue` is a binary heap of events ordered by ``(time, sequence)``
so that two events scheduled for the same simulated time fire in the order
they were scheduled (FIFO tie-breaking), which keeps protocol traces
deterministic.

This module is the hottest code in the repository — every simulated
transmission, timer and delivery passes through it — so it trades a little
generality for throughput:

* :class:`Event` is a ``__slots__`` class (no per-event ``__dict__``) and the
  heap stores the events themselves (ordered via :meth:`Event.__lt__`), not
  ``(time, seq, event)`` wrapper tuples.
* The queue tracks its live-event count incrementally, making ``len()`` and
  truth-testing O(1) even with many lazily-cancelled entries in the heap.
* :meth:`EventQueue.pop_due` fuses the peek/pop pair the simulation loop
  needs into a single heap traversal.

Cancellation is *lazy*: cancelled events stay in the heap but are skipped when
popped.  This keeps cancellation O(1) which matters because the SPMS protocol
cancels a large number of ``tau_ADV`` timers.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional


class Event:
    """A single scheduled occurrence in simulated time.

    Attributes:
        time: Absolute simulation time at which the event fires.
        action: Zero-argument callable invoked when the event fires.
        name: Optional human-readable label used in traces and error messages.
        payload: Optional arbitrary data carried for inspection/debugging.
        sequence: Queue-assigned FIFO tie-breaker (-1 until pushed).
        cancelled: Whether the event has been cancelled.
    """

    __slots__ = ("time", "action", "name", "payload", "sequence", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        action: Callable[[], None],
        name: str = "",
        payload: Any = None,
        sequence: int = -1,
    ) -> None:
        self.time = time
        self.action = action
        self.name = name
        self.payload = payload
        self.sequence = sequence
        self.cancelled = False
        # Owning queue while the event sits live in a heap; lets cancel()
        # keep the queue's live count exact without a per-cancel scan.
        self._queue: Optional["EventQueue"] = None

    def __lt__(self, other: "Event") -> bool:
        # Heap ordering: (time, sequence) without allocating key tuples.
        if self.time != other.time:
            return self.time < other.time
        return self.sequence < other.sequence

    def cancel(self) -> None:
        """Mark the event so it is skipped when its firing time arrives."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._live -= 1
                self._queue = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        label = self.name or getattr(self.action, "__name__", "<callable>")
        return f"Event(t={self.time:.6f}, {label}, {state})"


class EventQueue:
    """Binary-heap event calendar with FIFO tie-breaking.

    The queue assigns each pushed event a monotonically increasing sequence
    number; the heap is ordered by ``(time, sequence)``.  The live (i.e.
    non-cancelled) event count is maintained incrementally: ``len(queue)``
    and ``bool(queue)`` are O(1).
    """

    __slots__ = ("_heap", "_next_sequence", "_live")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._next_sequence = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events.  O(1)."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event* into the calendar and return it."""
        if not event.time >= 0:
            raise ValueError(f"event time must be non-negative and not NaN, got {event.time}")
        event.sequence = self._next_sequence
        self._next_sequence += 1
        if not event.cancelled:
            event._queue = self
            self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event.

        Returns ``None`` when no live events remain.  Cancelled events found
        on the way are discarded silently.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                return event
        return None

    def pop_due(self, until: Optional[float] = None) -> Optional[Event]:
        """Pop the earliest live event, unless it fires after *until*.

        The fused peek+pop the simulation loop runs once per event: a single
        heap traversal discards cancelled entries from the top, then either
        pops the earliest live event (returning it) or — when that event
        fires after *until* — leaves it in place and returns ``None``.
        After a ``None`` return, ``bool(queue)`` distinguishes "calendar
        exhausted" from "next event beyond the horizon".
        """
        heap = self._heap
        while heap:
            event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and event.time > until:
                return None
            heapq.heappop(heap)
            event._queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, or ``None``."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0].time

    def cancel(self, event: Event) -> None:
        """Cancel *event*; alias for ``event.cancel()`` kept for symmetry with
        :meth:`push`."""
        event.cancel()

    def clear(self) -> None:
        """Drop every pending event."""
        for event in self._heap:
            event._queue = None
        self._heap.clear()
        self._live = 0
