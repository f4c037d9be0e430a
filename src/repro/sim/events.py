"""Event calendar primitives for the discrete-event kernel.

An :class:`Event` is a scheduled callback with a firing time.  The
:class:`EventQueue` is a binary heap of ``(time, sequence, event)`` entries,
where ``sequence`` counts pushes, so two events scheduled for the same
simulated time fire in the order they were scheduled (FIFO tie-breaking),
which keeps protocol traces deterministic.

This module is the hottest code in the repository — every simulated
transmission, timer and delivery passes through it — so it trades a little
generality for throughput:

* Heap entries are plain tuples whose first two fields are a float and a
  unique int, so ``heapq`` orders them with C-level tuple comparison and
  never reaches the event itself.  :class:`Event` defines no ordering:
  ``event_a < event_b`` raises :class:`TypeError`.
* :class:`Event` is a ``__slots__`` class (no per-event ``__dict__``).
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
import itertools
from typing import Any, Callable, Optional


class Event:
    """A single scheduled occurrence in simulated time.

    Attributes:
        time: Absolute simulation time at which the event fires.
        action: Zero-argument callable invoked when the event fires.
        name: Optional human-readable label used in traces and error messages.
        payload: Optional arbitrary data carried for inspection/debugging.
        cancelled: Whether the event has been cancelled.
    """

    __slots__ = ("time", "action", "name", "payload", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        action: Callable[[], None],
        name: str = "",
        payload: Any = None,
    ) -> None:
        self.time = time
        self.action = action
        self.name = name
        self.payload = payload
        self.cancelled = False
        # Owning queue while the event sits live in a heap; lets cancel()
        # keep the queue's live count exact without a per-cancel scan.
        self._queue: Optional["EventQueue"] = None

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

    Each push takes the next number of a per-queue counter; the heap holds
    ``(time, sequence, event)`` entries.  The live (i.e. non-cancelled)
    event count is maintained incrementally: ``len(queue)`` and
    ``bool(queue)`` are O(1).
    """

    __slots__ = ("_heap", "_sequence", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        """Number of live (non-cancelled) events.  O(1)."""
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(self, event: Event) -> Event:
        """Insert *event* into the calendar and return it."""
        time = event.time
        if not time >= 0:
            raise ValueError(f"event time must be non-negative and not NaN, got {time}")
        if not event.cancelled:
            event._queue = self
            self._live += 1
        heapq.heappush(self._heap, (time, next(self._sequence), event))
        return event

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
            time, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and time > until:
                return None
            heapq.heappop(heap)
            event._queue = None
            self._live -= 1
            return event
        return None
