"""Event calendar primitives for the discrete-event kernel.

The :class:`EventQueue` is a binary heap of ``(time, sequence, fn, a, b,
name)`` entries.  ``sequence`` counts every entry pushed, so entries for the
same simulated time fire in push order (FIFO tie-breaking), which keeps
protocol traces deterministic.  An entry is one of two kinds:

* an :class:`Event` entry, ``(time, sequence, None, event, None, None)``
  from :meth:`EventQueue.push`: a callback that can be cancelled (timers,
  workload originations, failures);
* a bare entry from :meth:`Simulator.post <repro.sim.engine.Simulator.post>`:
  the call ``fn(a, b)`` labelled *name*, which cannot be cancelled.  Every
  packet delivery is one, so most entries make no :class:`Event`.

This is the hottest code in the repository, so it trades a little
generality for throughput.  An entry's first two fields are a float and a
unique int, so ``heapq`` orders entries with C-level tuple comparison and
never reaches the rest; :class:`Event` defines no ordering and is a
``__slots__`` class.  :meth:`Simulator.run <repro.sim.engine.Simulator.run>`
is the only code that pops the heap.

Cancellation is *lazy*: a cancelled event stays in the heap and the run loop
discards it when it surfaces.  This keeps cancellation one store, which
matters because the SPMS protocol cancels a large number of ``tau_ADV``
timers.  Nothing keeps a live count: ``len(queue)`` scans the heap, and only
tests ask.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class Event:
    """A single scheduled occurrence in simulated time.

    Attributes:
        time: Absolute simulation time at which the event fires.
        action: Zero-argument callable invoked when the event fires.
        name: Optional human-readable label used in traces and error messages.
        payload: Optional arbitrary data carried for inspection/debugging.
        cancelled: Whether the event has been cancelled.
    """

    __slots__ = ("time", "action", "name", "payload", "cancelled")

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

    def cancel(self) -> None:
        """Mark the event so it is skipped when its firing time arrives."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        label = self.name or getattr(self.action, "__name__", "<callable>")
        return f"Event(t={self.time:.6f}, {label}, {state})"


class EventQueue:
    """Binary-heap event calendar with FIFO tie-breaking.

    Every entry, :class:`Event` or bare, takes the next number of one
    per-queue counter (``_sequence``).
    """

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._sequence = itertools.count()

    def __len__(self) -> int:
        """Number of entries not cancelled (``bool(queue)`` too).  O(n)."""
        return sum(1 for entry in self._heap if entry[2] is not None or not entry[3].cancelled)

    def push(self, event: Event) -> Event:
        """Insert *event* into the calendar and return it."""
        time = event.time
        if not time >= 0:
            raise ValueError(f"event time must be non-negative and not NaN, got {time}")
        heapq.heappush(self._heap, (time, next(self._sequence), None, event, None, None))
        return event
