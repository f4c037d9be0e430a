"""The discrete-event simulation loop.

:class:`Simulator` owns the event calendar, the simulation clock and the named
random streams.  Protocol code never advances the clock directly; it only
schedules callbacks relative to ``now``: :meth:`Simulator.schedule` for an
:class:`~repro.sim.events.Event` that can be cancelled, and
:meth:`Simulator.post` for a bare calendar entry that cannot (a packet
delivery).  :meth:`Simulator.run` is the one loop that pops the calendar.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceLog


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Simulator:
    """Event-driven simulation engine.

    Args:
        seed: Master seed for all named random streams.
        trace: When true, every fired event is appended to :attr:`trace_log`.

    Example:
        >>> sim = Simulator(seed=1)
        >>> fired = []
        >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5.0]
    """

    def __init__(self, seed: int = 0, trace: bool = False) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        # The calendar's heap and sequence counter, shared with the queue:
        # post() pushes bare entries onto it and run() pops it in place.
        self._heap = self._queue._heap
        self._sequence = self._queue._sequence
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self.rng = RandomStreams(seed)
        self.trace_enabled = trace
        self.trace_log = TraceLog()

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of calendar entries not cancelled (a heap scan, for tests)."""
        return len(self._queue)

    # -------------------------------------------------------------- scheduling

    def schedule(
        self,
        delay: float,
        action: Callable[[], None],
        name: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule *action* to run ``delay`` time units from now.

        Args:
            delay: Non-negative offset from the current simulation time (not
                NaN).
            action: Zero-argument callable.
            name: Optional label for traces.
            payload: Optional data attached to the event.

        Returns:
            The scheduled :class:`Event`, which can be cancelled.
        """
        if not delay >= 0:  # also rejects NaN, which every `<` comparison lets through
            raise ValueError(f"delay must be non-negative and not NaN, got {delay}")
        return self._queue.push(Event(self._now + delay, action, name, payload))

    def schedule_at(
        self,
        time: float,
        action: Callable[[], None],
        name: str = "",
        payload: Any = None,
    ) -> Event:
        """Schedule *action* at absolute simulation time *time*."""
        if not time >= self._now:
            raise ValueError(
                f"cannot schedule into the past or at NaN (time={time}, now={self._now})"
            )
        return self._queue.push(Event(time, action, name, payload))

    def post(self, delay: float, fn: Callable[[Any, Any], None], a: Any, b: Any, name: str) -> None:
        """Call ``fn(a, b)`` ``delay`` from now, labelled *name*, as a bare
        calendar entry: no :class:`Event`, so it cannot be cancelled.  Its
        sequence number and ``now + delay`` time are :meth:`schedule`'s, so
        it fires exactly where the same call scheduled as an event would."""
        if not delay >= 0:  # also rejects NaN, as schedule() does
            raise ValueError(f"delay must be non-negative and not NaN, got {delay}")
        heappush(self._heap, (self._now + delay, next(self._sequence), fn, a, b, name))

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    # ------------------------------------------------------------------- run

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        Args:
            until: Stop once the clock would pass this time (events exactly at
                ``until`` still fire).  When a live entry lies beyond it, the
                clock stops at ``until``.  It may not be NaN or earlier than
                ``now``.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        now = self._now
        if until is not None and not until >= now:
            raise ValueError(f"cannot run into the past or to NaN (until={until}, now={now})")
        self._running = True
        self._stopped = False
        heap = self._heap
        horizon = math.inf if until is None else until
        # The processed counter is flushed once; tracing costs one check per
        # event when off.
        trace = self.trace_log.record if self.trace_enabled else None
        processed = 0
        try:
            while heap and not self._stopped:
                entry = heappop(heap)
                time, _, fn, a, b, name = entry
                # fn is None for an Event entry (a is the event); skip it
                # when cancelled, before looking at the horizon.
                if fn is None and a.cancelled:
                    continue
                if time > horizon:
                    # The earliest live entry fires beyond the horizon: its
                    # (time, sequence) key puts it back at the same place.
                    heappush(heap, entry)
                    self._now = until
                    break
                if time < now:
                    raise SimulationError(
                        f"event calendar corrupted: event at {time} earlier than now={now}"
                    )
                self._now = now = time
                if fn is None:
                    a.action()
                else:
                    fn(a, b)
                processed += 1
                if trace is not None:
                    if fn is None:
                        trace(time, "event", a.name or "anonymous", a.payload)
                    else:
                        trace(time, "event", name, None)
        finally:
            self._events_processed += processed
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request the running loop to stop after the current event."""
        self._stopped = True
