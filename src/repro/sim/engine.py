"""The discrete-event simulation loop.

:class:`Simulator` owns the event calendar, the simulation clock and the named
random streams.  Protocol code never advances the clock directly; it only
schedules callbacks relative to ``now``.
"""

from __future__ import annotations

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
        """Number of live events still in the calendar."""
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

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event."""
        event.cancel()

    # ------------------------------------------------------------------- run

    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop.

        Args:
            until: Stop once the clock would pass this time (events exactly at
                ``until`` still fire).

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        queue = self._queue
        # One fused heap traversal per event via pop_due, and the processed
        # counter flushed once; tracing costs one check per event when off.
        pop_due = queue.pop_due
        trace = self.trace_log.record if self.trace_enabled else None
        processed = 0
        try:
            while not self._stopped:
                event = pop_due(until)
                if event is None:
                    # bool(queue) is O(1): live events remain, so the
                    # earliest one fires beyond the horizon.
                    if until is not None and queue:
                        self._now = until
                    break
                time = event.time
                if time < self._now:
                    raise SimulationError(
                        f"event calendar corrupted: event at {time} "
                        f"earlier than now={self._now}"
                    )
                self._now = time
                # pop_due only returns live events and nothing runs between
                # pop and fire, so invoke the action directly.
                event.action()
                processed += 1
                if trace is not None:
                    trace(time, "event", event.name or "anonymous", event.payload)
        finally:
            self._events_processed += processed
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request the running loop to stop after the current event."""
        self._stopped = True
