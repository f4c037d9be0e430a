"""Cancellable, restartable timers.

The SPMS protocol is built around two timers per outstanding data item:
``tau_ADV`` (wait for a closer node to advertise) and ``tau_DAT`` (wait for
requested data).  :class:`Timer` wraps event scheduling with the
start/cancel/restart life cycle those timers need.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event


class Timer:
    """A one-shot timer bound to a simulator.

    The timer is created idle; :meth:`start` schedules its expiry callback,
    :meth:`cancel` aborts it, and :meth:`restart` is cancel-then-start.

    Args:
        sim: Owning simulator.
        timeout: Default duration used when :meth:`start` is called without an
            explicit duration.
        callback: Invoked when the timer expires.
        name: Label used in traces.
    """

    def __init__(
        self,
        sim: Simulator,
        timeout: float,
        callback: Callable[[], None],
        name: str = "timer",
    ) -> None:
        if not timeout >= 0:
            raise ValueError(f"timeout must be non-negative and not NaN, got {timeout}")
        self._sim = sim
        self.timeout = timeout
        self._callback = callback
        self.name = name
        self._event: Optional[Event] = None
        self.expirations = 0
        self.starts = 0
        self.cancellations = 0

    # ------------------------------------------------------------------ state

    @property
    def running(self) -> bool:
        """Whether the timer is currently armed."""
        return self._event is not None and not self._event.cancelled

    @property
    def expires_at(self) -> Optional[float]:
        """Absolute expiry time if armed, else ``None``."""
        if self.running:
            assert self._event is not None
            return self._event.time
        return None

    # ---------------------------------------------------------------- control

    def start(self, duration: Optional[float] = None) -> None:
        """Arm the timer.  Raises if it is already running, and (through
        :meth:`Simulator.schedule`) if *duration* is negative or NaN."""
        if self.running:
            raise RuntimeError(f"timer {self.name!r} is already running")
        self._event = self._sim.schedule(
            self.timeout if duration is None else duration,
            self._expire,
            name=self.name,
        )
        self.starts += 1

    def cancel(self) -> None:
        """Disarm the timer; no-op if it is not running."""
        if self.running:
            assert self._event is not None
            self._event.cancel()
            self.cancellations += 1
        self._event = None

    def restart(self, duration: Optional[float] = None) -> None:
        """Cancel (if needed) and start again."""
        self.cancel()
        self.start(duration)

    def _expire(self) -> None:
        self._event = None
        self.expirations += 1
        self._callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"expires_at={self.expires_at}" if self.running else "idle"
        return f"Timer({self.name!r}, timeout={self.timeout}, {state})"
