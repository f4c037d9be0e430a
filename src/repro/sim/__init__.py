"""Discrete-event simulation kernel.

This package is the substrate on which every experiment in the reproduction
runs.  It provides:

* :class:`~repro.sim.events.Event` and :class:`~repro.sim.events.EventQueue` —
  a binary-heap event calendar with stable FIFO ordering for simultaneous
  events and O(1) lazy cancellation.
* :class:`~repro.sim.engine.Simulator` — the event loop, with scheduling
  helpers, wall-clock safety limits and run-until predicates.
* :class:`~repro.sim.timers.Timer` — restartable, cancellable timers used to
  implement the protocol timeouts (``tau_ADV`` and ``tau_DAT`` in the paper).
* :class:`~repro.sim.rng.RandomStreams` — named, independently seeded random
  streams so that e.g. the failure process and the workload process can be
  varied independently while keeping runs reproducible.
* :class:`~repro.sim.tracing.TraceLog` — a structured event trace used by the
  tests and by debugging tooling.

The kernel is deliberately dependency-free (no SimPy is available offline);
it is a classic event-calendar design.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RandomStreams
from repro.sim.timers import Timer
from repro.sim.tracing import TraceLog, TraceRecord

__all__ = [
    "Event",
    "EventQueue",
    "RandomStreams",
    "Simulator",
    "Timer",
    "TraceLog",
    "TraceRecord",
]
