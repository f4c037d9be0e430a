"""Composition of the per-transmission latency.

Following Section 4.1 of the paper::

    Delay for any transmission = MAC contention delay
                               + transmission delay of the packet
                               + processing delay at the receiver

plus, in the simulation, a random slotted backoff drawn uniformly from
``{0, ..., num_slots - 1} * slot_time_ms``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.mac.contention import ContentionModel, QuadraticContention
from repro.sim.rng import RandomStreams


@dataclass(frozen=True, slots=True)
class TransmissionTiming:
    """Breakdown of a single transmission's latency (all milliseconds)."""

    contention_ms: float
    backoff_ms: float
    airtime_ms: float
    processing_ms: float

    @property
    def sender_delay_ms(self) -> float:
        """Delay before the packet leaves the sender (access + backoff)."""
        return self.contention_ms + self.backoff_ms

    @property
    def total_ms(self) -> float:
        """End-to-end latency of this hop."""
        return self.contention_ms + self.backoff_ms + self.airtime_ms + self.processing_ms


class MacDelayModel:
    """Computes per-hop latencies.

    Args:
        contention: Channel-access contention model; defaults to the paper's
            quadratic ``G * n**2``.
        slot_time_ms: Backoff slot duration (Table 1: 0.1 ms).
        num_slots: Number of backoff slots (Table 1: 20).
        t_tx_per_byte_ms: Transmission time per byte (Table 1: 0.05 ms/byte).
        t_proc_ms: Processing delay at a receiving node (0.02 ms).
        rng: Optional random streams; when omitted the backoff is zero, which
            matches the deterministic analytical model.
    """

    BACKOFF_STREAM = "mac.backoff"

    def __init__(
        self,
        contention: Optional[ContentionModel] = None,
        slot_time_ms: float = 0.1,
        num_slots: int = 20,
        t_tx_per_byte_ms: float = 0.05,
        t_proc_ms: float = 0.02,
        rng: Optional[RandomStreams] = None,
    ) -> None:
        if slot_time_ms < 0:
            raise ValueError(f"slot time must be non-negative, got {slot_time_ms}")
        if num_slots < 1:
            raise ValueError(f"need at least one slot, got {num_slots}")
        if t_tx_per_byte_ms <= 0:
            raise ValueError(f"t_tx_per_byte_ms must be positive, got {t_tx_per_byte_ms}")
        if t_proc_ms < 0:
            raise ValueError(f"processing delay must be non-negative, got {t_proc_ms}")
        self.contention = contention if contention is not None else QuadraticContention()
        self.slot_time_ms = slot_time_ms
        self.num_slots = num_slots
        self.t_tx_per_byte_ms = t_tx_per_byte_ms
        self.t_proc_ms = t_proc_ms
        self.rng = rng

    def backoff_window(self, contenders: Optional[int] = None) -> int:
        """How many slots the backoff draws from; 1 means it draws nothing.

        The contention window scales with the number of contenders — a node
        alone on the channel barely backs off, a node in a crowded zone backs
        off over the full window — mirroring how CSMA/CA windows grow under
        congestion and consistent with the paper's ``G n**2`` access-delay
        reasoning.  The window never exceeds ``num_slots``, and is 1 when no
        RNG is attached.
        """
        if self.rng is None:
            return 1
        if contenders is None:
            return self.num_slots
        if contenders < 0:
            raise ValueError(f"contenders must be non-negative, got {contenders}")
        return max(1, min(self.num_slots, contenders))

    def backoff_ms(self, contenders: Optional[int] = None) -> float:
        """Draw a random slotted backoff over :meth:`backoff_window` slots.

        A one-slot window (which includes having no RNG) draws nothing and
        returns 0.
        """
        window = self.backoff_window(contenders)
        if window <= 1:
            return 0.0
        # ``randrange(window)`` and ``randint(0, window - 1)`` both make one
        # ``_randbelow(window)`` draw, so the stream advances identically.
        return self.rng.stream(self.BACKOFF_STREAM).randrange(window) * self.slot_time_ms

    def airtime_ms(self, size_bytes: int) -> float:
        """Time on air for *size_bytes*."""
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        return size_bytes * self.t_tx_per_byte_ms

    def delay_parts(self, size_bytes: int, contenders: int) -> Tuple[float, float, float]:
        """``(contention_ms, airtime_ms, processing_ms)``: :meth:`timing` without a backoff.

        Contention and airtime are pure functions of ``(size_bytes,
        contenders)`` (purity is part of the
        :class:`~repro.mac.contention.ContentionModel` contract), so the
        network's link table reads them once per (sender, power level, packet
        size) and draws each backoff itself over :meth:`backoff_window`
        slots, the same draw :meth:`backoff_ms` makes.
        """
        return (
            self.contention.access_delay_ms(contenders),
            self.airtime_ms(size_bytes),
            self.t_proc_ms,
        )

    def timing(self, size_bytes: int, contenders: int) -> TransmissionTiming:
        """Latency breakdown for one transmission, with a fresh backoff draw.

        Args:
            size_bytes: Packet size.
            contenders: Number of nodes within the transmission radius used,
                i.e. the nodes competing for the channel.
        """
        contention_ms, airtime_ms, processing_ms = self.delay_parts(size_bytes, contenders)
        return TransmissionTiming(
            contention_ms=contention_ms,
            backoff_ms=self.backoff_ms(contenders),
            airtime_ms=airtime_ms,
            processing_ms=processing_ms,
        )
