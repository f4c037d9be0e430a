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
from typing import Dict, Optional, Tuple

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
        # The same handful of (size, contenders) pairs recurs across every
        # transmission of a run, so the deterministic timing components are
        # memoised.  The random backoff is *never* memoised: each call must
        # draw from the RNG stream exactly as an unmemoised model would, or
        # metrics stop being byte-identical.
        self._deterministic_memo: Dict[Tuple[int, int], Tuple[float, float, float]] = {}
        self._timing_memo: Dict[Tuple[int, int], TransmissionTiming] = {}
        # The backoff stream object, resolved once: every backoff draws from
        # the same named stream, so the registry lookup is paid only on the
        # first draw.  Safe across RandomStreams.reset(), which re-seeds
        # stream objects in place.
        self._backoff_stream = None

    def backoff_ms(self, contenders: Optional[int] = None) -> float:
        """Draw a random slotted backoff (0 when no RNG is attached).

        The contention window scales with the number of contenders — a node
        alone on the channel barely backs off, a node in a crowded zone backs
        off over the full window — mirroring how CSMA/CA windows grow under
        congestion and consistent with the paper's ``G n**2`` access-delay
        reasoning.  The window never exceeds ``num_slots``.
        """
        if self.rng is None:
            return 0.0
        if contenders is None:
            window = self.num_slots
        else:
            if contenders < 0:
                raise ValueError(f"contenders must be non-negative, got {contenders}")
            window = max(1, min(self.num_slots, contenders))
        if window <= 1:
            return 0.0
        stream = self._backoff_stream
        if stream is None:
            stream = self.rng.stream(self.BACKOFF_STREAM)
            self._backoff_stream = stream
        # ``randrange(window)`` and ``randint(0, window - 1)`` both make one
        # ``_randbelow(window)`` draw, so the stream advances identically;
        # randrange skips randint's extra frame.
        return stream.randrange(window) * self.slot_time_ms

    def airtime_ms(self, size_bytes: int) -> float:
        """Time on air for *size_bytes*."""
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        return size_bytes * self.t_tx_per_byte_ms

    def delay_parts(self, size_bytes: int, contenders: int) -> Tuple[float, float, float]:
        """Memoised ``(contention_ms, airtime_ms, processing_ms)`` tuple.

        The deterministic components of :meth:`timing` without the random
        backoff and without constructing a :class:`TransmissionTiming` — the
        transmission hot path draws the backoff separately (exactly one
        :meth:`backoff_ms` call, preserving the RNG stream) and adds the
        parts inline.
        """
        key = (size_bytes, contenders)
        parts = self._deterministic_memo.get(key)
        if parts is None:
            parts = (
                self.contention.access_delay_ms(contenders),
                self.airtime_ms(size_bytes),
                self.t_proc_ms,
            )
            self._deterministic_memo[key] = parts
        return parts

    def timing(self, size_bytes: int, contenders: int) -> TransmissionTiming:
        """Latency breakdown for one transmission (memoised hot path).

        Contention and airtime are pure functions of ``(size_bytes,
        contenders)`` — purity is part of the
        :class:`~repro.mac.contention.ContentionModel` contract — and are
        cached after the first computation; with no RNG attached the whole
        (immutable) breakdown is cached.  With an RNG the backoff is drawn
        fresh on every call, preserving the exact draw sequence of an
        unmemoised model.

        Args:
            size_bytes: Packet size.
            contenders: Number of nodes within the transmission radius used,
                i.e. the nodes competing for the channel.
        """
        key = (size_bytes, contenders)
        if self.rng is None:
            cached = self._timing_memo.get(key)
            if cached is None:
                cached = TransmissionTiming(
                    contention_ms=self.contention.access_delay_ms(contenders),
                    backoff_ms=self.backoff_ms(contenders),
                    airtime_ms=self.airtime_ms(size_bytes),
                    processing_ms=self.t_proc_ms,
                )
                self._timing_memo[key] = cached
            return cached
        contention_ms, airtime_ms, processing_ms = self.delay_parts(size_bytes, contenders)
        return TransmissionTiming(
            contention_ms=contention_ms,
            backoff_ms=self.backoff_ms(contenders),
            airtime_ms=airtime_ms,
            processing_ms=processing_ms,
        )
