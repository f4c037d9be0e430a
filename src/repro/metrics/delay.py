"""End-to-end delay tracking.

The paper measures delay "from the time the ADV packet is sent out by the
source to the time that the data packet is received at the destination" and
plots the average across all packets.  :class:`DelayTracker` records the ADV
time once per data item (at the original source) and one delivery time per
interested destination.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.metrics.summary import DistributionSummary, summarize


class DelayTracker:
    """Records origination and delivery times for data items."""

    def __init__(self) -> None:
        self._origin_times: Dict[str, float] = {}
        self._deliveries: Dict[Tuple[str, int], float] = {}

    # -------------------------------------------------------------- recording

    def record_origin(self, item_id: str, time_ms: float) -> None:
        """Record that the source broadcast the first ADV for *item_id*."""
        if item_id in self._origin_times:
            return
        self._origin_times[item_id] = time_ms

    def record_delivery(self, item_id: str, destination: int, time_ms: float) -> None:
        """Record that *destination* received the data for *item_id*.

        Only the first delivery per (item, destination) pair counts; duplicate
        receptions (which should not happen, but the metric must not hide
        them) are ignored for delay purposes.
        """
        key = (item_id, destination)
        if key in self._deliveries:
            return
        if item_id not in self._origin_times:
            raise ValueError(f"delivery recorded before origin for item {item_id!r}")
        self._deliveries[key] = time_ms

    # ---------------------------------------------------------------- queries

    @property
    def items_originated(self) -> int:
        """Number of distinct data items originated."""
        return len(self._origin_times)

    @property
    def deliveries_completed(self) -> int:
        """Number of (item, destination) deliveries recorded."""
        return len(self._deliveries)

    def delay_of(self, item_id: str, destination: int) -> Optional[float]:
        """Delay of a specific delivery, or ``None`` if not delivered."""
        delivered_at = self._deliveries.get((item_id, destination))
        if delivered_at is None:
            return None
        return delivered_at - self._origin_times[item_id]

    def all_delays(self) -> List[float]:
        """Every recorded per-delivery delay."""
        return [
            time_ms - self._origin_times[item_id]
            for (item_id, _dest), time_ms in self._deliveries.items()
        ]

    def summary(self) -> DistributionSummary:
        """Distribution summary of all per-delivery delays."""
        return summarize(self.all_delays())

    @property
    def average_delay_ms(self) -> float:
        """Mean per-delivery delay (0 when nothing was delivered)."""
        delays = self.all_delays()
        return sum(delays) / len(delays) if delays else 0.0

    def undelivered(self, expected: Dict[str, List[int]]) -> List[Tuple[str, int]]:
        """Which expected (item, destination) pairs never completed.

        Args:
            expected: Mapping of item id to the destinations that wanted it.
        """
        missing = []
        for item_id, destinations in expected.items():
            for dest in destinations:
                if (item_id, dest) not in self._deliveries:
                    missing.append((item_id, dest))
        return missing
