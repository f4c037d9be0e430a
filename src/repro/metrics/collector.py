"""The metrics collector shared by every experiment run."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from repro.metrics.delay import DelayTracker
from repro.metrics.summary import DistributionSummary, MetricsSummary
from repro.radio.energy import EnergyLedger


class MetricsCollector:
    """Aggregates energy, delay, delivery and traffic counters for one run.

    The energy ledger and delay tracker are owned by the collector; the
    network charges energy and the protocol nodes record deliveries through
    the collector, so SPIN and SPMS are measured identically.
    """

    def __init__(self) -> None:
        self.energy = EnergyLedger()
        self.delay = DelayTracker()
        self.packets_sent: Counter = Counter()
        self.packets_received: Counter = Counter()
        self.packets_dropped: Counter = Counter()
        self.expected_deliveries: Dict[str, List[int]] = defaultdict(list)
        self.items_generated = 0

    # --------------------------------------------------------------- traffic

    def record_send(self, packet_type: str) -> None:
        """Count a packet transmission by type (``"ADV"``, ``"REQ"``, ``"DATA"``)."""
        self.packets_sent[packet_type] += 1

    def record_drop(self, reason: str) -> None:
        """Count a dropped packet by reason (failed receiver, no route, ...)."""
        self.packets_dropped[reason] += 1

    # -------------------------------------------------------------- data flow

    def record_item_generated(self, item_id: str, time_ms: float, interested: List[int]) -> None:
        """Register a new data item and the destinations expected to get it."""
        self.items_generated += 1
        self.delay.record_origin(item_id, time_ms)
        self.expected_deliveries[item_id] = list(interested)

    def record_delivery(self, item_id: str, destination: int, time_ms: float) -> None:
        """Record a completed delivery."""
        self.delay.record_delivery(item_id, destination, time_ms)

    # ---------------------------------------------------------------- results

    @property
    def total_energy_uj(self) -> float:
        """Network-wide energy consumption (microjoules)."""
        return self.energy.total

    @property
    def energy_per_item_uj(self) -> float:
        """Total energy divided by the number of generated data items.

        This is the paper's energy metric ("total energy consumption ...
        divided by the total number of packets").
        """
        if self.items_generated == 0:
            return 0.0
        return self.energy.total / self.items_generated

    @property
    def average_delay_ms(self) -> float:
        """Mean end-to-end delay across all deliveries."""
        return self.delay.average_delay_ms

    def delay_summary(self) -> DistributionSummary:
        """Distribution of per-delivery delays."""
        return self.delay.summary()

    def summarize(self) -> MetricsSummary:
        """Reduce this collector to its compact summary.

        Workers call this in-process so only the O(1) summary — not the
        O(deliveries) collector — crosses the IPC boundary.
        """
        return MetricsSummary.from_collector(self)

    @property
    def expected_delivery_count(self) -> int:
        """How many (item, destination) deliveries the workload expected."""
        return sum(len(dests) for dests in self.expected_deliveries.values())

    @property
    def delivery_ratio(self) -> float:
        """Fraction of expected deliveries that completed (1.0 when nothing
        was expected)."""
        expected = self.expected_delivery_count
        if expected == 0:
            return 1.0
        return self.delay.deliveries_completed / expected

    def undelivered(self) -> List[Tuple[str, int]]:
        """Expected deliveries that never completed."""
        return self.delay.undelivered(self.expected_deliveries)

    def energy_breakdown(self) -> Dict[str, float]:
        """Energy per ledger category (tx / rx / routing)."""
        return self.energy.per_category

    def traffic_summary(self) -> Dict[str, Dict[str, int]]:
        """Copy of the traffic counters."""
        return {
            "sent": dict(self.packets_sent),
            "received": dict(self.packets_received),
            "dropped": dict(self.packets_dropped),
        }
