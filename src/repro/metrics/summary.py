"""Statistics helpers and the compact per-run metrics summary.

:class:`DistributionSummary` condenses a sample into its headline statistics;
:class:`MetricsSummary` condenses a whole
:class:`~repro.metrics.collector.MetricsCollector` into the counters the
results layer needs.  Both are small, frozen and JSON-round-trippable:
worker processes reduce their collector to a summary in-process and ship
only the summary over IPC, so the per-job payload is O(1) instead of
O(deliveries).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Sequence

from repro.codec import decode


@dataclass(frozen=True)
class DistributionSummary:
    """Summary statistics of a sample.

    Attributes:
        count: Number of observations.
        mean: Arithmetic mean (0 for an empty sample).
        minimum: Smallest observation (0 for an empty sample).
        maximum: Largest observation (0 for an empty sample).
        stddev: Population standard deviation (0 for fewer than 2 samples).
        median: 50th percentile (0 for an empty sample).
    """

    count: int
    mean: float
    minimum: float
    maximum: float
    stddev: float
    median: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DistributionSummary":
        """Inverse of :meth:`to_dict` (strict: see :mod:`repro.codec`)."""
        return decode(cls, data, ValueError, "distribution summary")

    @classmethod
    def empty(cls) -> "DistributionSummary":
        """The summary of an empty sample."""
        return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already sorted sample.

    Args:
        sorted_values: Sample sorted ascending (must be non-empty).
        q: Percentile in ``[0, 100]``.
    """
    if not sorted_values:
        raise ValueError("cannot take a percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return sorted_values[int(rank)]
    low, high = sorted_values[lower], sorted_values[upper]
    if low == high:
        # Interpolating between equal values must return that value exactly.
        # The weighted form below does for normal floats (x*0.5 + x*0.5 == x)
        # but not for subnormals, where the halving rounds.
        return low
    weight = rank - lower
    return low * (1.0 - weight) + high * weight


def summarize(values: Iterable[float]) -> DistributionSummary:
    """Compute :class:`DistributionSummary` for *values*."""
    data = sorted(values)
    if not data:
        return DistributionSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    count = len(data)
    mean = sum(data) / count
    variance = sum((x - mean) ** 2 for x in data) / count
    return DistributionSummary(
        count=count,
        mean=mean,
        minimum=data[0],
        maximum=data[-1],
        stddev=math.sqrt(variance),
        median=percentile(data, 50.0),
    )


# ---------------------------------------------------------- metrics summary


@dataclass(frozen=True)
class MetricsSummary:
    """Compact reduction of one run's :class:`MetricsCollector`.

    This is the payload the parallel executor ships between processes and the
    metrics half of every :class:`~repro.results.RunRecord`: traffic counters,
    the energy breakdown, delivery bookkeeping and the delay distribution —
    everything the reports need, nothing proportional to the traffic volume.

    Attributes:
        items_generated: Data items originated by the workload.
        expected_deliveries: (item, destination) pairs the workload expected.
        deliveries_completed: How many of those completed.
        total_energy_uj: Network-wide energy (microjoules).
        energy_breakdown_uj: Energy per ledger category (tx / rx / routing).
        packets_sent: Transmissions per packet type.
        packets_received: Receptions per packet type.
        packets_dropped: Drops per reason.
        delay: Distribution of per-delivery end-to-end delays (ms).
    """

    items_generated: int = 0
    expected_deliveries: int = 0
    deliveries_completed: int = 0
    total_energy_uj: float = 0.0
    energy_breakdown_uj: Dict[str, float] = field(default_factory=dict)
    packets_sent: Dict[str, int] = field(default_factory=dict)
    packets_received: Dict[str, int] = field(default_factory=dict)
    packets_dropped: Dict[str, int] = field(default_factory=dict)
    delay: DistributionSummary = field(default_factory=DistributionSummary.empty)

    # ------------------------------------------------------- derived metrics

    @property
    def energy_per_item_uj(self) -> float:
        """Total energy / items generated — the paper's energy metric."""
        if self.items_generated == 0:
            return 0.0
        return self.total_energy_uj / self.items_generated

    @property
    def average_delay_ms(self) -> float:
        """Mean end-to-end delay over completed deliveries."""
        return self.delay.mean

    @property
    def delivery_ratio(self) -> float:
        """Completed / expected deliveries (1.0 when nothing was expected)."""
        if self.expected_deliveries == 0:
            return 1.0
        return self.deliveries_completed / self.expected_deliveries

    # ---------------------------------------------------------- construction

    @classmethod
    def from_collector(cls, collector) -> "MetricsSummary":
        """Reduce a :class:`~repro.metrics.collector.MetricsCollector`.

        This is the in-process reduction workers perform before shipping
        results over IPC — the summary is exact for every field (the delay
        distribution is computed from the raw per-delivery delays).
        """
        return cls(
            items_generated=collector.items_generated,
            expected_deliveries=collector.expected_delivery_count,
            deliveries_completed=collector.delay.deliveries_completed,
            total_energy_uj=collector.total_energy_uj,
            energy_breakdown_uj=collector.energy_breakdown(),
            packets_sent=dict(collector.packets_sent),
            packets_received=dict(collector.packets_received),
            packets_dropped=dict(collector.packets_dropped),
            delay=collector.delay_summary(),
        )

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary representation (nested delay summary)."""
        data = dataclasses.asdict(self)
        data["delay"] = self.delay.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSummary":
        """Inverse of :meth:`to_dict` (strict: see :mod:`repro.codec`)."""
        return decode(cls, data, ValueError, "metrics summary")
