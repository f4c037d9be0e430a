"""Per-run metrics summaries: the reduction workers ship and records carry.

A :class:`MetricsSummary` round-trips through its dictionary form exactly,
for any collector activity, and both summary types reject unknown keys.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import DistributionSummary, MetricsSummary, summarize

# --------------------------------------------------------------- strategies

delays = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)

#: One collector's worth of activity: items with their deliveries, energy
#: charges, and traffic counters.
collector_data = st.fixed_dictionaries(
    {
        "items": st.lists(
            st.tuples(
                st.lists(  # deliveries: (destination, delay) pairs
                    st.tuples(st.integers(0, 30), delays), max_size=4
                ),
                st.integers(0, 5),  # extra expected destinations never delivered
            ),
            max_size=5,
        ),
        "charges": st.lists(
            st.tuples(
                st.integers(0, 20),
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                st.sampled_from(("tx", "rx", "routing")),
            ),
            max_size=8,
        ),
        "sent": st.dictionaries(
            st.sampled_from(("ADV", "REQ", "DATA")), st.integers(1, 50), max_size=3
        ),
        "dropped": st.dictionaries(
            st.sampled_from(("failed", "no_route")), st.integers(1, 20), max_size=2
        ),
    }
)


def build_collector(data) -> MetricsCollector:
    collector = MetricsCollector()
    for index, (deliveries, extra_expected) in enumerate(data["items"]):
        item_id = f"item-{index}"
        interested = sorted(
            {dest for dest, _ in deliveries}
            | {100 + n for n in range(extra_expected)}
        )
        collector.record_item_generated(item_id, 0.0, interested)
        seen = set()
        for dest, delay in deliveries:
            if dest in seen:
                continue
            seen.add(dest)
            collector.record_delivery(item_id, dest, delay)
    for node, energy, category in data["charges"]:
        collector.energy.charge(node, energy, category=category)
    for packet_type, count in data["sent"].items():
        for _ in range(count):
            collector.record_send(packet_type)
    for reason, count in data["dropped"].items():
        for _ in range(count):
            collector.record_drop(reason)
    return collector


class TestDistributionSummary:
    def test_round_trip(self):
        sample = summarize([1.0, 2.0, 9.0])
        assert DistributionSummary.from_dict(sample.to_dict()) == sample

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="p99"):
            DistributionSummary.from_dict({"p99": 1.0})


class TestSummarySerialization:
    @given(data=collector_data)
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, data):
        summary = build_collector(data).summarize()
        assert MetricsSummary.from_dict(summary.to_dict()) == summary

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="energy_total"):
            MetricsSummary.from_dict({"energy_total": 1.0})
