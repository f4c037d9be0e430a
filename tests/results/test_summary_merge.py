"""Equivalence of summary-level and collector-level merging.

The executor used to ship whole ``MetricsCollector`` objects across the IPC
boundary and fold them with :meth:`MetricsCollector.merge`; it now reduces to
:class:`MetricsSummary` in-process and folds summaries.  The property pinned
here is that the two orders commute: *summarize-then-merge* equals
*merge-then-summarize* — exactly for every counter, count, minimum and
maximum, and up to floating-point rounding for the moment-derived statistics
(mean, standard deviation, energy totals).  The merged *median* is an
explicit approximation (a union's median is not recoverable from two
summaries) and is deliberately not compared.
"""

import pytest
from hypothesis import example, given, settings
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


#: One identical delay in both halves: its merged spread must stay zero.
_CONSTANT_DELAY = {
    "items": [([(0, 244.42176158253824)], 0)],
    "charges": [],
    "sent": {},
    "dropped": {},
}


class TestMergeEquivalence:
    @given(data_a=collector_data, data_b=collector_data)
    @example(
        data_a=_CONSTANT_DELAY,
        data_b={**_CONSTANT_DELAY, "items": _CONSTANT_DELAY["items"] * 2},
    )
    @settings(max_examples=80, deadline=None)
    def test_summarize_then_merge_matches_merge_then_summarize(self, data_a, data_b):
        a, b = build_collector(data_a), build_collector(data_b)
        summary_merged = a.summarize().merge(b.summarize())

        merged = MetricsCollector()
        merged.merge(a, item_prefix="a/")
        merged.merge(b, item_prefix="b/")
        collector_merged = merged.summarize()

        # Exact: every counter and count.
        assert summary_merged.items_generated == collector_merged.items_generated
        assert summary_merged.expected_deliveries == collector_merged.expected_deliveries
        assert summary_merged.deliveries_completed == collector_merged.deliveries_completed
        assert summary_merged.packets_sent == collector_merged.packets_sent
        assert summary_merged.packets_received == collector_merged.packets_received
        assert summary_merged.packets_dropped == collector_merged.packets_dropped
        assert summary_merged.delay.count == collector_merged.delay.count
        assert summary_merged.delay.minimum == collector_merged.delay.minimum
        assert summary_merged.delay.maximum == collector_merged.delay.maximum

        # Up to floating-point rounding: the moment-derived statistics.
        assert summary_merged.total_energy_uj == pytest.approx(
            collector_merged.total_energy_uj
        )
        assert summary_merged.energy_breakdown_uj == pytest.approx(
            collector_merged.energy_breakdown_uj
        )
        assert summary_merged.delay.mean == pytest.approx(
            collector_merged.delay.mean, abs=1e-9
        )
        assert summary_merged.delay.stddev == pytest.approx(
            collector_merged.delay.stddev, abs=1e-6
        )
        assert summary_merged.delivery_ratio == pytest.approx(
            collector_merged.delivery_ratio
        )

    @given(data=collector_data)
    @settings(max_examples=30, deadline=None)
    def test_merging_an_empty_summary_is_identity(self, data):
        summary = build_collector(data).summarize()
        assert summary.merge(MetricsSummary()) == summary
        assert MetricsSummary().merge(summary) == summary


class TestDistributionMerge:
    def test_merge_of_disjoint_samples_matches_summarize(self):
        left, right = [1.0, 2.0, 3.0], [10.0, 20.0]
        merged = summarize(left).merge(summarize(right))
        full = summarize(left + right)
        assert merged.count == full.count
        assert merged.minimum == full.minimum
        assert merged.maximum == full.maximum
        assert merged.mean == pytest.approx(full.mean)
        assert merged.stddev == pytest.approx(full.stddev)

    def test_empty_sides_are_identities(self):
        sample = summarize([4.0, 5.0])
        empty = DistributionSummary.empty()
        assert sample.merge(empty) == sample
        assert empty.merge(sample) == sample
        assert empty.merge(empty) == empty

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
