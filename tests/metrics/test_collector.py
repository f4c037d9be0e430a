"""Tests for the metrics collector."""

import pytest

from repro.metrics.collector import MetricsCollector


class TestMetricsCollector:
    def test_energy_per_item(self):
        metrics = MetricsCollector()
        metrics.record_item_generated("a", 0.0, [1, 2])
        metrics.record_item_generated("b", 1.0, [1])
        metrics.energy.charge(0, 30.0, "tx")
        assert metrics.energy_per_item_uj == pytest.approx(15.0)
        assert metrics.total_energy_uj == pytest.approx(30.0)

    def test_energy_per_item_zero_when_no_items(self):
        metrics = MetricsCollector()
        metrics.energy.charge(0, 5.0)
        assert metrics.energy_per_item_uj == 0.0

    def test_delivery_ratio(self):
        metrics = MetricsCollector()
        metrics.record_item_generated("a", 0.0, [1, 2, 3])
        metrics.record_delivery("a", 1, 1.0)
        metrics.record_delivery("a", 2, 2.0)
        assert metrics.expected_delivery_count == 3
        assert metrics.delivery_ratio == pytest.approx(2 / 3)
        assert metrics.undelivered() == [("a", 3)]

    def test_delivery_ratio_with_no_expectations_is_one(self):
        assert MetricsCollector().delivery_ratio == 1.0

    def test_traffic_counters(self):
        metrics = MetricsCollector()
        metrics.record_send("ADV")
        metrics.record_send("ADV")
        metrics.packets_received["ADV"] += 1  # as Network counts a reception
        metrics.record_drop("receiver_failed")
        summary = metrics.traffic_summary()
        assert summary["sent"]["ADV"] == 2
        assert summary["received"]["ADV"] == 1
        assert summary["dropped"]["receiver_failed"] == 1

    def test_average_delay_and_summary(self):
        metrics = MetricsCollector()
        metrics.record_item_generated("a", 0.0, [1, 2])
        metrics.record_delivery("a", 1, 4.0)
        metrics.record_delivery("a", 2, 6.0)
        assert metrics.average_delay_ms == pytest.approx(5.0)
        assert metrics.delay_summary().maximum == pytest.approx(6.0)

    def test_energy_breakdown(self):
        metrics = MetricsCollector()
        metrics.energy.charge(0, 1.0, "tx")
        metrics.energy.charge(0, 2.0, "rx")
        metrics.energy.charge(1, 3.0, "routing")
        assert metrics.energy_breakdown() == {"tx": 1.0, "rx": 2.0, "routing": 3.0}
