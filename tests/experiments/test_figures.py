"""Tests for the per-figure experiment generators (at a tiny scale)."""

import pytest

from repro.experiments import figures
from repro.experiments.figures import FigureScale


@pytest.fixture
def tiny_scale():
    return FigureScale(
        node_counts=(9, 16),
        radii_m=(10.0, 15.0),
        fixed_num_nodes=9,
        packets_per_node=1,
        mobility_packets_per_node=1,
        cluster_packets_per_member=1,
        arrival_mean_interarrival_ms=5.0,
        seed=5,
    )


@pytest.fixture(autouse=True)
def clear_cache():
    figures.clear_figure_cache()
    yield
    figures.clear_figure_cache()


class TestAnalyticalFigures:
    def test_table1(self):
        params = figures.table1_parameters()
        assert params["power_levels_mw"][0] == 3.1622

    def test_figure3(self):
        series = figures.figure3_delay_ratio([5.0, 20.0])
        assert len(series) == 2
        assert series[1][1] > series[0][1]

    def test_figure5(self):
        series = figures.figure5_energy_ratio(range(1, 6))
        assert series[0][1] == pytest.approx(1.0)
        assert series[-1][1] > series[0][1]


class TestSimulatedFigures:
    def test_figure6_and_8_share_runs(self, tiny_scale):
        fig6 = figures.figure6_energy_vs_nodes(tiny_scale)
        fig8 = figures.figure8_delay_vs_nodes(tiny_scale)
        assert fig6 is fig8
        assert set(fig6.results) == {"spms", "spin"}
        assert fig6.values == [9, 16]

    def test_figure7_and_9_share_runs(self, tiny_scale):
        fig7 = figures.figure7_energy_vs_radius(tiny_scale)
        fig9 = figures.figure9_delay_vs_radius(tiny_scale)
        assert fig7 is fig9
        assert fig7.values == [10.0, 15.0]

    def test_figure10_has_four_curves(self, tiny_scale):
        fig10 = figures.figure10_delay_failures_vs_nodes(tiny_scale)
        assert set(fig10.results) == {"spms", "spin", "f-spms", "f-spin"}
        assert len(fig10.results["f-spms"]) == 2

    def test_merged_figure_records_carry_their_swept_value(self, tiny_scale):
        # The merged four-curve figures pivot records from two matrices;
        # every record must sit in the row of its own grid coordinate.
        fig10 = figures.figure10_delay_failures_vs_nodes(tiny_scale)
        for records in fig10.results.values():
            assert [r.axes["num_nodes"] for r in records] == fig10.values
        rows = fig10.rows("average_delay_ms")
        assert all(set(row) == {"num_nodes", *fig10.results} for row in rows)

    def test_figure11_has_four_curves(self, tiny_scale):
        fig11 = figures.figure11_delay_failures_vs_radius(tiny_scale)
        assert set(fig11.results) == {"spms", "spin", "f-spms", "f-spin"}

    def test_figure12_charges_routing_energy_to_spms(self, tiny_scale):
        fig12 = figures.figure12_energy_mobility(tiny_scale)
        assert all(r.routing_energy_uj > 0 for r in fig12.results["spms"])
        assert all(r.routing_energy_uj == 0 for r in fig12.results["spin"])

    def test_figure13_cluster_curves(self, tiny_scale):
        fig13 = figures.figure13_energy_cluster(tiny_scale)
        assert set(fig13.results) == {"spms", "spin", "f-spms", "f-spin"}
        assert all(r.items_generated > 0 for r in fig13.results["spms"])

    def test_bench_and_paper_scales_differ(self):
        assert figures.paper_scale().packets_per_node > figures.bench_scale().packets_per_node
