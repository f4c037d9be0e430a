"""Tests for the paper's tables and figures (simulated ones at a tiny scale)."""

import dataclasses

import pytest

from repro.experiments import figures
from repro.experiments.figures import FIGURES, FigureScale, render
from repro.experiments.matrix import get_matrix
from repro.results import RunStore


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


@pytest.fixture
def store(tmp_path):
    return RunStore(tmp_path / "figures").open()


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


class TestFigureTable:
    def test_figures_6_to_13(self):
        assert sorted(FIGURES, key=lambda name: int(name[3:])) == [
            f"fig{n}" for n in range(6, 14)
        ]

    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_matrices_are_registered_and_share_the_swept_parameter(self, name):
        matrices = [get_matrix(m) for m in FIGURES[name].matrices]
        assert {m.parameter for m in matrices} == {matrices[0].parameter}
        # Only the added curves carry failures: they become the f- series.
        assert matrices[0].failures is None
        assert all(m.failures is not None for m in matrices[1:])


class TestSimulatedFigures:
    def test_fig6_and_fig8_share_runs(self, tiny_scale, store):
        fig6 = render("fig6", tiny_scale, store)
        stored = len(store)
        fig8 = render("fig8", tiny_scale, store)
        # Figure 8 is served from Figure 6's records: nothing new is stored.
        assert len(store) == stored == 4
        assert set(fig6.results) == {"spms", "spin"}
        assert fig6.values == fig8.values == [9, 16]
        for series in fig6.results:
            assert [r.canonical_json() for r in fig8.results[series]] == [
                r.canonical_json() for r in fig6.results[series]
            ]

    def test_fig7_and_fig9_share_runs(self, tiny_scale, store):
        fig7 = render("fig7", tiny_scale, store)
        fig9 = render("fig9", tiny_scale, store)
        assert fig7.values == fig9.values == [10.0, 15.0]
        assert len(store) == 4

    def test_a_store_serves_grid_points_two_matrices_share(self, tiny_scale, store):
        # fig06 at n = 9 and fig07 at r = 20 m are the same spec, so the
        # second figure is served the first one's run, re-stamped with its
        # own key and grid coordinate.
        scale = dataclasses.replace(tiny_scale, radii_m=(20.0,))
        fig6 = render("fig6", scale, store)
        fig7 = render("fig7", scale, store)
        for series in ("spms", "spin"):
            shared, = fig7.results[series]
            assert shared.key == f"fig07/transmission_radius_m=20/{series}"
            assert shared.axes == {"transmission_radius_m": 20.0}
            assert shared.summary == fig6.by_value(series)[9].summary

    def test_fig10_has_four_curves(self, tiny_scale):
        fig10 = render("fig10", tiny_scale)
        assert set(fig10.results) == {"spms", "spin", "f-spms", "f-spin"}
        assert len(fig10.results["f-spms"]) == 2

    def test_merged_figure_records_carry_their_swept_value(self, tiny_scale):
        # The four-curve figures pivot records from two matrices; every
        # record must sit in the row of its own grid coordinate.
        fig10 = render("fig10", tiny_scale)
        for records in fig10.results.values():
            assert [r.axes["num_nodes"] for r in records] == fig10.values
        rows = fig10.rows("average_delay_ms")
        assert all(set(row) == {"num_nodes", *fig10.results} for row in rows)

    def test_fig11_has_four_curves(self, tiny_scale):
        fig11 = render("fig11", tiny_scale)
        assert set(fig11.results) == {"spms", "spin", "f-spms", "f-spin"}

    def test_fig12_charges_routing_energy_to_spms(self, tiny_scale):
        fig12 = render("fig12", tiny_scale)
        assert all(r.routing_energy_uj > 0 for r in fig12.results["spms"])
        assert all(r.routing_energy_uj == 0 for r in fig12.results["spin"])

    def test_fig13_cluster_curves(self, tiny_scale):
        fig13 = render("fig13", tiny_scale)
        assert set(fig13.results) == {"spms", "spin", "f-spms", "f-spin"}
        assert all(r.items_generated > 0 for r in fig13.results["spms"])

    def test_a_job_without_a_record_leaves_an_empty_cell(self, tiny_scale, monkeypatch):
        # A quarantined job has no record.  Its row stays, as a hole.
        run = figures.execute_jobs

        def lose_n16(jobs, **kwargs):
            records, report = run(jobs, **kwargs)
            return {k: r for k, r in records.items() if "num_nodes=16" not in k}, report

        monkeypatch.setattr(figures, "execute_jobs", lose_n16)
        fig6 = render("fig6", tiny_scale)
        assert fig6.values == [9, 16]
        assert [set(row) for row in fig6.rows("energy_per_item_uj")] == [
            {"num_nodes", "spms", "spin"},
            {"num_nodes"},
        ]
        assert fig6.format_table("energy_per_item_uj").splitlines()[-1].split() == [
            "16", "-", "-",
        ]

    def test_scale_with_list_fields(self, tiny_scale):
        # FigureScale declares Sequence fields; a list is a sequence too.
        listed = dataclasses.replace(tiny_scale, node_counts=[9, 16], radii_m=[10.0])
        assert [j.key for j in get_matrix("fig06", scale=listed).expand()] == [
            j.key for j in get_matrix("fig06", scale=tiny_scale).expand()
        ]
        fig6 = render("fig6", listed)
        assert fig6.values == [9, 16]
        assert set(fig6.results) == {"spms", "spin"}

    def test_bench_and_paper_scales_differ(self):
        assert figures.paper_scale().packets_per_node > figures.bench_scale().packets_per_node
