"""Tests for the sweep pivot over run records."""

import pytest

from repro.metrics.summary import MetricsSummary
from repro.results import RunRecord, SweepResult


def make_record(protocol="spms", energy=10.0, nodes=16):
    return RunRecord(
        key=f"test/num_nodes={nodes}/{protocol}",
        protocol=protocol,
        scenario="test",
        spec_fingerprint="ab" * 32,
        seed=1,
        num_nodes=nodes,
        transmission_radius_m=20.0,
        summary=MetricsSummary(
            items_generated=4,
            expected_deliveries=12,
            deliveries_completed=12,
            total_energy_uj=energy * 4,
        ),
        axes={"num_nodes": nodes},
    )


class TestSweepResult:
    def build(self):
        sweep = SweepResult(parameter="num_nodes")
        for nodes, spin_e, spms_e in ((16, 10.0, 6.0), (36, 20.0, 10.0)):
            sweep.add("spin", nodes, make_record("spin", energy=spin_e, nodes=nodes))
            sweep.add("spms", nodes, make_record("spms", energy=spms_e, nodes=nodes))
        return sweep

    def test_values_recorded_once(self):
        sweep = self.build()
        assert sweep.values == [16, 36]

    def test_series_extraction(self):
        sweep = self.build()
        assert sweep.series("spin", "energy_per_item_uj") == [10.0, 20.0]
        assert sweep.series("spms", "energy_per_item_uj") == [6.0, 10.0]
        assert sweep.series("unknown", "energy_per_item_uj") == []

    def test_rows(self):
        rows = self.build().rows("energy_per_item_uj")
        assert rows[0] == {"num_nodes": 16, "spin": 10.0, "spms": 6.0}
        assert rows[1]["spms"] == 10.0

    def test_format_table_contains_all_columns(self):
        table = self.build().format_table("energy_per_item_uj")
        assert "num_nodes" in table
        assert "spin" in table and "spms" in table
        assert len(table.splitlines()) == 4  # header + rule + 2 rows


class TestSparseSweeps:
    """Sweeps must tolerate series that do not cover every point.

    Batch fleets, multi-axis matrices and quarantined jobs legitimately
    produce series with holes; ``rows``/``format_table`` used to assume
    every protocol had a run at every value and silently misaligned the
    table instead.
    """

    def build_sparse(self):
        # spms covers 16 and 36; spin only 36 — and spin's first recorded
        # run is the 36-node one, which positional alignment would have
        # wrongly placed in the 16-node row.
        sweep = SweepResult(parameter="num_nodes")
        sweep.add("spms", 16, make_record("spms", energy=6.0, nodes=16))
        sweep.add("spms", 36, make_record("spms", energy=10.0, nodes=36))
        sweep.add("spin", 36, make_record("spin", energy=20.0, nodes=36))
        return sweep

    def test_rows_align_by_value_not_position(self):
        rows = self.build_sparse().rows("energy_per_item_uj")
        assert rows[0] == {"num_nodes": 16, "spms": 6.0}
        assert rows[1] == {"num_nodes": 36, "spms": 10.0, "spin": 20.0}

    def test_by_value_keys_records_by_their_axis(self):
        sweep = self.build_sparse()
        assert list(sweep.by_value("spin")) == [36]
        assert sweep.by_value("spms")[16].num_nodes == 16
        assert sweep.by_value("gossip") == {}

    def test_by_value_keeps_the_first_record_of_a_value(self):
        sweep = SweepResult(parameter="num_nodes")
        sweep.add("spms", 16, make_record("spms", energy=6.0, nodes=16))
        sweep.add("spms", 16, make_record("spms", energy=9.0, nodes=16))
        assert sweep.rows("energy_per_item_uj") == [{"num_nodes": 16, "spms": 6.0}]

    def test_records_must_carry_the_swept_axis(self):
        # Alignment reads record.axes[parameter]; there is no positional
        # fallback that could silently pair a record with the wrong value.
        sweep = SweepResult(parameter="transmission_radius_m")
        sweep.add("spms", 20.0, make_record("spms"))
        with pytest.raises(KeyError):
            sweep.rows("energy_per_item_uj")

    def test_format_table_renders_missing_cells_as_dashes(self):
        table = self.build_sparse().format_table("energy_per_item_uj")
        lines = table.splitlines()
        assert len(lines) == 4
        assert "-" in lines[2].split()  # spin cell at 16 nodes
        assert "20.000" in lines[3]

    def test_missing_metric_is_skipped_not_raised(self):
        rows = self.build_sparse().rows("not_a_metric")
        assert rows == [{"num_nodes": 16}, {"num_nodes": 36}]
        table = self.build_sparse().format_table("not_a_metric")
        assert table.count("-") >= 3

    def test_series_tolerates_unknown_series_name(self):
        assert self.build_sparse().series("gossip", "energy_per_item_uj") == []
