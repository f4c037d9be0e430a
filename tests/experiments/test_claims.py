"""Tests for the headline-claim evaluation helpers."""

import pytest

from repro.experiments.claims import (
    ClaimCheck,
    delay_ratio,
    delay_ratios_across,
    energy_saving_percent,
    energy_savings_across,
    evaluate_headline_claims,
    format_claims,
)
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import assemble_sweep, execute_jobs
from repro.experiments.matrix import matrix_from_axes
from repro.metrics.summary import DistributionSummary, MetricsSummary
from repro.results import RunRecord, SweepResult


def result(protocol, energy, delay, value=16):
    return RunRecord(
        key=f"s/num_nodes={value}/{protocol}",
        protocol=protocol,
        scenario="s",
        spec_fingerprint="ab" * 32,
        seed=1,
        num_nodes=16,
        transmission_radius_m=20.0,
        summary=MetricsSummary(
            items_generated=10,
            expected_deliveries=100,
            deliveries_completed=100,
            total_energy_uj=energy * 10,
            delay=DistributionSummary(100, delay, delay, delay, 0.0, delay),
        ),
        axes={"num_nodes": value},
    )


def sweep(pairs):
    out = SweepResult(parameter="num_nodes")
    for index, (spin_e, spms_e, spin_d, spms_d) in enumerate(pairs):
        out.add("spin", index, result("spin", spin_e, spin_d, value=index))
        out.add("spms", index, result("spms", spms_e, spms_d, value=index))
    return out


class TestClaimHelpers:
    def test_energy_saving_percent(self):
        assert energy_saving_percent(result("spin", 100, 1), result("spms", 70, 1)) == pytest.approx(30.0)

    def test_energy_saving_zero_spin_energy(self):
        assert energy_saving_percent(result("spin", 0, 1), result("spms", 10, 1)) == 0.0

    def test_delay_ratio(self):
        assert delay_ratio(result("spin", 1, 30.0), result("spms", 1, 10.0)) == pytest.approx(3.0)

    def test_delay_ratio_zero_spms_delay(self):
        assert delay_ratio(result("spin", 1, 5.0), result("spms", 1, 0.0)) == float("inf")
        assert delay_ratio(result("spin", 1, 0.0), result("spms", 1, 0.0)) == 1.0

    def test_across_helpers(self):
        s = sweep([(100, 70, 30, 10), (200, 120, 50, 20)])
        assert energy_savings_across(s) == pytest.approx([30.0, 40.0])
        assert delay_ratios_across(s) == pytest.approx([3.0, 2.5])

    def test_pairs_skip_values_missing_on_either_side(self):
        s = SweepResult(parameter="num_nodes")
        s.add("spin", 9, result("spin", 100, 30, value=9))
        s.add("spms", 9, result("spms", 70, 10, value=9))
        s.add("spms", 16, result("spms", 1, 1, value=16))  # no SPIN run at 16
        s.add("spin", 25, result("spin", 200, 50, value=25))
        s.add("spin", 36, result("spin", 1, 1, value=36))  # no SPMS run at 36
        s.add("spms", 25, result("spms", 120, 20, value=25))
        assert energy_savings_across(s) == pytest.approx([30.0, 40.0])
        assert delay_ratios_across(s) == pytest.approx([3.0, 2.5])

    def test_holed_sweep_pairs_by_swept_value(self):
        # A quarantined job leaves a hole in one series.  Every other point
        # must still pair SPIN and SPMS runs of the same node count, not
        # shift SPIN's later runs onto SPMS's earlier ones.
        jobs = matrix_from_axes(
            "claims-holes",
            "num_nodes",
            (9, 16, 25),
            base_config=SimulationConfig(
                num_nodes=9,
                packets_per_node=1,
                transmission_radius_m=15.0,
                grid_spacing_m=5.0,
                seed=3,
            ),
            seed_policy="shared",
        ).expand()
        records, _ = execute_jobs(jobs)
        full = assemble_sweep(jobs, records)
        del records["claims-holes/num_nodes=16/spin"]
        holed = assemble_sweep(jobs, records)
        savings = energy_savings_across(full)
        ratios = delay_ratios_across(full)
        assert energy_savings_across(holed) == [savings[0], savings[2]]
        assert delay_ratios_across(holed) == [ratios[0], ratios[2]]


class TestEvaluateHeadlineClaims:
    def test_all_claims_hold_for_winning_spms(self):
        winning = sweep([(100, 70, 30, 10), (200, 120, 50, 20)])
        checks = evaluate_headline_claims(winning, winning, winning)
        assert len(checks) == 4
        assert all(isinstance(c, ClaimCheck) for c in checks)
        assert all(c.holds for c in checks)

    def test_claims_fail_when_spms_loses(self):
        losing = sweep([(70, 100, 10, 30)])
        checks = evaluate_headline_claims(losing, losing, losing)
        assert not any(c.holds for c in checks)

    def test_format_claims_mentions_status(self):
        winning = sweep([(100, 70, 30, 10)])
        text = format_claims(evaluate_headline_claims(winning, winning, winning))
        assert "HOLDS" in text
        assert "energy" in text
