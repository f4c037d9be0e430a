"""Headline claims from the abstract and Section 5.

* Static failure-free all-to-all: SPMS uses 26-43 % less energy (about 30 %
  on average) and delivers data roughly an order of magnitude faster.
* With mobility the energy saving drops to 5-21 %.
* Cluster-based hierarchical traffic: SPMS uses 35-59 % less energy.

This benchmark renders Figures 6, 12 and 13 from the session's run store
(after the figure benchmarks, every job is served from it), evaluates every
claim and prints a pass/fail table.  The direction of every claim must hold;
the absolute magnitudes and their gap to the paper are tracked in ROADMAP.md,
direction 1.
"""

from repro.experiments.claims import evaluate_headline_claims, format_claims
from repro.experiments.figures import render

from benchmarks.conftest import emit, run_once


def test_headline_claims(benchmark, figure_scale, figure_store):
    def evaluate():
        return evaluate_headline_claims(
            render("fig6", figure_scale, figure_store),
            render("fig12", figure_scale, figure_store),
            render("fig13", figure_scale, figure_store),
        )

    checks = run_once(benchmark, evaluate)

    emit("\n\n=== Headline claims (paper vs this reproduction) ===")
    emit(format_claims(checks))

    assert len(checks) == 4
    for check in checks:
        assert check.holds, f"claim does not hold: {check.claim} (measured {check.measured:.2f})"
    by_claim = {check.claim: check.measured for check in checks}
    # Static energy saving should be substantial (paper band: 26-43 %).
    assert by_claim["static failure-free energy saving (all-to-all)"] > 20.0
    # SPMS must be faster on average.
    assert by_claim["static failure-free delay ratio SPIN/SPMS"] > 1.0
    # Mobility saving is positive but smaller than the static saving.
    assert (
        by_claim["energy saving with mobility"]
        < by_claim["static failure-free energy saving (all-to-all)"]
    )
    # Cluster saving is the largest of the energy claims (paper: 35-59 %).
    assert by_claim["cluster-based hierarchical energy saving"] > 25.0
