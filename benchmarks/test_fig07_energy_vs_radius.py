"""Figure 7 — energy per packet vs transmission radius (fixed node count).

Paper shape: at small radii the protocols are close (zones have few neighbours
and routes are mostly single-hop); as the radius grows SPMS increasingly
outperforms SPIN because multi-hop minimum-power routes replace long
maximum-power transmissions.
"""

from repro.experiments.claims import energy_savings_across
from repro.experiments.figures import render

from benchmarks.conftest import emit, print_figure, run_once


def test_fig07_energy_vs_radius(benchmark, figure_scale, figure_store):
    sweep = run_once(benchmark, render, "fig7", figure_scale, figure_store)
    print_figure(
        f"Figure 7: energy per data item (uJ) vs transmission radius "
        f"({figure_scale.fixed_num_nodes} nodes)",
        sweep,
        "energy_per_item_uj",
        note="Paper: SPMS increasingly outperforms SPIN as the radius grows.",
    )
    savings = energy_savings_across(sweep)
    emit("SPMS energy saving per point (%):", [round(s, 1) for s in savings])

    spin = sweep.series("spin", "energy_per_item_uj")
    spms = sweep.series("spms", "energy_per_item_uj")
    assert all(s <= p for s, p in zip(spms, spin))
    # The relative saving grows with the radius.
    assert savings[-1] > savings[0]
    # SPIN's energy rises steeply with the radius (square-law transmit power).
    assert spin[-1] > 2.0 * spin[0]
