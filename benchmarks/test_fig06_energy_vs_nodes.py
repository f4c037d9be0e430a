"""Figure 6 — energy per packet vs number of nodes (static, failure free).

Paper shape: SPMS consumes 26-43 % less energy than SPIN and the gap widens
as the sensor field grows (SPIN's curve has the higher slope).
"""

from repro.experiments.claims import energy_savings_across
from repro.experiments.figures import render

from benchmarks.conftest import emit, print_figure, run_once


def test_fig06_energy_vs_nodes(benchmark, figure_scale, figure_store):
    sweep = run_once(benchmark, render, "fig6", figure_scale, figure_store)
    print_figure(
        "Figure 6: energy per data item (uJ) vs number of nodes (radius = 20 m)",
        sweep,
        "energy_per_item_uj",
        note="Paper: SPMS saves 26-43 %, gap widens with field size.",
    )
    savings = energy_savings_across(sweep)
    emit("SPMS energy saving per point (%):", [round(s, 1) for s in savings])

    spin = sweep.series("spin", "energy_per_item_uj")
    spms = sweep.series("spms", "energy_per_item_uj")
    # SPMS wins at every field size.
    assert all(s < p for s, p in zip(spms, spin))
    # Energy per item grows with the field for both protocols.
    assert spin[-1] > spin[0]
    assert spms[-1] > spms[0]
    # The absolute gap widens with the number of nodes (SPIN's higher slope).
    gaps = [p - s for p, s in zip(spin, spms)]
    assert gaps[-1] > gaps[0]
    # Everything was actually delivered.
    assert all(r.delivery_ratio == 1.0 for results in sweep.results.values() for r in results)
