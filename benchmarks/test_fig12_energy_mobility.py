"""Figure 12 — energy vs transmission radius with node mobility.

Paper shape: SPMS still outperforms SPIN, but the saving shrinks to 5-21 %
because every mobility epoch forces a distributed Bellman-Ford re-execution
whose energy is charged to SPMS.
"""

from repro.experiments.claims import energy_savings_across
from repro.experiments.figures import render

from benchmarks.conftest import emit, print_figure, run_once


def test_fig12_energy_mobility(benchmark, figure_scale, figure_store):
    sweep = run_once(benchmark, render, "fig12", figure_scale, figure_store)
    print_figure(
        f"Figure 12: energy per data item (uJ) vs transmission radius with mobility "
        f"({figure_scale.fixed_num_nodes} nodes)",
        sweep,
        "energy_per_item_uj",
        note="Paper: SPMS still wins, but only by 5-21 % once routing upkeep is charged.",
    )
    savings = energy_savings_across(sweep)
    emit("SPMS energy saving per point (%):", [round(s, 1) for s in savings])
    emit(
        "SPMS routing energy per run (uJ):",
        [round(r.routing_energy_uj, 1) for r in sweep.results["spms"]],
    )

    # Routing maintenance energy is charged to SPMS only.
    assert all(r.routing_energy_uj > 0 for r in sweep.results["spms"])
    assert all(r.routing_energy_uj == 0 for r in sweep.results["spin"])
    # SPMS still saves energy on average across the sweep, but less than in
    # the static case (the static saving at the same scale exceeds 40 %).
    mean_saving = sum(savings) / len(savings)
    assert 0.0 < mean_saving < 60.0
    # Data still gets delivered despite the topology changes.
    assert all(r.delivery_ratio > 0.9 for r in sweep.results["spms"])
