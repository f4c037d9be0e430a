"""Figure 13 — energy vs transmission radius, cluster-based hierarchical
communication, with and without transient failures.

Paper shape: SPMS consumes 35-59 % less energy than SPIN in the failure-free
case, the difference grows with the radius (more scope for multi-hop routes to
the cluster head), and the failure runs cost more than the failure-free runs.
"""

from repro.experiments.claims import energy_savings_across
from repro.experiments.figures import render

from benchmarks.conftest import emit, print_figure, run_once


def test_fig13_energy_cluster(benchmark, figure_scale, figure_store):
    sweep = run_once(benchmark, render, "fig13", figure_scale, figure_store)
    print_figure(
        f"Figure 13: energy per data item (uJ) vs transmission radius, cluster traffic "
        f"({figure_scale.fixed_num_nodes} nodes)",
        sweep,
        "energy_per_item_uj",
        note="Curves: spms/spin (failure free), f-spms/f-spin (transient failures).",
    )
    savings = energy_savings_across(sweep)
    emit("SPMS energy saving per point, failure free (%):", [round(s, 1) for s in savings])

    assert set(sweep.results) == {"spms", "spin", "f-spms", "f-spin"}
    spin = sweep.series("spin", "energy_per_item_uj")
    spms = sweep.series("spms", "energy_per_item_uj")
    # SPMS wins at every radius and the saving grows with the radius.
    assert all(s < p for s, p in zip(spms, spin))
    assert savings[-1] > savings[0]
    mean_saving = sum(savings) / len(savings)
    assert mean_saving > 25.0
    # The cluster heads actually receive the data.
    assert all(r.delivery_ratio > 0.9 for r in sweep.results["spms"])
    assert all(r.delivery_ratio > 0.9 for r in sweep.results["spin"])
