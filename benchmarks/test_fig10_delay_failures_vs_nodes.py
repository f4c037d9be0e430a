"""Figure 10 — delay vs number of nodes with transient node failures.

Four curves: SPMS / SPIN (failure free) and F-SPMS / F-SPIN (with the Table 1
failure process).  Paper shape: failures increase delay because destinations
must wait for ``tau_ADV`` / ``tau_DAT`` timeouts and re-request over backup
routes, and the effect grows with the field size (longer paths activate more
failures).
"""

from repro.experiments.figures import render

from benchmarks.conftest import emit, print_figure, run_once


def test_fig10_delay_failures_vs_nodes(benchmark, figure_scale, figure_store):
    sweep = run_once(benchmark, render, "fig10", figure_scale, figure_store)
    print_figure(
        "Figure 10: average delay (ms) vs number of nodes, with and without failures",
        sweep,
        "average_delay_ms",
        note="Curves: spms/spin (failure free), f-spms/f-spin (transient failures).",
    )
    delivery = {
        name: [round(r.delivery_ratio, 3) for r in results]
        for name, results in sweep.results.items()
    }
    emit("Delivery ratios:", delivery)

    assert set(sweep.results) == {"spms", "spin", "f-spms", "f-spin"}
    f_spms = sweep.series("f-spms", "average_delay_ms")
    spms = sweep.series("spms", "average_delay_ms")
    f_spin = sweep.series("f-spin", "average_delay_ms")
    spin = sweep.series("spin", "average_delay_ms")
    # Failures never make things faster (averaged over the sweep).
    assert sum(f_spms) >= sum(spms) * 0.98
    assert sum(f_spin) >= sum(spin) * 0.98
    # Even under failures SPMS delivers the overwhelming majority of data.
    assert all(r.delivery_ratio > 0.9 for r in sweep.results["f-spms"])
    # Failures were actually injected in the F- runs.
    assert all(r.failures_injected > 0 for r in sweep.results["f-spms"])
