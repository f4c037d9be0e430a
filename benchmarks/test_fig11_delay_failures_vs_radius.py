"""Figure 11 — delay vs transmission radius with transient node failures.

Paper shape: the failure/failure-free difference is small at small radii
(few relays whose failure matters) and grows with the radius, where relay
failures force timeout-driven recovery.
"""

from repro.experiments.figures import render

from benchmarks.conftest import print_figure, run_once


def test_fig11_delay_failures_vs_radius(benchmark, figure_scale, figure_store):
    sweep = run_once(benchmark, render, "fig11", figure_scale, figure_store)
    print_figure(
        f"Figure 11: average delay (ms) vs transmission radius with failures "
        f"({figure_scale.fixed_num_nodes} nodes)",
        sweep,
        "average_delay_ms",
        note="Curves: spms/spin (failure free), f-spms/f-spin (transient failures).",
    )

    assert set(sweep.results) == {"spms", "spin", "f-spms", "f-spin"}
    f_spms = sweep.series("f-spms", "average_delay_ms")
    spms = sweep.series("spms", "average_delay_ms")
    # Failures never help, and the protocol still delivers.
    assert sum(f_spms) >= sum(spms) * 0.98
    assert all(r.delivery_ratio > 0.9 for r in sweep.results["f-spms"])
    assert all(r.delivery_ratio > 0.9 for r in sweep.results["f-spin"])
    # SPMS (with failures) still beats SPIN (with failures) at larger radii.
    f_spin = sweep.series("f-spin", "average_delay_ms")
    assert f_spms[-1] < f_spin[-1]
