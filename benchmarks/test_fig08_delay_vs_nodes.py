"""Figure 8 — end-to-end delay vs number of nodes (static, failure free).

Paper shape: delay grows with the number of nodes for both protocols, SPMS is
consistently faster, and the gap widens with the field size.  (The paper
reports up to a ~10x gap with its MAC model; our MAC model yields a smaller
but consistently positive gap — see ROADMAP.md, direction 1.)
"""

from repro.experiments.claims import delay_ratios_across
from repro.experiments.figures import render

from benchmarks.conftest import emit, print_figure, run_once


def test_fig08_delay_vs_nodes(benchmark, figure_scale, figure_store):
    sweep = run_once(benchmark, render, "fig8", figure_scale, figure_store)
    print_figure(
        "Figure 8: average end-to-end delay (ms) vs number of nodes (radius = 20 m)",
        sweep,
        "average_delay_ms",
        note="Paper: SPMS is roughly an order of magnitude faster; gap widens with N.",
    )
    ratios = delay_ratios_across(sweep)
    emit("SPIN/SPMS delay ratio per point:", [round(r, 2) for r in ratios])

    spin = sweep.series("spin", "average_delay_ms")
    spms = sweep.series("spms", "average_delay_ms")
    # Delay grows with the field size for both protocols.
    assert spin[-1] > spin[0]
    assert spms[-1] > spms[0]
    # SPMS is faster (the paper's Figure 8 also shows the two curves touching
    # at the smallest field, so the first point only needs to be a near-tie).
    assert all(s < p * 1.15 for s, p in zip(spms, spin))
    assert all(s < p for s, p in zip(spms[2:], spin[2:]))
    # The absolute gap widens with the number of nodes.
    assert (spin[-1] - spms[-1]) > (spin[0] - spms[0])
