"""Ablation — MAC contention exponent.

The paper models channel-access delay as ``G * n**2`` and notes (Section 4.1,
footnote 1) that models with higher powers of ``n`` or an exponential form
would only bias the comparison further towards SPMS.  This ablation sweeps the
exponent of the polynomial contention model and checks that conclusion: the
SPIN/SPMS delay ratio is monotonically non-decreasing in the exponent.
"""

from repro.experiments.config import SimulationConfig
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import all_to_all_scenario
from repro.mac.contention import PolynomialContention

from benchmarks.conftest import emit, run_once

EXPONENTS = (1.0, 2.0, 3.0)


def _run_with_exponent(exponent: float, num_nodes: int, seed: int):
    config = SimulationConfig(
        num_nodes=num_nodes,
        packets_per_node=1,
        transmission_radius_m=20.0,
        arrival_mean_interarrival_ms=50.0,
        seed=seed,
    )
    results = {}
    for protocol in ("spms", "spin"):
        runner = ExperimentRunner(all_to_all_scenario(protocol, config))
        runner.build()
        # Swap in the ablated contention model before running.
        runner.network.mac_delay.contention = PolynomialContention(
            g=config.csma_g, exponent=exponent
        )
        results[protocol] = runner.run_record()
    return results


def test_ablation_mac_exponent(benchmark, figure_scale):
    def sweep():
        rows = []
        for exponent in EXPONENTS:
            results = _run_with_exponent(exponent, figure_scale.fixed_num_nodes, figure_scale.seed)
            ratio = results["spin"].average_delay_ms / results["spms"].average_delay_ms
            rows.append((exponent, results["spms"].average_delay_ms,
                         results["spin"].average_delay_ms, ratio))
        return rows

    rows = run_once(benchmark, sweep)

    emit("\n\n=== Ablation: MAC contention exponent (G * n**p) ===")
    emit(f"{'exponent':>10} {'SPMS delay':>12} {'SPIN delay':>12} {'SPIN/SPMS':>11}")
    for exponent, spms_delay, spin_delay, ratio in rows:
        emit(f"{exponent:>10.1f} {spms_delay:>12.2f} {spin_delay:>12.2f} {ratio:>11.2f}")

    ratios = [row[3] for row in rows]
    # Harsher MAC models favour SPMS more (the paper's footnote-1 claim).
    assert all(b >= a * 0.98 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > ratios[0]
