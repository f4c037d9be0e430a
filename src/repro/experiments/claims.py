"""The paper's headline claims, computed from simulation results.

Abstract / Section 5 claims:

* static, failure-free, all-to-all: SPMS consumes 26-43 % less energy than
  SPIN (about 30 % on average) and delivers data roughly an order of
  magnitude faster;
* with mobility the energy saving shrinks to 5-21 % because SPMS pays for
  routing-table re-convergence;
* cluster-based hierarchical traffic: SPMS consumes 35-59 % less energy.

These helpers turn :class:`~repro.results.SweepResult` objects into the
corresponding percentages/ratios so the headline-claims benchmark and the
integration tests can assert the direction (and rough magnitude) of every
claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.results import RunRecord, SweepResult


@dataclass(frozen=True)
class ClaimCheck:
    """One headline claim evaluated against measured results.

    Attributes:
        claim: Short description of the paper's claim.
        paper_value: The value (or range) the paper reports, as text.
        measured: The value measured from this reproduction.
        holds: Whether the qualitative claim (who wins / direction) holds.
    """

    claim: str
    paper_value: str
    measured: float
    holds: bool


def energy_saving_percent(spin: RunRecord, spms: RunRecord) -> float:
    """Energy saved by SPMS relative to SPIN, in percent."""
    if spin.energy_per_item_uj == 0:
        return 0.0
    return 100.0 * (1.0 - spms.energy_per_item_uj / spin.energy_per_item_uj)


def delay_ratio(spin: RunRecord, spms: RunRecord) -> float:
    """SPIN delay divided by SPMS delay (>1 means SPMS is faster)."""
    if spms.average_delay_ms == 0:
        return float("inf") if spin.average_delay_ms > 0 else 1.0
    return spin.average_delay_ms / spms.average_delay_ms


def _paired(
    sweep: SweepResult, a: str = "spin", b: str = "spms"
) -> List[Tuple[RunRecord, RunRecord]]:
    """``(a, b)`` record pairs at every swept value both series cover.

    Pairs by swept value, like :meth:`SweepResult.rows`: a hole in one
    series (a quarantined job) drops that point instead of shifting every
    later pair onto the wrong value.
    """
    first, second = sweep.by_value(a), sweep.by_value(b)
    return [(first[v], second[v]) for v in sweep.values if v in first and v in second]


def energy_savings_across(sweep: SweepResult) -> List[float]:
    """SPMS energy saving (percent) at every swept point."""
    return [energy_saving_percent(spin, spms) for spin, spms in _paired(sweep)]


def delay_ratios_across(sweep: SweepResult) -> List[float]:
    """SPIN/SPMS delay ratio at every swept point."""
    return [delay_ratio(spin, spms) for spin, spms in _paired(sweep)]


def evaluate_headline_claims(
    static: SweepResult,
    mobility_energy: SweepResult,
    cluster_energy: SweepResult,
) -> List[ClaimCheck]:
    """Evaluate the four headline claims from already-run sweeps.

    Args:
        static: Figure 6/8 sweep (static, failure free); the energy and the
            delay claim read the same runs, as the paper's two figures do.
        mobility_energy: Figure 12-style sweep (energy with mobility).
        cluster_energy: Figure 13-style sweep (cluster traffic energy;
            only the failure-free curves are used).

    Returns:
        One :class:`ClaimCheck` per claim.
    """
    checks: List[ClaimCheck] = []

    static_savings = energy_savings_across(static)
    mean_static_saving = sum(static_savings) / len(static_savings) if static_savings else 0.0
    checks.append(
        ClaimCheck(
            claim="static failure-free energy saving (all-to-all)",
            paper_value="26-43 % (about 30 % on average)",
            measured=mean_static_saving,
            holds=mean_static_saving > 0.0,
        )
    )

    ratios = delay_ratios_across(static)
    mean_ratio = sum(ratios) / len(ratios) if ratios else 0.0
    checks.append(
        ClaimCheck(
            claim="static failure-free delay ratio SPIN/SPMS",
            paper_value="about 10x",
            measured=mean_ratio,
            holds=mean_ratio > 1.0,
        )
    )

    mobility_savings = energy_savings_across(mobility_energy)
    mean_mobility_saving = (
        sum(mobility_savings) / len(mobility_savings) if mobility_savings else 0.0
    )
    checks.append(
        ClaimCheck(
            claim="energy saving with mobility",
            paper_value="5-21 %",
            measured=mean_mobility_saving,
            holds=mean_mobility_saving > 0.0,
        )
    )

    cluster_savings = energy_savings_across(cluster_energy)
    mean_cluster_saving = (
        sum(cluster_savings) / len(cluster_savings) if cluster_savings else 0.0
    )
    checks.append(
        ClaimCheck(
            claim="cluster-based hierarchical energy saving",
            paper_value="35-59 %",
            measured=mean_cluster_saving,
            holds=mean_cluster_saving > 0.0,
        )
    )
    return checks


def format_claims(checks: List[ClaimCheck]) -> str:
    """Readable report of claim checks (printed by the headline benchmark)."""
    lines = []
    for check in checks:
        status = "HOLDS" if check.holds else "DOES NOT HOLD"
        lines.append(
            f"- {check.claim}: paper={check.paper_value}, "
            f"measured={check.measured:.2f} -> {status}"
        )
    return "\n".join(lines)
