"""The paper's tables and figures.

Table 1 and the analytical Figures 3 and 5 are plain functions.  The
simulated Figures 6-13 are one table, :data:`FIGURES`, naming the registered
scenario matrices each figure plots, and one function, :func:`render`, that
runs those matrices and pivots their records into a :class:`SweepResult`.
``repro figure`` and the benchmark files under ``benchmarks/`` call
:func:`render` and print the resulting rows.

Results live only in their run records.  A :class:`~repro.results.RunStore`
passed to :func:`render` is its one cache: every job whose spec the store
already holds is served from it, so figures that plot the same runs
(Figures 6 and 8, say) simulate them once, and so do grid points two
matrices share.  Without a store every job runs.

Scaling: the paper runs 10 packets per node on up to ~225 nodes.  That is
minutes of simulation per figure in pure Python, so the default
:func:`bench_scale` uses the same topology sweep with fewer packets per node
and slightly smaller node counts; :func:`paper_scale` reproduces the paper's
sizes.  The drivers under ``benchmarks/`` run the bench scale, and
``tests/experiments/test_kernel_equivalence.py`` pins the canonical digest of
every bench-scale job the headline claims read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.delay_model import delay_ratio_series
from repro.analysis.energy_model import energy_ratio_series
from repro.experiments.config import (
    FailureConfig,
    MobilityConfig,
    SimulationConfig,
    TABLE1_PARAMETERS,
)
from repro.experiments.executor import assemble_sweep, default_workers, execute_jobs
from repro.experiments.matrix import ScenarioMatrix, get_matrix, matrix_from_axes, register_matrix
from repro.results import RunStore, SweepResult


@dataclass(frozen=True)
class FigureScale:
    """How large the simulated sweeps are.

    Attributes:
        node_counts: Swept node counts (Figures 6, 8, 10).
        radii_m: Swept transmission radii (Figures 7, 9, 11, 12, 13).
        fixed_num_nodes: Node count used for the radius sweeps.
        packets_per_node: All-to-all originations per node.
        mobility_packets_per_node: Originations per node in the mobility
            experiment.  The SPMS routing-rebuild overhead must be amortised
            over the packets sent between mobility epochs (the paper's
            break-even argument), so this figure uses more traffic than the
            static sweeps at bench scale.
        cluster_packets_per_member: Cluster originations per member.
        arrival_mean_interarrival_ms: Gap between originations.  Table 1 uses
            1 ms; the bench scale stretches the gap so the (much shorter)
            bench workload still spans enough simulated time for the Table 1
            failure process to inject a meaningful number of failures.
        seed: Master seed shared by every run.
    """

    node_counts: Sequence[int] = (16, 36, 64, 100, 144)
    radii_m: Sequence[float] = (10.0, 15.0, 20.0, 25.0, 30.0)
    fixed_num_nodes: int = 64
    packets_per_node: int = 1
    mobility_packets_per_node: int = 2
    cluster_packets_per_member: int = 1
    arrival_mean_interarrival_ms: float = 50.0
    seed: int = 1

    def base_config(self, **overrides) -> SimulationConfig:
        """The shared configuration for this scale."""
        params = {
            "packets_per_node": self.packets_per_node,
            "arrival_mean_interarrival_ms": self.arrival_mean_interarrival_ms,
            "seed": self.seed,
        }
        params.update(overrides)
        return SimulationConfig(**params)


def bench_scale() -> FigureScale:
    """Scale used by the benchmark harness (seconds per figure)."""
    return FigureScale()


def paper_scale() -> FigureScale:
    """The paper's own scale (minutes per figure in pure Python)."""
    return FigureScale(
        node_counts=(25, 64, 100, 169, 225),
        radii_m=(10.0, 15.0, 20.0, 25.0, 30.0),
        fixed_num_nodes=169,
        packets_per_node=10,
        mobility_packets_per_node=10,
        cluster_packets_per_member=2,
        arrival_mean_interarrival_ms=1.0,
    )


# ----------------------------------------------------------- figure matrices
#
# Every simulated figure registers its parameter grid in the scenario-matrix
# registry, so the CLI (`repro sweep fig06 --workers 4`), :func:`render`
# and the benchmark drivers all expand the very same grid.
# The grids keep the paper's historical seeding (one shared seed per sweep,
# `seed_policy="shared"`), which makes the regenerated figures bit-identical
# to the pre-matrix serial implementation.


def _scale_or_bench(scale: "FigureScale | None") -> "FigureScale":
    return scale if scale is not None else bench_scale()


@register_matrix("fig06")
def fig06_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Static all-to-all node sweep (Figures 6 and 8 share these runs)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig06",
        "num_nodes",
        scale.node_counts,
        base_config=scale.base_config(transmission_radius_m=20.0),
        seed_policy="shared",
    )


@register_matrix("fig06-random")
def fig06_random_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Figure 6's node sweep on a uniform-random (non-grid) placement.

    Not a figure of the paper: a robustness companion checking that the
    SPMS-vs-SPIN comparison does not depend on grid regularity, and the
    end-to-end exercise of the pluggable ``random`` placement component.
    """
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig06-random",
        "num_nodes",
        scale.node_counts,
        base_config=scale.base_config(transmission_radius_m=20.0),
        placement="random",
        seed_policy="shared",
    )


@register_matrix("fig06-placement")
def fig06_placement_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Figure 6's node sweep across placements, as one two-axis matrix.

    Sweeps the grid and the uniform-random placements side by side via the
    non-config ``placement`` axis — the assembled sweep has one series per
    (protocol, placement) pair (``"spms[placement=random]"``, ...), so the
    placement-robustness comparison lands in a single table instead of two
    separate matrices.
    """
    scale = _scale_or_bench(scale)
    return ScenarioMatrix(
        name="fig06-placement",
        axes={
            "num_nodes": tuple(scale.node_counts),
            "placement": ("grid", "random"),
        },
        base_config=scale.base_config(transmission_radius_m=20.0),
        seed_policy="shared",
    )


@register_matrix("fig07")
def fig07_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Static all-to-all radius sweep (Figures 7 and 9 share these runs)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig07",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(num_nodes=scale.fixed_num_nodes),
        seed_policy="shared",
    )


@register_matrix("fig10-failures")
def fig10_failures_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Node sweep with the Table 1 transient-failure process (Figure 10)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig10-failures",
        "num_nodes",
        scale.node_counts,
        base_config=scale.base_config(transmission_radius_m=20.0),
        failures=FailureConfig(),
        seed_policy="shared",
    )


@register_matrix("fig11-failures")
def fig11_failures_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Radius sweep with transient failures (Figure 11)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig11-failures",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(num_nodes=scale.fixed_num_nodes),
        failures=FailureConfig(),
        seed_policy="shared",
    )


@register_matrix("fig12-mobility")
def fig12_mobility_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Radius sweep with step mobility (Figure 12)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig12-mobility",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(
            num_nodes=scale.fixed_num_nodes,
            packets_per_node=scale.mobility_packets_per_node,
        ),
        mobility=MobilityConfig(),
        seed_policy="shared",
    )


@register_matrix("fig12-waypoint")
def fig12_waypoint_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Figure 12's radius sweep under random-waypoint (continuous) mobility.

    Not a figure of the paper: a mobility-model companion to Figure 12 using
    the registered ``waypoint`` component — nodes drift continuously between
    epochs instead of teleporting in steps, exercising frequent topology
    churn.  Runnable via ``repro sweep fig12-waypoint``.
    """
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig12-waypoint",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(
            num_nodes=scale.fixed_num_nodes,
            packets_per_node=scale.mobility_packets_per_node,
        ),
        mobility=MobilityConfig(model="waypoint", num_epochs=2),
        seed_policy="shared",
    )


@register_matrix("fig13-cluster")
def fig13_cluster_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Radius sweep under cluster-based hierarchical traffic (Figure 13)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig13-cluster",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(num_nodes=scale.fixed_num_nodes),
        workload="cluster",
        workload_options={"packets_per_member": scale.cluster_packets_per_member},
        seed_policy="shared",
    )


@register_matrix("fig13-cluster-failures")
def fig13_cluster_failures_matrix(scale: "FigureScale | None" = None) -> ScenarioMatrix:
    """Cluster-traffic radius sweep with transient failures (Figure 13)."""
    scale = _scale_or_bench(scale)
    return matrix_from_axes(
        "fig13-cluster-failures",
        "transmission_radius_m",
        scale.radii_m,
        base_config=scale.base_config(num_nodes=scale.fixed_num_nodes),
        workload="cluster",
        workload_options={"packets_per_member": scale.cluster_packets_per_member},
        failures=FailureConfig(),
        seed_policy="shared",
    )


# ------------------------------------------------------- Figures 6 through 13


class Figure(NamedTuple):
    """One simulated figure: the registered matrices whose runs it plots.

    Attributes:
        matrices: Registered matrix names.  Rows follow the first matrix's
            grid; a matrix with failures contributes the paper's ``f-``
            series (F-SPMS, F-SPIN).
        metric: Record metric the figure plots.
        description: One-line caption (``repro list-figures``).
    """

    matrices: Tuple[str, ...]
    metric: str
    description: str


_ENERGY, _DELAY = "energy_per_item_uj", "average_delay_ms"

#: Figures 6-13 by CLI name.  Figures 6 and 8 (and 7 and 9) plot energy and
#: delay of the same runs; Figures 10 and 11 add failure curves to them.
FIGURES: Dict[str, Figure] = {
    "fig6": Figure(("fig06",), _ENERGY, "energy per item vs number of nodes (static)"),
    "fig7": Figure(("fig07",), _ENERGY, "energy per item vs transmission radius (static)"),
    "fig8": Figure(("fig06",), _DELAY, "average delay vs number of nodes (static)"),
    "fig9": Figure(("fig07",), _DELAY, "average delay vs transmission radius (static)"),
    "fig10": Figure(
        ("fig06", "fig10-failures"),
        _DELAY,
        "average delay vs number of nodes (with failures)",
    ),
    "fig11": Figure(
        ("fig07", "fig11-failures"),
        _DELAY,
        "average delay vs transmission radius (with failures)",
    ),
    "fig12": Figure(
        ("fig12-mobility",),
        _ENERGY,
        "energy per item vs transmission radius (mobility)",
    ),
    "fig13": Figure(
        ("fig13-cluster", "fig13-cluster-failures"),
        _ENERGY,
        "energy per item vs transmission radius (cluster traffic)",
    ),
}


def render(
    name: str, scale: Optional[FigureScale] = None, store: Optional[RunStore] = None
) -> SweepResult:
    """Run the matrices of figure *name* and pivot their records.

    Args:
        name: A key of :data:`FIGURES`.
        scale: Sweep size (default :func:`bench_scale`).
        store: Run store that receives every record and serves the jobs
            whose spec it already holds (``resume``); ``None`` runs every
            job.  Workers come from ``REPRO_SWEEP_WORKERS``.

    Returns:
        One series per protocol and matrix, ``f-``-prefixed for a matrix
        with failures, with a row for every grid value of the first matrix
        (a job without a record leaves an empty cell).
    """
    matrices = [get_matrix(matrix_name, scale=scale) for matrix_name in FIGURES[name].matrices]
    first = matrices[0]
    sweep = SweepResult(first.parameter, list(first.axes[first.parameter]))
    for matrix in matrices:
        jobs = matrix.expand()
        records, _report = execute_jobs(
            jobs, workers=default_workers(), store=store, resume=store is not None
        )
        prefix = "f-" if matrix.failures is not None else ""
        for series, runs in assemble_sweep(jobs, records).results.items():
            sweep.results[prefix + series] = runs
    return sweep


# --------------------------------------------------------------------- Table 1


def table1_parameters() -> Dict[str, object]:
    """Table 1: the simulation parameters used throughout the evaluation."""
    return dict(TABLE1_PARAMETERS)


# ------------------------------------------------------------- Figures 3 and 5


def figure3_delay_ratio(radii_m: Sequence[float] = tuple(range(2, 31, 2))) -> List[Tuple[float, float]]:
    """Figure 3: analytical SPIN/SPMS latency ratio vs transmission radius."""
    return delay_ratio_series(radii_m)


def figure5_energy_ratio(radii: Sequence[int] = tuple(range(1, 31))) -> List[Tuple[int, float]]:
    """Figure 5: analytical SPIN/SPMS energy ratio vs transmission radius."""
    return energy_ratio_series(radii)
