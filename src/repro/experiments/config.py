"""Simulation configuration — Table 1 of the paper plus topology knobs.

``SimulationConfig`` collects every parameter the simulation needs.  The
defaults reproduce Table 1; the registered figure matrices override the
swept parameter (number of nodes or transmission radius) and the workload
scale.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional

from repro.codec import decode
from repro.radio.power import MICA2_POWER_TABLE, PowerTable, build_power_table_for_radius


class SpecValidationError(ValueError):
    """A serialized spec/config dictionary failed validation."""


#: Table 1 of the paper, kept verbatim for the parameter-table benchmark and
#: the configuration tests.
TABLE1_PARAMETERS: Dict[str, object] = {
    "packet_arrival_mean_interarrival_ms": 1.0,
    "failure_mean_interarrival_ms": 50.0,
    "processing_time_ms": 0.02,
    "slot_time_ms": 0.1,
    "mttr_ms": 10.0,
    "tout_adv_ms": 1.0,
    "num_slots": 20,
    "power_levels_mw": (3.1622, 0.7943, 0.1995, 0.05, 0.0125),
    "tout_dat_ms": 2.5,
    "transmission_time_ms_per_byte": 0.05,
    "power_level_distances_m": (91.44, 45.72, 22.86, 11.28, 5.48),
    "data_to_req_size_ratio": 20,
    "req_or_adv_size_bytes": 2,
}


@dataclass(frozen=True)
class FailureConfig:
    """Failure injection parameters (Table 1 defaults).

    ``model`` names a registered failure component (see
    :mod:`repro.build.components`); the built-in is ``"transient"``.
    """

    mean_interarrival_ms: float = 50.0
    repair_min_ms: float = 5.0
    repair_max_ms: float = 15.0
    model: str = "transient"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FailureConfig":
        """Inverse of :meth:`to_dict` (strict: see :mod:`repro.codec`)."""
        return decode(cls, data, SpecValidationError, "failure configuration")


@dataclass(frozen=True)
class MobilityConfig:
    """Step-mobility parameters for the Section 5.1.3 experiment.

    Attributes:
        num_epochs: Number of mobility epochs interleaved with the traffic.
        move_fraction: Fraction of nodes relocated per epoch.
        max_displacement_m: Bound on per-node displacement (keeps the grid
            connected); ``None`` teleports anywhere in the field.
        model: Name of a registered mobility component (built-ins: ``"step"``,
            ``"waypoint"``).
    """

    num_epochs: int = 1
    move_fraction: float = 0.1
    max_displacement_m: Optional[float] = 10.0
    model: str = "step"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary representation."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MobilityConfig":
        """Inverse of :meth:`to_dict` (strict: see :mod:`repro.codec`)."""
        return decode(cls, data, SpecValidationError, "mobility configuration")


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of one simulation run.

    Attributes:
        num_nodes: Number of sensor nodes (placed on a uniform-density grid).
        transmission_radius_m: Maximum transmission radius — defines zones.
        grid_spacing_m: Grid pitch; constant across runs so density stays
            uniform as the node count grows (as in the paper).
        num_power_levels: Discrete power levels available below the maximum.
        power_scaling_alpha: Exponent relating a level's power to its range
            when deriving a power table for an arbitrary radius.  The native
            MICA2 table of the paper follows a square law almost exactly, so
            the default is 2.0; the path-loss ablation sweeps it.
        adv_size_bytes / req_size_bytes / data_size_bytes: Packet sizes
            (Table 1: 2 / 2 / 40 bytes).
        t_tx_per_byte_ms: Transmission time per byte.
        t_proc_ms: Processing delay per received packet.
        slot_time_ms / num_slots: MAC backoff parameters.
        csma_g: Proportionality constant of the ``G n**2`` contention model
            (the paper's Section 4 analysis uses 0.01).
        contention: Name of a registered contention component (built-ins:
            ``"quadratic"``, ``"polynomial"``, ``"exponential"``).
        channel_reservation: Enable the shared-medium reservation model
            (transmissions block every node inside the used radius for their
            airtime).  The paper's own simulator models the MAC purely as the
            ``G n**2`` access-delay term with no channel occupancy, so the
            default is False; enabling it is an ablation that adds queueing
            under load.
        rx_power_mw: Receive power (paper: equal to the lowest TX level).
        tout_adv_ms / tout_dat_ms: SPMS protocol timeouts.  Table 1 lists
            1.0 / 2.5 ms, which assume the paper's deterministic MAC model
            (no random backoff, no channel occupancy).  Our simulation models
            both, so the defaults are scaled up to preserve the paper's
            intent that the timers do not fire in failure-free operation;
            the Table 1 values remain available in ``TABLE1_PARAMETERS``.
        packets_per_node: Data items each node originates (all-to-all).
        arrival_mean_interarrival_ms: Mean gap between originations.
        seed: Master random seed.
        use_native_mica2_levels: Use the verbatim MICA2 table instead of a
            radius-scaled table (only meaningful when the radius equals the
            MICA2 maximum range).
        random_backoff: Include the random slotted backoff in MAC delays.
        max_sim_time_ms: Safety bound on simulated time.
    """

    num_nodes: int = 169
    transmission_radius_m: float = 20.0
    grid_spacing_m: float = 5.0
    num_power_levels: int = 5
    power_scaling_alpha: float = 2.0
    adv_size_bytes: int = 2
    req_size_bytes: int = 2
    data_size_bytes: int = 40
    t_tx_per_byte_ms: float = 0.05
    t_proc_ms: float = 0.02
    slot_time_ms: float = 0.1
    num_slots: int = 20
    csma_g: float = 0.01
    contention: str = "quadratic"
    channel_reservation: bool = False
    rx_power_mw: float = 0.0125
    tout_adv_ms: float = 2.0
    tout_dat_ms: float = 25.0
    packets_per_node: int = 10
    arrival_mean_interarrival_ms: float = 1.0
    seed: int = 1
    use_native_mica2_levels: bool = False
    random_backoff: bool = True
    max_sim_time_ms: float = 1_000_000.0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.max_sim_time_ms <= 0:
            raise ValueError(f"max_sim_time_ms must be positive, got {self.max_sim_time_ms}")
        if self.num_nodes < 2:
            raise ValueError(f"need at least two nodes, got {self.num_nodes}")
        if self.transmission_radius_m <= 0:
            raise ValueError(
                f"transmission radius must be positive, got {self.transmission_radius_m}"
            )
        if self.grid_spacing_m <= 0:
            raise ValueError(f"grid spacing must be positive, got {self.grid_spacing_m}")
        if self.transmission_radius_m < self.grid_spacing_m:
            raise ValueError(
                "the transmission radius must be at least the grid spacing, "
                f"got radius={self.transmission_radius_m} < spacing={self.grid_spacing_m}"
            )
        if min(self.adv_size_bytes, self.req_size_bytes, self.data_size_bytes) <= 0:
            raise ValueError("packet sizes must be positive")
        if self.packets_per_node < 1:
            raise ValueError(
                f"packets per node must be positive, got {self.packets_per_node}"
            )

    # ------------------------------------------------------------- factories

    def power_table(self) -> PowerTable:
        """The power table used by this configuration."""
        if self.use_native_mica2_levels:
            return MICA2_POWER_TABLE
        return build_power_table_for_radius(
            self.transmission_radius_m,
            num_levels=self.num_power_levels,
            alpha=self.power_scaling_alpha,
        )

    def with_overrides(self, **kwargs) -> "SimulationConfig":
        """A copy of this configuration with selected fields replaced."""
        return replace(self, **kwargs)

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary representation (every field, flat)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Inverse of :meth:`to_dict` (strict: see :mod:`repro.codec`)."""
        return decode(cls, data, SpecValidationError, "simulation configuration")
