"""Discrete transmission power levels.

Table 1 of the paper lists five MICA2 power levels (in mW) together with the
distance each level can cover:

=====  ============  =============
Level  Power (mW)    Range (m)
=====  ============  =============
1      3.1622        91.44
2      0.7943        45.72
3      0.1995        22.86
4      0.05          11.28
5      0.0125        5.48
=====  ============  =============

Level 1 is the *maximum* power level; its range defines a node's **zone** in
SPMS.  SPIN always transmits at the level whose range equals the configured
transmission radius, while SPMS picks the lowest-power level that still
reaches the intended next hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np


@dataclass(frozen=True)
class PowerLevel:
    """One discrete transmission power setting.

    Attributes:
        index: 1-based level index; lower index means higher power.
        power_mw: Radiated power in milliwatts.
        range_m: Maximum distance (metres) a transmission at this level reaches.
    """

    index: int
    power_mw: float
    range_m: float

    def reaches(self, distance_m: float) -> bool:
        """Whether a transmission at this level covers *distance_m*."""
        return distance_m <= self.range_m + 1e-12


class PowerTable:
    """An ordered collection of :class:`PowerLevel` settings.

    Levels are stored from highest power (longest range) to lowest power
    (shortest range), mirroring the paper's numbering.
    """

    def __init__(self, levels: Iterable[PowerLevel]) -> None:
        ordered = sorted(levels, key=lambda lv: lv.range_m, reverse=True)
        if not ordered:
            raise ValueError("power table needs at least one level")
        for first, second in zip(ordered, ordered[1:]):
            if second.power_mw >= first.power_mw:
                raise ValueError(
                    "power must decrease as range decreases "
                    f"({first} vs {second})"
                )
        self._levels: List[PowerLevel] = ordered

    def __len__(self) -> int:
        return len(self._levels)

    def __iter__(self):
        return iter(self._levels)

    def __getitem__(self, i: int) -> PowerLevel:
        return self._levels[i]

    @property
    def levels(self) -> Sequence[PowerLevel]:
        """Levels ordered from maximum power to minimum power."""
        return tuple(self._levels)

    @property
    def max_level(self) -> PowerLevel:
        """The highest-power (longest-range) level — defines the zone radius."""
        return self._levels[0]

    @property
    def min_level(self) -> PowerLevel:
        """The lowest-power (shortest-range) level."""
        return self._levels[-1]

    @property
    def max_range_m(self) -> float:
        """Range of the maximum power level."""
        return self.max_level.range_m

    def level_for_distance(self, distance_m: float) -> PowerLevel:
        """Return the *lowest-power* level that reaches ``distance_m``.

        Raises:
            ValueError: If even the maximum power level cannot cover the
                distance (the destination is outside the zone).
        """
        if distance_m < 0:
            raise ValueError(f"distance must be non-negative, got {distance_m}")
        for level in reversed(self._levels):
            if level.reaches(distance_m):
                return level
        raise ValueError(
            f"distance {distance_m:.2f} m exceeds maximum range "
            f"{self.max_range_m:.2f} m"
        )

    def power_for_distances(self, distances_m: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`level_for_distance`, returning power in mW.

        For every entry the power of the lowest-power level that reaches it
        (same ``range + 1e-12`` tolerance as :meth:`PowerLevel.reaches`);
        entries beyond the maximum range yield ``nan`` instead of raising, so
        callers can mask them (routing only queries in-zone pairs anyway).
        """
        distances = np.asarray(distances_m, dtype=float)
        if np.any(distances < 0):
            raise ValueError("distances must be non-negative")
        powers = np.full(distances.shape, np.nan)
        # Highest power first, overwritten by every lower level that still
        # reaches — identical to the scalar lowest-power-that-reaches scan.
        for level in self._levels:
            powers = np.where(distances <= level.range_m + 1e-12, level.power_mw, powers)
        return powers


#: The five MICA2 levels from Table 1 of the paper.
MICA2_POWER_TABLE = PowerTable(
    [
        PowerLevel(index=1, power_mw=3.1622, range_m=91.44),
        PowerLevel(index=2, power_mw=0.7943, range_m=45.72),
        PowerLevel(index=3, power_mw=0.1995, range_m=22.86),
        PowerLevel(index=4, power_mw=0.05, range_m=11.28),
        PowerLevel(index=5, power_mw=0.0125, range_m=5.48),
    ]
)


def build_power_table_for_radius(
    radius_m: float,
    num_levels: int = 5,
    alpha: float = 3.5,
    max_power_mw: float = 3.1622,
    reference_range_m: float = 91.44,
) -> PowerTable:
    """Construct a power table whose maximum range is ``radius_m``.

    The experiments sweep the maximum transmission radius from roughly 5 m to
    30 m, which does not correspond to a prefix of the native MICA2 table.
    Following the paper's path-loss reasoning (power proportional to
    ``d**alpha``), we generate ``num_levels`` levels with ranges spaced
    geometrically between ``radius_m`` and ``radius_m / 2**(num_levels - 1)``
    and power scaled as ``(range / reference_range_m) ** alpha`` relative to
    the MICA2 maximum power.

    Args:
        radius_m: Desired maximum transmission range (zone radius).
        num_levels: Number of discrete levels to generate.
        alpha: Path-loss exponent used for power scaling.
        max_power_mw: Power of the reference (longest-range) MICA2 level.
        reference_range_m: Range of the reference MICA2 level.

    Returns:
        A :class:`PowerTable` with ``num_levels`` levels, maximum range
        ``radius_m``.
    """
    if radius_m <= 0:
        raise ValueError(f"radius must be positive, got {radius_m}")
    if num_levels < 1:
        raise ValueError(f"need at least one level, got {num_levels}")
    levels = []
    for i in range(num_levels):
        range_m = radius_m / (2.0**i)
        power_mw = max_power_mw * (range_m / reference_range_m) ** alpha
        levels.append(PowerLevel(index=i + 1, power_mw=power_mw, range_m=range_m))
    return PowerTable(levels)
