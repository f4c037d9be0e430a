"""Per-packet transmission/reception energy and the energy ledger.

Energy model
------------

A transmission of ``size_bytes`` at power level ``P`` (mW) lasts
``size_bytes * t_tx_per_byte_ms`` milliseconds and therefore consumes
``P * size_bytes * t_tx_per_byte_ms`` microjoules (mW x ms = uJ).  Reception
consumes energy at the receive power, which the paper (citing [16]) equates to
the lowest transmission power level ``E_m``.

The :class:`EnergyLedger` accumulates per-node and per-category energy so that
SPIN and SPMS are measured with exactly the same bookkeeping, including the
energy spent on routing-table formation that the mobility experiments charge
to SPMS.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.radio.power import PowerLevel, PowerTable


def checked_energy(energy_uj: float) -> float:
    """*energy_uj* itself; ``ValueError`` unless it is non-negative and finite."""
    if not 0.0 <= energy_uj < math.inf:
        raise ValueError(f"energy must be non-negative and finite, got {energy_uj}")
    return energy_uj


@dataclass(frozen=True, slots=True)
class TransmissionCost:
    """Energy and airtime of a single transmission.

    Attributes:
        energy_uj: Energy drawn from the sender's battery (microjoules).
        airtime_ms: Time the packet occupies the channel (milliseconds).
        power_level: The level used for the transmission.
    """

    energy_uj: float
    airtime_ms: float
    power_level: PowerLevel


class EnergyModel:
    """Computes per-packet energy costs from a power table.

    Args:
        power_table: Discrete transmission power levels.
        t_tx_per_byte_ms: Transmission time per byte (Table 1: 0.05 ms/byte).
        rx_power_mw: Power drawn while receiving; defaults to the lowest
            transmission level's power, following the paper's simplification
            ``E_r = E_m``.
    """

    def __init__(
        self,
        power_table: PowerTable,
        t_tx_per_byte_ms: float = 0.05,
        rx_power_mw: Optional[float] = None,
    ) -> None:
        if not 0.0 < t_tx_per_byte_ms < math.inf:
            raise ValueError(
                f"t_tx_per_byte_ms must be positive and finite, got {t_tx_per_byte_ms}"
            )
        self.power_table = power_table
        self.t_tx_per_byte_ms = t_tx_per_byte_ms
        self.rx_power_mw = (
            power_table.min_level.power_mw if rx_power_mw is None else rx_power_mw
        )
        if not 0.0 <= self.rx_power_mw < math.inf:
            raise ValueError(
                f"rx power must be non-negative and finite, got {self.rx_power_mw}"
            )

    def airtime_ms(self, size_bytes: int) -> float:
        """Time on air for a packet of *size_bytes*."""
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        return size_bytes * self.t_tx_per_byte_ms

    def tx_cost(self, size_bytes: int, level: PowerLevel) -> TransmissionCost:
        """Energy/airtime to transmit *size_bytes* at *level*."""
        airtime = self.airtime_ms(size_bytes)
        return TransmissionCost(
            energy_uj=level.power_mw * airtime, airtime_ms=airtime, power_level=level
        )

    def tx_cost_for_distance(self, size_bytes: int, distance_m: float) -> TransmissionCost:
        """Energy/airtime using the lowest-power level that reaches *distance_m*."""
        level = self.power_table.level_for_distance(distance_m)
        return self.tx_cost(size_bytes, level)

    def tx_cost_max_power(self, size_bytes: int) -> TransmissionCost:
        """Energy/airtime transmitting at the maximum power level (SPIN's mode)."""
        return self.tx_cost(size_bytes, self.power_table.max_level)

    def rx_cost(self, size_bytes: int) -> float:
        """Energy to receive a packet of *size_bytes* (microjoules)."""
        return self.rx_power_mw * self.airtime_ms(size_bytes)


class EnergyLedger:
    """Accumulates energy usage per node and per accounting category.

    Categories used by the protocols:

    * ``"tx"`` — data/control transmissions,
    * ``"rx"`` — receptions,
    * ``"routing"`` — distributed Bellman-Ford table formation and maintenance.
    """

    def __init__(self) -> None:
        self._per_node: Dict[int, float] = defaultdict(float)
        self._per_category: Dict[str, float] = defaultdict(float)
        self._per_node_category: Dict[tuple, float] = defaultdict(float)

    def charge(self, node_id: int, energy_uj: float, category: str = "tx") -> None:
        """Add *energy_uj* to *node_id* under *category*."""
        checked_energy(energy_uj)
        self._per_node[node_id] += energy_uj
        self._per_category[category] += energy_uj
        self._per_node_category[(node_id, category)] += energy_uj

    def hot_path_accounts(self):
        """The ``(per_node, per_category, per_node_category)`` accumulators.

        For the network's per-packet charges only (each transmission, each
        reception and the ADV fan-out): they update the mappings directly, in
        :meth:`charge`'s order, instead of paying one :meth:`charge` call per
        packet.  The network validates each cost with :func:`checked_energy`
        once, when it memoises it, so nothing is re-validated here.  Every
        accumulated float must stay bit-identical to per-call charging.  The
        mappings live as long as the ledger (:meth:`reset` clears them in
        place), so the network fetches them once.

        The ADV fan-out (``Network._deliver_adv_batch``) charges a whole
        batch before it calls any handler, where per-call charging would
        interleave each receiver's charge with its handler.  No byte can
        move, because:

        * handlers never read the ledger or the reception counters;
        * the only ledger writes a handler makes are the tx charges of its
          own sends, keyed to the handler's node, and those come after that
          node's rx charge in both orders;
        * deliveries are always scheduled events, so no rx charge runs
          inside a handler;
        * handlers run in the same order, so calendar pushes, sequence
          numbers and RNG draws do not change;
        * :attr:`total` sums ``per_node`` in first-charge order, and that
          order is receiver order in both designs.

        The batch adds its k equal costs to ``per_category["rx"]`` as a left
        fold, the same k additions in the same order.
        """
        return self._per_node, self._per_category, self._per_node_category

    def charge_batch(
        self,
        node_ids: Sequence[int],
        energies_uj: np.ndarray,
        category: str = "tx",
    ) -> None:
        """Charge many nodes in one call (vectorised validation + totals).

        Equivalent to calling :meth:`charge` once per ``(node, energy)`` pair
        but validates and sums with numpy, which matters for bulk charges
        such as routing-table formation across the whole field.
        """
        energies = np.asarray(energies_uj, dtype=float)
        if energies.shape != (len(node_ids),):
            raise ValueError(
                f"need one energy per node, got {energies.shape} for {len(node_ids)} nodes"
            )
        if not (np.all(np.isfinite(energies)) and np.all(energies >= 0)):
            raise ValueError("energies must be non-negative and finite")
        for node_id, energy in zip(node_ids, energies.tolist()):
            self._per_node[node_id] += energy
            self._per_node_category[(node_id, category)] += energy
        self._per_category[category] += float(energies.sum())

    def node_total(self, node_id: int) -> float:
        """Total energy consumed by *node_id*."""
        return self._per_node.get(node_id, 0.0)

    def category_total(self, category: str) -> float:
        """Total energy consumed network-wide under *category*."""
        return self._per_category.get(category, 0.0)

    def node_category_total(self, node_id: int, category: str) -> float:
        """Energy consumed by *node_id* under *category*."""
        return self._per_node_category.get((node_id, category), 0.0)

    @property
    def total(self) -> float:
        """Network-wide total energy consumed."""
        return sum(self._per_node.values())

    @property
    def per_node(self) -> Dict[int, float]:
        """Copy of the per-node totals."""
        return dict(self._per_node)

    @property
    def per_category(self) -> Dict[str, float]:
        """Copy of the per-category totals."""
        return dict(self._per_category)

    def reset(self) -> None:
        """Zero every counter."""
        self._per_node.clear()
        self._per_category.clear()
        self._per_node_category.clear()
