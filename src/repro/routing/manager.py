"""Routing manager: owns tables, refreshes them, charges routing energy.

SPMS charges the energy of building and re-building routing tables (the
distance-vector broadcasts and receptions) to the protocol — this is exactly
the overhead the mobility experiment (Figure 12) studies.  SPIN has no routing
tables and therefore never pays this cost.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.radio.energy import EnergyLedger, EnergyModel
from repro.radio.power import PowerTable
from repro.routing.bellman_ford import ConvergenceStats, DistributedBellmanFord
from repro.routing.table import RoutingTable
from repro.topology.field import SensorField
from repro.topology.zone import ZoneMap

#: Ledger category used for route-formation energy.
ROUTING_CATEGORY = "routing"


class RoutingManager:
    """Builds and serves per-node routing tables.

    Args:
        field: Node positions.
        power_table: Discrete transmission power levels.
        zone_map: Zone membership at the maximum transmission radius.
        energy_model: Used to convert distance-vector traffic into energy.
        energy_ledger: Where routing energy is charged (``"routing"`` category).
        charge_energy: When false (SPIN, analytical runs) no energy is charged.
    """

    def __init__(
        self,
        field: SensorField,
        power_table: PowerTable,
        zone_map: ZoneMap,
        energy_model: Optional[EnergyModel] = None,
        energy_ledger: Optional[EnergyLedger] = None,
        charge_energy: bool = True,
    ) -> None:
        self.field = field
        self.power_table = power_table
        self.zone_map = zone_map
        self.energy_model = energy_model
        self.energy_ledger = energy_ledger
        self.charge_energy = charge_energy
        self.tables: Dict[int, RoutingTable] = {}
        self.total_stats = ConvergenceStats()
        self.rebuilds = 0

    # ------------------------------------------------------------------ build

    def build(self, exclude_nodes: Optional[Set[int]] = None) -> ConvergenceStats:
        """(Re)run distributed Bellman-Ford and refresh all tables."""
        if self.zone_map.stale:
            self.zone_map.refresh()
        dbf = DistributedBellmanFord(
            self.field,
            self.power_table,
            self.zone_map,
            exclude_nodes=exclude_nodes,
        )
        tables, stats = dbf.compute()
        self.tables = tables
        self.total_stats.merge(stats)
        self.rebuilds += 1
        if self.charge_energy:
            self._charge(stats)
        return stats

    def _charge(self, stats: ConvergenceStats) -> None:
        if self.energy_model is None or self.energy_ledger is None:
            return
        if stats.messages == 0:
            return
        # Distance-vector broadcasts go out at maximum power so that every
        # zone neighbour hears them; receptions are charged at receive power.
        avg_tx_bytes = stats.bytes_sent / stats.messages
        tx_cost = self.energy_model.tx_cost_max_power(max(1, round(avg_tx_bytes)))
        tx_energy_total = tx_cost.energy_uj * stats.messages
        rx_energy_total = 0.0
        if stats.receptions:
            avg_rx_bytes = stats.bytes_received / stats.receptions
            rx_energy_total = (
                self.energy_model.rx_cost(max(1, round(avg_rx_bytes))) * stats.receptions
            )
        # Spread the charge uniformly over the nodes; the experiments only use
        # the network-wide total, so the split does not affect any result.
        node_ids = self.field.node_ids
        per_node = (tx_energy_total + rx_energy_total) / len(node_ids)
        self.energy_ledger.charge_batch(
            node_ids,
            np.full(len(node_ids), per_node),
            category=ROUTING_CATEGORY,
        )

    # ---------------------------------------------------------------- queries

    def table(self, node_id: int) -> RoutingTable:
        """The routing table of *node_id* (empty table if it has none)."""
        if node_id not in self.tables:
            self.tables[node_id] = RoutingTable(node_id)
        return self.tables[node_id]

    def next_hop(
        self, node_id: int, destination: int, exclude: Optional[Set[int]] = None
    ) -> Optional[int]:
        """Primary (or best non-excluded) next hop from *node_id* to *destination*."""
        return self.table(node_id).next_hop(destination, exclude)

    def backup_next_hop(self, node_id: int, destination: int) -> Optional[int]:
        """Backup next hop from *node_id* to *destination*."""
        return self.table(node_id).backup_next_hop(destination)

    def route_cost(self, node_id: int, destination: int) -> Optional[float]:
        """Cost of the best route from *node_id* to *destination*."""
        return self.table(node_id).cost(destination)
