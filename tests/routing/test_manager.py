"""Tests for the routing manager."""

from repro.radio.energy import EnergyLedger, EnergyModel
from repro.radio.power import build_power_table_for_radius
from repro.routing.manager import ROUTING_CATEGORY, RoutingManager
from repro.topology.field import SensorField
from repro.topology.node import Position
from repro.topology.placement import grid_placement
from repro.topology.zone import ZoneMap


def make_manager(charge_energy=True, num_nodes=9, radius=20.0):
    field = SensorField(grid_placement(num_nodes, spacing_m=5.0))
    table = build_power_table_for_radius(radius, num_levels=5, alpha=2.0)
    zones = ZoneMap(field, radius)
    ledger = EnergyLedger()
    manager = RoutingManager(
        field=field,
        power_table=table,
        zone_map=zones,
        energy_model=EnergyModel(table, rx_power_mw=0.0125),
        energy_ledger=ledger,
        charge_energy=charge_energy,
    )
    return manager, field, ledger


class TestRoutingManager:
    def test_build_creates_tables_for_every_node(self):
        manager, field, _ = make_manager()
        manager.build()
        assert set(manager.tables) == set(field.node_ids)
        assert manager.rebuilds == 1

    def test_next_hop_and_cost_queries(self):
        manager, _, _ = make_manager()
        manager.build()
        # Corner 0 to corner 8 (14.1 m): cheaper over the centre node.
        assert manager.next_hop(0, 8) in (1, 3, 4)
        assert manager.route_cost(0, 8) is not None

    def test_backup_next_hop_differs_from_primary(self):
        manager, _, _ = make_manager()
        manager.build()
        primary = manager.next_hop(0, 8)
        backup = manager.backup_next_hop(0, 8)
        assert backup is not None
        assert backup != primary

    def test_energy_charged_when_enabled(self):
        manager, _, ledger = make_manager(charge_energy=True)
        manager.build()
        assert ledger.category_total(ROUTING_CATEGORY) > 0.0

    def test_energy_not_charged_when_disabled(self):
        manager, _, ledger = make_manager(charge_energy=False)
        manager.build()
        assert ledger.category_total(ROUTING_CATEGORY) == 0.0

    def test_rebuild_after_move_changes_routes(self):
        manager, field, _ = make_manager()
        manager.build()
        before = manager.route_cost(0, 8)
        # Drag node 8 next to node 0 and rebuild.
        field.move_node(8, Position(2.0, 2.0))
        manager.build()
        after = manager.route_cost(0, 8)
        assert manager.rebuilds == 2
        assert after < before

    def test_exclude_failed_nodes(self):
        manager, _, _ = make_manager()
        manager.build(exclude_nodes={4})
        # The centre node is excluded; routes avoid it.
        assert manager.next_hop(0, 8) != 4

    def test_table_for_unknown_node_is_empty(self):
        manager, _, _ = make_manager()
        manager.build()
        assert manager.next_hop(0, 999) is None

    def test_total_stats_accumulate_across_rebuilds(self):
        manager, field, _ = make_manager()
        manager.build()
        first = manager.total_stats.messages
        field.move_node(0, Position(1.0, 1.0))
        manager.build()
        assert manager.total_stats.messages > first
