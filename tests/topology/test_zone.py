"""Tests for zone computation."""

import pytest

from repro.topology.field import SensorField
from repro.topology.node import Position
from repro.topology.placement import grid_placement
from repro.topology.zone import ZoneMap, compute_zones


class TestZoneMap:
    def test_zone_neighbors_at_small_radius(self, small_field):
        zones = ZoneMap(small_field, 5.0)
        assert zones.zone_neighbors(4) == {1, 3, 5, 7}
        assert zones.zone_size(0) == 2  # corner node: right and down neighbours

    def test_full_connectivity_at_large_radius(self, small_field):
        zones = ZoneMap(small_field, 20.0)
        assert zones.zone_size(0) == 8
        assert zones.in_zone(0, 8)

    def test_zone_excludes_self(self, small_field):
        zones = ZoneMap(small_field, 20.0)
        assert 4 not in zones.zone_neighbors(4)

    def test_symmetry(self, small_field):
        zones = ZoneMap(small_field, 7.1)
        for a in small_field.node_ids:
            for b in zones.zone_neighbors(a):
                assert zones.in_zone(b, a)

    def test_isolated_nodes(self):
        field = SensorField(grid_placement(4, spacing_m=50.0))
        zones = ZoneMap(field, 10.0)
        assert zones.isolated_nodes() == [0, 1, 2, 3]

    def test_stale_and_refresh_after_move(self, small_field):
        zones = ZoneMap(small_field, 5.0)
        assert not zones.stale
        small_field.move_node(0, Position(100.0, 100.0))
        assert zones.stale
        zones.refresh()
        assert not zones.stale
        assert zones.zone_size(0) == 0

    def test_invalid_radius(self, small_field):
        with pytest.raises(ValueError):
            ZoneMap(small_field, 0.0)

    def test_compute_zones_helper(self, small_field):
        zones = compute_zones(small_field, 5.0)
        assert isinstance(zones, ZoneMap)
        assert zones.radius_m == 5.0
