"""Tests for the sensor field."""

import pytest

from repro.topology.field import SensorField
from repro.topology.node import NodeInfo, Position
from repro.topology.placement import grid_placement


class TestSensorField:
    def test_len_and_contains(self, small_field):
        assert len(small_field) == 9
        assert 0 in small_field and 8 in small_field
        assert 99 not in small_field

    def test_duplicate_ids_rejected(self):
        nodes = [NodeInfo(1, Position(0, 0)), NodeInfo(1, Position(1, 1))]
        with pytest.raises(ValueError):
            SensorField(nodes)

    def test_empty_field_rejected(self):
        with pytest.raises(ValueError):
            SensorField([])

    def test_unknown_node_raises_keyerror(self, small_field):
        with pytest.raises(KeyError):
            small_field.node(42)

    def test_distance(self, small_field):
        # Nodes 0 and 2 are two grid steps apart on the same row (10 m).
        assert small_field.distance(0, 2) == pytest.approx(10.0)
        assert small_field.distance(0, 0) == 0.0

    def test_neighbors_within_excludes_self(self, small_field):
        neighbors = small_field.neighbors_within(4, 5.0)
        assert 4 not in neighbors
        # The centre of a 3x3 grid has exactly 4 orthogonal neighbours at 5 m.
        assert sorted(neighbors) == [1, 3, 5, 7]

    def test_neighbors_within_includes_boundary(self, small_field):
        # Diagonal neighbours are at ~7.07 m.
        neighbors = small_field.neighbors_within(4, 7.08)
        assert len(neighbors) == 8

    def test_negative_radius_rejected(self, small_field):
        with pytest.raises(ValueError):
            small_field.neighbors_within(0, -1.0)

    def test_bounding_box(self, small_field):
        assert small_field.bounding_box() == (0.0, 0.0, 10.0, 10.0)

    def test_move_node_updates_distance_and_version(self, small_field):
        version = small_field.topology_version
        small_field.move_node(0, Position(100.0, 100.0))
        assert small_field.topology_version == version + 1
        assert small_field.distance(0, 8) > 100.0

    def test_iteration_yields_all_nodes(self, small_field):
        assert sorted(n.node_id for n in small_field) == list(range(9))

    def test_node_ids_sorted(self):
        field = SensorField(list(reversed(grid_placement(5))))
        assert field.node_ids == [0, 1, 2, 3, 4]
