"""Equivalence tests: the vectorised radio APIs vs their scalar counterparts.

The numpy batch entry points (pairwise distances, range adjacency, power-level
lookup, per-packet energy) must agree bit-for-bit with the scalar paths they
accelerate — zone membership, routing link costs and energy accounting all
rely on that equivalence for determinism.
"""

import numpy as np
import pytest

from repro.radio.energy import EnergyLedger, EnergyModel
from repro.radio.pathloss import (
    PowerLawPathLoss,
    TwoRayGroundPathLoss,
    neighbors_within_matrix,
    pairwise_distances,
)
from repro.radio.power import build_power_table_for_radius
from repro.topology.field import SensorField
from repro.topology.placement import grid_placement


@pytest.fixture
def field():
    return SensorField(grid_placement(16, spacing_m=5.0))


class TestPairwiseGeometry:
    def test_distances_match_scalar_field_queries(self, field):
        ids, positions = field.positions_array()
        distances = pairwise_distances(positions)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                assert distances[i, j] == field.distance(a, b)

    def test_adjacency_matches_neighbors_within(self, field):
        ids, positions = field.positions_array()
        for radius in (5.0, 7.5, 15.0):
            adjacency = neighbors_within_matrix(positions, radius)
            for i, a in enumerate(ids):
                expected = set(field.neighbors_within(a, radius))
                got = {ids[j] for j in adjacency[i].nonzero()[0]}
                assert got == expected, (a, radius)

    def test_diagonal_excluded_and_validation(self, field):
        _ids, positions = field.positions_array()
        assert not neighbors_within_matrix(positions, 100.0).diagonal().any()
        with pytest.raises(ValueError, match="non-negative"):
            neighbors_within_matrix(positions, -1.0)
        with pytest.raises(ValueError, match="shape"):
            pairwise_distances(np.zeros((3, 3)))

    def test_positions_array_cache_invalidated_by_moves(self, field):
        from repro.topology.node import Position

        ids, first = field.positions_array()
        assert field.positions_array()[1] is first  # cached
        field.move_node(ids[0], Position(1.0, 2.0))
        _ids, second = field.positions_array()
        assert second is not first
        assert tuple(second[0]) == (1.0, 2.0)


class TestPowerTableVectorised:
    def test_power_for_distances_matches_scalar_lookup(self):
        table = build_power_table_for_radius(20.0, num_levels=5, alpha=2.0)
        distances = np.linspace(0.0, 20.0, 101)
        powers = table.power_for_distances(distances)
        for d, p in zip(distances, powers):
            assert p == table.level_for_distance(float(d)).power_mw

    def test_out_of_range_yields_nan(self):
        table = build_power_table_for_radius(20.0, num_levels=3, alpha=2.0)
        powers = table.power_for_distances(np.array([5.0, 20.0, 25.0]))
        assert not np.isnan(powers[:2]).any()
        assert np.isnan(powers[2])


class TestPathLossVectorised:
    @pytest.mark.parametrize(
        "model", [PowerLawPathLoss(alpha=3.5), TwoRayGroundPathLoss()]
    )
    def test_array_matches_scalar(self, model):
        distances = np.linspace(0.0, 30.0, 61)
        vectorised = model.required_power_array(distances)
        scalar = [model.required_power(float(d)) for d in distances]
        assert vectorised == pytest.approx(scalar)

    def test_negative_distances_rejected(self):
        with pytest.raises(ValueError):
            PowerLawPathLoss().required_power_array(np.array([1.0, -0.1]))


class TestEnergyBatch:
    @pytest.fixture
    def model(self):
        table = build_power_table_for_radius(20.0, num_levels=5, alpha=2.0)
        return EnergyModel(table, t_tx_per_byte_ms=0.05, rx_power_mw=0.0125)

    def test_charge_batch_equivalent_to_charge_loop(self, model):
        batched, looped = EnergyLedger(), EnergyLedger()
        node_ids = [1, 2, 3]
        energies = np.array([0.5, 0.0, 2.25])
        batched.charge_batch(node_ids, energies, category="routing")
        for node_id, energy in zip(node_ids, energies):
            looped.charge(node_id, float(energy), category="routing")
        assert batched.per_node == looped.per_node
        assert batched.per_category == pytest.approx(looped.per_category)
        assert batched.node_category_total(3, "routing") == 2.25

    def test_charge_batch_validation(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError, match="one energy per node"):
            ledger.charge_batch([1, 2], np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            ledger.charge_batch([1], np.array([-1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            ledger.charge_batch([1], np.array([np.nan]))
