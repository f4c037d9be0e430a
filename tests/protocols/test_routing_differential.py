"""Matrix-form DBF vs its naive per-message twin: exact equality.

:class:`DistributedBellmanFord` computes zone routes as a min-plus
relaxation over numpy arrays; :class:`NaiveDistributedBellmanFord` is the
retained dict-of-dicts simulation of every broadcast.  On random fields,
radii, failed-node subsets and round limits both must yield the same table
owners, the same destinations, float-identical candidate lists in the same
order, and the same :class:`ConvergenceStats` in every field — the stats are
charged as routing energy, so they are part of the observable contract.
``oracle_mode()`` swaps the twin into :class:`RoutingManager`, so the
end-to-end SPMS differentials (failures, mobility) cover the swap too.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.power import build_power_table_for_radius
from repro.routing.bellman_ford import (
    ConvergenceStats,
    DistributedBellmanFord,
    NaiveDistributedBellmanFord,
)
from repro.topology.field import SensorField
from repro.topology.node import NodeInfo, Position
from repro.topology.placement import grid_placement
from repro.topology.zone import ZoneMap


def assert_twins_agree(field, radius, excluded, max_rounds):
    table = build_power_table_for_radius(radius, num_levels=5, alpha=2.0)
    zones = ZoneMap(field, radius)
    kwargs = dict(max_rounds=max_rounds, exclude_nodes=excluded)
    fast_tables, fast_stats = DistributedBellmanFord(field, table, zones, **kwargs).compute()
    naive_tables, naive_stats = NaiveDistributedBellmanFord(
        field, table, zones, **kwargs
    ).compute()
    for stat in dataclasses.fields(ConvergenceStats):
        assert getattr(fast_stats, stat.name) == getattr(naive_stats, stat.name), stat.name
    assert list(fast_tables) == list(naive_tables)
    for node, fast in fast_tables.items():
        naive = naive_tables[node]
        assert fast.destinations == naive.destinations, node
        for dest in naive.destinations:
            assert fast.candidates(dest) == naive.candidates(dest), (node, dest)
            assert fast.best(dest) == naive.candidates(dest)[0]


@st.composite
def routing_inputs(draw):
    count = draw(st.integers(min_value=3, max_value=40))
    side = draw(st.sampled_from((15.0, 30.0, 60.0)))
    coordinate = st.floats(min_value=0.0, max_value=side, allow_nan=False)
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=count, max_size=count))
    field = SensorField(
        [NodeInfo(node_id=i, position=Position(x, y)) for i, (x, y) in enumerate(points)]
    )
    radius = draw(st.floats(min_value=4.0, max_value=30.0))
    excluded = draw(st.sets(st.integers(min_value=0, max_value=count - 1), max_size=count // 2))
    max_rounds = draw(st.sampled_from((0, 1, 2, None)))
    return field, radius, excluded, max_rounds


class TestMatrixDbfMatchesNaiveTwin:
    @settings(max_examples=80, deadline=None)
    @given(routing_inputs())
    def test_random_fields(self, inputs):
        assert_twins_agree(*inputs)

    @pytest.mark.parametrize("max_rounds", [0, 1, 2, None])
    @pytest.mark.parametrize("excluded", [set(), {0, 9, 27, 40, 63}])
    def test_dense_grid_with_equal_cost_ties(self, excluded, max_rounds):
        # A regular grid makes many multi-hop costs exactly equal, so the
        # next-hop-id tiebreak decides the candidate order.
        field = SensorField(grid_placement(64, spacing_m=5.0))
        assert_twins_agree(field, 20.0, excluded, max_rounds)
