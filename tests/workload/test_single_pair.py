"""Tests for the single source/destination workload."""

import pytest

from repro.sim.rng import RandomStreams
from repro.workload.single_pair import SinglePairWorkload


class TestSinglePairWorkload:
    def test_schedule_structure(self):
        workload = SinglePairWorkload(source=0, destinations=[3, 4], num_items=3, interval_ms=5.0)
        schedule = workload.generate(RandomStreams(1))
        assert len(schedule) == 3
        assert [s.time_ms for s in schedule] == [0.0, 5.0, 10.0]
        assert all(s.source == 0 for s in schedule)
        assert all(s.interested == [3, 4] for s in schedule)

    def test_interest_model_matches_destinations(self):
        workload = SinglePairWorkload(source=0, destinations=[2])
        schedule = workload.generate(RandomStreams(1))
        model = workload.interest_model()
        descriptor = schedule[0].item.descriptor
        assert model.is_interested(2, descriptor, source=0)
        assert not model.is_interested(1, descriptor, source=0)

    def test_expected_items(self):
        assert SinglePairWorkload(0, [1], num_items=7).expected_items == 7

    def test_start_offset(self):
        workload = SinglePairWorkload(0, [1], num_items=2, interval_ms=3.0, start_ms=10.0)
        schedule = workload.generate(RandomStreams(1))
        assert [s.time_ms for s in schedule] == [10.0, 13.0]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SinglePairWorkload(0, [0])
        with pytest.raises(ValueError):
            SinglePairWorkload(0, [1], num_items=0)
        with pytest.raises(ValueError):
            SinglePairWorkload(0, [1], interval_ms=0.0)

    def test_needs_a_destination(self):
        with pytest.raises(ValueError, match="^single_pair needs at least one destination$"):
            SinglePairWorkload(0, [])

    def test_destinations_are_distinct(self):
        # A repeated node counted twice among the expected deliveries, so a
        # working run reported a delivery ratio of 0.5.
        with pytest.raises(ValueError, match=r"^single_pair destinations repeat a node: \[3, 3\]$"):
            SinglePairWorkload(0, [3, 3])

    def test_interval_and_start_take_integers(self):
        workload = SinglePairWorkload(0, [1], num_items=2, interval_ms=3, start_ms=10)
        schedule = workload.generate(RandomStreams(1))
        assert [s.time_ms for s in schedule] == [10, 13]
