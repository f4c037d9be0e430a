"""Tests for the single source/destination workload."""

import math
import re

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

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"source": 0.0}, "source must be an integer, got 0.0"),
            ({"source": False}, "source must be an integer, got false"),
            ({"destinations": [1.0]}, "destination must be an integer, got 1.0"),
            ({"destinations": [True]}, "destination must be an integer, got true"),
            ({"destinations": "12"}, 'destinations must be a list of node ids, got "12"'),
            ({"destinations": 1}, "destinations must be a list of node ids, got 1"),
            ({"num_items": True}, "num_items must be an integer, got true"),
            ({"num_items": 2.0}, "num_items must be an integer, got 2.0"),
            ({"num_items": None}, "num_items must be an integer, got null"),
            ({"num_items": "2"}, 'num_items must be an integer, got "2"'),
            ({"data_size_bytes": True}, "data_size_bytes must be an integer, got true"),
            ({"data_size_bytes": 40.0}, "data_size_bytes must be an integer, got 40.0"),
            ({"interval_ms": True}, "interval_ms must be a finite number, got true"),
            ({"interval_ms": "5"}, 'interval_ms must be a finite number, got "5"'),
            ({"interval_ms": math.inf}, "interval_ms must be a finite number, got Infinity"),
            ({"start_ms": False}, "start_ms must be a finite number, got false"),
            ({"start_ms": math.nan}, "start_ms must be a finite number, got NaN"),
        ],
        ids=[
            "float-source", "bool-source", "float-destination", "bool-destination",
            "string-destinations", "int-destinations", "bool-item-count", "float-item-count",
            "null-item-count", "string-item-count", "bool-data-size", "float-data-size",
            "bool-interval", "string-interval", "infinite-interval", "bool-start", "nan-start",
        ],
    )
    def test_each_option_has_its_own_type(self, options, message):
        # True == 1 and 0.0 == 0, so a bool or a float passed every range
        # check before, and "12" made the destinations ["1", "2"].
        options = {"source": 0, "destinations": [1], **options}
        with pytest.raises(ValueError, match=f"^single_pair {re.escape(message)}$"):
            SinglePairWorkload(**options)

    def test_interval_and_start_take_integers(self):
        workload = SinglePairWorkload(0, [1], num_items=2, interval_ms=3, start_ms=10)
        schedule = workload.generate(RandomStreams(1))
        assert [s.time_ms for s in schedule] == [10, 13]
