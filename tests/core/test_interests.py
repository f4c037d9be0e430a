"""Tests for interest models."""

import pytest

from repro.core.interests import AllInterested, ExplicitInterest, ProbabilisticInterest
from repro.core.metadata import DataDescriptor


class TestAllInterested:
    def test_everyone_but_the_source_wants_it(self):
        model = AllInterested()
        d = DataDescriptor("x")
        assert model.is_interested(1, d, source=0)
        assert not model.is_interested(0, d, source=0)


class TestProbabilisticInterest:
    def test_probability_zero_means_only_forced_nodes(self):
        model = ProbabilisticInterest(0.0, always_interested=[7])
        d = DataDescriptor("x")
        assert model.is_interested(7, d, source=0)
        assert not model.is_interested(3, d, source=0)

    def test_probability_one_means_everyone(self):
        model = ProbabilisticInterest(1.0)
        assert model.is_interested(3, DataDescriptor("x"), source=0)

    def test_source_never_interested(self):
        model = ProbabilisticInterest(1.0, always_interested=[0])
        assert not model.is_interested(0, DataDescriptor("x"), source=0)

    def test_decision_is_deterministic(self):
        model = ProbabilisticInterest(0.5)
        d = DataDescriptor("item/1")
        first = model.is_interested(3, d, source=0)
        assert all(model.is_interested(3, d, source=0) == first for _ in range(10))

    def test_empirical_rate_close_to_probability(self):
        model = ProbabilisticInterest(0.05)
        hits = sum(
            model.is_interested(node, DataDescriptor(f"item/{i}"), source=10_000)
            for node in range(100)
            for i in range(20)
        )
        assert 40 <= hits <= 170  # 2000 draws at p=0.05 -> ~100 expected

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            ProbabilisticInterest(1.5)


class TestExplicitInterest:
    def test_only_listed_nodes_are_interested(self):
        model = ExplicitInterest({"a": {1, 2}})
        d = DataDescriptor("a")
        assert model.is_interested(1, d, source=0)
        assert not model.is_interested(3, d, source=0)

    def test_unknown_item_has_no_interest(self):
        model = ExplicitInterest({})
        assert not model.is_interested(1, DataDescriptor("zzz"), source=0)

    def test_set_interest_replaces(self):
        model = ExplicitInterest({"a": {1}})
        model.set_interest("a", [2, 3])
        d = DataDescriptor("a")
        assert not model.is_interested(1, d, source=0)
        assert model.is_interested(2, d, source=0)

    def test_source_excluded_even_if_listed(self):
        model = ExplicitInterest({"a": {0, 1}})
        assert not model.is_interested(0, DataDescriptor("a"), source=0)
