"""Tests for interest models."""

from repro.core.interests import AllInterested, ExplicitInterest
from repro.core.metadata import DataDescriptor


class TestAllInterested:
    def test_everyone_but_the_source_wants_it(self):
        model = AllInterested()
        d = DataDescriptor("x")
        assert model.is_interested(1, d, source=0)
        assert not model.is_interested(0, d, source=0)


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
