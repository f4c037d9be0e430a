"""Tests for meta-data descriptors and data items."""

import pytest

from repro.core.metadata import DataDescriptor, DataItem


class TestDataDescriptor:
    def test_same_name_is_equal(self):
        assert DataDescriptor("temp/1") == DataDescriptor("temp/1")
        assert DataDescriptor("a") != DataDescriptor("b")

    def test_descriptor_is_hashable(self):
        assert len({DataDescriptor("x"), DataDescriptor("x")}) == 1


class TestDataItem:
    def test_item_id_is_descriptor_name(self):
        item = DataItem(descriptor=DataDescriptor("temp/42"), source=3)
        assert item.item_id == "temp/42"

    def test_default_size_matches_table1(self):
        item = DataItem(descriptor=DataDescriptor("x"), source=0)
        assert item.size_bytes == 40

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            DataItem(descriptor=DataDescriptor("x"), source=0, size_bytes=0)
