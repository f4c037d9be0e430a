"""Tests for the per-node data cache."""

from hypothesis import given, strategies as st

from repro.core.cache import DataCache
from repro.core.metadata import DataDescriptor, DataItem


def item(name: str) -> DataItem:
    return DataItem(descriptor=DataDescriptor(name), source=0)


class TestDataCache:
    def test_add_and_has(self):
        cache = DataCache()
        cache.add(item("a"))
        assert cache.has(DataDescriptor("a"))
        assert DataDescriptor("a") in cache
        assert not cache.has(DataDescriptor("b"))

    def test_get_returns_item(self):
        cache = DataCache()
        first = item("a")
        cache.add(first)
        assert cache.get(DataDescriptor("a")) is first
        assert cache.get(DataDescriptor("zzz")) is None

    def test_duplicate_add_keeps_single_entry(self):
        cache = DataCache()
        first = item("a")
        cache.add(first)
        cache.add(item("a"))
        assert len(cache) == 1
        # The first item of a name stays; a repeat does not replace it.
        assert cache.get(DataDescriptor("a")) is first

    def test_items_in_insertion_order(self):
        cache = DataCache()
        cache.add(item("b"))
        cache.add(item("a"))
        cache.add(item("b"))
        assert [i.item_id for i in cache.items()] == ["b", "a"]

    def test_held_names_is_a_live_view(self):
        # The network takes the view once, at registration.
        cache = DataCache()
        held = cache.held_names()
        assert "a" not in held
        cache.add(item("a"))
        assert "a" in held
        assert set(held) == {"a"}

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=50))
    def test_property_unbounded_cache_never_forgets(self, names):
        cache = DataCache()
        held = cache.held_names()
        for name in names:
            cache.add(item(name))
        for name in names:
            assert cache.has(DataDescriptor(name))
        assert len(cache) == len(set(names))
        assert set(held) == set(names)

    @given(
        st.lists(st.sampled_from("abcdef"), max_size=20),
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=10),
    )
    def test_property_lookups_agree_with_held_names(self, added, probes):
        # The network skips an ADV handler by the held-names view, which is
        # sound only while the view answers exactly what `has` answers.
        cache = DataCache()
        held = cache.held_names()
        firsts = {}
        for name in added:
            new = item(name)
            firsts.setdefault(name, new)
            cache.add(new)
        for name in probes:
            descriptor = DataDescriptor(name)
            assert cache.has(descriptor) == (descriptor in cache) == (name in held)
            assert cache.has(descriptor) == (name in firsts)
            assert cache.get(descriptor) is firsts.get(name)
