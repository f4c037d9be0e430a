"""Indexed `DataCache` vs naive-scan oracle, plus edge cases the scan-based
code never exercised.

The production cache answers membership through a name index and an
incrementally maintained coverage memo; :class:`NaiveDataCache` is the
retained pre-optimisation implementation.  The hypothesis machine drives
both through random operation sequences and asserts the *observable
contract* stays equal:

* ``has`` / ``__contains__`` / ``len`` agree after every operation;
* ``get`` agrees on presence, and on identity for exact-name hits;
* capacity-bounded caches agree *exactly* (items order, evicted keys,
  eviction count) — recency is observable there, so the optimized cache
  keeps the verbatim LRU algorithm.

For unbounded caches the optimized implementation deliberately stops
maintaining LRU recency (it is unobservable without eviction); when several
regioned items cover the same queried descriptor, scan *order* may differ —
so coverage ``get`` is compared by validity (both sides return a covering
item), which is all the protocols rely on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import DataCache, NaiveDataCache
from repro.core.metadata import DataDescriptor, DataItem


def make_item(name, region=None, size_bytes=40):
    return DataItem(
        descriptor=DataDescriptor.intern(name, region),
        source=0,
        created_at_ms=0.0,
        size_bytes=size_bytes,
    )


# A small universe so collisions (duplicate names, overlapping regions,
# boundary-touching regions) are common instead of measure-zero.
names = st.sampled_from([f"item/{i}" for i in range(8)])
coords = st.integers(min_value=0, max_value=4).map(float)
regions = st.tuples(coords, coords, coords, coords).map(
    lambda r: (min(r[0], r[2]), min(r[1], r[3]), max(r[0], r[2]), max(r[1], r[3]))
)
maybe_regions = st.none() | regions
descriptors = st.builds(
    lambda n, r: DataDescriptor.intern(n, r), names, maybe_regions
)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), descriptors),
        st.tuples(st.just("has"), descriptors),
        st.tuples(st.just("get"), descriptors),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=40,
)


def apply_and_compare(fast: DataCache, naive: NaiveDataCache, op, payload) -> None:
    if op == "add":
        item = DataItem(descriptor=payload, source=0, created_at_ms=0.0, size_bytes=40)
        fast.add(item)
        naive.add(item)
    elif op == "has":
        assert fast.has(payload) == naive.has(payload)
        assert (payload in fast) == (payload in naive)
    elif op == "get":
        fast_item = fast.get(payload)
        naive_item = naive.get(payload)
        assert (fast_item is None) == (naive_item is None)
        if fast_item is not None:
            assert fast_item.descriptor.covers(payload)
            assert naive_item.descriptor.covers(payload)
            if payload.name == naive_item.descriptor.name:
                # Exact-name hits must return the very same item.
                assert fast_item is naive_item
    else:  # clear
        fast.clear()
        naive.clear()
    assert len(fast) == len(naive)


class TestUnboundedDifferential:
    @settings(max_examples=200)
    @given(ops)
    def test_random_op_sequences_match_naive_oracle(self, operations):
        fast, naive = DataCache(), NaiveDataCache()
        # Taken once, as the network does: the view must stay live.
        held = fast.held_names()
        for op, payload in operations:
            apply_and_compare(fast, naive, op, payload)
            assert set(held) == {item.descriptor.name for item in naive.items()}
        # Same final contents regardless of internal ordering.
        fast_names = {item.descriptor.name for item in fast.items()}
        naive_names = {item.descriptor.name for item in naive.items()}
        assert fast_names == naive_names

    @settings(max_examples=100)
    @given(ops, st.lists(descriptors, max_size=8))
    def test_final_membership_matches_for_arbitrary_probes(self, operations, probes):
        fast, naive = DataCache(), NaiveDataCache()
        for op, payload in operations:
            apply_and_compare(fast, naive, op, payload)
        for probe in probes:
            assert fast.has(probe) == naive.has(probe)


class TestBoundedDifferential:
    """With a capacity bound, recency and eviction are observable — the
    optimized cache must be *exactly* the legacy LRU, item order included."""

    @settings(max_examples=200)
    @given(st.integers(min_value=1, max_value=4), ops)
    def test_random_op_sequences_match_exactly(self, capacity, operations):
        fast = DataCache(capacity=capacity)
        naive = NaiveDataCache(capacity=capacity)
        for op, payload in operations:
            apply_and_compare(fast, naive, op, payload)
            assert fast.evictions == naive.evictions
            assert [i.descriptor for i in fast.items()] == [
                i.descriptor for i in naive.items()
            ]


class TestEdgeCases:
    """Deterministic regressions for cases linear scans made trivially right
    and an index has to get right on purpose."""

    def test_duplicate_insertion_is_idempotent(self):
        cache = DataCache()
        first = make_item("a", (0.0, 0.0, 2.0, 2.0))
        second = make_item("a", (0.0, 0.0, 2.0, 2.0))
        cache.add(first)
        cache.add(second)
        assert len(cache) == 1
        # First insertion wins; the duplicate must not replace it.
        assert cache.get(DataDescriptor.intern("a", (0.0, 0.0, 2.0, 2.0))) is first

    def test_duplicate_name_different_region_keeps_first(self):
        cache = DataCache()
        wide = make_item("a", (0.0, 0.0, 4.0, 4.0))
        narrow = make_item("a", (1.0, 1.0, 2.0, 2.0))
        cache.add(wide)
        cache.add(narrow)
        assert len(cache) == 1
        # Coverage still answers through the retained (wide) region.
        assert cache.has(DataDescriptor("probe", (3.0, 3.0, 4.0, 4.0)))

    def test_region_boundary_is_inclusive(self):
        cache = DataCache()
        cache.add(make_item("tile", (0.0, 0.0, 2.0, 2.0)))
        # A probe sitting exactly on the covering region's edge is covered...
        assert cache.has(DataDescriptor("probe", (2.0, 0.0, 2.0, 2.0)))
        assert cache.has(DataDescriptor("probe", (0.0, 0.0, 2.0, 2.0)))
        # ...a probe extending past it is not.
        assert not cache.has(DataDescriptor("probe", (0.0, 0.0, 2.0, 2.1)))

    def test_miss_memo_invalidated_by_new_coverage(self):
        cache = DataCache()
        probe = DataDescriptor.intern("probe", (1.0, 1.0, 2.0, 2.0))
        cache.add(make_item("far", (5.0, 5.0, 6.0, 6.0)))
        assert not cache.has(probe)  # records a miss
        cache.add(make_item("near", (0.0, 0.0, 3.0, 3.0)))
        assert cache.has(probe)  # the memoised miss must not stick

    def test_hit_memo_survives_unrelated_insertions(self):
        cache = DataCache()
        covering = make_item("cover", (0.0, 0.0, 4.0, 4.0))
        cache.add(covering)
        probe = DataDescriptor.intern("probe", (1.0, 1.0, 2.0, 2.0))
        assert cache.get(probe) is covering
        cache.add(make_item("other", (5.0, 5.0, 6.0, 6.0)))
        assert cache.get(probe) is covering

    def test_clear_resets_memo(self):
        cache = DataCache()
        cache.add(make_item("cover", (0.0, 0.0, 4.0, 4.0)))
        probe = DataDescriptor.intern("probe", (1.0, 1.0, 2.0, 2.0))
        assert cache.has(probe)
        cache.clear()
        assert not cache.has(probe)
        assert len(cache) == 0

    def test_regionless_descriptors_never_cover_other_names(self):
        cache = DataCache()
        cache.add(make_item("a"))
        assert cache.has(DataDescriptor("a"))
        assert not cache.has(DataDescriptor("b"))
        assert not cache.has(DataDescriptor("b", (0.0, 0.0, 1.0, 1.0)))

    def test_held_names_only_from_an_unbounded_indexed_cache(self):
        # A bounded `has` touches recency, and the oracle never short-circuits.
        assert DataCache(capacity=2).held_names() is None
        assert NaiveDataCache().held_names() is None
        assert NaiveDataCache(capacity=2).held_names() is None

    def test_eviction_keeps_index_consistent(self):
        cache = DataCache(capacity=2)
        cache.add(make_item("a", (0.0, 0.0, 1.0, 1.0)))
        cache.add(make_item("b", (1.0, 1.0, 2.0, 2.0)))
        cache.add(make_item("c"))  # evicts "a" (LRU)
        assert cache.evictions == 1
        assert not cache.has(DataDescriptor("a"))
        # A probe only "a" covered must miss after the eviction.
        assert not cache.has(DataDescriptor("probe", (0.0, 0.0, 1.0, 1.0)))
        assert cache.has(DataDescriptor("b"))
        assert cache.has(DataDescriptor("c"))

    def test_eviction_respects_lookup_recency(self):
        cache = DataCache(capacity=2)
        cache.add(make_item("a"))
        cache.add(make_item("b"))
        assert cache.has(DataDescriptor("a"))  # touches "a"
        cache.add(make_item("c"))  # must evict "b", not "a"
        assert cache.has(DataDescriptor("a"))
        assert not cache.has(DataDescriptor("b"))

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_invalid_capacity_rejected(self, capacity):
        with pytest.raises(ValueError):
            DataCache(capacity=capacity)
        with pytest.raises(ValueError):
            NaiveDataCache(capacity=capacity)


class TestKnownDivergenceBoundary:
    """The one place the unbounded caches are allowed to differ — pinned so
    a future change to either side is a conscious decision.

    With two regioned items both covering a query, the naive cache's scan
    order is mutated by a name-hit touch while the indexed cache scans
    insertion order.  Both must return *a* covering item; identity may
    differ.  No shipped workload uses regioned descriptors (see ROADMAP),
    and the protocols only rely on coverage, never on which item covers.
    """

    def test_covering_item_choice_may_differ_but_coverage_never_does(self):
        item_a = make_item("a", (0.0, 0.0, 4.0, 4.0))
        item_b = make_item("b", (0.0, 0.0, 4.0, 4.0))
        fast, naive = DataCache(), NaiveDataCache()
        for cache in (fast, naive):
            cache.add(item_a)
            cache.add(item_b)
            # Name-hit touch: reorders the naive scan ([b, a]), not the fast one.
            assert cache.has(DataDescriptor("a"))
        probe = DataDescriptor("probe", (1.0, 1.0, 2.0, 2.0))
        fast_item, naive_item = fast.get(probe), naive.get(probe)
        assert fast_item is item_a  # insertion order
        assert naive_item is item_b  # recency order (the touch moved "a" back)
        assert fast_item.descriptor.covers(probe)
        assert naive_item.descriptor.covers(probe)
        assert fast.has(probe) and naive.has(probe)
