"""Per-node data cache.

The cache is what meta-data negotiation consults: a node only requests data
whose descriptor is not already covered by something it holds.  The optional
capacity bound (with LRU eviction) supports the intermediate-node caching
extension discussed in the paper's future work.

Two implementations live here:

* :class:`DataCache` — the production cache.  Unbounded caches (the protocol
  default, and the configuration every experiment runs with) answer ``has``/
  ``get`` through an O(1) name index plus an incrementally maintained
  coverage memo, so the per-advertisement membership test on the protocol hot
  path never rescans the regioned items.  Capacity-bounded caches keep the
  exact LRU bookkeeping (lookups touch recency, eviction order is
  observable), where a memo would have to be invalidated on every touch.
* :class:`NaiveDataCache` — the retained pre-optimisation implementation
  (LRU ``OrderedDict`` plus a linear coverage scan).  It is the *oracle* of
  the differential-testing harness (``tests/protocols``): protocol scenarios
  run once against each implementation and every metric must match exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, KeysView, List, Optional, Set

from repro.core.metadata import DataDescriptor, DataItem


class NaiveDataCache:
    """Reference cache: LRU ``OrderedDict`` + linear coverage scans.

    This is the pre-optimisation :class:`DataCache` kept verbatim as the
    differential-testing oracle.  Do not optimise it — its value is being
    obviously correct.

    Args:
        capacity: Maximum number of items retained; ``None`` means unbounded.
            When full, the least recently used item is evicted.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self._items: "OrderedDict[str, DataItem]" = OrderedDict()
        # Coverage checks only ever succeed through items that carry a region
        # (region-less descriptors cover nothing but their own name, which the
        # O(1) name lookup already handles), so only those are scanned.
        self._regioned: "OrderedDict[str, DataItem]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, descriptor: DataDescriptor) -> bool:
        return self.has(descriptor)

    def add(self, item: DataItem) -> None:
        """Insert *item*, evicting the LRU item if the cache is full."""
        key = item.descriptor.name
        if key in self._items:
            self._items.move_to_end(key)
            if key in self._regioned:
                self._regioned.move_to_end(key)
            return
        self._items[key] = item
        if item.descriptor.region is not None:
            self._regioned[key] = item
        if self.capacity is not None and len(self._items) > self.capacity:
            evicted_key, _ = self._items.popitem(last=False)
            self._regioned.pop(evicted_key, None)
            self.evictions += 1

    def has(self, descriptor: DataDescriptor) -> bool:
        """Whether the cache already covers *descriptor*.

        Exact name matches are O(1); otherwise region coverage is checked so
        overlapping data is not requested twice (the SPIN "overlap" problem).
        """
        if descriptor.name in self._items:
            self._items.move_to_end(descriptor.name)
            if descriptor.name in self._regioned:
                self._regioned.move_to_end(descriptor.name)
            return True
        if not self._regioned:
            return False
        return any(item.descriptor.covers(descriptor) for item in self._regioned.values())

    def get(self, descriptor: DataDescriptor) -> Optional[DataItem]:
        """Return the cached item for *descriptor* (exact name or coverage)."""
        item = self._items.get(descriptor.name)
        if item is not None:
            self._items.move_to_end(descriptor.name)
            if descriptor.name in self._regioned:
                self._regioned.move_to_end(descriptor.name)
            return item
        for candidate in self._regioned.values():
            if candidate.descriptor.covers(descriptor):
                return candidate
        return None

    def items(self) -> List[DataItem]:
        """Every cached item (most recently used last)."""
        return list(self._items.values())

    def held_names(self) -> Optional[KeysView[str]]:
        """Always ``None``: the oracle never lets the network skip an ADV."""
        return None

    def clear(self) -> None:
        """Drop everything."""
        self._items.clear()
        self._regioned.clear()


class DataCache:
    """Holds data items keyed by descriptor name.

    Unbounded caches answer membership in O(1): a plain name index plus a
    coverage memo keyed by (interned) descriptor.  The memo is maintained
    incrementally instead of invalidated wholesale:

    * a *hit* (descriptor → covering item) stays valid for the cache's
      lifetime, because an unbounded cache never removes items and a later
      insertion cannot come earlier in scan order than the recorded match;
    * a *miss* stays valid until a regioned item is inserted (only new
      coverage can turn a miss into a hit), at which point the misses — and
      only the misses — are dropped.

    Capacity-bounded caches (the future-work intermediate-caching extension)
    use the exact legacy LRU path: lookups touch recency and eviction order
    is observable behaviour, which a memo must not short-circuit.

    Unbounded caches drop the LRU touch bookkeeping entirely.  The one
    divergence from :class:`NaiveDataCache` this allows: when several
    regioned items cover the same queried descriptor, coverage lookups scan
    insertion order here but touch-mutated recency order there, so *which*
    covering item ``get`` returns may differ (both always cover the query;
    exact-name lookups are unaffected).  Shipped workloads use region-less
    descriptors, so no simulation observes this; the contract is pinned in
    ``tests/protocols/test_cache_differential``.

    Args:
        capacity: Maximum number of items retained; ``None`` means unbounded.
            When full, the least recently used item is evicted.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        if capacity is None:
            self._items: Dict[str, DataItem] = {}
            self._regioned: Dict[str, DataItem] = {}
        else:
            self._items = OrderedDict()
            self._regioned = OrderedDict()
        self._cover_hits: Dict[DataDescriptor, DataItem] = {}
        self._cover_misses: Set[DataDescriptor] = set()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, descriptor: DataDescriptor) -> bool:
        return self.has(descriptor)

    # ------------------------------------------------------------ coverage memo

    def _covering_item(self, descriptor: DataDescriptor) -> Optional[DataItem]:
        """First regioned item covering *descriptor*, memoised (unbounded only)."""
        item = self._cover_hits.get(descriptor)
        if item is not None:
            return item
        if descriptor in self._cover_misses:
            return None
        for candidate in self._regioned.values():
            if candidate.descriptor.covers(descriptor):
                self._cover_hits[descriptor] = candidate
                return candidate
        self._cover_misses.add(descriptor)
        return None

    # ----------------------------------------------------------------- mutation

    def add(self, item: DataItem) -> None:
        """Insert *item*, evicting the LRU item if the cache is full."""
        key = item.descriptor.name
        if self.capacity is None:
            if key in self._items:
                return
            self._items[key] = item
            if item.descriptor.region is not None:
                self._regioned[key] = item
                # New coverage can only turn recorded misses into hits.
                if self._cover_misses:
                    self._cover_misses.clear()
            return
        if key in self._items:
            self._items.move_to_end(key)
            if key in self._regioned:
                self._regioned.move_to_end(key)
            return
        self._items[key] = item
        if item.descriptor.region is not None:
            self._regioned[key] = item
        if len(self._items) > self.capacity:
            evicted_key, _ = self._items.popitem(last=False)
            self._regioned.pop(evicted_key, None)
            self.evictions += 1

    # ------------------------------------------------------------------ queries

    def has(self, descriptor: DataDescriptor) -> bool:
        """Whether the cache already covers *descriptor*.

        Exact name matches are O(1); otherwise region coverage is checked so
        overlapping data is not requested twice (the SPIN "overlap" problem).
        """
        if self.capacity is None:
            if descriptor.name in self._items:
                return True
            if not self._regioned:
                return False
            return self._covering_item(descriptor) is not None
        if descriptor.name in self._items:
            self._items.move_to_end(descriptor.name)
            if descriptor.name in self._regioned:
                self._regioned.move_to_end(descriptor.name)
            return True
        if not self._regioned:
            return False
        return any(item.descriptor.covers(descriptor) for item in self._regioned.values())

    def get(self, descriptor: DataDescriptor) -> Optional[DataItem]:
        """Return the cached item for *descriptor* (exact name or coverage)."""
        if self.capacity is None:
            item = self._items.get(descriptor.name)
            if item is not None:
                return item
            if not self._regioned:
                return None
            return self._covering_item(descriptor)
        item = self._items.get(descriptor.name)
        if item is not None:
            self._items.move_to_end(descriptor.name)
            if descriptor.name in self._regioned:
                self._regioned.move_to_end(descriptor.name)
            return item
        for candidate in self._regioned.values():
            if candidate.descriptor.covers(descriptor):
                return candidate
        return None

    def items(self) -> List[DataItem]:
        """Every cached item (insertion order; most recently used last when
        a capacity bound makes recency observable)."""
        return list(self._items.values())

    def held_names(self) -> Optional[KeysView[str]]:
        """Live view of the held item names, or ``None`` when bounded.

        The network keeps this view per node and skips the ADV handler of a
        receiver whose view holds the advertised name (see
        ``Network._deliver_adv_batch``).  A bounded cache returns ``None``:
        its ``has`` touches LRU recency, so no call to it may be skipped.
        Coverage by regioned items is not in the view.
        """
        return self._items.keys() if self.capacity is None else None

    def clear(self) -> None:
        """Drop everything."""
        self._items.clear()
        self._regioned.clear()
        self._cover_hits.clear()
        self._cover_misses.clear()
