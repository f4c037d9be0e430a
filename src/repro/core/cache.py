"""Per-node data cache.

The cache is what meta-data negotiation consults: SPIN, and so SPMS,
negotiate by meta-data name, so a node requests an item only when its cache
holds nothing by that name.
"""

from __future__ import annotations

from typing import Dict, KeysView, List, Optional

from repro.core.metadata import DataDescriptor, DataItem


class DataCache:
    """Holds data items keyed by descriptor name; the first item of a name stays."""

    def __init__(self) -> None:
        self._items: Dict[str, DataItem] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, descriptor: DataDescriptor) -> bool:
        return descriptor.name in self._items

    def add(self, item: DataItem) -> None:
        """Insert *item*; a name already held is ignored."""
        self._items.setdefault(item.descriptor.name, item)

    def has(self, descriptor: DataDescriptor) -> bool:
        """Whether an item of *descriptor*'s name is held."""
        return descriptor.name in self._items

    def get(self, descriptor: DataDescriptor) -> Optional[DataItem]:
        """The held item of *descriptor*'s name, or ``None``."""
        return self._items.get(descriptor.name)

    def items(self) -> List[DataItem]:
        """Every held item, in insertion order."""
        return list(self._items.values())

    def held_names(self) -> KeysView[str]:
        """Live view of the held names.

        The network keeps this view per node and skips the ADV handler of a
        receiver whose view holds the advertised name (see
        ``Network._deliver_adv_batch``), which is exactly what :meth:`has`
        tests.
        """
        return self._items.keys()
