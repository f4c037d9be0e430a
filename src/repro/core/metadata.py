"""Meta-data naming of sensor data.

SPIN (and therefore SPMS) names data with application-level descriptors
("meta-data") and negotiates over those descriptors before any data moves.
A :class:`DataDescriptor` is the meta-data; a :class:`DataItem` is the actual
(sized) piece of sensor data it describes.

Descriptors are *hash-consed*: :meth:`DataDescriptor.intern` returns one
canonical instance per name, so every packet and cache entry for the same
meta-data holds the *same object*.  Equality and hashing stay value-based (a
hand-built descriptor still compares equal to the interned one), but
comparisons on the protocol hot path short-circuit on identity.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass


class DataDescriptor:
    """Application-level name of a piece of sensor data.

    Immutable and slotted.  Attributes:
        name: Opaque identifier, e.g. ``"temp/region-3/t=120"``.
    """

    __slots__ = ("name", "__weakref__")

    #: Hash-consing table for :meth:`intern`.  Weak values: descriptors are
    #: kept alive by the items/packets that reference them, so finished runs
    #: release their entries instead of accumulating across a sweep.
    _interned: "weakref.WeakValueDictionary[str, DataDescriptor]" = (
        weakref.WeakValueDictionary()
    )

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name)

    @classmethod
    def intern(cls, name: str) -> "DataDescriptor":
        """The canonical (hash-consed) descriptor named *name*.

        Repeated calls with the same name return the identical object,
        making descriptor comparisons along the protocol hot path identity
        checks.  Interning is an optimisation only — interned and plain
        descriptors are interchangeable value-wise.
        """
        cached = cls._interned.get(name)
        if cached is None:
            cached = cls(name)
            cls._interned[name] = cached
        return cached

    # ------------------------------------------------------------- immutability

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError(f"DataDescriptor is immutable (tried to set {key!r})")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"DataDescriptor is immutable (tried to delete {key!r})")

    # ------------------------------------------------------------------- value

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, DataDescriptor):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"DataDescriptor(name={self.name!r})"

    def __reduce__(self):
        # Pickle by value; interning is per-process.
        return (DataDescriptor, (self.name,))


def intern_descriptor(name: str) -> DataDescriptor:
    """Module-level alias of :meth:`DataDescriptor.intern` (workload hot path).

    The differential-testing oracle (:mod:`tests.protocols`) patches
    :meth:`DataDescriptor.intern` — and therefore this alias — to plain
    construction to prove interning never changes results.
    """
    return DataDescriptor.intern(name)


@dataclass(frozen=True)
class DataItem:
    """A concrete piece of sensor data.

    Attributes:
        descriptor: The meta-data naming this item.
        source: Node id of the original producer.
        size_bytes: Size of the DATA payload (Table 1 default: 40 bytes, i.e.
            20x the 2-byte REQ).
        created_at_ms: Simulation time at which the item was produced.
    """

    descriptor: DataDescriptor
    source: int
    size_bytes: int = 40
    created_at_ms: float = 0.0

    @property
    def item_id(self) -> str:
        """Stable identifier used for metric bookkeeping."""
        return self.descriptor.name

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"data size must be positive, got {self.size_bytes}")
