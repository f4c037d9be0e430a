"""Hot-path classes keep ``__slots__`` all the way up their MRO.

Each of these classes earned its slots in a measured kernel perf change and
is built millions of times per sweep.  Losing the slots fails no functional
test — the code still runs, just with a per-instance ``__dict__`` — so this
test is what notices.  A class is slotted only when every class in its MRO
except ``object`` declares ``__slots__`` itself: one unslotted base brings
the ``__dict__`` back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import pytest

from repro.core.metadata import DataDescriptor
from repro.core.packets import Packet
from repro.mac.delay import TransmissionTiming
from repro.radio.energy import TransmissionCost
from repro.sim.events import Event

HOT_PATH_CLASSES = (Event, TransmissionTiming, TransmissionCost, Packet, DataDescriptor)


def unslotted(cls: type) -> List[str]:
    """Classes in *cls*'s MRO, ``object`` aside, without their own ``__slots__``."""
    return [
        klass.__name__
        for klass in cls.__mro__
        if klass is not object and "__slots__" not in vars(klass)
    ]


@pytest.mark.parametrize("cls", HOT_PATH_CLASSES, ids=lambda cls: cls.__name__)
def test_hot_path_class_is_slotted(cls):
    assert unslotted(cls) == []


class _Slotted:
    __slots__ = ("time",)


class _SlottedChild(_Slotted):
    __slots__ = ()


class _UnslottedChild(_Slotted):
    pass


class _Plain:
    def __init__(self, time):
        self.time = time


@dataclass(frozen=True, slots=True)
class _DataclassSlots:
    time: float


@dataclass(frozen=True)
class _FrozenWithoutSlots:
    time: float


@dataclass(frozen=True, slots=True)
class _OnUnslottedBase(_Plain):
    time: float


# Each fixture with what ``unslotted`` must name: nothing for the slotted
# ones, the class that brings the ``__dict__`` back for the rest.
FIXTURES = [
    (_Slotted, []),
    (_SlottedChild, []),
    (_DataclassSlots, []),
    (_Plain, ["_Plain"]),
    (_FrozenWithoutSlots, ["_FrozenWithoutSlots"]),
    (_OnUnslottedBase, ["_Plain"]),
    (_UnslottedChild, ["_UnslottedChild"]),
]


@pytest.mark.parametrize(
    "cls, expected", FIXTURES, ids=[cls.__name__.lstrip("_") for cls, _ in FIXTURES]
)
def test_fixture(cls, expected):
    assert unslotted(cls) == expected
