"""The oracle harness checks its own contract.

``oracle_mode()`` is only a proof while it really swaps every fast path for
a comparable naive twin.  Three ways it could silently stop doing that, and
the check that catches each:

* a switch is renamed or deleted — :func:`patch_switch` raises
  ``AttributeError`` on entry;
* a swapped class drifts from its twin — :func:`check_twin` raises
  ``TypeError`` on entry;
* a new ``bool`` fast-path toggle lands on a sim-layer class without an
  oracle switch — :func:`unflipped` below lists it.

Each check runs against a bad fixture here, and against the real tree.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
import types
from typing import Iterable, List, Tuple

import pytest

from repro.core.network import Network
from repro.lint.config import SIM_LAYERS
from repro.routing.bellman_ford import NaiveDistributedBellmanFord
from tests.protocols import harness
from tests.protocols.harness import ORACLE_SWITCHES, check_twin, oracle_mode, patch_switch

_TOGGLE = re.compile(r"^[A-Z][A-Z0-9_]*$")

Toggle = Tuple[type, str]


def class_toggles(module: types.ModuleType) -> List[Toggle]:
    """ALL_CAPS ``bool`` attributes of the classes *module* defines."""
    return [
        (obj, attr)
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        for attr, value in vars(obj).items()
        if _TOGGLE.match(attr) and isinstance(value, bool)
    ]


def sim_layer_toggles() -> List[Toggle]:
    """Every toggle defined anywhere in the simulation layers."""
    toggles: List[Toggle] = []
    for layer in SIM_LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        toggles.extend(class_toggles(package))
        for info in pkgutil.walk_packages(package.__path__, f"{package.__name__}."):
            toggles.extend(class_toggles(importlib.import_module(info.name)))
    return toggles


def unflipped(toggles: Iterable[Toggle]) -> List[str]:
    """The toggles whose value ``oracle_mode()`` leaves as it is."""
    before = {(owner, attr): getattr(owner, attr) for owner, attr in toggles}
    with oracle_mode():
        return [
            f"{owner.__name__}.{attr}"
            for (owner, attr), value in before.items()
            if getattr(owner, attr) == value
        ]


class _Cache:
    def add(self, item, tag=None):
        return item

    def get(self, name):
        return name


class TestRealTree:
    def test_every_sim_layer_toggle_is_flipped(self):
        toggles = sim_layer_toggles()
        names = {f"{owner.__name__}.{attr}" for owner, attr in toggles}
        assert {"Network.ADV_FAST_PATH", "Network.LINK_TABLE"} <= names
        assert unflipped(toggles) == []

    def test_every_class_swap_matches_its_twin(self):
        swaps = [
            (vars(owner)[attr], value)
            for owner, attr, value in ORACLE_SWITCHES
            if isinstance(value, type)
        ]
        assert len(swaps) == 1
        for fast, naive in swaps:
            check_twin(fast, naive)

    @pytest.mark.parametrize(
        "owner, attr, value",
        ORACLE_SWITCHES,
        ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in ORACLE_SWITCHES],
    )
    def test_switch_is_swapped_then_restored(self, owner, attr, value):
        fast = vars(owner)[attr]
        with oracle_mode():
            assert vars(owner)[attr] is value
        assert vars(owner)[attr] is fast


class TestRenamedSwitch:
    def test_missing_attribute_names_owner_and_attr(self):
        class Network:
            ADV_BATCHING = True

        with pytest.raises(AttributeError, match=r"Network\.ADV_FAST_PATH"):
            patch_switch(Network, "ADV_FAST_PATH", False)
        assert Network.ADV_BATCHING is True

    def test_inherited_attribute_does_not_count(self):
        class Base:
            ADV_FAST_PATH = True

        class Network(Base):
            pass

        with pytest.raises(AttributeError, match=r"Network\.ADV_FAST_PATH"):
            patch_switch(Network, "ADV_FAST_PATH", False)

    def test_module_attribute_gone(self):
        owner = types.ModuleType("manager")
        with pytest.raises(AttributeError, match=r"manager\.DistributedBellmanFord"):
            patch_switch(owner, "DistributedBellmanFord", NaiveDistributedBellmanFord)

    def test_failed_entry_restores_earlier_switches(self, monkeypatch):
        class Network:
            ADV_FAST_PATH = True

        switches = ((Network, "ADV_FAST_PATH", False), (Network, "RENAMED", False))
        monkeypatch.setattr(harness, "ORACLE_SWITCHES", switches)
        with pytest.raises(AttributeError, match=r"Network\.RENAMED"):
            with oracle_mode():
                pass
        assert Network.ADV_FAST_PATH is True


class TestTwinDrift:
    def test_matching_twin_passes(self):
        class NaiveCache(_Cache):
            def add(self, item, tag=None):
                return self._scan(item)

            def _scan(self, item):  # private helpers are not surface
                return item

        check_twin(_Cache, NaiveCache)

    def test_missing_method(self):
        class NaiveCache:
            def add(self, item, tag=None):
                return item

        with pytest.raises(TypeError, match=r"NaiveCache is missing get\(\)"):
            check_twin(_Cache, NaiveCache)

    def test_differing_signature(self):
        class NaiveCache:
            def add(self, item):
                return item

            def get(self, name):
                return name

        with pytest.raises(TypeError, match=r"NaiveCache\.add\(self, item\) differs"):
            check_twin(_Cache, NaiveCache)

    def test_every_problem_is_reported(self):
        class NaiveCache:
            def add(self, item):
                return item

        with pytest.raises(TypeError, match=r"add\(self, item\) differs .*; \w+ is missing get"):
            check_twin(_Cache, NaiveCache)

    def test_naive_only_method(self):
        class NaiveCache(_Cache):
            def items(self):
                return []

        with pytest.raises(TypeError, match=r"NaiveCache\.items\(\) has no _Cache twin"):
            check_twin(_Cache, NaiveCache)

    def test_drifted_swap_patches_nothing(self):
        class NaiveCache:
            pass

        owner = types.ModuleType("owner")
        owner.Cache = _Cache
        with pytest.raises(TypeError):
            patch_switch(owner, "Cache", NaiveCache)
        assert owner.Cache is _Cache


class TestUnflippedToggle:
    def test_scan_finds_only_bool_all_caps_class_attributes(self):
        class Radio:
            FAST_PATH = True
            MAX_RETRIES = 4
            batching = True
            _PRIVATE_FLAG = True

        module = types.ModuleType(Radio.__module__)
        module.Radio = Radio
        module.Network = Network  # imported, so its toggles count where defined
        assert class_toggles(module) == [(Radio, "FAST_PATH")]

    def test_toggle_the_oracle_does_not_flip(self):
        class Radio:
            FAST_PATH = True

        assert unflipped([(Radio, "FAST_PATH")]) == ["Radio.FAST_PATH"]
