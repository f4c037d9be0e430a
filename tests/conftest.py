"""Shared fixtures for the test-suite, and the always-on runtime guards."""

from __future__ import annotations

import sys

import pytest

from repro.experiments.config import SimulationConfig
from repro.metrics.collector import MetricsCollector
from repro.radio.energy import EnergyModel
from repro.radio.power import build_power_table_for_radius
from repro.sim.engine import Simulator
from repro.topology.field import SensorField
from repro.topology.placement import grid_placement
from repro.topology.zone import ZoneMap

from tests import runtime_guards

# Installed at import so no write escapes it; armed for the whole session by
# the autouse fixture below.
sys.addaudithook(runtime_guards.audit_store_write)


@pytest.fixture(scope="session", autouse=True)
def _runtime_guards():
    """Entropy tripwire, store-lock and child-process store-write guards."""
    with runtime_guards.armed():
        yield


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def small_field() -> SensorField:
    """A 3x3 grid with 5 m spacing (node 4 is the centre)."""
    return SensorField(grid_placement(9, spacing_m=5.0))


@pytest.fixture
def power_table_20m():
    """A 5-level power table whose maximum range is 20 m."""
    return build_power_table_for_radius(20.0, num_levels=5, alpha=2.0)


@pytest.fixture
def zone_map_20m(small_field):
    """Zones of the small field at a 20 m radius (fully connected)."""
    return ZoneMap(small_field, 20.0)


@pytest.fixture
def energy_model(power_table_20m) -> EnergyModel:
    """Energy model with Table 1 timing and MICA2 receive power."""
    return EnergyModel(power_table_20m, t_tx_per_byte_ms=0.05, rx_power_mw=0.0125)


@pytest.fixture
def metrics() -> MetricsCollector:
    """A fresh metrics collector."""
    return MetricsCollector()


@pytest.fixture
def tiny_config() -> SimulationConfig:
    """A small, fast configuration for end-to-end tests."""
    return SimulationConfig(
        num_nodes=16,
        packets_per_node=1,
        transmission_radius_m=15.0,
        grid_spacing_m=5.0,
        seed=7,
    )
