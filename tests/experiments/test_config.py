"""Tests for the simulation configuration and the Table 1 constants."""

import math

import pytest

from repro.build import SimulationBuilder
from repro.experiments.config import (
    FailureConfig,
    MobilityConfig,
    SimulationConfig,
    TABLE1_PARAMETERS,
)
from repro.experiments.scenarios import all_to_all_scenario
from repro.mac.contention import QuadraticContention
from repro.radio.power import MICA2_POWER_TABLE


class TestTable1Parameters:
    def test_power_levels_match_paper(self):
        assert TABLE1_PARAMETERS["power_levels_mw"] == (3.1622, 0.7943, 0.1995, 0.05, 0.0125)
        assert TABLE1_PARAMETERS["power_level_distances_m"] == (91.44, 45.72, 22.86, 11.28, 5.48)

    def test_timing_constants(self):
        assert TABLE1_PARAMETERS["transmission_time_ms_per_byte"] == 0.05
        assert TABLE1_PARAMETERS["processing_time_ms"] == 0.02
        assert TABLE1_PARAMETERS["slot_time_ms"] == 0.1
        assert TABLE1_PARAMETERS["num_slots"] == 20

    def test_protocol_timeouts(self):
        assert TABLE1_PARAMETERS["tout_adv_ms"] == 1.0
        assert TABLE1_PARAMETERS["tout_dat_ms"] == 2.5

    def test_failure_process(self):
        assert TABLE1_PARAMETERS["failure_mean_interarrival_ms"] == 50.0
        assert TABLE1_PARAMETERS["mttr_ms"] == 10.0

    def test_packet_sizes(self):
        assert TABLE1_PARAMETERS["req_or_adv_size_bytes"] == 2
        assert TABLE1_PARAMETERS["data_to_req_size_ratio"] == 20

    def test_table_matches_mica2_power_table_module(self):
        assert TABLE1_PARAMETERS["power_levels_mw"] == tuple(
            lv.power_mw for lv in MICA2_POWER_TABLE
        )


class TestSimulationConfig:
    def test_defaults_encode_table1_packet_sizes(self):
        config = SimulationConfig()
        assert config.adv_size_bytes == 2
        assert config.req_size_bytes == 2
        assert config.data_size_bytes == 40  # 20x the REQ size
        assert config.t_tx_per_byte_ms == 0.05
        assert config.t_proc_ms == 0.02

    def test_power_table_max_range_is_radius(self):
        config = SimulationConfig(transmission_radius_m=25.0)
        assert config.power_table().max_range_m == pytest.approx(25.0)

    def test_native_mica2_table_option(self):
        config = SimulationConfig(use_native_mica2_levels=True, transmission_radius_m=91.44)
        assert config.power_table() is MICA2_POWER_TABLE

    def test_contention_model_uses_g(self):
        config = SimulationConfig(csma_g=0.02, num_nodes=9)
        builder = SimulationBuilder(all_to_all_scenario("spin", config)).build()
        model = builder.mac_delay.contention
        assert isinstance(model, QuadraticContention)
        assert model.access_delay_ms(10) == pytest.approx(2.0)

    def test_with_overrides(self):
        config = SimulationConfig()
        other = config.with_overrides(num_nodes=25, seed=9)
        assert other.num_nodes == 25
        assert other.seed == 9
        assert config.num_nodes == 169  # original untouched

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_nodes=1)
        with pytest.raises(ValueError):
            SimulationConfig(transmission_radius_m=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(grid_spacing_m=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(transmission_radius_m=2.0, grid_spacing_m=5.0)
        with pytest.raises(ValueError):
            SimulationConfig(packets_per_node=0)
        with pytest.raises(ValueError):
            SimulationConfig(data_size_bytes=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["transmission_radius_m", "t_proc_ms", "csma_g"])
    def test_float_fields_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            SimulationConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, -5, 0.0])
    def test_max_sim_time_must_be_positive(self, value):
        with pytest.raises(ValueError, match=f"^max_sim_time_ms must be positive, got {value}$"):
            SimulationConfig(max_sim_time_ms=value)

    def test_failure_and_mobility_config_defaults(self):
        failures = FailureConfig()
        assert failures.mean_interarrival_ms == 50.0
        assert (failures.repair_min_ms + failures.repair_max_ms) / 2 == pytest.approx(10.0)
        mobility = MobilityConfig()
        assert mobility.num_epochs >= 1
        assert 0.0 < mobility.move_fraction <= 1.0
