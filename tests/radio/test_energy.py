"""Tests for the energy model and the energy ledger."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.radio.energy import EnergyLedger, EnergyModel
from repro.radio.power import MICA2_POWER_TABLE, build_power_table_for_radius


class TestEnergyModel:
    def test_airtime_follows_table1_rate(self, energy_model):
        # 40 bytes at 0.05 ms/byte = 2 ms on air.
        assert energy_model.airtime_ms(40) == pytest.approx(2.0)

    def test_tx_energy_is_power_times_airtime(self):
        model = EnergyModel(MICA2_POWER_TABLE, t_tx_per_byte_ms=0.05)
        cost = model.tx_cost(40, MICA2_POWER_TABLE.max_level)
        assert cost.energy_uj == pytest.approx(3.1622 * 2.0)
        assert cost.airtime_ms == pytest.approx(2.0)

    def test_tx_cost_for_distance_uses_lowest_sufficient_level(self):
        model = EnergyModel(MICA2_POWER_TABLE)
        near = model.tx_cost_for_distance(40, 5.0)
        far = model.tx_cost_for_distance(40, 80.0)
        assert near.power_level.range_m == pytest.approx(5.48)
        assert far.power_level.range_m == pytest.approx(91.44)
        assert near.energy_uj < far.energy_uj

    def test_max_power_cost_matches_max_level(self):
        model = EnergyModel(MICA2_POWER_TABLE)
        assert model.tx_cost_max_power(10).power_level is MICA2_POWER_TABLE.max_level

    def test_rx_cost_defaults_to_lowest_level_power(self):
        model = EnergyModel(MICA2_POWER_TABLE)
        assert model.rx_cost(40) == pytest.approx(0.0125 * 2.0)

    def test_rx_power_override(self):
        model = EnergyModel(MICA2_POWER_TABLE, rx_power_mw=0.05)
        assert model.rx_cost(20) == pytest.approx(0.05 * 1.0)

    def test_invalid_sizes_rejected(self, energy_model):
        with pytest.raises(ValueError):
            energy_model.airtime_ms(0)
        with pytest.raises(ValueError):
            energy_model.rx_cost(-1)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(MICA2_POWER_TABLE, t_tx_per_byte_ms=0.0)
        with pytest.raises(ValueError):
            EnergyModel(MICA2_POWER_TABLE, rx_power_mw=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rx_power_rejected(self, value):
        # Accepted, NaN made every rx_cost NaN; the batched ADV charge
        # trusts these costs and never goes through EnergyLedger.charge.
        with pytest.raises(ValueError, match="finite"):
            EnergyModel(MICA2_POWER_TABLE, rx_power_mw=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_tx_time_per_byte_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            EnergyModel(MICA2_POWER_TABLE, t_tx_per_byte_ms=value)

    def test_multihop_at_low_power_beats_single_hop_at_high_power(self):
        """The core SPMS energy argument: k short hops cost less transmit
        energy than one long hop (square-law power scaling)."""
        table = build_power_table_for_radius(20.0, alpha=2.0)
        model = EnergyModel(table, rx_power_mw=0.0125)
        direct = model.tx_cost_for_distance(40, 20.0).energy_uj
        four_hops = 4 * model.tx_cost_for_distance(40, 5.0).energy_uj
        assert four_hops < direct

    @given(st.integers(min_value=1, max_value=500))
    def test_property_energy_scales_linearly_with_size(self, size):
        model = EnergyModel(MICA2_POWER_TABLE)
        single = model.tx_cost(1, MICA2_POWER_TABLE.max_level).energy_uj
        assert model.tx_cost(size, MICA2_POWER_TABLE.max_level).energy_uj == pytest.approx(
            single * size
        )


class TestEnergyLedger:
    def test_charge_accumulates_per_node(self):
        ledger = EnergyLedger()
        ledger.charge(1, 2.0)
        ledger.charge(1, 3.0)
        ledger.charge(2, 1.0)
        assert ledger.node_total(1) == pytest.approx(5.0)
        assert ledger.node_total(2) == pytest.approx(1.0)
        assert ledger.total == pytest.approx(6.0)

    def test_categories_tracked_independently(self):
        ledger = EnergyLedger()
        ledger.charge(1, 2.0, category="tx")
        ledger.charge(1, 0.5, category="rx")
        ledger.charge(2, 1.0, category="routing")
        assert ledger.category_total("tx") == pytest.approx(2.0)
        assert ledger.category_total("rx") == pytest.approx(0.5)
        assert ledger.category_total("routing") == pytest.approx(1.0)
        assert ledger.node_category_total(1, "tx") == pytest.approx(2.0)

    def test_unknown_node_or_category_is_zero(self):
        ledger = EnergyLedger()
        assert ledger.node_total(99) == 0.0
        assert ledger.category_total("nope") == 0.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            EnergyLedger().charge(1, -1.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_non_finite_charge_rejected(self, energy):
        ledger = EnergyLedger()
        ledger.charge(0, 1.0)
        with pytest.raises(ValueError, match="finite"):
            ledger.charge(0, energy)
        assert ledger.total == 1.0

    def test_charge_batch_rejects_infinity(self):
        ledger = EnergyLedger()
        with pytest.raises(ValueError, match="finite"):
            ledger.charge_batch([0, 1], np.array([1.0, math.inf]))
        assert ledger.total == 0.0

    def test_reset_zeroes_everything(self):
        ledger = EnergyLedger()
        ledger.charge(1, 1.0)
        ledger.reset()
        assert ledger.total == 0.0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=0.0, max_value=100.0),
            ),
            max_size=100,
        )
    )
    def test_property_total_equals_sum_of_nodes(self, charges):
        ledger = EnergyLedger()
        for node, amount in charges:
            ledger.charge(node, amount)
        assert ledger.total == pytest.approx(sum(a for _, a in charges))
        assert ledger.total == pytest.approx(sum(ledger.per_node.values()))
