"""Per-packet energy costs must equal their formula on a fresh model.

The oracle recomputes `power * airtime` from scratch on a fresh model for
every call, so a cost that depends on earlier calls, or one level's cost
returned for another, fails equality.
"""

from hypothesis import given, settings, strategies as st

from repro.radio.energy import EnergyModel
from repro.radio.power import MICA2_POWER_TABLE

CALLS = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=0, max_value=len(MICA2_POWER_TABLE) - 1),
    ),
    min_size=1,
    max_size=40,
)


class TestEnergyEqualsFormula:
    @given(calls=CALLS)
    @settings(max_examples=50)
    def test_tx_cost_equals_formula(self, calls):
        model = EnergyModel(MICA2_POWER_TABLE)
        for size_bytes, level_index in calls + calls:
            level = MICA2_POWER_TABLE[level_index]
            got = model.tx_cost(size_bytes, level)
            fresh = EnergyModel(MICA2_POWER_TABLE)
            expected_airtime = size_bytes * fresh.t_tx_per_byte_ms
            assert got.energy_uj == level.power_mw * expected_airtime
            assert got.airtime_ms == expected_airtime
            assert got.power_level is level
            assert got == fresh.tx_cost(size_bytes, level)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_rx_cost_equals_formula(self, sizes):
        model = EnergyModel(MICA2_POWER_TABLE)
        for size_bytes in sizes + sizes:
            got = model.rx_cost(size_bytes)
            fresh = EnergyModel(MICA2_POWER_TABLE)
            assert got == fresh.rx_power_mw * (size_bytes * fresh.t_tx_per_byte_ms)
            assert got == fresh.rx_cost(size_bytes)

    def test_levels_with_same_size_do_not_alias(self):
        model = EnergyModel(MICA2_POWER_TABLE)
        low = model.tx_cost(40, MICA2_POWER_TABLE.min_level)
        high = model.tx_cost(40, MICA2_POWER_TABLE.max_level)
        assert low.energy_uj < high.energy_uj
