"""Tests for the power-level table."""

import pytest
from hypothesis import given, strategies as st

from repro.radio.power import (
    MICA2_POWER_TABLE,
    PowerLevel,
    PowerTable,
    build_power_table_for_radius,
)


class TestMica2Table:
    def test_has_five_levels(self):
        assert len(MICA2_POWER_TABLE) == 5

    def test_table1_values_are_verbatim(self):
        powers = [lv.power_mw for lv in MICA2_POWER_TABLE]
        ranges = [lv.range_m for lv in MICA2_POWER_TABLE]
        assert powers == [3.1622, 0.7943, 0.1995, 0.05, 0.0125]
        assert ranges == [91.44, 45.72, 22.86, 11.28, 5.48]

    def test_max_and_min_levels(self):
        assert MICA2_POWER_TABLE.max_level.power_mw == pytest.approx(3.1622)
        assert MICA2_POWER_TABLE.min_level.range_m == pytest.approx(5.48)
        assert MICA2_POWER_TABLE.max_range_m == pytest.approx(91.44)

    def test_level_for_distance_picks_lowest_sufficient_power(self):
        # 10 m needs the 11.28 m level, not anything stronger.
        level = MICA2_POWER_TABLE.level_for_distance(10.0)
        assert level.range_m == pytest.approx(11.28)

    def test_level_for_distance_exact_boundary(self):
        level = MICA2_POWER_TABLE.level_for_distance(5.48)
        assert level.range_m == pytest.approx(5.48)

    def test_level_for_distance_beyond_range_raises(self):
        with pytest.raises(ValueError):
            MICA2_POWER_TABLE.level_for_distance(100.0)

    def test_level_for_negative_distance_raises(self):
        with pytest.raises(ValueError):
            MICA2_POWER_TABLE.level_for_distance(-1.0)


class TestPowerTableValidation:
    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            PowerTable([])

    def test_non_monotone_power_rejected(self):
        with pytest.raises(ValueError):
            PowerTable(
                [
                    PowerLevel(1, power_mw=1.0, range_m=10.0),
                    PowerLevel(2, power_mw=2.0, range_m=5.0),
                ]
            )

    def test_reaches(self):
        level = PowerLevel(1, power_mw=1.0, range_m=10.0)
        assert level.reaches(10.0)
        assert not level.reaches(10.1)


class TestBuildForRadius:
    def test_max_range_equals_radius(self):
        table = build_power_table_for_radius(20.0)
        assert table.max_range_m == pytest.approx(20.0)

    def test_number_of_levels(self):
        assert len(build_power_table_for_radius(20.0, num_levels=3)) == 3

    def test_power_scales_with_alpha(self):
        quad = build_power_table_for_radius(20.0, alpha=2.0)
        cube = build_power_table_for_radius(20.0, alpha=3.0)
        # A shorter fraction of the reference range costs relatively less as
        # alpha grows.
        assert cube.max_level.power_mw < quad.max_level.power_mw

    def test_mica2_consistency_at_native_range(self):
        # Building for the native MICA2 maximum range with alpha=2 should give
        # approximately the native maximum power.
        table = build_power_table_for_radius(91.44, alpha=2.0)
        assert table.max_level.power_mw == pytest.approx(3.1622, rel=1e-6)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_power_table_for_radius(0.0)
        with pytest.raises(ValueError):
            build_power_table_for_radius(10.0, num_levels=0)

    @given(st.floats(min_value=6.0, max_value=90.0), st.integers(min_value=1, max_value=6))
    def test_property_levels_monotone(self, radius, num_levels):
        table = build_power_table_for_radius(radius, num_levels=num_levels)
        levels = list(table)
        for a, b in zip(levels, levels[1:]):
            assert a.range_m > b.range_m
            assert a.power_mw > b.power_mw

    @given(st.floats(min_value=0.1, max_value=20.0))
    def test_property_level_for_distance_is_sufficient_and_minimal(self, distance):
        table = build_power_table_for_radius(20.0)
        level = table.level_for_distance(distance)
        assert level.reaches(distance)
        weaker = [lv for lv in table if lv.power_mw < level.power_mw]
        assert all(not lv.reaches(distance) for lv in weaker)
