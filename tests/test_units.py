"""Unit conversions and dB helpers."""


import pytest
from hypothesis import given, strategies as st

from repro import units


def test_dbm_to_watt_known_values():
    assert units.dbm_to_watt(0.0) == pytest.approx(1e-3)
    assert units.dbm_to_watt(30.0) == pytest.approx(1.0)
    assert units.dbm_to_watt(-30.0) == pytest.approx(1e-6)


def test_watt_to_dbm_roundtrip():
    assert units.watt_to_dbm(units.dbm_to_watt(-5.0)) == pytest.approx(-5.0)


def test_dbm_to_vpeak_minus5dbm():
    """The paper's -5 dBm tone into 50 ohm has ~178 mV peak amplitude."""
    v_peak = units.dbm_to_vpeak(-5.0)
    assert v_peak == pytest.approx(0.1778, rel=1e-3)


def test_vpeak_to_dbm_roundtrip():
    assert units.vpeak_to_dbm(units.dbm_to_vpeak(-17.3)) == pytest.approx(-17.3)


@given(st.floats(min_value=-80.0, max_value=40.0))
def test_dbm_vpeak_roundtrip_property(power_dbm):
    v = units.dbm_to_vpeak(power_dbm)
    assert units.vpeak_to_dbm(v) == pytest.approx(power_dbm, abs=1e-9)
