"""LC-tank VCO model, sensitivities and spur equations."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import AccumulationModeVaractor, SpiralInductor
from repro.errors import AnalysisError
from repro.vco import (
    LcTankVco,
    NoiseEntry,
    VcoDesign,
    compute_spurs,
    junction_capacitance_sensitivity,
    synthesize_output_waveform,
)
from repro.analysis.spectrum import compute_spectrum


@pytest.fixture(scope="module")
def vco():
    design = VcoDesign(
        tank_inductance=2e-9,
        inductor=SpiralInductor(inductance=2e-9, series_resistance=4.0),
        varactor=AccumulationModeVaractor(cmin=0.6e-12, cmax=1.8e-12,
                                          v_half=0.6, slope=2.0),
        fixed_capacitance_per_side=1.2e-12,
        tail_current=5e-3,
        supply_voltage=1.8,
        tank_common_mode=1.1,
        tail_transconductance=20e-3,
        ground_referenced_capacitance=0.3e-12,
        ground_referenced_cap_sensitivity=0.06e-12)
    return LcTankVco(design)


# -- tank and tuning ----------------------------------------------------------------------


def test_design_validation():
    with pytest.raises(AnalysisError):
        VcoDesign(tank_inductance=-1e-9,
                  inductor=SpiralInductor(inductance=1e-9, series_resistance=1.0),
                  varactor=AccumulationModeVaractor(cmin=1e-12, cmax=2e-12),
                  fixed_capacitance_per_side=1e-12)


def test_oscillation_frequency_near_3ghz(vco):
    """The paper's VCO oscillates around 3 GHz."""
    f_low, f_high = vco.tuning_range(0.0, 1.5)
    assert 2.2e9 < f_low < 3.6e9
    assert 3.0e9 < f_high < 4.8e9
    assert f_high > f_low


def test_frequency_increases_with_vtune(vco):
    """Raising V_tune lowers the varactor capacitance and raises f_osc."""
    frequencies = [vco.oscillation_frequency(v) for v in (0.0, 0.5, 1.0, 1.5)]
    assert all(b >= a for a, b in zip(frequencies, frequencies[1:]))


def test_tuning_gain_positive_and_peaks_mid_range(vco):
    k_mid = vco.tuning_gain(0.5)
    k_edge = vco.tuning_gain(1.5)
    assert k_mid > 0
    assert k_mid > k_edge


def test_amplitude_reasonable(vco):
    amplitude = vco.amplitude(0.0)
    assert 0.2 < amplitude < 1.8
    # Current-limited: doubling the tail current doubles the amplitude until
    # the supply limit kicks in.
    assert vco.amplitude_sensitivity_to_tail(0.0) >= 0.0


def test_frequency_sensitivity_to_capacitance_sign(vco):
    assert vco.frequency_sensitivity_to_capacitance(0.0) < 0
    # More capacitance -> lower frequency, so K_gnd of a positive dC/dV is negative.
    assert vco.ground_frequency_sensitivity(0.75) < 0


def test_ground_sensitivity_exceeds_backgate_sensitivity(vco):
    """The ground entry modulates the varactor and the device caps; a single
    back-gate only modulates its junction capacitance — the physical origin of
    the paper's ~20 dB Figure-9 gap."""
    k_ground = abs(vco.ground_frequency_sensitivity(0.0))
    k_backgate = abs(vco.backgate_frequency_sensitivity(0.0, 25e-15))
    assert k_ground > 3.0 * k_backgate


def test_ground_am_gain_weaker_than_fm(vco):
    """AM is a weak effect compared to FM over the analysed frequency range,
    as the paper observes: K/f_noise >> G_AM even at 15 MHz."""
    g_am = abs(vco.ground_am_gain(0.0))
    k_over_f = abs(vco.ground_frequency_sensitivity(0.0)) / 15e6
    assert g_am < k_over_f


@given(vtune=st.floats(min_value=0.0, max_value=1.5))
@settings(max_examples=30, deadline=None)
def test_frequency_finite_over_tuning_range(vco, vtune):
    f = vco.oscillation_frequency(vtune)
    assert 1e9 < f < 10e9
    assert vco.tank_capacitance_per_side(vtune) > 0


def test_junction_capacitance_sensitivity_positive(technology):
    from repro.devices import MosfetGeometry, MosfetModel

    model = MosfetModel(technology.mos_parameters("nmos_rf"),
                        MosfetGeometry(width=60e-6, length=0.18e-6))
    sensitivity = junction_capacitance_sensitivity(model, 0.9, 0.9, 0.0)
    assert 1e-15 < sensitivity < 1e-12


# -- spur equations -------------------------------------------------------------------------


def _entries(h_ground=1e-3, k_ground=-200e6, g_am=0.01):
    return [
        NoiseEntry(name="ground", h_sub=complex(h_ground, 0.0),
                   k_hz_per_volt=k_ground, g_am_per_volt=g_am,
                   mechanism="resistive"),
        NoiseEntry(name="backgate", h_sub=complex(h_ground, 0.0),
                   k_hz_per_volt=k_ground / 20.0, g_am_per_volt=0.0,
                   mechanism="resistive"),
    ]


def test_compute_spurs_validation():
    with pytest.raises(AnalysisError):
        compute_spurs([], 3e9, 1.0, 0.1, 1e6)
    with pytest.raises(AnalysisError):
        compute_spurs(_entries(), 3e9, 1.0, 0.1, -1e6)
    with pytest.raises(AnalysisError):
        compute_spurs(_entries(), 3e9, -1.0, 0.1, 1e6)


@pytest.mark.parametrize("argument, value", [
    ("noise_frequency", math.nan),
    ("noise_frequency", math.inf),
    ("noise_frequency", np.array([1e6, math.nan])),
    ("carrier_frequency", math.nan),
    ("carrier_amplitude", math.nan),
    ("carrier_amplitude", math.inf),
    ("noise_amplitude", math.nan),
])
def test_compute_spurs_rejects_non_finite_inputs(argument, value):
    arguments = {"carrier_frequency": 3e9, "carrier_amplitude": 1.0,
                 "noise_amplitude": 0.1, "noise_frequency": 1e6}
    arguments[argument] = value
    entries = _entries()
    if argument == "noise_frequency" and np.ndim(value):
        entries = [entry._replace(h_sub=np.full(2, entry.h_sub))
                   for entry in entries]
    with pytest.raises(AnalysisError, match="finite and positive"):
        compute_spurs(entries, **arguments)


@pytest.mark.parametrize("noise_frequency",
                         [np.array(2e6), 2_000_000, np.float64(2e6)])
def test_scalar_spur_stores_a_float_noise_frequency(noise_frequency):
    """A 0-d array or an int comes back as a one-point float64 sweep, so
    its values serialise."""
    result = compute_spurs(_entries(), 3e9, 1.0, 0.1, noise_frequency)
    assert len(result) == 1
    assert result.noise_frequency.dtype == np.float64
    assert json.loads(json.dumps(result.noise_frequency.tolist())) == [2e6]


def test_sideband_power_accepts_only_upper_or_lower():
    result = compute_spurs(_entries(g_am=0.02), 3e9, 1.0, 0.178, 1e6)
    upper = result.sideband_power_dbm("upper")
    lower = result.sideband_power_dbm("lower")
    assert upper.shape == lower.shape == (1,) and upper[0] != lower[0]
    for side in ("uper", "Upper", ""):
        with pytest.raises(AnalysisError, match="'upper' or 'lower'"):
            result.sideband_power_dbm(side)


def test_fm_spur_follows_equation_2():
    """|V_FM| = (Ac/2) * |sum h*K| * A_noise / f_noise, exactly."""
    entries = _entries(g_am=0.0)
    carrier_amplitude = 0.8
    noise_amplitude = 0.178
    f_noise = 1e6
    result = compute_spurs(entries, 3e9, carrier_amplitude, noise_amplitude, f_noise)
    expected = (carrier_amplitude / 2.0) * noise_amplitude * abs(
        sum(e.h_sub * e.k_hz_per_volt for e in entries)) / f_noise
    assert result.fm_voltage == pytest.approx(expected, rel=1e-12)
    assert result.am_voltage == 0.0
    assert result.upper_sideband_voltage == pytest.approx(result.lower_sideband_voltage)


def test_fm_spur_inversely_proportional_to_frequency():
    """Resistive coupling + FM: spur voltage ~ 1/f_noise (-20 dB/dec power)."""
    entries = _entries(g_am=0.0)
    low = compute_spurs(entries, 3e9, 1.0, 0.1, 1e6)
    high = compute_spurs(entries, 3e9, 1.0, 0.1, 10e6)
    assert low.fm_voltage / high.fm_voltage == pytest.approx(10.0, rel=1e-9)
    assert low.total_spur_power_dbm()[0] - high.total_spur_power_dbm()[0] == \
        pytest.approx(20.0, abs=1e-6)


def test_am_spur_independent_of_frequency():
    entries = [NoiseEntry("g", complex(1e-3, 0), 0.0, g_am_per_volt=0.05)]
    low = compute_spurs(entries, 3e9, 1.0, 0.1, 1e6)
    high = compute_spurs(entries, 3e9, 1.0, 0.1, 10e6)
    assert low.am_voltage == pytest.approx(high.am_voltage)


def test_am_causes_sideband_asymmetry():
    """FM and AM sidebands add on one side and subtract on the other (the
    paper's 'small difference between left and right spur')."""
    result = compute_spurs(_entries(g_am=0.02), 3e9, 1.0, 0.178, 1e6)
    assert result.upper_sideband_voltage != pytest.approx(
        result.lower_sideband_voltage)
    asymmetry = abs(result.upper_sideband_voltage - result.lower_sideband_voltage)
    assert asymmetry < 0.2 * result.fm_voltage


def test_per_entry_bookkeeping():
    result = compute_spurs(_entries(), 3e9, 1.0, 0.1, 1e6)
    assert result.entry_names == ["ground", "backgate"]
    assert result.per_entry_fm_voltage.shape == (1, 2)
    # The ground entry dominates by the K ratio (20x = 26 dB).
    gap = result.entry_power_dbm("ground") - result.entry_power_dbm("backgate")
    assert gap[0] == pytest.approx(26.0, abs=0.2)
    assert result.total_spur_power_dbm()[0] > -300.0
    with pytest.raises(AnalysisError, match="no noise entry 'inductor'"):
        result.entry_power_dbm("inductor")


@given(f_noise=st.floats(min_value=1e5, max_value=15e6),
       h=st.floats(min_value=1e-6, max_value=1e-2),
       k=st.floats(min_value=1e6, max_value=1e9))
@settings(max_examples=40, deadline=None)
def test_spur_power_scales_with_h_and_k(f_noise, h, k):
    entries = [NoiseEntry("g", complex(h, 0), k)]
    result = compute_spurs(entries, 3e9, 1.0, 0.1, f_noise)
    doubled = compute_spurs([NoiseEntry("g", complex(2 * h, 0), k)],
                            3e9, 1.0, 0.1, f_noise)
    assert doubled.total_spur_power_dbm()[0] - result.total_spur_power_dbm()[0] \
        == pytest.approx(6.02, abs=0.1)


# -- waveform synthesis (Figure 7) ------------------------------------------------------------


def test_synthesized_waveform_shows_spurs_at_fc_plus_minus_fnoise():
    entries = _entries(g_am=0.0)
    noise_frequency = 10e6
    result = compute_spurs(entries, 3e9, 0.8, 0.178, noise_frequency)
    sample_rate = 16 * 3e9
    times, waveform = synthesize_output_waveform(result, duration=1e-6,
                                                 sample_rate=sample_rate)
    spectrum = compute_spectrum(times, waveform)
    carrier_freq, carrier_power = spectrum.carrier()
    assert carrier_freq == pytest.approx(3e9, rel=1e-3)
    lower, upper = spectrum.spur_powers(carrier_freq, noise_frequency)
    [predicted] = result.sideband_power_dbm("upper")
    # The FFT view of the synthesised waveform matches equation (2).
    assert upper == pytest.approx(predicted, abs=1.5)
    assert lower == pytest.approx(predicted, abs=1.5)
    # Spurs sit well below the carrier.
    assert carrier_power - upper > 10.0


def test_synthesize_waveform_validation():
    result = compute_spurs(_entries(), 3e9, 1.0, 0.1, 1e6)
    with pytest.raises(AnalysisError):
        synthesize_output_waveform(result, duration=-1.0, sample_rate=1e9)
    entries = [entry._replace(h_sub=np.full(2, entry.h_sub))
               for entry in _entries()]
    sweep = compute_spurs(entries, 3e9, 1.0, 0.1, np.array([1e6, 2e6]))
    with pytest.raises(AnalysisError, match="one-point sweep"):
        synthesize_output_waveform(sweep, duration=1e-6, sample_rate=1e9)
