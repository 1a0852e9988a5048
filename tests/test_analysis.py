"""Spectrum emulation, noise waveforms and curve comparison."""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    DigitalSwitchingNoise,
    SinusoidalNoise,
    classify_mechanism,
    compare_curves,
    compute_spectrum,
    slope_per_decade,
)
from repro.errors import AnalysisError


# -- spectrum ------------------------------------------------------------------------------


def test_spectrum_single_tone_power():
    """A 0.1 V peak tone into 50 ohm is -10 dBm; the FFT view must agree.

    The tone is placed exactly on an FFT bin (4000 samples at 100 MS/s give a
    25 kHz bin spacing) so no scalloping loss enters the comparison.
    """
    fs = 100e6
    times = np.arange(4000) / fs
    waveform = 0.1 * np.sin(2 * np.pi * 10e6 * times)
    spectrum = compute_spectrum(times, waveform)
    frequency, power = spectrum.carrier()
    assert frequency == pytest.approx(10e6, rel=1e-2)
    assert power == pytest.approx(-10.0, abs=0.3)


def test_spectrum_two_tone_spur_measurement():
    fs = 200e6
    times = np.arange(8000) / fs
    waveform = (1.0 * np.sin(2 * np.pi * 50e6 * times)
                + 0.01 * np.sin(2 * np.pi * 40e6 * times)
                + 0.01 * np.sin(2 * np.pi * 60e6 * times))
    spectrum = compute_spectrum(times, waveform)
    carrier_freq, carrier_power = spectrum.carrier()
    assert carrier_freq == pytest.approx(50e6, rel=1e-2)
    lower, upper = spectrum.spur_powers(carrier_freq, 10e6)
    assert lower == pytest.approx(carrier_power - 40.0, abs=0.5)
    assert upper == pytest.approx(carrier_power - 40.0, abs=0.5)
    total = spectrum.total_spur_power_dbm(carrier_freq, 10e6)
    assert total == pytest.approx(lower + 3.01, abs=0.2)


def test_spectrum_window_independence():
    fs = 100e6
    times = np.arange(4000) / fs
    waveform = 0.5 * np.sin(2 * np.pi * 12.5e6 * times)
    hann = compute_spectrum(times, waveform, window="hann")
    rect = compute_spectrum(times, waveform, window="rect")
    assert hann.carrier()[1] == pytest.approx(rect.carrier()[1], abs=0.1)
    with pytest.raises(AnalysisError):
        compute_spectrum(times, waveform, window="kaiser")


def test_spectrum_input_validation():
    with pytest.raises(AnalysisError):
        compute_spectrum(np.arange(4), np.zeros(4))
    with pytest.raises(AnalysisError):
        compute_spectrum(np.zeros(100), np.zeros(101))


def test_spectrum_power_at_and_peak_near():
    fs = 1e6
    times = np.arange(1024) / fs
    waveform = np.sin(2 * np.pi * 100e3 * times)
    spectrum = compute_spectrum(times, waveform)
    assert spectrum.power_at(100e3) > spectrum.power_at(300e3)
    frequency, _power = spectrum.peak_power_near(100e3, 20e3)
    assert frequency == pytest.approx(100e3, rel=0.05)
    with pytest.raises(AnalysisError):
        spectrum.peak_power_near(100e3, 1e-3)


# -- noise waveforms -----------------------------------------------------------------------


def test_sinusoidal_noise_amplitude_matches_dbm():
    noise = SinusoidalNoise(power_dbm=-5.0, frequency=10e6)
    assert noise.amplitude == pytest.approx(0.1778, rel=1e-3)
    times = np.linspace(0, 1e-6, 2001)
    samples = noise.samples(times)
    assert np.max(samples) == pytest.approx(noise.amplitude, rel=1e-2)
    value = noise.source_value()
    assert value.dc == 0.0
    np.testing.assert_allclose(value.sample(times), samples, rtol=0,
                               atol=1e-15)
    with pytest.raises(AnalysisError):
        SinusoidalNoise(power_dbm=-5.0, frequency=-1.0)


def test_digital_switching_noise_properties():
    noise = DigitalSwitchingNoise(clock_frequency=100e6)
    times = np.linspace(0, 50e-9, 2000)
    samples = noise.samples(times)
    assert np.max(np.abs(samples)) <= noise.pulse_amplitude + 1e-12
    assert np.max(np.abs(samples)) > 0
    value = noise.source_value()
    assert value.waveform is not None
    assert value.value_at(0.0) == pytest.approx(float(samples[0]), abs=1e-6)
    with pytest.raises(AnalysisError):
        DigitalSwitchingNoise(clock_frequency=-1.0)


# -- comparison ------------------------------------------------------------------------------


def test_compare_curves_interpolation_and_metrics():
    axis = np.array([1.0, 2.0, 3.0])
    reference = np.array([0.0, -10.0, -20.0])
    simulated_axis = np.array([1.0, 1.5, 2.5, 3.0])
    simulated = np.array([1.0, -4.0, -14.0, -19.0])
    comparison = compare_curves(axis, reference, simulated_axis, simulated)
    assert comparison.max_abs_error_db == pytest.approx(1.0)
    assert comparison.mean_abs_error_db == pytest.approx(1.0)
    assert comparison.bias_db == pytest.approx(1.0)
    assert comparison.within(1.5)
    assert not comparison.within(0.5)


def test_compare_curves_validation():
    with pytest.raises(AnalysisError):
        compare_curves(np.array([1.0, 2.0]), np.array([0.0]),
                       np.array([1.0, 2.0]), np.array([0.0, 1.0]))
    with pytest.raises(AnalysisError):
        compare_curves(np.array([1.0]), np.array([0.0]),
                       np.array([1.0]), np.array([0.0]))


def test_slope_per_decade_pure_line():
    frequencies = np.logspace(5, 7, 10)
    level = -20.0 * np.log10(frequencies / 1e5) - 40.0
    assert slope_per_decade(frequencies, level) == pytest.approx(-20.0)
    flat = np.full_like(frequencies, -60.0)
    assert slope_per_decade(frequencies, flat) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(AnalysisError):
        slope_per_decade(np.array([1.0]), np.array([0.0]))
    with pytest.raises(AnalysisError):
        slope_per_decade(np.array([-1.0, 1.0]), np.array([0.0, 1.0]))


def test_classify_mechanism_bands():
    assert classify_mechanism(-20.0) == "resistive coupling + FM"
    assert classify_mechanism(-17.0) == "resistive coupling + FM"
    assert classify_mechanism(0.0) == "resistive+AM or capacitive+FM"
    assert classify_mechanism(20.0) == "capacitive coupling + AM"
    assert classify_mechanism(40.0) == "mixed / unclassified"


@given(slope=st.floats(min_value=-25.0, max_value=-15.0),
       offset=st.floats(min_value=-120.0, max_value=0.0))
@settings(max_examples=30, deadline=None)
def test_slope_recovery_property(slope, offset):
    frequencies = np.logspace(5, 7.2, 15)
    level = slope * np.log10(frequencies / frequencies[0]) + offset
    assert slope_per_decade(frequencies, level) == pytest.approx(slope, abs=1e-6)
    assert classify_mechanism(slope_per_decade(frequencies, level)) == \
        "resistive coupling + FM"
