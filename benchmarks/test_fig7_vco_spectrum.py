"""Figure 7: VCO output spectrum with a -5 dBm, 10 MHz tone in the substrate.

Paper: the spectrum analyzer shows the 3 GHz carrier with spurs at
f_c +/- f_noise; the spur pair is the quantity tracked in Figures 8-10.
"""

import pytest

from _report import print_table


def test_fig7_vco_output_spectrum(benchmark, vco_analysis):
    def synthesise():
        return vco_analysis.output_spectrum(vtune=0.0, noise_frequency=10e6,
                                            periods_of_noise=12,
                                            samples_per_carrier_period=6)

    spectrum, spur = benchmark.pedantic(synthesise, rounds=1, iterations=1)
    [predicted] = spur.sideband_power_dbm("upper")    # a one-point sweep

    carrier_frequency, carrier_power = spectrum.carrier()
    lower, upper = spectrum.spur_powers(carrier_frequency, 10e6)
    rows = [
        {"line": "carrier", "frequency_GHz": carrier_frequency / 1e9,
         "power_dbm": carrier_power},
        {"line": "lower spur (fc - fnoise)",
         "frequency_GHz": (carrier_frequency - 10e6) / 1e9, "power_dbm": lower},
        {"line": "upper spur (fc + fnoise)",
         "frequency_GHz": (carrier_frequency + 10e6) / 1e9, "power_dbm": upper},
    ]
    print_table("Figure 7: VCO output spectrum with a -5 dBm 10 MHz substrate tone",
                rows)
    print(f"equation-(2) prediction for the spur: "
          f"{predicted:.1f} dBm")

    # The carrier sits near 3 GHz and the spurs appear symmetrically below it.
    assert 2.5e9 < carrier_frequency < 5.5e9
    assert lower < carrier_power - 10.0
    assert upper < carrier_power - 10.0
    # FFT view and equation (2) agree.
    assert upper == pytest.approx(predicted, abs=3.0)
    # The left/right asymmetry caused by residual AM is small (paper: "small
    # difference between left and right spur").
    assert abs(upper - lower) < 3.0
