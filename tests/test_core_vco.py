"""Sections 5-6 integration tests: VCO spur analysis on a coarse mesh.

Trend-level checks (slopes, ordering, mechanism classification); the
benchmarks regenerate the actual figures at the calibrated resolution.
"""

import numpy as np
import pytest

from repro.core.vco_experiment import mechanism_report
from repro.errors import SimulationError
from repro.vco.sensitivity import (
    ENTRY_GROUND,
    ENTRY_INDUCTOR,
    ENTRY_NMOS,
    entries_at_frequency,
)


@pytest.fixture(scope="module")
def sweep(vco_analysis):
    return vco_analysis.spur_sweep(vtune_values=(0.0, 0.75))


@pytest.fixture(scope="module")
def contributions(vco_analysis):
    return vco_analysis.contributions(vtune=0.0)


def test_carrier_frequency_near_3ghz(sweep):
    for vtune, frequency in sweep.carrier_frequencies.items():
        assert 2.5e9 < frequency < 5.5e9
    # Tuning raises the frequency.
    assert sweep.carrier_frequencies[0.75] > sweep.carrier_frequencies[0.0]


def test_spur_power_slope_is_minus_20db_per_decade(sweep):
    """Resistive coupling followed by FM: the paper's headline mechanism."""
    for vtune in sweep.vtune_values:
        slope = sweep.slope_db_per_decade(vtune)
        assert slope == pytest.approx(-20.0, abs=4.0)


def test_spur_power_decreases_with_noise_frequency(sweep):
    for vtune in sweep.vtune_values:
        levels = sweep.spur_power_dbm[vtune]
        assert np.all(np.diff(levels) < 0)


def test_shape_comparison_against_reference(sweep):
    """The simulated sweep follows the ideal -20 dB/dec reference line."""
    for vtune in sweep.vtune_values:
        assert sweep.comparisons[vtune].max_abs_error_db < 6.0


def test_sweep_rows_table(sweep):
    rows = sweep.rows()
    assert len(rows) == len(sweep.vtune_values) * len(sweep.noise_frequencies)
    assert {"vtune_v", "noise_frequency_hz", "simulated_dbm",
            "reference_dbm"} <= set(rows[0])


def test_ground_interconnect_dominates(contributions):
    """Figure 9: the non-ideal on-chip ground is the dominant entry."""
    assert contributions.dominant_entry() == ENTRY_GROUND
    gap_nmos = contributions.gap_db(ENTRY_GROUND, ENTRY_NMOS)
    gap_inductor = contributions.gap_db(ENTRY_GROUND, ENTRY_INDUCTOR)
    assert gap_nmos > 5.0
    assert gap_inductor > 20.0


def test_ground_and_nmos_paths_are_resistive_fm(contributions):
    assert contributions.mechanisms[ENTRY_GROUND] == "resistive coupling + FM"
    assert contributions.slopes[ENTRY_GROUND] == pytest.approx(-20.0, abs=4.0)
    assert contributions.slopes[ENTRY_NMOS] == pytest.approx(-20.0, abs=6.0)


def test_inductor_path_is_flat_with_frequency(contributions):
    """Capacitive coupling followed by FM: flat spur power versus frequency."""
    assert abs(contributions.slopes[ENTRY_INDUCTOR]) < 6.0


def test_mechanism_report(contributions):
    report = mechanism_report(contributions)
    assert report.dominant_entry == ENTRY_GROUND
    assert report.dominant_mechanism == "resistive coupling + FM"
    assert set(report.slopes_db_per_decade) == set(contributions.contributions_dbm)


def test_contribution_rows(contributions):
    rows = contributions.rows()
    assert rows
    assert {"entry", "noise_frequency_hz", "contribution_dbm"} <= set(rows[0])


def test_output_spectrum_figure7(vco_analysis):
    """Figure 7: spurs appear at f_c +/- f_noise in the synthesised spectrum."""
    spectrum, spur = vco_analysis.output_spectrum(
        vtune=0.0, noise_frequency=10e6, periods_of_noise=12,
        samples_per_carrier_period=6)
    carrier_frequency, carrier_power = spectrum.carrier()
    assert carrier_frequency == pytest.approx(spur.carrier_frequency, rel=0.01)
    lower, upper = spectrum.spur_powers(carrier_frequency, 10e6)
    # Both sidebands exist and sit below the carrier.
    assert lower < carrier_power and upper < carrier_power
    # And they match the equation-(2) prediction within a couple of dB.
    [predicted] = spur.sideband_power_dbm("upper")     # a one-point sweep
    assert upper == pytest.approx(predicted, abs=3.0)


def test_analyze_exposes_vco_model_and_catalog(vco_analysis):
    results, vco, catalog, transfer = vco_analysis.analyze(
        0.0, np.array([1e6, 10e6]))
    assert len(results) == 2
    assert ENTRY_GROUND in catalog.names()
    assert vco.amplitude(0.0) > 0.1
    # Every catalogue observation node was actually solved.
    for node in catalog.observation_nodes():
        assert node in transfer.transfers
    # Looking the swept frequency up gives the entries analyze() read by
    # index; an unswept frequency is refused, not rounded to the nearest.
    assert entries_at_frequency(catalog, transfer, 10e6) \
        == entries_at_frequency(catalog, transfer, 10e6, index=1)
    with pytest.raises(SimulationError, match="5000000.0 Hz"):
        entries_at_frequency(catalog, transfer, 5e6)
