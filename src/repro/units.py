"""Unit helpers used across the library.

The extraction and simulation code works in plain SI units (metres, ohms,
farads, volts, hertz).  The paper's figures, however, are expressed in dBm
and dB, so this module centralises the power conversions to keep the rest
of the code free of ``10 * log10`` boilerplate.
"""

from __future__ import annotations

import numpy as np

# Characteristic impedance used by the paper's measurement setup (spectrum
# analyzer input, signal-generator output).
DEFAULT_IMPEDANCE_OHM = 50.0


def dbm_to_watt(power_dbm: float | np.ndarray) -> float | np.ndarray:
    """Convert a power level in dBm to watts."""
    return 1e-3 * 10.0 ** (np.asarray(power_dbm, dtype=float) / 10.0)


def watt_to_dbm(power_watt: float | np.ndarray) -> float | np.ndarray:
    """Convert a power in watts to dBm."""
    return 10.0 * np.log10(np.asarray(power_watt, dtype=float) / 1e-3)


def dbm_to_vpeak(power_dbm: float | np.ndarray,
                 impedance_ohm: float = DEFAULT_IMPEDANCE_OHM) -> float | np.ndarray:
    """Peak sinusoidal voltage of a tone of the given power into ``impedance_ohm``.

    A ``-5 dBm`` tone into 50 ohm (the paper's injected substrate signal) has a
    peak amplitude of roughly 178 mV.
    """
    power = dbm_to_watt(power_dbm)
    return np.sqrt(2.0 * power * impedance_ohm)


def vpeak_to_dbm(v_peak: float | np.ndarray,
                 impedance_ohm: float = DEFAULT_IMPEDANCE_OHM) -> float | np.ndarray:
    """Power in dBm of a sinusoid with the given peak voltage into ``impedance_ohm``."""
    power = np.asarray(v_peak, dtype=float) ** 2 / (2.0 * impedance_ohm)
    return watt_to_dbm(power)
