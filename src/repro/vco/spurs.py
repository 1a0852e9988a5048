"""Spur prediction: the paper's equations (1)-(3).

When a substrate-noise tone ``v_noise = A_noise * cos(2*pi*f_noise*t)``
couples into the VCO through ``n`` entries, the output is (paper eq. (1))

``v_out(t) = A_c * (1 + sum_i G_AM,i * h_sub,i * v_noise(t))
            * cos(2*pi*f_c*t + 2*pi * sum_i K_i * integral(h_sub,i * v_noise))``

For small noise (narrow-band FM) spurs appear at ``f_c +/- f_noise`` with
amplitudes (paper eqs. (2) and (3))

``|V_FM(f_c +/- f_noise)| = (A_c / 2) * |sum_i h_sub,i(f_noise) * K_i| * A_noise / f_noise``
``|V_AM(f_c +/- f_noise)| = (A_c / 2) * |sum_i h_sub,i(f_noise) * G_AM,i| * A_noise``

This module evaluates those expressions per entry and combined — for one
analysis point (:class:`SpurResult`) or a whole sweep of them as
(points x entries) arrays (:class:`SpurSweep`) —
converts spur voltages to power in dBm, and synthesises the time-domain
output waveform of eq. (1) so a spectrum-analyzer view (the paper's Figure
7) can be produced by FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError
from ..units import vpeak_to_dbm


@dataclass(frozen=True)
class NoiseEntry:
    """One substrate-noise entry into the VCO.

    Parameters
    ----------
    name:
        Identifier used in reports ("ground interconnect", "NMOS back-gate",
        "inductor", ...).
    h_sub:
        Complex transfer from the substrate-noise source to this entry at the
        analysed noise frequency (V/V); along a sweep, the array of its
        values at the swept frequencies.
    k_hz_per_volt:
        Oscillator frequency sensitivity to a voltage on this entry (Hz/V).
    g_am_per_volt:
        AM gain of this entry (1/V).
    mechanism:
        "resistive" or "capacitive" — how the noise reaches the entry; used by
        the mechanism-classification analysis, not by the spur equations.
    """

    name: str
    h_sub: complex | np.ndarray
    k_hz_per_volt: float
    g_am_per_volt: float = 0.0
    mechanism: str = "resistive"


def total_spur_power_dbm(lower_sideband_voltage: float,
                         upper_sideband_voltage: float,
                         impedance: float = 50.0) -> float:
    """Total power of two sideband voltages (volts peak) in dBm.

    Python-float arithmetic on purpose: a column of these built from arrays
    matches :meth:`SpurResult.total_spur_power_dbm` bit for bit.
    """
    power = (lower_sideband_voltage ** 2
             + upper_sideband_voltage ** 2) / (2.0 * impedance)
    if power <= 0:
        return -300.0
    return 10.0 * math.log10(power / 1e-3)


@dataclass
class SpurResult:
    """Spur amplitudes of one analysis point (one noise frequency / V_tune)."""

    noise_frequency: float
    carrier_frequency: float
    carrier_amplitude: float
    noise_amplitude: float
    entries: list[NoiseEntry]
    fm_voltage: float                 #: |V_FM| at f_c +/- f_noise (volts peak)
    am_voltage: float                 #: |V_AM| at f_c +/- f_noise (volts peak)
    lower_sideband_voltage: float
    upper_sideband_voltage: float
    per_entry_fm_voltage: dict[str, float] = field(default_factory=dict)
    per_entry_am_voltage: dict[str, float] = field(default_factory=dict)

    @property
    def total_spur_voltage(self) -> float:
        """RSS of the two sidebands' voltages (the paper's 'total spur power')."""
        return math.sqrt(self.lower_sideband_voltage ** 2
                         + self.upper_sideband_voltage ** 2)

    def total_spur_power_dbm(self, impedance: float = 50.0) -> float:
        """Total spur power (both sidebands) in dBm into ``impedance``."""
        return total_spur_power_dbm(self.lower_sideband_voltage,
                                    self.upper_sideband_voltage, impedance)

    def sideband_power_dbm(self, side: str = "upper",
                           impedance: float = 50.0) -> float:
        voltage = (self.upper_sideband_voltage if side == "upper"
                   else self.lower_sideband_voltage)
        return float(vpeak_to_dbm(max(voltage, 1e-15), impedance))

    def record(self, impedance: float = 50.0) -> dict[str, float]:
        """Flat tidy row of this analysis point (for sweep-result stores)."""
        row = {
            "noise_frequency": self.noise_frequency,
            "carrier_frequency": self.carrier_frequency,
            "carrier_amplitude": self.carrier_amplitude,
            "spur_power_dbm": self.total_spur_power_dbm(impedance),
            "lower_sideband_dbm": self.sideband_power_dbm("lower", impedance),
            "upper_sideband_dbm": self.sideband_power_dbm("upper", impedance),
            "fm_voltage": self.fm_voltage,
            "am_voltage": self.am_voltage,
        }
        for entry in self.entries:
            row[f"entry:{entry.name}_dbm"] = self.entry_power_dbm(
                entry.name, impedance)
        return row

    def entry_power_dbm(self, name: str, impedance: float = 50.0) -> float:
        """Total spur power (both sidebands) of a single entry in dBm."""
        v_fm = self.per_entry_fm_voltage[name]
        v_am = self.per_entry_am_voltage[name]
        power = (v_fm ** 2 + v_am ** 2) / impedance   # both sidebands
        if power <= 0:
            return -300.0
        return 10.0 * math.log10(power / 1e-3)


@dataclass(eq=False)
class SpurSweep:
    """Spur amplitudes along a noise-frequency sweep at one corner.

    What :func:`compute_spurs` returns for an array of noise frequencies:
    the (points x entries) arrays eqs. (2) and (3) produce, plus the entry
    constants and the carrier scalars.  ``len``, indexing and iteration
    build one :class:`SpurResult` per point on demand, so callers that
    want per-point objects get the same ones a scalar call returns; the
    campaign runner reads the arrays instead.
    """

    noise_frequency: np.ndarray           #: (points,)
    carrier_frequency: float
    carrier_amplitude: float
    noise_amplitude: float
    entry_names: list[str]                #: (entries,)
    entry_k_hz_per_volt: np.ndarray       #: (entries,)
    entry_g_am_per_volt: np.ndarray       #: (entries,)
    entry_mechanism: list[str]            #: (entries,)
    h_sub: np.ndarray                     #: (points, entries), complex
    per_entry_fm_voltage: np.ndarray      #: (points, entries)
    per_entry_am_voltage: np.ndarray      #: (points, entries)
    fm_voltage: np.ndarray                #: (points,)
    am_voltage: np.ndarray                #: (points,)
    lower_sideband_voltage: np.ndarray    #: (points,)
    upper_sideband_voltage: np.ndarray    #: (points,)

    def __len__(self) -> int:
        return self.noise_frequency.size

    def __getitem__(self, point: int) -> SpurResult:
        if not -len(self) <= point < len(self):
            raise IndexError(f"sweep point {point} out of range "
                             f"({len(self)} points)")
        return self._result(point % len(self))

    def __iter__(self):
        return (self._result(point) for point in range(len(self)))

    def _result(self, point: int) -> SpurResult:
        names = self.entry_names
        h_sub = self.h_sub[point].tolist()
        entries = [NoiseEntry(name=name, h_sub=h, k_hz_per_volt=k,
                              g_am_per_volt=g, mechanism=mechanism)
                   for name, h, k, g, mechanism in zip(
                       names, h_sub, self.entry_k_hz_per_volt.tolist(),
                       self.entry_g_am_per_volt.tolist(),
                       self.entry_mechanism)]
        return SpurResult(
            noise_frequency=float(self.noise_frequency[point]),
            carrier_frequency=self.carrier_frequency,
            carrier_amplitude=self.carrier_amplitude,
            noise_amplitude=self.noise_amplitude,
            entries=entries,
            fm_voltage=float(self.fm_voltage[point]),
            am_voltage=float(self.am_voltage[point]),
            lower_sideband_voltage=float(self.lower_sideband_voltage[point]),
            upper_sideband_voltage=float(self.upper_sideband_voltage[point]),
            per_entry_fm_voltage=dict(zip(
                names, self.per_entry_fm_voltage[point].tolist())),
            per_entry_am_voltage=dict(zip(
                names, self.per_entry_am_voltage[point].tolist())))


def compute_spurs(entries: list[NoiseEntry], carrier_frequency: float,
                  carrier_amplitude: float, noise_amplitude: float,
                  noise_frequency: float | np.ndarray
                  ) -> SpurResult | SpurSweep:
    """Evaluate the paper's spur equations for one analysis point, or along
    a sweep.

    For a sweep, ``noise_frequency`` is a 1-D array and each entry's
    ``h_sub`` the array of its values there (what
    :func:`~repro.vco.sensitivity.entries_at_frequency` returns for the same
    array).  Eqs. (2) and (3) are then evaluated once on (entries x
    frequencies) arrays and come back as one :class:`SpurSweep`.  A single
    point is the same evaluation with one column, returned as its
    :class:`SpurResult`.
    """
    frequencies = np.asarray(noise_frequency, dtype=float)
    if np.any(frequencies <= 0):
        raise AnalysisError("noise frequency must be positive")
    if carrier_amplitude <= 0 or noise_amplitude <= 0:
        raise AnalysisError("carrier and noise amplitudes must be positive")
    if not entries:
        raise AnalysisError("at least one noise entry is required")

    points = frequencies.reshape(-1)
    h_sub = np.empty((len(entries), points.size), dtype=complex)
    for row, entry in enumerate(entries):
        h_sub[row] = entry.h_sub
    k = np.array([entry.k_hz_per_volt for entry in entries], dtype=float)
    g_am = np.array([entry.g_am_per_volt for entry in entries], dtype=float)

    scale = carrier_amplitude / 2.0 * noise_amplitude
    fm_terms = h_sub * k[:, None] / points
    am_terms = h_sub * g_am[:, None]
    # Entry by entry, in order: the same additions whatever the number of
    # points, so a sweep's point equals the scalar call bit for bit.
    fm_sum = fm_terms[0].copy()
    am_sum = am_terms[0].copy()
    for fm_row, am_row in zip(fm_terms[1:], am_terms[1:]):
        fm_sum += fm_row
        am_sum += am_row
    # Narrow-band FM produces anti-phase sidebands while AM produces in-phase
    # sidebands, so the two mechanisms add on one side of the carrier and
    # subtract on the other — the paper's "small difference between left and
    # right spur ... caused by negligible AM".
    sweep = SpurSweep(
        noise_frequency=points,
        carrier_frequency=carrier_frequency,
        carrier_amplitude=carrier_amplitude,
        noise_amplitude=noise_amplitude,
        entry_names=[entry.name for entry in entries],
        entry_k_hz_per_volt=k,
        entry_g_am_per_volt=g_am,
        entry_mechanism=[entry.mechanism for entry in entries],
        h_sub=h_sub.T,
        per_entry_fm_voltage=(scale * np.abs(fm_terms)).T,
        per_entry_am_voltage=(scale * np.abs(am_terms)).T,
        fm_voltage=scale * np.abs(fm_sum),
        am_voltage=scale * np.abs(am_sum),
        lower_sideband_voltage=scale * np.abs(fm_sum - am_sum),
        upper_sideband_voltage=scale * np.abs(fm_sum + am_sum))
    if frequencies.ndim:
        return sweep
    result = sweep[0]
    result.entries = list(entries)
    return result


def synthesize_output_waveform(result: SpurResult, duration: float,
                               sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Synthesise the VCO output voltage of eq. (1) for the analysed tone.

    Returns ``(time, v_out)``.  The FM term integrates the frequency deviation
    analytically (sinusoidal noise), the AM term multiplies the envelope.
    """
    if duration <= 0 or sample_rate <= 0:
        raise AnalysisError("duration and sample rate must be positive")
    n_samples = int(round(duration * sample_rate))
    time = np.arange(n_samples) / sample_rate

    omega_noise = 2.0 * math.pi * result.noise_frequency
    fm_sum = complex(0.0, 0.0)
    am_sum = complex(0.0, 0.0)
    for entry in result.entries:
        fm_sum += entry.h_sub * entry.k_hz_per_volt
        am_sum += entry.h_sub * entry.g_am_per_volt

    # Effective noise reaching the frequency / amplitude control, as real
    # signals with the phase of the summed transfer.
    fm_mag, fm_phase = abs(fm_sum), np.angle(fm_sum)
    am_mag, am_phase = abs(am_sum), np.angle(am_sum)

    # Frequency deviation: delta_f(t) = fm_mag * A_noise * cos(w t + phase).
    # Its integral contributes (fm_mag*A_noise/f_noise) * sin(w t + phase)/(2*pi) cycles.
    phase_deviation = (result.noise_amplitude * fm_mag / result.noise_frequency
                       * np.sin(omega_noise * time + fm_phase))
    envelope = 1.0 + result.noise_amplitude * am_mag * np.cos(
        omega_noise * time + am_phase)
    v_out = result.carrier_amplitude * envelope * np.cos(
        2.0 * math.pi * result.carrier_frequency * time + phase_deviation)
    return time, v_out
