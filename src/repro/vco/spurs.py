"""Spur prediction: the paper's equations (1)-(3).

When a substrate-noise tone ``v_noise = A_noise * cos(2*pi*f_noise*t)``
couples into the VCO through ``n`` entries, the output is (paper eq. (1))

``v_out(t) = A_c * (1 + sum_i G_AM,i * h_sub,i * v_noise(t))
            * cos(2*pi*f_c*t + 2*pi * sum_i K_i * integral(h_sub,i * v_noise))``

For small noise (narrow-band FM) spurs appear at ``f_c +/- f_noise`` with
amplitudes (paper eqs. (2) and (3))

``|V_FM(f_c +/- f_noise)| = (A_c / 2) * |sum_i h_sub,i(f_noise) * K_i| * A_noise / f_noise``
``|V_AM(f_c +/- f_noise)| = (A_c / 2) * |sum_i h_sub,i(f_noise) * G_AM,i| * A_noise``

This module evaluates those expressions per entry and combined along a
sweep of noise frequencies, as (points x entries) arrays
(:class:`SpurSweep`; one analysis point is a one-point sweep), for one
corner or a whole stack of them along a leading corner axis, converts
spur voltages to power in dBm, and synthesises the time-domain
output waveform of eq. (1) so a spectrum-analyzer view (the paper's Figure
7) can be produced by FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..errors import AnalysisError


class NoiseEntry(NamedTuple):
    """One substrate-noise entry into the VCO (an immutable record).

    Parameters
    ----------
    name:
        Identifier used in reports ("ground interconnect", "NMOS back-gate",
        "inductor", ...).
    h_sub:
        Complex transfer from the substrate-noise source to this entry at the
        analysed noise frequency (V/V); along a sweep, the array of its
        values at the swept frequencies (``(corners, points)`` for a stack).
    k_hz_per_volt:
        Oscillator frequency sensitivity to a voltage on this entry (Hz/V;
        one per corner for a stack).
    g_am_per_volt:
        AM gain of this entry (1/V; one per corner for a stack).
    mechanism:
        "resistive" or "capacitive" — how the noise reaches the entry; used by
        the mechanism-classification analysis, not by the spur equations.
    """

    name: str
    h_sub: complex | np.ndarray
    k_hz_per_volt: float
    g_am_per_volt: float = 0.0
    mechanism: str = "resistive"


def _dbm(power: float) -> float:
    """``power`` (watts) in dBm; -300 dBm for no power."""
    if power <= 0:
        return -300.0
    return 10.0 * math.log10(power / 1e-3)


def _per_value(function, *arrays) -> np.ndarray:
    """``function`` of Python floats, applied value by value to arrays of
    one shape.

    Python-float arithmetic on purpose: a spur power reads the same bits
    whether it comes from a sweep, a result column or a record.
    """
    arrays = [np.asarray(array, dtype=float) for array in arrays]
    values = [function(*point)
              for point in zip(*(array.ravel().tolist() for array in arrays))]
    return np.array(values, dtype=np.float64).reshape(arrays[0].shape)


def spur_power_dbm(lower_sideband_voltage, upper_sideband_voltage,
                   impedance: float = 50.0) -> np.ndarray:
    """Total power of both sidebands (voltages in volts peak) in dBm."""
    return _per_value(
        lambda lower, upper: _dbm((lower ** 2 + upper ** 2) / (2.0 * impedance)),
        lower_sideband_voltage, upper_sideband_voltage)


def sideband_dbm(voltage, impedance: float = 50.0) -> np.ndarray:
    """Power of one sideband (volts peak) in dBm."""
    def dbm(volts: float) -> float:
        volts = max(volts, 1e-15)
        return _dbm(volts * volts / (2.0 * impedance))

    return _per_value(dbm, voltage)


def entry_dbm(fm_voltage, am_voltage, impedance: float = 50.0) -> np.ndarray:
    """Total power (both sidebands) of one entry's FM and AM spur voltages."""
    return _per_value(lambda fm, am: _dbm((fm ** 2 + am ** 2) / impedance),
                      fm_voltage, am_voltage)


@dataclass(eq=False)
class SpurSweep:
    """Spur amplitudes along a noise-frequency sweep at one corner.

    What :func:`compute_spurs` returns: the (points x entries) arrays eqs.
    (2) and (3) produce, plus the entry constants and the carrier scalars.
    A single analysis point is a one-point sweep.  Of a stack of corners,
    every field but the noise frequencies, the noise amplitude and the
    entry names and mechanisms has a leading corner axis; :meth:`corner`
    takes one corner's sweep out.
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
    fm_voltage: np.ndarray                #: (points,) |V_FM| at f_c +/- f_noise
    am_voltage: np.ndarray                #: (points,) |V_AM| at f_c +/- f_noise
    lower_sideband_voltage: np.ndarray    #: (points,)
    upper_sideband_voltage: np.ndarray    #: (points,)

    def __len__(self) -> int:
        return self.noise_frequency.size

    def corner(self, index: int) -> "SpurSweep":
        """The sweep of corner ``index`` of a stacked sweep (a sweep of one
        corner, with scalar carrier values, is its own corner 0)."""
        if np.ndim(self.carrier_frequency) == 0 and index == 0:
            return self
        stacked = ("entry_k_hz_per_volt", "entry_g_am_per_volt", "h_sub",
                   "per_entry_fm_voltage", "per_entry_am_voltage",
                   "fm_voltage", "am_voltage", "lower_sideband_voltage",
                   "upper_sideband_voltage")
        return replace(
            self, carrier_frequency=float(self.carrier_frequency[index]),
            carrier_amplitude=float(self.carrier_amplitude[index]),
            **{name: getattr(self, name)[index] for name in stacked})

    def total_spur_power_dbm(self, impedance: float = 50.0) -> np.ndarray:
        """Total spur power (both sidebands) per point, in dBm into
        ``impedance`` (the paper's 'total spur power')."""
        return spur_power_dbm(self.lower_sideband_voltage,
                              self.upper_sideband_voltage, impedance)

    def sideband_power_dbm(self, side: str = "upper",
                           impedance: float = 50.0) -> np.ndarray:
        """Power of the ``"upper"`` or ``"lower"`` sideband per point (dBm)."""
        if side not in ("upper", "lower"):
            raise AnalysisError(
                f"sideband must be 'upper' or 'lower', not {side!r}")
        return sideband_dbm(self.upper_sideband_voltage if side == "upper"
                            else self.lower_sideband_voltage, impedance)

    def entry_power_dbm(self, name: str,
                        impedance: float = 50.0) -> np.ndarray:
        """Total spur power (both sidebands) of entry ``name`` per point (dBm)."""
        if name not in self.entry_names:
            raise AnalysisError(f"no noise entry {name!r} in the sweep "
                                f"(entries: {self.entry_names})")
        column = self.entry_names.index(name)
        return entry_dbm(self.per_entry_fm_voltage[:, column],
                         self.per_entry_am_voltage[:, column], impedance)


def compute_spurs(entries: list[NoiseEntry], carrier_frequency: float,
                  carrier_amplitude: float, noise_amplitude: float,
                  noise_frequency: float | np.ndarray) -> SpurSweep:
    """Evaluate the paper's spur equations along a noise-frequency sweep.

    ``noise_frequency`` is a 1-D array and each entry's ``h_sub`` the array
    of its values there (what
    :func:`~repro.vco.sensitivity.entries_at_frequency` returns for the same
    array); a scalar frequency with scalar ``h_sub`` values is a one-point
    sweep.  Eqs. (2) and (3) are evaluated once on (entries x frequencies)
    arrays.  Carrier frequencies and amplitudes given per corner (1-D),
    with each entry's ``h_sub`` as ``(corners, points)`` and its constants
    per corner, evaluate the whole stack at once: every corner's values
    are the ones it gets alone, bit for bit.
    """
    points = np.asarray(noise_frequency, dtype=float).reshape(-1)
    if not np.all((points > 0) & (points < math.inf)):
        raise AnalysisError("noise frequency must be finite and positive")
    carrier = np.array(np.broadcast_arrays(
        carrier_frequency, carrier_amplitude, noise_amplitude), dtype=float)
    if not np.all((0 < carrier) & (carrier < math.inf)):
        raise AnalysisError("carrier frequency and the carrier and noise "
                            "amplitudes must be finite and positive")
    if not entries:
        raise AnalysisError("at least one noise entry is required")

    corners = np.shape(carrier_frequency)
    h_sub = np.empty(corners + (len(entries), points.size), dtype=complex)
    for row, entry in enumerate(entries):
        h_sub[..., row, :] = entry.h_sub
    # (entries, *corners) -> (*corners, entries)
    k = np.moveaxis(np.array(np.broadcast_arrays(
        *(entry.k_hz_per_volt for entry in entries)), dtype=float), 0, -1)
    g_am = np.moveaxis(np.array(np.broadcast_arrays(
        *(entry.g_am_per_volt for entry in entries)), dtype=float), 0, -1)

    scale = np.asarray(carrier_amplitude / 2.0 * noise_amplitude)[..., None]
    fm_terms = h_sub * k[..., None] / points
    am_terms = h_sub * g_am[..., None]
    # Entry by entry, in order: the same additions whatever the number of
    # points or corners, so a sweep's point equals the one-point sweep bit
    # for bit.
    fm_sum = fm_terms[..., 0, :].copy()
    am_sum = am_terms[..., 0, :].copy()
    for row in range(1, len(entries)):
        fm_sum += fm_terms[..., row, :]
        am_sum += am_terms[..., row, :]
    # Narrow-band FM produces anti-phase sidebands while AM produces in-phase
    # sidebands, so the two mechanisms add on one side of the carrier and
    # subtract on the other — the paper's "small difference between left and
    # right spur ... caused by negligible AM".
    return SpurSweep(
        noise_frequency=points,
        carrier_frequency=carrier_frequency,
        carrier_amplitude=carrier_amplitude,
        noise_amplitude=noise_amplitude,
        entry_names=[entry.name for entry in entries],
        entry_k_hz_per_volt=k,
        entry_g_am_per_volt=g_am,
        entry_mechanism=[entry.mechanism for entry in entries],
        h_sub=np.swapaxes(h_sub, -1, -2),
        per_entry_fm_voltage=np.swapaxes(
            scale[..., None] * np.abs(fm_terms), -1, -2),
        per_entry_am_voltage=np.swapaxes(
            scale[..., None] * np.abs(am_terms), -1, -2),
        fm_voltage=scale * np.abs(fm_sum),
        am_voltage=scale * np.abs(am_sum),
        lower_sideband_voltage=scale * np.abs(fm_sum - am_sum),
        upper_sideband_voltage=scale * np.abs(fm_sum + am_sum))


def synthesize_output_waveform(sweep: SpurSweep, duration: float,
                               sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Synthesise the VCO output voltage of eq. (1) for the analysed tone of
    a one-point ``sweep``.

    Returns ``(time, v_out)``.  The FM term integrates the frequency deviation
    analytically (sinusoidal noise), the AM term multiplies the envelope.
    """
    if len(sweep) != 1:
        raise AnalysisError("the output waveform needs a one-point sweep "
                            f"(got {len(sweep)} points)")
    if duration <= 0 or sample_rate <= 0:
        raise AnalysisError("duration and sample rate must be positive")
    n_samples = int(round(duration * sample_rate))
    time = np.arange(n_samples) / sample_rate

    noise_frequency = float(sweep.noise_frequency[0])
    omega_noise = 2.0 * math.pi * noise_frequency
    fm_sum = complex(0.0, 0.0)
    am_sum = complex(0.0, 0.0)
    for h_sub, k, g_am in zip(sweep.h_sub[0].tolist(),
                              sweep.entry_k_hz_per_volt.tolist(),
                              sweep.entry_g_am_per_volt.tolist()):
        fm_sum += h_sub * k
        am_sum += h_sub * g_am

    # Effective noise reaching the frequency / amplitude control, as real
    # signals with the phase of the summed transfer.
    fm_mag, fm_phase = abs(fm_sum), np.angle(fm_sum)
    am_mag, am_phase = abs(am_sum), np.angle(am_sum)

    # Frequency deviation: delta_f(t) = fm_mag * A_noise * cos(w t + phase).
    # Its integral contributes (fm_mag*A_noise/f_noise) * sin(w t + phase)/(2*pi) cycles.
    phase_deviation = (sweep.noise_amplitude * fm_mag / noise_frequency
                       * np.sin(omega_noise * time + fm_phase))
    envelope = 1.0 + sweep.noise_amplitude * am_mag * np.cos(
        omega_noise * time + am_phase)
    v_out = sweep.carrier_amplitude * envelope * np.cos(
        2.0 * math.pi * sweep.carrier_frequency * time + phase_deviation)
    return time, v_out
