"""On-chip spiral inductor model.

A standard single-π model: the series branch is the inductance with its metal
series resistance; each terminal couples to the substrate through an oxide
capacitance (the paper's ``Cind = 120 fF`` per inductor) in series with a
small substrate spreading resistance.  The substrate capacitance is the
capacitive coupling path the paper evaluates (and finds negligible at
sub-GHz substrate-noise frequencies, with a frequency-independent FM
contribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import NetlistError
from .stack import anywhere


@dataclass(frozen=True)
class SpiralInductor:
    """Single-π spiral-inductor model.

    Parameters
    ----------
    inductance:
        Series inductance in henry.
    series_resistance:
        Metal series resistance in ohm.
    substrate_capacitance:
        Oxide capacitance from each terminal to the substrate (farad).
    substrate_resistance:
        Spreading resistance of the substrate under the coil (ohm).
    """

    inductance: float
    series_resistance: float
    substrate_capacitance: float = 120e-15
    substrate_resistance: float = 250.0

    def __post_init__(self) -> None:
        if self.inductance <= 0:
            raise NetlistError("inductance must be positive")
        if self.series_resistance < 0:
            raise NetlistError("series resistance must be non-negative")
        if self.substrate_capacitance < 0:
            raise NetlistError("substrate capacitance must be non-negative")

    def quality_factor(self, frequency):
        """Series quality factor ``Q = omega L / R`` at the given frequency
        (or elementwise over an array of them)."""
        if anywhere(frequency <= 0):
            raise NetlistError("frequency must be positive")
        if self.series_resistance == 0:
            return math.inf
        return 2.0 * math.pi * frequency * self.inductance / self.series_resistance

    def self_resonance_frequency(self) -> float:
        """Self-resonance with the two substrate capacitances (series combination)."""
        if self.substrate_capacitance == 0:
            return math.inf
        c_eff = self.substrate_capacitance / 2.0
        return 1.0 / (2.0 * math.pi * math.sqrt(self.inductance * c_eff))

    def impedance(self, frequency: float) -> complex:
        """Series-branch impedance at the given frequency."""
        omega = 2.0 * math.pi * frequency
        return complex(self.series_resistance, omega * self.inductance)

    def parallel_tank_loss(self, frequency):
        """Equivalent parallel loss resistance of the coil at ``frequency``.

        For a moderately high-Q series RL branch, the equivalent parallel
        resistance is ``R * (1 + Q^2)`` — the quantity that sets the LC-tank
        amplitude of the VCO.  Elementwise over an array of frequencies.
        """
        q = self.quality_factor(frequency)
        if self.series_resistance == 0:
            return math.inf
        return self.series_resistance * (1.0 + q * q)
