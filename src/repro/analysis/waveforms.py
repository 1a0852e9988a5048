"""Substrate-noise waveform generation.

The paper injects a sinusoidal tone of known power into the substrate; a
follow-up use case (the generation methodology of reference [10] in the
paper) would inject the switching noise of a digital circuit.  Both are
provided:

* :class:`SinusoidalNoise` — the paper's -5 dBm tone,
* :class:`DigitalSwitchingNoise` — a synthetic supply-current-like waveform
  (sum of damped clock-edge pulses) useful for end-to-end demos of the flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..netlist.elements import SourceValue, vectorized_waveform
from ..units import dbm_to_vpeak


@dataclass(frozen=True)
class SinusoidalNoise:
    """A sinusoidal substrate-noise tone of given power into ``impedance``."""

    power_dbm: float
    frequency: float
    impedance: float = 50.0
    phase_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise AnalysisError("noise frequency must be positive")

    @property
    def amplitude(self) -> float:
        """Peak amplitude in volts of the tone."""
        return float(dbm_to_vpeak(self.power_dbm, self.impedance))

    def source_value(self) -> SourceValue:
        """Netlist source description (DC = 0, sine waveform)."""
        return SourceValue.sine(self.amplitude, self.frequency,
                                phase_deg=self.phase_deg)

    def samples(self, times: np.ndarray) -> np.ndarray:
        phase = math.radians(self.phase_deg)
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency * times + phase)


@dataclass(frozen=True)
class DigitalSwitchingNoise:
    """Synthetic digital switching noise: damped current spikes at clock edges.

    Each clock edge injects a pulse ``A * exp(-t/tau) * sin(2*pi*f_ring*t)``
    into the substrate — the typical shape of supply-bounce-generated
    substrate noise from a synchronous digital block.
    """

    clock_frequency: float
    pulse_amplitude: float = 20e-3
    damping_time: float = 0.8e-9
    ring_frequency: float = 900e6
    edges_per_period: int = 2

    def __post_init__(self) -> None:
        if self.clock_frequency <= 0:
            raise AnalysisError("clock frequency must be positive")
        if self.damping_time <= 0:
            raise AnalysisError("damping time must be positive")

    def samples(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        period = 1.0 / self.clock_frequency
        edge_spacing = period / self.edges_per_period
        t_in_edge = np.mod(times, edge_spacing)
        envelope = np.exp(-t_in_edge / self.damping_time)
        ringing = np.sin(2.0 * math.pi * self.ring_frequency * t_in_edge)
        return self.pulse_amplitude * envelope * ringing

    def source_value(self) -> SourceValue:
        """Netlist source with the switching waveform for transient analysis."""
        @vectorized_waveform
        def waveform(t):
            # samples() is array-aware, so whole time grids are evaluated in
            # one vectorized call; scalars come back as plain floats.
            result = self.samples(t)
            return result if result.ndim else float(result)

        return SourceValue(dc=0.0, waveform=waveform)
