"""Analytical LC-tank VCO model.

The paper's victim circuit is a 3 GHz NMOS/PMOS cross-coupled LC-tank VCO.
For the spur analysis (Section 5, equations (1)-(3)) the oscillator is
described by a small set of quantities:

* the oscillation frequency ``f_c(V_tune)`` set by the tank inductance and the
  voltage-dependent tank capacitance (accumulation-mode varactor plus the
  device parasitics),
* the oscillation amplitude ``A_c`` set by the tail current and the tank's
  equivalent parallel loss,
* the frequency sensitivity ``K_i = d f_c / d V_i`` of every noise entry
  ``i``, and the AM gain ``G_AM,i = (1/A_c) * d A_c / d V_i``.

The model is deliberately analytical — the paper itself derives the spur
amplitudes from a narrow-band FM description rather than from a full
oscillator transient — but every capacitance and conductance that feeds it is
taken from the extracted devices at their operating point.

Every quantity also evaluates a stack of corners: a design whose
operating-point fields are arrays along a leading corner axis, at an array
of tuning voltages, gives the array of each corner's value, elementwise
(the varactor equations are the stacked ones of :mod:`repro.devices.stack`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ..devices.inductor import SpiralInductor
from ..devices.stack import anywhere, pick, smaller, sqrt
from ..devices.varactor import AccumulationModeVaractor
from ..errors import AnalysisError


@dataclass
class VcoDesign:
    """Electrical description of the LC-tank VCO used by the analytical model.

    All capacitances are *per tank side* (from one tank node to AC ground).
    The fields after ``varactor`` come from the operating point; for a stack
    of corners each may be an array along the corner axis.
    """

    tank_inductance: float                     #: differential tank inductance [H]
    inductor: SpiralInductor
    varactor: AccumulationModeVaractor
    fixed_capacitance_per_side: float          #: device + routing caps [F]
    tail_current: float = 5e-3                 #: VCO core current (paper: 5 mA)
    supply_voltage: float = 1.8
    tank_common_mode: float = 0.9              #: DC common-mode of the tank nodes
    tail_transconductance: float = 20e-3       #: gm of the tail device [S]
    #: fraction of the tank-side capacitance whose bias is referenced to the
    #: on-chip ground (NMOS junction + gate caps); used for the ground entry.
    ground_referenced_capacitance: float = 0.4e-12
    #: sensitivity of the ground-referenced capacitance to its bias [F/V]
    ground_referenced_cap_sensitivity: float = 0.15e-12

    def __post_init__(self) -> None:
        if self.tank_inductance <= 0:
            raise AnalysisError("tank inductance must be positive")
        if anywhere(self.fixed_capacitance_per_side < 0):
            raise AnalysisError("fixed tank capacitance must be non-negative")
        if anywhere(self.tail_current <= 0):
            raise AnalysisError("tail current must be positive")

    def corner(self, index: int) -> "VcoDesign":
        """The design of corner ``index`` of a stacked design, its array
        fields taken there as Python floats."""
        return replace(self, **{
            field.name: float(getattr(self, field.name)[index])
            for field in fields(self) if np.ndim(getattr(self, field.name))})


class LcTankVco:
    """Oscillation frequency, amplitude and sensitivities of the LC-tank VCO."""

    def __init__(self, design: VcoDesign):
        self.design = design

    # -- tank capacitance -------------------------------------------------------

    def varactor_bias(self, vtune: float) -> float:
        """Gate-to-well bias of the varactor for a given tuning voltage."""
        return self.design.tank_common_mode - vtune

    def tank_capacitance_per_side(self, vtune: float) -> float:
        """Total capacitance from one tank node to AC ground."""
        c_var = self.design.varactor.capacitance(self.varactor_bias(vtune))
        return c_var + self.design.fixed_capacitance_per_side

    def differential_tank_capacitance(self, vtune: float) -> float:
        """Capacitance seen differentially by the tank inductance."""
        return 0.5 * self.tank_capacitance_per_side(vtune)

    # -- oscillation frequency and tuning ----------------------------------------

    def oscillation_frequency(self, vtune: float) -> float:
        """Free-running oscillation frequency for a given tuning voltage."""
        c_diff = self.differential_tank_capacitance(vtune)
        if anywhere(c_diff <= 0):
            raise AnalysisError("differential tank capacitance must be positive")
        return 1.0 / (2.0 * math.pi * sqrt(self.design.tank_inductance * c_diff))

    def tuning_gain(self, vtune: float, delta: float = 1e-3) -> float:
        """K_VCO = d f_c / d V_tune (Hz/V), central difference."""
        f_plus = self.oscillation_frequency(vtune + delta)
        f_minus = self.oscillation_frequency(vtune - delta)
        return (f_plus - f_minus) / (2.0 * delta)

    def tuning_range(self, vtune_min: float = 0.0, vtune_max: float = 1.5,
                     points: int = 11) -> tuple[float, float]:
        """(f_min, f_max) over the tuning voltage range."""
        frequencies = [self.oscillation_frequency(vtune_min + i *
                                                  (vtune_max - vtune_min) / (points - 1))
                       for i in range(points)]
        return min(frequencies), max(frequencies)

    # -- amplitude ------------------------------------------------------------------

    def tank_parallel_resistance(self, vtune: float) -> float:
        """Equivalent differential parallel loss resistance of the tank."""
        f_c = self.oscillation_frequency(vtune)
        return self.design.inductor.parallel_tank_loss(f_c)

    def amplitude(self, vtune: float) -> float:
        """Differential oscillation amplitude (volts, peak).

        Current-limited regime: ``A = (2/pi) * I_tail * R_p``, clipped to the
        supply-limited swing.
        """
        r_p = self.tank_parallel_resistance(vtune)
        current_limited = (2.0 / math.pi) * self.design.tail_current * r_p
        voltage_limited = self.design.supply_voltage
        return smaller(current_limited, voltage_limited)

    def amplitude_sensitivity_to_tail(self, vtune: float) -> float:
        """d A_c / d I_tail, zero when the oscillator is voltage limited."""
        r_p = self.tank_parallel_resistance(vtune)
        current_limited = (2.0 / math.pi) * self.design.tail_current * r_p
        return pick(current_limited >= self.design.supply_voltage, 0.0,
                    (2.0 / math.pi) * r_p)

    # -- sensitivities (K_i and G_AM,i) ------------------------------------------------

    def frequency_sensitivity_to_capacitance(self, vtune: float) -> float:
        """d f_c / d C_side (Hz/F): how a per-side capacitance change moves f_c."""
        f_c = self.oscillation_frequency(vtune)
        c_side = self.tank_capacitance_per_side(vtune)
        return -0.5 * f_c / c_side

    def ground_frequency_sensitivity(self, vtune: float) -> float:
        """K_gnd (Hz/V): frequency sensitivity to a bounce of the on-chip ground.

        A ground bounce changes the bias of the varactor (whose tuning input is
        referenced off-chip) and of the ground-referenced NMOS capacitances, so

        ``dC_side/dV_gnd = dC_var/dV + dC_nmos/dV``.
        """
        dc_var = self.design.varactor.dc_dv(self.varactor_bias(vtune))
        dc_total = dc_var + self.design.ground_referenced_cap_sensitivity
        return self.frequency_sensitivity_to_capacitance(vtune) * dc_total

    def tuning_node_frequency_sensitivity(self, vtune: float) -> float:
        """K_tune (Hz/V): sensitivity to noise on the tuning node itself."""
        dc_var = -self.design.varactor.dc_dv(self.varactor_bias(vtune))
        return self.frequency_sensitivity_to_capacitance(vtune) * dc_var

    def backgate_frequency_sensitivity(self, vtune: float,
                                       junction_cap_sensitivity: float) -> float:
        """K_bg (Hz/V) for an NMOS back-gate entry.

        ``junction_cap_sensitivity`` is dC/dV of that device's junction
        capacitance loading the tank (F/V), evaluated at the operating point.
        """
        return self.frequency_sensitivity_to_capacitance(vtune) * junction_cap_sensitivity

    def tank_node_frequency_sensitivity(self, vtune: float) -> float:
        """K_tank (Hz/V): sensitivity to a common-mode shift of the tank nodes.

        A common-mode tank shift changes the varactor bias in the same way a
        ground bounce does (the varactor's other terminal is the off-chip
        tuning voltage), so the sensitivity equals the varactor term alone.
        """
        dc_var = self.design.varactor.dc_dv(self.varactor_bias(vtune))
        return self.frequency_sensitivity_to_capacitance(vtune) * dc_var

    def ground_am_gain(self, vtune: float) -> float:
        """G_AM,gnd (1/V): relative amplitude sensitivity to a ground bounce.

        A ground bounce modulates the tail current through the tail device's
        transconductance; in the current-limited regime this modulates the
        oscillation amplitude.
        """
        amplitude = self.amplitude(vtune)
        da_dit = self.amplitude_sensitivity_to_tail(vtune)
        return da_dit * self.design.tail_transconductance / amplitude
