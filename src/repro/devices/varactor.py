"""Accumulation-mode NMOS varactor model.

The paper's LC tank uses an accumulation-mode NMOS varactor: an NMOS-like
structure in an n-well whose gate capacitance swings between a minimum
(depletion) and a maximum (accumulation) value as the gate-to-well voltage
crosses zero.  The C-V curve is modelled with the usual smooth ``tanh``
interpolation:

``C(v) = cmin + (cmax - cmin) / 2 * (1 + tanh(slope * (v - v_half)))``

The derivative ``dC/dv`` is what converts a ground-bounce voltage into a
tank-capacitance change and therefore into frequency modulation — it is the
physical origin of the VCO's sensitivity ``K_i`` to noise on the tuning /
ground nodes (Section 5 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import NetlistError
from .stack import libm


@dataclass(frozen=True)
class AccumulationModeVaractor:
    """Smooth accumulation-mode varactor C-V model.

    Parameters
    ----------
    cmin, cmax:
        Capacitance extremes in farads.
    v_half:
        Gate-to-well voltage at which the capacitance is mid-swing.
    slope:
        Steepness of the transition in 1/V (typical 3-6 for thin-oxide
        accumulation varactors).
    well_capacitance:
        Capacitance of the n-well to the substrate (the capacitive coupling
        path the paper shows to be negligible below GHz frequencies).
    """

    cmin: float
    cmax: float
    v_half: float = 0.4
    slope: float = 4.0
    well_capacitance: float = 50e-15

    def __post_init__(self) -> None:
        if self.cmin <= 0 or self.cmax <= 0:
            raise NetlistError("varactor capacitances must be positive")
        if self.cmax < self.cmin:
            raise NetlistError("cmax must be >= cmin")
        if self.slope <= 0:
            raise NetlistError("varactor slope must be positive")

    def capacitance(self, v_gate_well):
        """Small-signal capacitance at the given gate-to-well voltage (or
        per corner of a stack, :mod:`repro.devices.stack`)."""
        swing = self.cmax - self.cmin
        x = self.slope * (v_gate_well - self.v_half)
        return self.cmin + 0.5 * swing * (1.0 + libm(math.tanh, x))

    def dc_dv(self, v_gate_well):
        """Capacitance sensitivity dC/dV at the given bias (or per corner
        of a stack), in F/V."""
        swing = self.cmax - self.cmin
        cosh = libm(math.cosh, self.slope * (v_gate_well - self.v_half))
        return 0.5 * swing * self.slope * (1.0 / (cosh * cosh))

    def charge(self, v_gate_well: float) -> float:
        """Integrated charge Q(V) = ∫ C dV, used by transient companion models."""
        swing = self.cmax - self.cmin
        x = self.slope * (v_gate_well - self.v_half)
        # ∫ tanh = ln(cosh); use log1p-style guard for large |x| to avoid overflow.
        if abs(x) > 30.0:
            log_cosh = abs(x) - math.log(2.0)
        else:
            log_cosh = math.log(math.cosh(x))
        return (self.cmin * v_gate_well
                + 0.5 * swing * (v_gate_well + log_cosh / self.slope))

    def tuning_range(self) -> float:
        """Capacitance tuning ratio cmax / cmin."""
        return self.cmax / self.cmin
