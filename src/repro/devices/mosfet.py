"""MOSFET large- and small-signal model.

The model is a level-1 square-law MOSFET extended with

* body effect (threshold shift with source-bulk voltage, back-gate
  transconductance ``gmb``),
* channel-length modulation (finite output conductance ``gds``),
* a first-order velocity-saturation correction (keeps ``gm`` of the short
  0.18 um devices in the measured 10-130 mS range instead of the unbounded
  square-law values),
* voltage-dependent source/drain junction capacitances and gate overlap
  capacitances.

The model is symmetric: for ``vds < 0`` the drain and source roles swap,
and PMOS devices are handled by evaluating the dual NMOS with negated
terminal voltages.

The quantities this reproduction cares about are the small-signal parameters
of the paper's Section 3: the back-gate transconductance ``gmb``, the output
conductance ``gds`` and the junction capacitances ``Cdbj``/``Csbj`` that set
the 5-19 GHz crossover where capacitive back-gate coupling overtakes the
resistive path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import NetlistError
from ..technology.process import MosParameters
from .stack import (
    anywhere,
    as_corners,
    choose,
    larger,
    libm,
    pick,
    smaller,
    sqrt,
)

#: Operating regions, indexed by region code.
_REGION_NAMES = ("cutoff", "triode", "saturation")
_REGIONS = np.array(_REGION_NAMES)


@dataclass(frozen=True)
class MosfetGeometry:
    """Electrical geometry of a MOSFET instance.

    ``drain_extension`` / ``source_extension`` are the diffusion lengths used
    to compute junction areas (``area = W * extension``) and perimeters
    (``perimeter = 2 * (W + extension)``).  The defaults reproduce the paper's
    Cdbj = 120 fF / Csbj = 200 fF for the 4 x 50 um RF NMOS.
    """

    width: float
    length: float
    drain_extension: float = 0.6e-6
    source_extension: float = 1.0e-6

    def __post_init__(self) -> None:
        if self.width <= 0 or self.length <= 0:
            raise NetlistError("MOSFET width and length must be positive")

    @property
    def drain_area(self) -> float:
        return self.width * self.drain_extension

    @property
    def source_area(self) -> float:
        return self.width * self.source_extension

    @property
    def drain_perimeter(self) -> float:
        return 2.0 * (self.width + self.drain_extension)

    @property
    def source_perimeter(self) -> float:
        return 2.0 * (self.width + self.source_extension)


class MosfetOperatingPoint(NamedTuple):
    """Operating-point values of a MOSFET at a given bias (an immutable
    record: the DC Newton loop builds one per device per iteration).  Of a
    stack of corners, every field is the array of its values there."""

    ids: float          #: drain current (A), positive into the drain for NMOS
    gm: float           #: gate transconductance d(Ids)/d(Vgs) [S]
    gds: float          #: output conductance d(Ids)/d(Vds) [S]
    gmb: float          #: back-gate (bulk) transconductance d(Ids)/d(Vbs) [S]
    vth: float          #: threshold voltage at this bias [V]
    region: str         #: "cutoff", "triode" or "saturation"
    vgs: float
    vds: float
    vbs: float
    cgs: float          #: gate-source capacitance [F]
    cgd: float          #: gate-drain capacitance [F]
    cdb: float          #: drain-bulk junction capacitance [F]
    csb: float          #: source-bulk junction capacitance [F]

    @property
    def backgate_gain(self) -> float:
        """gmb / gds — the back-gate-to-drain voltage gain into an ideal load."""
        return self.gmb / self.gds if self.gds > 0 else 0.0


class MosfetModel:
    """Evaluates the MOSFET equations for a given model card and geometry."""

    #: Minimum conductance added across every junction to keep matrices
    #: well-conditioned (standard SPICE ``gmin``).
    GMIN = 1e-12


    def __init__(self, parameters: MosParameters, geometry: MosfetGeometry):
        self.parameters = parameters
        self.geometry = geometry

    # -- threshold and junction helpers --------------------------------------

    @property
    def sign(self) -> float:
        """+1 for NMOS, -1 for PMOS (PMOS evaluated as its NMOS dual)."""
        return 1.0 if self.parameters.polarity == "nmos" else -1.0

    def threshold_voltage(self, vbs):
        """Body-effect threshold (in the NMOS-equivalent convention), of a
        scalar or per corner of a stack of ``vbs``."""
        p = self.parameters
        vth0 = abs(p.vth0)
        # Clamp the argument: for forward bias beyond phi the sqrt would fail.
        arg = larger(p.phi - vbs, 1e-3)
        return vth0 + p.gamma * (sqrt(arg) - math.sqrt(p.phi))

    def junction_capacitance(self, area: float, perimeter: float, vbj):
        """Reverse-biased junction capacitance at junction voltage ``vbj``
        (a scalar, or per corner of a stack).

        ``vbj`` is the bulk-to-diffusion voltage (negative for reverse bias in
        the NMOS convention).  The standard SPICE expression with grading
        coefficient ``mj`` is used; forward bias is clamped at half the
        built-in potential to avoid the singularity.
        """
        p = self.parameters
        vbj = smaller(vbj, 0.5 * p.pb)
        factor = libm(lambda base: math.pow(base, -p.mj), 1.0 - vbj / p.pb)
        return (p.cj * area + p.cjsw * perimeter) * factor

    # -- current equations ----------------------------------------------------

    def _esat_l(self) -> float:
        """Velocity-saturation voltage ``esat * L`` of this geometry.

        The saturation current is ``0.5*beta*vov^2 / (1 + vov/(esat*L))`` so
        the transconductance of a short 0.18 um device grows sub-quadratically,
        matching the measured 10-38 mS back-gate transconductance range of the
        paper's RF NMOS.
        """
        return self.parameters.esat * self.geometry.length

    def _oriented(self, vgs, vds, vbs) -> tuple:
        """NMOS-equivalent ``(vgs, vds, vbs, swapped)`` of the physical
        terminal voltages: where ``vds < 0`` source and drain swap roles
        (``swapped``), and vgs and vbs are measured from the new source."""
        sign = self.sign
        vgs_n, vds_n, vbs_n = sign * vgs, sign * vds, sign * vbs
        swapped = vds_n < 0.0
        if anywhere(swapped):
            vgs_n = pick(swapped, vgs_n - vds_n, vgs_n)
            vbs_n = pick(swapped, vbs_n - vds_n, vbs_n)
            vds_n = pick(swapped, -vds_n, vds_n)
        return vgs_n, vds_n, vbs_n, swapped

    def _junctions(self, vds_n, vbs_n, swapped) -> tuple:
        """``(cdb, csb)`` in the physical orientation, from the oriented
        voltages of :meth:`_oriented`."""
        g = self.geometry
        cdb = self.junction_capacitance(g.drain_area, g.drain_perimeter,
                                        vbs_n - vds_n)
        csb = self.junction_capacitance(g.source_area, g.source_perimeter,
                                        vbs_n)
        if anywhere(swapped):
            cdb, csb = pick(swapped, csb, cdb), pick(swapped, cdb, csb)
        return cdb, csb

    def junction_capacitances(self, vgs, vds, vbs) -> tuple:
        """``(cdb, csb)`` at a bias point or per corner of a stack: the
        values :meth:`evaluate` returns, bit for bit, without the rest of
        the device equations."""
        _, vds_n, vbs_n, swapped = self._oriented(*as_corners(vgs, vds, vbs))
        return self._junctions(vds_n, vbs_n, swapped)

    def evaluate(self, vgs, vds, vbs) -> MosfetOperatingPoint:
        """Evaluate currents, conductances and capacitances at a bias point,
        or at a stack of them.

        Terminal voltages are the *physical* voltages of the instance (for a
        PMOS they are typically negative); the returned ``ids`` is the current
        flowing into the drain terminal (negative for a conducting PMOS).
        Given arrays along a leading corner axis, every field of the result
        is the array of its values there (``region`` an array of strings),
        each bit-identical to the corner evaluated alone
        (:mod:`repro.devices.stack`).
        """
        vgs, vds, vbs = as_corners(vgs, vds, vbs)
        sign = self.sign
        vgs_n, vds_n, vbs_n, swapped = self._oriented(vgs, vds, vbs)

        p = self.parameters
        g = self.geometry
        vth = self.threshold_voltage(vbs_n)
        vov = vgs_n - vth
        beta = p.kp * g.width / g.length
        esat_l = self._esat_l()

        # Every region's equations run on every corner, and each corner
        # picks its own region's values.  A cut-off corner divides by 1
        # instead of a factor that may be zero there.
        cutoff = vov <= 0.0
        vsat_factor = pick(cutoff, 1.0, 1.0 + vov / esat_l)
        vdsat = vov / vsat_factor
        triode = vds_n < vdsat          # where not cut off
        lam = 1.0 + p.lambda_ * vds_n
        # Triode: ``vov_tri`` is chosen so the triode and saturation
        # currents meet continuously at vds = vdsat.
        vov_tri = 0.5 * (vov + vdsat)
        triode_current = beta * (vov_tri - 0.5 * vds_n) * vds_n
        ids_triode = triode_current * lam
        gds_triode = beta * (vov_tri - vds_n) * lam \
            + triode_current * p.lambda_
        # d(vov_tri)/d(vgs) = 0.5 * (1 + d(vdsat)/d(vov)).
        vsat_squared = vsat_factor * vsat_factor
        dvdsat = 1.0 / vsat_squared
        gm_triode = beta * vds_n * lam * 0.5 * (1.0 + dvdsat)
        # Saturation: gm = d(ids)/d(vov) for the velocity-saturated square
        # law.
        saturation_current = 0.5 * beta * (vov * vov) / vsat_factor
        ids_saturation = saturation_current * lam
        gm_saturation = (0.5 * beta * vov * (2.0 + vov / esat_l)
                         / vsat_squared * lam)
        gds_saturation = saturation_current * p.lambda_

        # Region code per corner: 0 cutoff, 1 triode, 2 saturation.
        code = pick(cutoff, 0, pick(triode, 1, 2))
        region = (_REGIONS[code] if isinstance(code, np.ndarray)
                  else _REGION_NAMES[code])
        ids = choose(code, (0.0, ids_triode, ids_saturation))
        gm = choose(code, (0.0, gm_triode, gm_saturation))
        gds = choose(code, (self.GMIN, larger(gds_triode, self.GMIN),
                            larger(gds_saturation, self.GMIN)))
        # Back-gate transconductance: gmb = gm * d(vth)/d(vbs) chain rule.
        dvth_dvbs = -p.gamma / (2.0 * sqrt(larger(p.phi - vbs_n, 1e-3)))
        gmb = pick(cutoff, 0.0, gm * (-dvth_dvbs))

        # Capacitances (computed in the un-swapped, physical orientation).
        cox_total = p.cox * g.width * g.length
        cgs_overlap = p.cgso * g.width
        cgd_overlap = p.cgdo * g.width
        cgs = choose(code, (cgs_overlap, cgs_overlap + 0.5 * cox_total,
                            cgs_overlap + (2.0 / 3.0) * cox_total))
        cgd = choose(code, (cgd_overlap, cgd_overlap + 0.5 * cox_total,
                            cgd_overlap))

        cdb, csb = self._junctions(vds_n, vbs_n, swapped)

        if anywhere(swapped):
            ids = pick(swapped, -ids, ids)
            cgs, cgd = pick(swapped, cgd, cgs), pick(swapped, cgs, cgd)

        return MosfetOperatingPoint(
            ids=sign * ids, gm=gm, gds=gds, gmb=gmb, vth=sign * vth,
            region=region, vgs=vgs, vds=vds, vbs=vbs,
            cgs=cgs, cgd=cgd, cdb=cdb, csb=csb)

    # -- figures used by the paper --------------------------------------------

    def backgate_transfer(self, vgs: float, vds: float, vbs: float = 0.0) -> float:
        """Small-signal transfer from the back-gate to the drain (|gmb/gds|).

        Multiplying this by the substrate voltage division gives the paper's
        Section-3 hand calculation of the substrate-to-output transfer.
        """
        op = self.evaluate(vgs, vds, vbs)
        return op.backgate_gain

    def junction_crossover_frequency(self, vgs: float, vds: float,
                                     vbs: float = 0.0) -> float:
        """Frequency where capacitive junction coupling equals back-gate coupling.

        The paper gives ``f_3dB = 3 * gmb / (2 * pi * (Cdbj + Csbj))`` evaluating
        to 5-19 GHz over the 0.5-1.6 V bias range, showing the junction path is
        negligible below a few GHz.
        """
        op = self.evaluate(vgs, vds, vbs)
        c_total = op.cdb + op.csb
        if c_total <= 0.0:
            raise NetlistError("junction capacitance must be positive")
        return 3.0 * op.gmb / (2.0 * math.pi * c_total)
