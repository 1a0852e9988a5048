"""Nonlinear netlist elements wrapping the device models.

These elements connect the physics models in :mod:`repro.devices` to the
netlist/simulator infrastructure.  A nonlinear element does not stamp a fixed
linear contribution; instead the simulator asks it for

* a *companion model* at a trial voltage vector during DC Newton iterations
  (:meth:`NonlinearElement.stamp_companion`), and
* its *small-signal* linearisation around the solved operating point for AC
  analyses (:meth:`NonlinearElement.stamp_small_signal`), evaluated from its
  :meth:`NonlinearElement.operating_point`.

Each method issues the same stamp calls on the same nodes at every voltage;
only the values change.  The simulator relies on this to compile the calls
once (:class:`~repro.simulator.mna.StampPattern`).  A voltage map may hold
a stack of corners (1-D arrays along a leading corner axis); every value
the element derives and stamps is then the array of its values there, as
the device models evaluate them (:mod:`repro.devices.stack`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..devices.mosfet import MosfetModel, MosfetOperatingPoint
from ..devices.varactor import AccumulationModeVaractor
from ..errors import NetlistError
from .elements import Element
from .stamping import GROUND, Stamper


class NonlinearElement(Element):
    """Base class for elements that require Newton iteration."""

    @property
    def is_nonlinear(self) -> bool:
        return True

    def stamp(self, stamper: Stamper) -> None:
        """Nonlinear elements contribute nothing analysis-independent."""

    def stamp_companion(self, stamper: Stamper,
                        voltages: Mapping[str, float]) -> None:
        """Stamp the Newton companion model linearised at ``voltages``.

        The companion model consists of conductances plus an equivalent
        current source such that the stamped linear element carries the same
        current as the nonlinear device at the trial voltages and has the same
        first-order sensitivity.
        """
        raise NotImplementedError

    def operating_point(self, voltages: Mapping[str, float]):
        """The device state at ``voltages`` that the small-signal model is
        evaluated from."""
        raise NotImplementedError

    def stamp_small_signal(self, stamper: Stamper,
                           voltages: Mapping[str, float],
                           point=None) -> None:
        """Stamp the small-signal (AC) linearisation at the operating point.

        ``point`` is :meth:`operating_point` at ``voltages`` when the caller
        already has it (a DC solution caches it per device); it is evaluated
        here otherwise.
        """
        raise NotImplementedError


def _voltage(voltages: Mapping[str, float], node: str):
    """Node voltage (or stack of them) treating ground and missing nodes as
    0 V."""
    if node == GROUND:
        return 0.0
    return voltages.get(node, 0.0)


@dataclass
class MosfetElement(NonlinearElement):
    """A MOSFET instance: four terminals plus a model card and geometry."""

    drain: str = GROUND
    gate: str = GROUND
    source: str = GROUND
    bulk: str = GROUND
    model: MosfetModel | None = None

    def __post_init__(self) -> None:
        if self.model is None:
            raise NetlistError(f"MOSFET {self.name}: a model is required")

    def nodes(self) -> tuple[str, ...]:
        return (self.drain, self.gate, self.source, self.bulk)

    def operating_point(self, voltages: Mapping[str, float]) -> MosfetOperatingPoint:
        vd = _voltage(voltages, self.drain)
        vg = _voltage(voltages, self.gate)
        vs = _voltage(voltages, self.source)
        vb = _voltage(voltages, self.bulk)
        return self.model.evaluate(vg - vs, vd - vs, vb - vs)

    def stamp_companion(self, stamper: Stamper,
                        voltages: Mapping[str, float]) -> None:
        op = self.operating_point(voltages)
        vgs = op.vgs
        vds = op.vds
        vbs = op.vbs
        # Linearised drain current:
        #   id ≈ Ids + gm*(vgs - VGS) + gds*(vds - VDS) + gmb*(vbs - VBS)
        # Stamp the three transconductances plus an equivalent source that
        # carries the residual current at the linearisation point.
        stamper.vccs(self.drain, self.source, self.gate, self.source, op.gm)
        stamper.conductance(self.drain, self.source, op.gds)
        stamper.vccs(self.drain, self.source, self.bulk, self.source, op.gmb)
        i_eq = op.ids - op.gm * vgs - op.gds * vds - op.gmb * vbs
        stamper.current(self.drain, self.source, i_eq)

    def stamp_small_signal(self, stamper: Stamper,
                           voltages: Mapping[str, float],
                           point: MosfetOperatingPoint | None = None) -> None:
        op = point if point is not None else self.operating_point(voltages)
        stamper.vccs(self.drain, self.source, self.gate, self.source, op.gm)
        stamper.conductance(self.drain, self.source, op.gds)
        stamper.vccs(self.drain, self.source, self.bulk, self.source, op.gmb)
        stamper.capacitance(self.gate, self.source, op.cgs)
        stamper.capacitance(self.gate, self.drain, op.cgd)
        stamper.capacitance(self.drain, self.bulk, op.cdb)
        stamper.capacitance(self.source, self.bulk, op.csb)


@dataclass
class VaractorElement(NonlinearElement):
    """Accumulation-mode varactor between ``gate`` and ``well`` terminals.

    The ``well`` terminal is the n-well body; its capacitance to the substrate
    node (``substrate``) models the capacitive coupling path through the well.
    """

    gate: str = GROUND
    well: str = GROUND
    substrate: str | None = None
    model: AccumulationModeVaractor | None = None

    def __post_init__(self) -> None:
        if self.model is None:
            raise NetlistError(f"varactor {self.name}: a model is required")

    def nodes(self) -> tuple[str, ...]:
        nodes = [self.gate, self.well]
        if self.substrate is not None:
            nodes.append(self.substrate)
        return tuple(nodes)

    def bias_voltage(self, voltages: Mapping[str, float]) -> float:
        return _voltage(voltages, self.gate) - _voltage(voltages, self.well)

    def operating_point(self, voltages: Mapping[str, float]) -> float:
        """The gate-well bias voltage."""
        return self.bias_voltage(voltages)

    def stamp_companion(self, stamper: Stamper,
                        voltages: Mapping[str, float]) -> None:
        # A capacitor carries no DC current: only a tiny conductance is added
        # to keep floating nodes well-defined during the operating-point solve.
        stamper.conductance(self.gate, self.well, 1e-12)
        if self.substrate is not None:
            stamper.conductance(self.well, self.substrate, 1e-12)

    def stamp_small_signal(self, stamper: Stamper,
                           voltages: Mapping[str, float],
                           point: float | None = None) -> None:
        bias = point if point is not None else self.bias_voltage(voltages)
        capacitance = self.model.capacitance(bias)
        stamper.capacitance(self.gate, self.well, capacitance)
        if self.substrate is not None:
            stamper.capacitance(self.well, self.substrate,
                                self.model.well_capacitance)
