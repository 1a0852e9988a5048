"""Netlist model: flat circuits, linear elements and nonlinear devices."""

from .stamping import GROUND, Stamper
from .elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    SourceValue,
    TwoTerminal,
    VoltageControlledCurrentSource,
    VoltageControlledVoltageSource,
    VoltageSource,
    vectorized_waveform,
)
from .devices import MosfetElement, NonlinearElement, VaractorElement
from .circuit import Circuit

__all__ = [
    "Capacitor",
    "Circuit",
    "CurrentSource",
    "Element",
    "GROUND",
    "Inductor",
    "MosfetElement",
    "NonlinearElement",
    "Resistor",
    "SourceValue",
    "Stamper",
    "TwoTerminal",
    "VaractorElement",
    "VoltageControlledCurrentSource",
    "VoltageControlledVoltageSource",
    "VoltageSource",
    "vectorized_waveform",
]
