"""Lumped RC representation of an extracted wire.

A routed wire with series resistance ``R`` and capacitance to the substrate
``C`` enters the impact netlist as a lumped pi model: one series resistor
with the capacitance split over the two ends.  That is sufficient below tens
of MHz, where the paper operates (DC to 15 MHz); distributed RC ladders
matter only for GHz-range coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExtractionError
from ..netlist.circuit import Circuit


@dataclass(frozen=True)
class WireRC:
    """Total series resistance and shunt capacitance of one routed wire."""

    name: str
    node_a: str
    node_b: str
    resistance: float
    capacitance: float
    layer: str = ""
    length: float = 0.0
    width: float = 0.0

    def __post_init__(self) -> None:
        if self.resistance < 0 or self.capacitance < 0:
            raise ExtractionError(f"wire {self.name}: negative R or C")

    def add_pi_model(self, circuit: Circuit, substrate_node: str | None,
                     min_resistance: float = 1e-3) -> None:
        """Add the lumped pi model of this wire to ``circuit``.

        The series resistance connects ``node_a`` to ``node_b`` (skipped when
        both ends are the same electrical node); the capacitance is split in
        half over the two ends towards ``substrate_node`` (skipped when the
        substrate reference is not provided).
        """
        if self.node_a != self.node_b and self.resistance > 0:
            circuit.add_resistor(f"Rw_{self.name}", self.node_a, self.node_b,
                                 max(self.resistance, min_resistance))
        if substrate_node is not None and self.capacitance > 0:
            half = self.capacitance / 2.0
            circuit.add_capacitor(f"Cw_{self.name}_a", self.node_a,
                                  substrate_node, half)
            if self.node_a != self.node_b:
                circuit.add_capacitor(f"Cw_{self.name}_b", self.node_b,
                                      substrate_node, half)
            else:
                # Both ends are the same node: lump the full capacitance once.
                circuit.elements[f"Cw_{self.name}_a"].capacitance = self.capacitance
