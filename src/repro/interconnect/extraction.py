"""Interconnect parasitic extraction (the DIVA role in the paper's flow).

Every routed wire (a :class:`~repro.layout.geometry.Path` on a metal layer)
is turned into

* a series resistance computed from the wire's square count and the layer's
  sheet resistance, placed between the electrical nodes labelled at the two
  wire ends, and
* a capacitance to the substrate computed from the drawn area and perimeter
  with the technology's parallel-plate and fringe densities.

The paper's central observation — that the on-chip ground wire's few ohms of
series resistance dominate the substrate-noise impact on the VCO — enters the
impact netlist exactly here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ExtractionError
from ..layout.cell import Cell
from ..layout.geometry import Path, Point
from ..netlist.circuit import Circuit
from ..technology.process import ProcessTechnology
from .rcnetwork import WireRC

#: Maximum distance between a wire endpoint and a pin for them to be
#: considered electrically attached (metres).
PIN_SNAP_TOLERANCE = 1.0e-6


@dataclass
class InterconnectExtraction:
    """Result of the interconnect extraction: one :class:`WireRC` per wire."""

    cell_name: str
    wires: list[WireRC] = field(default_factory=list)

    def wires_between(self, node_a: str, node_b: str) -> list[WireRC]:
        wanted = {node_a, node_b}
        return [w for w in self.wires if {w.node_a, w.node_b} == wanted]

    def resistance_between(self, node_a: str, node_b: str) -> float:
        """Parallel combination of all extracted wires joining two nodes."""
        wires = self.wires_between(node_a, node_b)
        if not wires:
            raise ExtractionError(
                f"no extracted wire between {node_a!r} and {node_b!r}")
        conductance = sum(1.0 / w.resistance for w in wires if w.resistance > 0)
        if conductance == 0:
            return 0.0
        return 1.0 / conductance

    def total_capacitance_of(self, node: str) -> float:
        """Total wire-to-substrate capacitance attached to a node."""
        total = 0.0
        for wire in self.wires:
            if wire.node_a == node and wire.node_b == node:
                total += wire.capacitance
            elif node in (wire.node_a, wire.node_b):
                total += wire.capacitance / 2.0
        return total

    def nodes(self) -> list[str]:
        names: set[str] = set()
        for wire in self.wires:
            names.add(wire.node_a)
            names.add(wire.node_b)
        return sorted(names)

    def to_circuit(self, substrate_node: str | None = None,
                   name: str = "interconnect") -> Circuit:
        """Build the parasitic circuit: series resistors plus substrate caps."""
        circuit = Circuit(name=name)
        for wire in self.wires:
            wire.add_pi_model(circuit, substrate_node)
        return circuit


def _node_at(cell: Cell, point: Point, layer: str) -> str | None:
    """Find the node name of the pin closest to ``point`` (same layer preferred)."""
    best_name: str | None = None
    best_distance = PIN_SNAP_TOLERANCE
    # Prefer pins on the same layer, then any layer.
    for same_layer_only in (True, False):
        for pin in cell.pins:
            if same_layer_only and pin.layer != layer:
                continue
            distance = pin.position.distance_to(point)
            if distance <= best_distance:
                best_distance = distance
                best_name = pin.name
        if best_name is not None:
            return best_name
    return None


def extract_interconnect(cell: Cell, technology: ProcessTechnology
                         ) -> InterconnectExtraction:
    """Extract the RC parasitics of every routed wire in ``cell``."""
    extraction = InterconnectExtraction(cell_name=cell.name)
    # Paths that belong to an annotated inductor are part of the device model
    # (series L/R and substrate capacitance carried by the annotation) and must
    # not be double counted as plain interconnect.
    inductor_footprints = [d.footprint for d in cell.devices
                           if d.device_type == "inductor"]
    counter = 0
    for layer_name, shape in cell.iter_shapes():
        if not isinstance(shape, Path):
            continue
        if layer_name not in technology.layer_stack:
            continue
        layer = technology.layer_stack[layer_name]
        if not layer.is_metal or layer.sheet_resistance is None:
            continue
        bbox = shape.bbox()
        if any(footprint.overlap_area(bbox) > 0.5 * bbox.area
               for footprint in inductor_footprints):
            continue
        start, end = shape.points[0], shape.points[-1]
        node_a = _node_at(cell, start, layer_name)
        node_b = _node_at(cell, end, layer_name)
        if node_a is None or node_b is None:
            raise ExtractionError(
                f"wire on layer {layer_name} in cell {cell.name!r} has an "
                "endpoint without a pin label; cannot determine its nodes")
        resistance = layer.sheet_resistance * shape.squares()
        area_cap = technology.area_capacitance_to_substrate(layer_name)
        fringe_cap = technology.fringe_capacitance_to_substrate(layer_name)
        capacitance = (shape.area() * area_cap
                       + 2.0 * shape.length * fringe_cap)
        counter += 1
        extraction.wires.append(WireRC(
            name=f"{cell.name}_w{counter}_{layer_name}_{node_a}_{node_b}",
            node_a=node_a, node_b=node_b,
            resistance=resistance, capacitance=capacitance,
            layer=layer_name, length=shape.length, width=shape.width))
    if not extraction.wires:
        raise ExtractionError(f"cell {cell.name!r} contains no routed wires")
    return extraction
