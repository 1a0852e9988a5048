"""The circuit container: a named collection of netlist elements.

A :class:`Circuit` is a flat netlist.  Hierarchy is handled by
:mod:`repro.netlist.subckt`, which flattens subcircuit instances into a flat
circuit before simulation.  Node names are free-form strings; ``"0"`` is the
global ground reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

import numpy as np

from ..devices.mosfet import MosfetGeometry, MosfetModel
from ..devices.varactor import AccumulationModeVaractor
from ..errors import NetlistError
from ..technology.process import MosParameters
from .devices import MosfetElement, VaractorElement
from .elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    SourceValue,
    VoltageControlledCurrentSource,
    VoltageControlledVoltageSource,
    VoltageSource,
)
from .stamping import GROUND


def _source_value(value: SourceValue | float) -> SourceValue:
    """A plain number is a DC level."""
    if isinstance(value, (int, float)):
        return SourceValue(dc=float(value))
    return value


@dataclass
class Circuit:
    """A flat netlist of elements with convenience constructors."""

    name: str
    elements: dict[str, Element] = field(default_factory=dict)

    # -- element management ----------------------------------------------------

    def add(self, element: Element) -> Element:
        """Add an element; element names must be unique within the circuit."""
        if element.name in self.elements:
            raise NetlistError(f"duplicate element name {element.name!r}")
        self.elements[element.name] = element
        return element

    def remove(self, name: str) -> Element:
        try:
            return self.elements.pop(name)
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.elements

    def __getitem__(self, name: str) -> Element:
        try:
            return self.elements[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements.values())

    # -- convenience constructors ----------------------------------------------

    def add_resistor(self, name: str, node_p: str, node_n: str,
                     resistance: float) -> Resistor:
        return self.add(Resistor(name=name, node_p=node_p, node_n=node_n,
                                 resistance=resistance))

    def add_capacitor(self, name: str, node_p: str, node_n: str,
                      capacitance: float) -> Capacitor:
        return self.add(Capacitor(name=name, node_p=node_p, node_n=node_n,
                                  capacitance=capacitance))

    def add_inductor(self, name: str, node_p: str, node_n: str,
                     inductance: float) -> Inductor:
        return self.add(Inductor(name=name, node_p=node_p, node_n=node_n,
                                 inductance=inductance))

    def add_voltage_source(self, name: str, node_p: str, node_n: str,
                           value: SourceValue | float) -> VoltageSource:
        return self.add(VoltageSource(name=name, node_p=node_p, node_n=node_n,
                                      value=_source_value(value)))

    def add_current_source(self, name: str, node_p: str, node_n: str,
                           value: SourceValue | float) -> CurrentSource:
        return self.add(CurrentSource(name=name, node_p=node_p, node_n=node_n,
                                      value=_source_value(value)))

    def add_vccs(self, name: str, node_p: str, node_n: str, ctrl_p: str,
                 ctrl_n: str, gm: float) -> VoltageControlledCurrentSource:
        return self.add(VoltageControlledCurrentSource(
            name=name, node_p=node_p, node_n=node_n,
            ctrl_p=ctrl_p, ctrl_n=ctrl_n, gm=gm))

    def add_vcvs(self, name: str, node_p: str, node_n: str, ctrl_p: str,
                 ctrl_n: str, gain: float) -> VoltageControlledVoltageSource:
        return self.add(VoltageControlledVoltageSource(
            name=name, node_p=node_p, node_n=node_n,
            ctrl_p=ctrl_p, ctrl_n=ctrl_n, gain=gain))

    def add_mosfet(self, name: str, drain: str, gate: str, source: str,
                   bulk: str, parameters: MosParameters, width: float,
                   length: float, **geometry_kwargs: float) -> MosfetElement:
        model = MosfetModel(parameters,
                            MosfetGeometry(width=width, length=length,
                                           **geometry_kwargs))
        return self.add(MosfetElement(name=name, drain=drain, gate=gate,
                                      source=source, bulk=bulk, model=model))

    def add_varactor(self, name: str, gate: str, well: str,
                     model: AccumulationModeVaractor,
                     substrate: str | None = None) -> VaractorElement:
        return self.add(VaractorElement(name=name, gate=gate, well=well,
                                        substrate=substrate, model=model))

    # -- queries ----------------------------------------------------------------

    def nodes(self) -> list[str]:
        """All node names excluding ground, in deterministic order."""
        seen: dict[str, None] = {}
        for element in self.elements.values():
            for node in element.nodes():
                if node != GROUND:
                    seen.setdefault(node, None)
        return list(seen)

    def branches(self) -> list[str]:
        """All extra branch-current unknowns required by the elements."""
        names: list[str] = []
        for element in self.elements.values():
            names.extend(element.branches())
        return names

    def nonlinear_elements(self) -> list[Element]:
        return [e for e in self.elements.values() if e.is_nonlinear]

    def linear_elements(self) -> list[Element]:
        return [e for e in self.elements.values() if not e.is_nonlinear]

    def sources(self) -> list[Element]:
        return [e for e in self.elements.values()
                if isinstance(e, (VoltageSource, CurrentSource))]

    def elements_at_node(self, node: str) -> list[Element]:
        return [e for e in self.elements.values() if node in e.nodes()]

    def floating_nodes(self) -> list[str]:
        """Nodes with no resistive/inductive DC path to ground.

        These nodes make the DC operating point singular.  Nothing in the
        flow calls this; the DC analysis itself names a floating node whose
        matrix row is empty when its solve fails.
        """
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        index = {GROUND: 0}
        edges = []
        for element in self.elements.values():
            nodes = element.nodes()
            for node in nodes:
                index.setdefault(node, len(index))
            if isinstance(element, (Resistor, Inductor, VoltageSource)):
                edges.append((element.node_p, element.node_n))
            elif element.is_nonlinear and len(nodes) >= 3:
                # A MOSFET provides a DC path among its channel terminals.
                edges.extend((nodes[0], node) for node in nodes)
        rows = [index[a] for a, _b in edges]
        cols = [index[b] for _a, b in edges]
        graph = coo_matrix((np.ones(len(edges)), (rows, cols)),
                           shape=(len(index), len(index)))
        _count, labels = connected_components(graph, directed=False)
        return [n for n in self.nodes() if labels[index[n]] != labels[0]]

    def validate(self) -> None:
        """Raise :class:`NetlistError` for empty circuits or missing ground."""
        if not self.elements:
            raise NetlistError(f"circuit {self.name!r} has no elements")
        nodes_with_ground = set()
        for element in self.elements.values():
            nodes_with_ground.update(element.nodes())
        if GROUND not in nodes_with_ground:
            raise NetlistError(
                f"circuit {self.name!r} has no connection to ground ('0')")

    def with_sources(self, values: Mapping[str, SourceValue | float] | None = None
                     ) -> "Circuit":
        """A copy that shares every element but the independent sources.

        Each source of the copy is a fresh element holding ``values[name]``
        (a plain number is a DC level) or, when unnamed, this circuit's
        value.  Analyses that re-drive sources in place
        (:func:`~repro.simulator.transfer.substituted_sources`) therefore
        never touch this circuit, and adding or removing elements of the
        copy leaves it alone too; the shared elements themselves must not
        be modified.  A name that is not an independent source of this
        circuit raises :class:`NetlistError`.
        """
        pending = dict(values or {})
        elements: dict[str, Element] = {}
        for name, element in self.elements.items():
            if isinstance(element, (VoltageSource, CurrentSource)):
                element = replace(element, value=_source_value(
                    pending.pop(name, element.value)))
            elements[name] = element
        if pending:
            raise NetlistError(
                f"circuit {self.name!r} has no independent source named "
                f"{sorted(pending)[0]!r}")
        return Circuit(name=self.name, elements=elements)

    def merge(self, other: "Circuit", prefix: str = "") -> None:
        """Merge another circuit's elements into this one.

        Element names from ``other`` are prefixed (``prefix:`` separator) when
        ``prefix`` is non-empty; node names are left untouched so nets with the
        same name connect — this is how the substrate, interconnect, package
        and circuit models are combined into the single impact netlist.
        """
        for element in other.elements.values():
            clone = element
            if prefix:
                import copy

                clone = copy.copy(element)
                clone.name = f"{prefix}:{element.name}"
            self.add(clone)

    def summary(self) -> dict[str, int]:
        """Counts per element class, useful for logging the assembled model."""
        counts: dict[str, int] = {}
        for element in self.elements.values():
            counts[type(element).__name__] = counts.get(type(element).__name__, 0) + 1
        return counts
