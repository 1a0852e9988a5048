"""The circuit container: a named collection of netlist elements.

A :class:`Circuit` is a flat netlist: the extraction flow combines its
partial netlists with :meth:`Circuit.merge`, and there are no subcircuits.
Node names are free-form strings; ``"0"`` is the global ground reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

from ..devices.mosfet import MosfetGeometry, MosfetModel
from ..errors import NetlistError
from ..technology.process import MosParameters
from .devices import MosfetElement
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
        value, so re-driving a source of the copy never touches this
        circuit, and adding or removing elements of the copy leaves it
        alone too; the shared elements themselves must not be modified.
        A name that is not an independent source of this circuit raises
        :class:`NetlistError`.
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
