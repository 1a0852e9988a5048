"""Layout-driven substrate extraction.

This module plays the role of the commercial substrate extractor in the
paper's flow (SubstrateStorm): starting from the layout cell and the process
technology it

1. determines the *ports* through which the circuit interacts with the
   substrate — substrate taps / guard rings (resistive), NMOS back-gates
   (resistive), n-wells of PMOS devices and varactors (capacitive through the
   well junction), and spiral-inductor footprints (capacitive through the
   coil oxide),
2. meshes the substrate under and around the layout with a box-integration
   grid,
3. reduces the mesh to an exact port-level macromodel (Kron reduction).

The result, a :class:`SubstrateExtraction`, carries the macromodel plus the
book-keeping needed by :mod:`repro.extraction.merge` to connect each port to
the right circuit net (directly for resistive ports, through the appropriate
junction/oxide capacitance for capacitive ports).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ExtractionError
from ..obs import trace_span
from ..layout.cell import Cell, DeviceAnnotation
from ..layout.geometry import Rect, bounding_box
from ..technology.process import ProcessTechnology
from .mesh import MeshSpec, SubstrateMesh
from .reduction import SubstrateMacromodel, kron_reduce

if TYPE_CHECKING:
    from ..core.flow import FlowOptions


class PortKind(enum.Enum):
    """How a substrate port couples into the circuit."""

    TAP = "tap"               #: metal ground tap / guard ring: direct resistive tie
    BACKGATE = "backgate"     #: NMOS bulk: direct resistive tie to the bulk net
    WELL = "well"             #: n-well: junction capacitance to the well net
    INDUCTOR = "inductor"     #: coil footprint: oxide capacitance to the coil nets
    INJECTION = "injection"   #: dedicated noise-injection contact


@dataclass(frozen=True)
class SubstratePort:
    """One port of the substrate macromodel and how to hook it to the circuit."""

    name: str
    kind: PortKind
    nets: tuple[str, ...]                 #: circuit nets this port couples to
    region: Rect
    contact_resistance: float = 0.0       #: series contact resistance (TAP ports)
    coupling_capacitance: float = 0.0     #: total coupling cap (WELL / INDUCTOR)
    device: str | None = None             #: source device annotation name

    @property
    def is_resistive(self) -> bool:
        return self.kind in (PortKind.TAP, PortKind.BACKGATE, PortKind.INJECTION)


@dataclass
class SubstrateExtraction:
    """Result of the substrate extraction step."""

    cell_name: str
    ports: list[SubstratePort]
    macromodel: SubstrateMacromodel
    mesh_nodes: int
    #: sub-stage wall seconds ("mesh_assembly", "kron_reduction") — always
    #: measured (cheap perf_counter pairs), independent of the span tracer.
    timings: dict[str, float] = field(default_factory=dict)

    def port(self, name: str) -> SubstratePort:
        for port in self.ports:
            if port.name == name:
                return port
        raise ExtractionError(f"no substrate port named {name!r}")

    def ports_of_kind(self, kind: PortKind) -> list[SubstratePort]:
        return [p for p in self.ports if p.kind == kind]

    def ports_of_net(self, net: str) -> list[SubstratePort]:
        return [p for p in self.ports if net in p.nets]


@dataclass(frozen=True)
class SubstrateExtractionOptions:
    """Controls for the mesh resolution and extent.

    The default resolution (48 x 48 lateral boxes over the port region) keeps
    the lateral box size around 10-15 um for the paper's test chips, which is
    fine enough to separate the device back-gates from the surrounding ground
    taps; coarser meshes over-clamp the back-gate to the ring potential.
    """

    nx: int = 48
    ny: int = 48
    n_z_per_layer: int = 3
    max_depth: float = 200e-6
    lateral_margin: float = 80e-6
    min_tap_conductance: float = 1e-3     #: floor on a tap's contact conductance [S]


def _ring_strips(footprint: Rect, ring_width: float) -> list[Rect]:
    """Rectangles actually covered by a guard ring (footprint minus its hole)."""
    if ring_width <= 0:
        return [footprint]
    inner_x0 = footprint.x0 + ring_width
    inner_y0 = footprint.y0 + ring_width
    inner_x1 = footprint.x1 - ring_width
    inner_y1 = footprint.y1 - ring_width
    if inner_x1 - inner_x0 <= 0 or inner_y1 - inner_y0 <= 0:
        return [footprint]       # solid contact (e.g. the injection tap)
    return [
        Rect(footprint.x0, inner_y1, footprint.x1, footprint.y1),   # top
        Rect(footprint.x0, footprint.y0, footprint.x1, inner_y0),   # bottom
        Rect(footprint.x0, inner_y0, inner_x0, inner_y1),           # left
        Rect(inner_x1, inner_y0, footprint.x1, inner_y1),           # right
    ]


def _tap_contact_resistance(device: DeviceAnnotation,
                            technology: ProcessTechnology) -> float:
    """Effective contact resistance of a tap / guard ring from its drawn area."""
    area = device.parameters.get("area", device.footprint.area)
    contact_pitch = 0.5e-6
    n_cuts = max(1, int(area / contact_pitch ** 2))
    return technology.substrate_contact_resistance / n_cuts


def identify_ports(cell: Cell, technology: ProcessTechnology) -> list[SubstratePort]:
    """Derive the substrate ports of a layout cell from its device annotations."""
    ports: list[SubstratePort] = []
    for device in cell.devices:
        if device.device_type == "substrate_contact":
            net = device.terminals.get("tap")
            if net is None:
                raise ExtractionError(
                    f"substrate contact {device.name!r} has no 'tap' terminal")
            kind = PortKind.INJECTION if net.upper().startswith("SUB") else PortKind.TAP
            ports.append(SubstratePort(
                name=f"sub:{device.name}", kind=kind, nets=(net,),
                region=device.footprint,
                contact_resistance=_tap_contact_resistance(device, technology),
                device=device.name))
        elif device.device_type == "nmos":
            bulk_net = device.terminals.get("b")
            if bulk_net is None:
                raise ExtractionError(f"NMOS {device.name!r} has no bulk terminal")
            ports.append(SubstratePort(
                name=f"bulk:{device.name}", kind=PortKind.BACKGATE,
                nets=(bulk_net,), region=device.footprint, device=device.name))
        elif device.device_type == "pmos":
            well_net = device.terminals.get("b")
            if well_net is None:
                raise ExtractionError(f"PMOS {device.name!r} has no bulk terminal")
            well = technology.well_parameters("nwell")
            cap = well.capacitance(device.footprint.area, device.footprint.perimeter)
            ports.append(SubstratePort(
                name=f"well:{device.name}", kind=PortKind.WELL,
                nets=(well_net,), region=device.footprint,
                coupling_capacitance=cap, device=device.name))
        elif device.device_type == "varactor":
            well_net = device.terminals.get("well")
            if well_net is None:
                raise ExtractionError(f"varactor {device.name!r} has no well terminal")
            well = technology.well_parameters("nwell")
            cap = well.capacitance(device.footprint.area, device.footprint.perimeter)
            ports.append(SubstratePort(
                name=f"well:{device.name}", kind=PortKind.WELL,
                nets=(well_net,), region=device.footprint,
                coupling_capacitance=cap, device=device.name))
        elif device.device_type == "inductor":
            nets = tuple(net for terminal, net in device.terminals.items()
                         if terminal in ("plus", "minus"))
            cap = device.parameters.get("substrate_capacitance", 120e-15)
            ports.append(SubstratePort(
                name=f"ind:{device.name}", kind=PortKind.INDUCTOR,
                nets=nets, region=device.footprint,
                coupling_capacitance=cap, device=device.name))
    if not ports:
        raise ExtractionError(
            f"cell {cell.name!r} has no substrate ports (no annotated devices)")
    return ports


def substrate_inputs(cell: Cell, technology: ProcessTechnology,
                     options: "FlowOptions") -> tuple:
    """Everything :func:`extract_substrate` reads when run by the flow.

    The device annotations (port regions, ring widths, contact areas, well
    and coil parameters), the technology, the mesh options and the solver
    options of the flow ``options``; the cell name only labels the result.
    Wires, pads and a package model are not inputs, so layout variants that
    differ only in interconnect have equal inputs and an equal substrate
    extraction.  Keep this tuple in step with the reads below.
    """
    return (cell.name, cell.devices, technology, options.substrate,
            options.solver)


def mesh_contacts(cell: Cell, technology: ProcessTechnology,
                  options: SubstrateExtractionOptions,
                  ports: list[SubstratePort]
                  ) -> tuple[SubstrateMesh, list[list[tuple[int, float]]]]:
    """The substrate mesh under ``ports`` and each port's surface contacts.

    Returns the mesh and, per port, the ``(node, conductance)`` pairs that
    :func:`~repro.substrate.reduction.kron_reduce` takes.
    """
    # Mesh the region actually spanned by the substrate ports (plus a margin
    # for current spreading) rather than the full layout bounding box: bond
    # pads and long routing far from any port do not influence the substrate
    # coupling but would waste mesh resolution.
    region = bounding_box([port.region for port in ports]).expanded(
        options.lateral_margin)
    spec = MeshSpec(region=region, nx=options.nx, ny=options.ny,
                    max_depth=options.max_depth,
                    n_z_per_layer=options.n_z_per_layer)
    with trace_span("extract.mesh", nx=options.nx, ny=options.ny):
        mesh = SubstrateMesh(spec=spec, profile=technology.substrate)

    port_nodes: list[list[tuple[int, float]]] = []
    for port in ports:
        if port.kind in (PortKind.TAP, PortKind.INJECTION):
            device = next(d for d in cell.devices if d.name == port.device)
            ring_width = device.parameters.get("ring_width", 0.0)
            regions = _ring_strips(port.region, ring_width)
        else:
            regions = [port.region]
        # Distribute the port's total contact conductance over the surface
        # cells it overlaps, proportionally to the overlapped area.  A guard
        # ring that covers only a sliver of a large mesh cell therefore grabs
        # that cell much more weakly than a cell it covers completely.
        overlaps: dict[int, float] = {}
        total_area = 0.0
        for rect in regions:
            for ix, iy, area in mesh.surface_cells_under(rect):
                node = mesh.node_index(ix, iy, 0)
                overlaps[node] = overlaps.get(node, 0.0) + area
                total_area += area
        if not overlaps or total_area <= 0:
            raise ExtractionError(
                f"substrate port {port.name!r} does not overlap the meshed region")
        if port.contact_resistance > 0:
            total_conductance = max(1.0 / port.contact_resistance,
                                    options.min_tap_conductance)
        else:
            total_conductance = 1e6
        port_nodes.append([(node, total_conductance * area / total_area)
                           for node, area in sorted(overlaps.items())])
    return mesh, port_nodes


def extract_substrate(cell: Cell, technology: ProcessTechnology,
                      options: SubstrateExtractionOptions | None = None,
                      solver=None) -> SubstrateExtraction:
    """Run the full substrate extraction for a layout cell.

    The Kron reduction, the dominant cost of the extraction, is handed the
    mesh itself, so it takes the spectral path without assembling the mesh
    matrix (see :func:`~repro.substrate.reduction.kron_reduce`).  ``solver``
    (a :class:`~repro.simulator.linalg.SolverOptions` or
    :class:`~repro.simulator.linalg.LinearSolver`) is the backend of its
    direct sparse-LU path.
    """
    options = options or SubstrateExtractionOptions()
    ports = identify_ports(cell, technology)
    t_mesh = time.perf_counter()
    mesh, port_nodes = mesh_contacts(cell, technology, options, ports)
    mesh_seconds = time.perf_counter() - t_mesh

    t_kron = time.perf_counter()
    macromodel = kron_reduce(mesh, port_nodes, [port.name for port in ports],
                             solver=solver)
    kron_seconds = time.perf_counter() - t_kron
    return SubstrateExtraction(cell_name=cell.name, ports=ports,
                               macromodel=macromodel,
                               mesh_nodes=mesh.n_nodes,
                               timings={"mesh_assembly": mesh_seconds,
                                        "kron_reduction": kron_seconds})
