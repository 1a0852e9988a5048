"""The impact-simulation flow (the paper's Figure 2).

``run_extraction_flow`` executes the complete methodology on a layout cell:

1. substrate extraction (mesh + Kron reduction to a port macromodel),
2. interconnect extraction (wire resistance + substrate capacitance),
3. circuit extraction (device netlist from the annotated layout),
4. model merge (one impact netlist containing everything), including an
   optional package / probe model.

The result object keeps every intermediate model, the assembled
:class:`~repro.extraction.merge.ImpactNetlist` and the wall-clock spent in
each stage (the paper reports 20 minutes of extraction and 15 minutes of
simulation on 2005 hardware; the runtime benchmark reproduces the same
bookkeeping).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..extraction.circuit_extractor import ExtractedCircuit, extract_circuit
from ..extraction.merge import ImpactNetlist, merge_models
from ..interconnect.extraction import InterconnectExtraction, extract_interconnect
from ..layout.cell import Cell
from ..obs import trace_span
from ..package.model import PackageModel
from ..simulator.linalg import SolverOptions, resolve_solver
from ..simulator.solver import SolverStats
from ..simulator.solver import stats as solver_stats
from ..substrate.extraction import (
    SubstrateExtraction,
    SubstrateExtractionOptions,
    extract_substrate,
)
from ..technology.process import ProcessTechnology


@dataclass(frozen=True)
class FlowOptions:
    """Knobs of the extraction flow."""

    substrate: SubstrateExtractionOptions = field(
        default_factory=SubstrateExtractionOptions)
    #: node receiving the interconnect wire-to-substrate capacitances
    #: (``None`` = the first TAP port's net, i.e. the local ground ring).
    substrate_cap_reference: str | None = None
    #: linear-solver backend configuration.  Part of the studies
    #: extraction-cache key: flows solved by different backends / tolerances
    #: never share a cached extraction.
    solver: SolverOptions = field(default_factory=SolverOptions)


@dataclass
class FlowTimings:
    """Wall-clock seconds spent per stage of the flow.

    ``mesh_assembly`` and ``kron_reduction`` break the substrate stage down
    further (they are *included in* ``substrate_extraction``, not added on
    top), closing the historical blind spot where the dominant Kron solve
    was invisible in benchmark stage breakdowns.
    """

    substrate_extraction: float = 0.0
    interconnect_extraction: float = 0.0
    circuit_extraction: float = 0.0
    merge: float = 0.0
    #: sub-stages of ``substrate_extraction`` (not counted twice in totals)
    mesh_assembly: float = 0.0
    kron_reduction: float = 0.0

    @property
    def total_extraction(self) -> float:
        return (self.substrate_extraction + self.interconnect_extraction
                + self.circuit_extraction + self.merge)

    def as_dict(self) -> dict[str, float]:
        """Every stage (and sub-stage) with ``_seconds``-suffixed keys."""
        return {
            "substrate_seconds": self.substrate_extraction,
            "interconnect_seconds": self.interconnect_extraction,
            "circuit_seconds": self.circuit_extraction,
            "merge_seconds": self.merge,
            "mesh_assembly_seconds": self.mesh_assembly,
            "kron_reduction_seconds": self.kron_reduction,
        }


@dataclass
class FlowResult:
    """All artefacts produced by one run of the extraction flow."""

    cell: Cell
    technology: ProcessTechnology
    substrate: SubstrateExtraction
    interconnect: InterconnectExtraction
    devices: ExtractedCircuit
    impact: ImpactNetlist
    timings: FlowTimings
    #: solver work of the extraction flow (a delta of the global counters)
    solver_stats: SolverStats | None = None

    def summary(self) -> dict[str, int | float | str]:
        """Headline numbers for logging / reports."""
        summary: dict[str, int | float | str] = {
            "cell": self.cell.name,
            "substrate_ports": len(self.substrate.ports),
            "substrate_mesh_nodes": self.substrate.mesh_nodes,
            "extracted_wires": len(self.interconnect.wires),
            "devices": len(self.devices.circuit),
            "impact_netlist_elements": len(self.impact.circuit),
            "impact_netlist_nodes": len(self.impact.circuit.nodes()),
            "extraction_seconds": round(self.timings.total_extraction, 3),
        }
        if self.solver_stats is not None:
            summary["solver_backend"] = self.solver_stats.backend
        return summary


def run_extraction_flow(cell: Cell, technology: ProcessTechnology,
                        package: PackageModel | None = None,
                        options: FlowOptions | None = None,
                        substrate: SubstrateExtraction | None = None,
                        ) -> FlowResult:
    """Run the paper's extraction flow on a layout cell.

    ``substrate`` is an existing substrate extraction to reuse instead of
    running stage 1.  It must come from a cell, technology and ``options``
    whose :func:`~repro.substrate.extraction.substrate_inputs` fingerprint
    equal to this call's (the campaign runner checks this).  A flow given
    one reports zero substrate, mesh and Kron time and zero solver
    factorizations, because it ran none.
    """
    options = options or FlowOptions()
    timings = FlowTimings()
    solver = resolve_solver(options.solver)
    before = solver_stats.snapshot()

    with trace_span("flow.run", cell=cell.name):
        if substrate is None:
            start = time.perf_counter()
            with trace_span("flow.substrate_extraction"):
                substrate = extract_substrate(cell, technology,
                                              options.substrate,
                                              solver=solver)
            timings.substrate_extraction = time.perf_counter() - start
            timings.mesh_assembly = substrate.timings.get("mesh_assembly", 0.0)
            timings.kron_reduction = substrate.timings.get("kron_reduction", 0.0)

        start = time.perf_counter()
        with trace_span("flow.interconnect_extraction"):
            interconnect = extract_interconnect(cell, technology)
        timings.interconnect_extraction = time.perf_counter() - start

        start = time.perf_counter()
        with trace_span("flow.circuit_extraction"):
            devices = extract_circuit(cell, technology)
        timings.circuit_extraction = time.perf_counter() - start

        start = time.perf_counter()
        with trace_span("flow.merge"):
            impact = merge_models(
                devices, interconnect, substrate, package=package,
                substrate_cap_reference=options.substrate_cap_reference)
        timings.merge = time.perf_counter() - start

    return FlowResult(cell=cell, technology=technology, substrate=substrate,
                      interconnect=interconnect, devices=devices,
                      impact=impact, timings=timings,
                      solver_stats=solver_stats.since(before,
                                                      backend=solver.name))
