"""Small-signal AC analysis.

The circuit is linearised around a DC operating point, then the complex MNA
system ``(G + j*omega*C) x = b`` is solved at every requested frequency with
the AC phasors of the independent sources on the right-hand side.

This is the analysis used throughout the reproduction to compute the transfer
from the substrate-noise injection source to the sensitive nodes of the
circuit (back-gates, on-chip ground, tank nodes, output).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.elements import CurrentSource, VoltageSource
from .dc import DcOptions, DcSolution, dc_operating_point
from .linalg import LinearSolver, SolverOptions, resolve_solver
from .mna import MnaStructure, SolutionView, stamp_linear_elements
from .solver import SharedPatternPair, add_gmin_diagonal


@dataclass
class AcSolution:
    """Frequency-sweep result: complex node voltages at every frequency."""

    circuit: Circuit
    structure: MnaStructure
    frequencies: np.ndarray              #: shape (F,)
    vectors: np.ndarray                  #: shape (F, size), complex

    def voltage(self, node: str) -> np.ndarray:
        """Complex voltage phasor of ``node`` at every frequency."""
        row = self.structure.node_row(node)
        if row is None:
            return np.zeros(len(self.frequencies), dtype=complex)
        return self.vectors[:, row]

    def voltage_between(self, node_p: str, node_n: str) -> np.ndarray:
        return self.voltage(node_p) - self.voltage(node_n)

    def magnitude_db(self, node: str, reference: float = 1.0) -> np.ndarray:
        """Voltage magnitude in dB relative to ``reference`` volts."""
        magnitude = np.abs(self.voltage(node))
        return 20.0 * np.log10(np.maximum(magnitude, 1e-30) / reference)

    def branch_current(self, branch: str) -> np.ndarray:
        return self.vectors[:, self.structure.branch_row(branch)]

    def at_frequency(self, frequency: float) -> SolutionView:
        """Solution view at the frequency point closest to ``frequency``."""
        index = int(np.argmin(np.abs(self.frequencies - frequency)))
        return SolutionView(self.structure, self.vectors[index])


def _small_signal_matrices(circuit: Circuit, structure: MnaStructure,
                           operating_point: DcSolution | None):
    """Build (G, C) with all nonlinear elements replaced by their linearisation."""
    stamper = stamp_linear_elements(circuit, structure)
    nonlinear = circuit.nonlinear_elements()
    if nonlinear:
        if operating_point is None:
            raise SimulationError(
                "circuit contains nonlinear elements: an operating point is required")
        voltages = operating_point.voltages()
        for element in nonlinear:
            element.stamp_small_signal(stamper, voltages)
    return stamper.conductance_matrix(), stamper.capacitance_matrix()


def _ac_rhs(circuit: Circuit, structure: MnaStructure) -> np.ndarray:
    """Right-hand side holding the AC phasors of the independent sources."""
    rhs = np.zeros(structure.size, dtype=complex)
    for element in circuit.sources():
        if isinstance(element, VoltageSource):
            rhs[structure.branch_row(element.name)] = element.value.ac_phasor
        elif isinstance(element, CurrentSource):
            phasor = element.value.ac_phasor
            row_p = structure.node_row(element.node_p)
            row_n = structure.node_row(element.node_n)
            if row_p is not None:
                rhs[row_p] -= phasor
            if row_n is not None:
                rhs[row_n] += phasor
    return rhs


def ac_analysis(circuit: Circuit, frequencies: np.ndarray | list[float],
                operating_point: DcSolution | None = None,
                dc_options: DcOptions | None = None,
                gmin: float = 1e-12,
                solver: SolverOptions | LinearSolver | None = None
                ) -> AcSolution:
    """Run an AC sweep over ``frequencies`` (hertz).

    If the circuit contains nonlinear devices and no ``operating_point`` is
    supplied, a DC operating point is solved first.  ``solver`` selects the
    linear-solver backend.
    """
    circuit.validate()
    solver = resolve_solver(solver)
    frequencies = np.asarray(list(frequencies), dtype=float)
    if frequencies.size == 0:
        raise SimulationError("AC analysis needs at least one frequency point")
    if np.any(frequencies < 0):
        raise SimulationError("AC frequencies must be non-negative")

    structure = MnaStructure.from_circuit(circuit)
    if operating_point is None and circuit.nonlinear_elements():
        operating_point = dc_operating_point(circuit, dc_options,
                                             solver=solver)

    g_matrix, c_matrix = _small_signal_matrices(circuit, structure, operating_point)
    # gmin to ground on every node row keeps otherwise-floating nodes solvable.
    g_matrix = add_gmin_diagonal(g_matrix, structure.n_nodes,
                                 solver.options.effective_gmin(gmin))

    # G and C share one CSC sparsity pattern; each frequency point only
    # rewrites the .data array of the preallocated (G + j*omega*C) matrix.
    pattern = SharedPatternPair(g_matrix, c_matrix)
    rhs = _ac_rhs(circuit, structure)
    vectors = np.zeros((frequencies.size, structure.size), dtype=complex)
    for index, frequency in enumerate(frequencies):
        vectors[index] = solver.solve(pattern.assemble(2j * np.pi * frequency),
                                      rhs, structure=structure)
    return AcSolution(circuit=circuit, structure=structure,
                      frequencies=frequencies, vectors=vectors)
