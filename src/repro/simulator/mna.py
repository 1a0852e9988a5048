"""Modified nodal analysis (MNA) assembly.

The assembler turns a :class:`~repro.netlist.circuit.Circuit` into the sparse
matrices of the MNA formulation

``(G + s*C) x = b``

where ``x`` stacks the node voltages (excluding ground) and the branch
currents of voltage-defined elements (voltage sources, inductors, VCVS).

Two classes cooperate:

* :class:`MnaStructure` — the fixed index maps (node name -> row, branch name
  -> row) derived once from the circuit.
* :class:`MatrixStamper` — an implementation of the
  :class:`~repro.netlist.stamping.Stamper` interface that accumulates stamps
  into ``G``, ``C`` and the right-hand side ``b`` using those index maps.

The analyses assemble ``G`` and ``C`` in the format their solves route to
(:meth:`MatrixStamper.conductance_system`): a dense array for systems of at
most :data:`~repro.simulator.solver.DENSE_MAX_SIZE` unknowns, which LAPACK
factorizes without any sparse format conversion, and CSR for SuperLU above.

Analyses create a fresh stamper, let the elements stamp themselves, build
the right-hand side from the source values they need (DC levels, AC
phasors, transient samples) and solve.  DC Newton keeps the linear stamps
assembled and stamps only the nonlinear companion models into a fresh
stamper per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.stamping import GROUND, Stamper
from . import solver as _solver


@dataclass(frozen=True)
class MnaStructure:
    """Index maps of the MNA unknown vector for a given circuit."""

    node_index: dict[str, int]
    branch_index: dict[str, int]

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "MnaStructure":
        nodes = circuit.nodes()
        branches = circuit.branches()
        node_index = {name: i for i, name in enumerate(nodes)}
        branch_index = {name: len(nodes) + i for i, name in enumerate(branches)}
        return cls(node_index=node_index, branch_index=branch_index)

    @property
    def n_nodes(self) -> int:
        return len(self.node_index)

    @property
    def n_branches(self) -> int:
        return len(self.branch_index)

    @property
    def size(self) -> int:
        return self.n_nodes + self.n_branches

    def node_row(self, node: str) -> int | None:
        """Row of a node, or ``None`` for the ground node."""
        if node == GROUND:
            return None
        try:
            return self.node_index[node]
        except KeyError:
            raise SimulationError(f"unknown node {node!r}") from None

    def branch_row(self, branch: str) -> int:
        try:
            return self.branch_index[branch]
        except KeyError:
            raise SimulationError(f"unknown branch {branch!r}") from None


class TripletAccumulator:
    """COO triplet lists for one sparse matrix being stamped.

    Appending a triplet is O(1); the CSR matrix is built once at the end
    (``coo_matrix`` sums duplicate entries during conversion), which makes
    stamping O(nnz) instead of the repeated sparse indexing a ``lil_matrix``
    needs.
    """

    __slots__ = ("shape", "rows", "cols", "vals")

    def __init__(self, size: int):
        self.shape = (size, size)
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []

    def add(self, row: int, col: int, value: float) -> None:
        self.rows.append(row)
        self.cols.append(col)
        self.vals.append(value)

    def tocsr(self) -> sp.csr_matrix:
        if not self.vals:
            return sp.csr_matrix(self.shape, dtype=float)
        matrix = sp.coo_matrix((self.vals, (self.rows, self.cols)),
                               shape=self.shape, dtype=float)
        return matrix.tocsr()

    def toarray(self) -> np.ndarray:
        """The dense matrix; duplicate entries are summed in stamp order."""
        size = self.shape[0]
        if not self.vals:
            return np.zeros(self.shape)
        flat = np.bincount(np.asarray(self.rows, dtype=np.intp) * size
                           + np.asarray(self.cols, dtype=np.intp),
                           weights=self.vals, minlength=size * size)
        return flat.reshape(self.shape)

    def assemble(self) -> np.ndarray | sp.csr_matrix:
        """Dense at or below the LAPACK cutoff, CSR above it."""
        if _solver.dense_kernel(self.shape[0]):
            return self.toarray()
        return self.tocsr()


class MatrixStamper(Stamper):
    """Accumulates element stamps into COO triplets for ``G``, ``C`` and a
    dense ``b``; the sparse matrices are assembled on demand."""

    def __init__(self, structure: MnaStructure):
        self.structure = structure
        size = structure.size
        self._g = TripletAccumulator(size)
        self._c = TripletAccumulator(size)
        self.rhs = np.zeros(size, dtype=float)

    # -- matrix access ---------------------------------------------------------

    def conductance_matrix(self) -> sp.csr_matrix:
        return self._g.tocsr()

    def capacitance_matrix(self) -> sp.csr_matrix:
        return self._c.tocsr()

    def conductance_system(self) -> np.ndarray | sp.csr_matrix:
        """``G`` in the format its solves route to (dense or CSR by size)."""
        return self._g.assemble()

    def capacitance_system(self) -> np.ndarray | sp.csr_matrix:
        """``C`` in the format its solves route to (dense or CSR by size)."""
        return self._c.assemble()

    # -- low-level helpers -------------------------------------------------------

    def _add(self, matrix: TripletAccumulator, row: int | None, col: int | None,
             value: float) -> None:
        if row is None or col is None:
            return
        matrix.add(row, col, value)

    def _stamp_two_node(self, matrix: TripletAccumulator, node_a: str, node_b: str,
                        value: float) -> None:
        a = self.structure.node_row(node_a)
        b = self.structure.node_row(node_b)
        self._add(matrix, a, a, value)
        self._add(matrix, b, b, value)
        self._add(matrix, a, b, -value)
        self._add(matrix, b, a, -value)

    # -- Stamper interface --------------------------------------------------------

    def conductance(self, node_a: str, node_b: str, value: float) -> None:
        self._stamp_two_node(self._g, node_a, node_b, value)

    def capacitance(self, node_a: str, node_b: str, value: float) -> None:
        self._stamp_two_node(self._c, node_a, node_b, value)

    def current(self, node_from: str, node_to: str, value: float) -> None:
        row_from = self.structure.node_row(node_from)
        row_to = self.structure.node_row(node_to)
        if row_from is not None:
            self.rhs[row_from] -= value
        if row_to is not None:
            self.rhs[row_to] += value

    def vccs(self, node_p: str, node_n: str, ctrl_p: str, ctrl_n: str,
             gm: float) -> None:
        p = self.structure.node_row(node_p)
        n = self.structure.node_row(node_n)
        cp = self.structure.node_row(ctrl_p)
        cn = self.structure.node_row(ctrl_n)
        self._add(self._g, p, cp, gm)
        self._add(self._g, p, cn, -gm)
        self._add(self._g, n, cp, -gm)
        self._add(self._g, n, cn, gm)

    def branch_voltage_source(self, branch: str, node_p: str, node_n: str,
                              value: float) -> None:
        k = self.structure.branch_row(branch)
        p = self.structure.node_row(node_p)
        n = self.structure.node_row(node_n)
        self._add(self._g, p, k, 1.0)
        self._add(self._g, n, k, -1.0)
        self._add(self._g, k, p, 1.0)
        self._add(self._g, k, n, -1.0)
        self.rhs[k] += value

    def branch_inductor(self, branch: str, node_p: str, node_n: str,
                        inductance: float) -> None:
        k = self.structure.branch_row(branch)
        p = self.structure.node_row(node_p)
        n = self.structure.node_row(node_n)
        self._add(self._g, p, k, 1.0)
        self._add(self._g, n, k, -1.0)
        self._add(self._g, k, p, 1.0)
        self._add(self._g, k, n, -1.0)
        # Branch equation: v_p - v_n - s*L*i = 0  ->  C[k,k] = -L.
        self._add(self._c, k, k, -inductance)

    def branch_vcvs(self, branch: str, node_p: str, node_n: str,
                    ctrl_p: str, ctrl_n: str, gain: float) -> None:
        k = self.structure.branch_row(branch)
        p = self.structure.node_row(node_p)
        n = self.structure.node_row(node_n)
        cp = self.structure.node_row(ctrl_p)
        cn = self.structure.node_row(ctrl_n)
        self._add(self._g, p, k, 1.0)
        self._add(self._g, n, k, -1.0)
        self._add(self._g, k, p, 1.0)
        self._add(self._g, k, n, -1.0)
        self._add(self._g, k, cp, -gain)
        self._add(self._g, k, cn, gain)


def stamp_linear_elements(circuit: Circuit,
                          structure: MnaStructure | None = None) -> MatrixStamper:
    """Stamp all linear elements of ``circuit`` into a fresh stamper."""
    structure = structure or MnaStructure.from_circuit(circuit)
    stamper = MatrixStamper(structure)
    for element in circuit.linear_elements():
        element.stamp(stamper)
    return stamper


def solve_sparse(matrix, rhs: np.ndarray,
                 structure: MnaStructure | None = None,
                 solver=None) -> np.ndarray:
    """Solve a linear system, raising :class:`SimulationError` on failure.

    Thin wrapper around :func:`repro.simulator.solver.solve_sparse`, kept here
    because this module historically owned the one-shot solve.  Passing the
    ``structure`` lets singular-matrix errors name the offending node; a
    ``solver`` (:class:`~repro.simulator.linalg.SolverOptions` or a
    :class:`~repro.simulator.linalg.LinearSolver`) routes the solve through
    the pluggable backend layer instead of the default direct path.
    """
    if solver is not None:
        from .linalg import resolve_solver

        return resolve_solver(solver).solve(matrix, rhs, structure=structure)
    return _solver.solve_sparse(matrix, rhs, structure=structure)


@dataclass
class SolutionView:
    """Maps a raw MNA solution vector back to named node voltages / currents."""

    structure: MnaStructure
    vector: np.ndarray

    def voltage(self, node: str) -> complex | float:
        row = self.structure.node_row(node)
        if row is None:
            return 0.0
        return self.vector[row]

    def voltage_between(self, node_p: str, node_n: str) -> complex | float:
        return self.voltage(node_p) - self.voltage(node_n)

    def branch_current(self, branch: str) -> complex | float:
        return self.vector[self.structure.branch_row(branch)]

    def voltages(self) -> dict[str, complex | float]:
        return {name: self.vector[row]
                for name, row in self.structure.node_index.items()}
