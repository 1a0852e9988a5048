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

The linear part of a circuit — every element but the nonlinear devices —
does not depend on the analysis, the operating point or the source values
(a source's value reaches only the right-hand side).
:class:`LinearStamps` holds it compiled: the validated structure plus the
assembled ``G`` and ``C`` of the linear elements.  Every analysis starts
from one; DC Newton stamps only the nonlinear companion models on top of it
per iteration, AC and transfer analyses only the small-signal models.  A
caller that solves one netlist at many bias corners (the VCO V_tune sweep,
the Fig-3 NMOS bias sweep) compiles it once and passes it as ``linear=``,
so no corner re-validates, re-indexes or re-stamps the linear netlist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.elements import CurrentSource, Element, VoltageSource
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


def _stamps_alike(compiled: Element, element: Element) -> bool:
    """Whether ``element`` stamps what ``compiled`` stamped into ``G``/``C``:
    the same object, or an independent source of the same kind, name and
    nodes (a source's value reaches only the right-hand side)."""
    return compiled is element or (
        isinstance(element, (VoltageSource, CurrentSource))
        and type(element) is type(compiled)
        and element.name == compiled.name
        and element.nodes() == compiled.nodes())


@dataclass(frozen=True, eq=False)
class LinearStamps:
    """The validated MNA structure and the linear ``G``/``C`` of a circuit.

    ``conductance`` and ``capacitance`` come in the format their solves
    route to (dense at or below the LAPACK cutoff, CSR above it); dense
    ones are read-only, since every analysis adds its own stamps into new
    arrays.  The stamps serve any circuit with the same elements in the
    same order, where only independent sources may be different objects of
    the same kind on the same nodes
    (:meth:`~repro.netlist.circuit.Circuit.with_sources`).  The elements
    must not be modified in place after compiling.
    """

    structure: MnaStructure
    conductance: np.ndarray | sp.csr_matrix
    capacitance: np.ndarray | sp.csr_matrix
    #: the compiled circuit's elements, in circuit order
    elements: tuple[Element, ...]

    @classmethod
    def of(cls, circuit: Circuit) -> "LinearStamps":
        """Validate ``circuit``, index its unknowns and stamp its linear
        elements."""
        circuit.validate()
        stamper = stamp_linear_elements(circuit)
        conductance = stamper.conductance_system()
        capacitance = stamper.capacitance_system()
        for matrix in (conductance, capacitance):
            if isinstance(matrix, np.ndarray):
                matrix.flags.writeable = False
        return cls(structure=stamper.structure, conductance=conductance,
                   capacitance=capacitance, elements=tuple(circuit))

    @classmethod
    def resolve(cls, circuit: Circuit,
                linear: "LinearStamps | None") -> "LinearStamps":
        """``linear`` checked against ``circuit``, or compiled from it."""
        if linear is None:
            return cls.of(circuit)
        if len(circuit) != len(linear.elements):
            raise SimulationError(
                f"linear stamps do not match circuit {circuit.name!r}: "
                f"compiled from {len(linear.elements)} elements, the circuit "
                f"has {len(circuit)}")
        for compiled, element in zip(linear.elements, circuit):
            if not _stamps_alike(compiled, element):
                raise SimulationError(
                    f"linear stamps do not match circuit {circuit.name!r}: "
                    f"element {element.name!r} is not the compiled "
                    f"{compiled.name!r}")
        return linear


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
