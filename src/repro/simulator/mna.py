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
  into ``G`` and ``C`` (and companion currents into a right-hand side) using
  those index maps.

The analyses assemble ``G`` and ``C`` in the format their solves route to
(:meth:`MatrixStamper.conductance_system`): a dense array for systems of at
most :data:`~repro.simulator.solver.DENSE_MAX_SIZE` unknowns, which LAPACK
factorizes without any sparse format conversion, and CSR for SuperLU above.

The linear part of a circuit — every element but the nonlinear devices —
does not depend on the analysis, the operating point or the source values
(a source stamps no value: every analysis builds the source right-hand side
from :func:`source_rows`, scaled by the value it needs).
:class:`LinearStamps` holds it compiled: the validated structure plus the
assembled ``G`` and ``C`` of the linear elements.  Every analysis starts
from one; DC Newton stamps only the nonlinear companion models on top of it
per iteration, the transfer analysis only the small-signal models.  A
caller that solves one netlist at many bias corners (the VCO V_tune sweep,
the Fig-3 NMOS bias sweep) compiles it once and passes it as ``linear=``,
so no corner re-validates, re-indexes or re-stamps the linear netlist.

More compiled state hangs off a :class:`LinearStamps`, each piece built
on first use and kept as one entry (replaced when the structure or sweep
it was built for changes):

* :class:`StampPattern` — a fixed sequence of the nonlinear elements' stamp
  calls, recorded once and then re-evaluated as a vector of values
  scattered through fixed slots (bit-identical to a fresh
  :class:`MatrixStamper`, without its node lookups and triplet lists).
  The values may carry a leading corner axis: one scatter then builds the
  matrices of a whole stack of bias corners, each summed in the same
  order as alone.  One pattern holds the DC Newton companion stamps
  (:meth:`LinearStamps.companion_pattern`), one the small-signal stamps on
  the rows a transfer analysis solves
  (:meth:`LinearStamps.small_signal_pattern`);
* :class:`PortReduction` — ``G + gmin + s*C`` Schur-reduced onto the
  device terminals and observed nodes for a frequency sweep.  The
  small-signal models touch only device terminals, so every bias corner
  after the first solves a system of the kept rows only.  This is the
  paper's own strategy — reduce what does not depend on the operating
  point to a port macromodel, then simulate the devices on it — applied
  inside the testbench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.elements import CurrentSource, Element, VoltageSource
from ..netlist.stamping import GROUND, Stamper
from ..obs import trace_span
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


def source_rows(structure: MnaStructure,
                source: VoltageSource | CurrentSource
                ) -> list[tuple[int, float]]:
    """The (row, sign) pairs a unit value on the independent ``source``
    stamps into the right-hand side: a voltage source's branch row with
    sign +1, a current source's ``node_p`` row with -1 and ``node_n`` row
    with +1 (ground dropped).  Every analysis builds its source right-hand
    side from these, scaled by the value it needs."""
    if isinstance(source, VoltageSource):
        return [(structure.branch_row(source.name), 1.0)]
    rows = ((structure.node_row(source.node_p), -1.0),
            (structure.node_row(source.node_n), 1.0))
    return [(row, sign) for row, sign in rows if row is not None]


def _system_from_triplets(rows, cols, vals,
                          size: int) -> np.ndarray | sp.csr_matrix:
    """The ``size x size`` matrix of COO triplets, duplicate entries summed:
    dense (summed in triplet order) at or below the LAPACK cutoff, CSR
    (summed in conversion) above it."""
    if _solver.dense_kernel(size):
        if not len(vals):
            return np.zeros((size, size))
        flat = np.bincount(np.asarray(rows, dtype=np.intp) * size
                           + np.asarray(cols, dtype=np.intp),
                           weights=vals, minlength=size * size)
        return flat.reshape(size, size)
    if not len(vals):
        return sp.csr_matrix((size, size), dtype=float)
    return sp.coo_matrix((vals, (rows, cols)), shape=(size, size),
                         dtype=float).tocsr()


class TripletAccumulator:
    """COO triplet lists for one matrix being stamped.

    Appending a triplet is O(1); the matrix is built once at the end
    (duplicate entries are summed during conversion), which makes stamping
    O(nnz) instead of the repeated sparse indexing a ``lil_matrix`` needs.
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

    def assemble(self) -> np.ndarray | sp.csr_matrix:
        """Dense at or below the LAPACK cutoff, CSR above it."""
        return _system_from_triplets(self.rows, self.cols, self.vals,
                                     self.shape[0])


class MatrixStamper(Stamper):
    """Accumulates element stamps into COO triplets for ``G`` and ``C`` and
    into a dense ``rhs``; the matrices are assembled on demand.

    ``rhs`` holds only the :meth:`current` stamps of the Newton companion
    models; no independent source writes into it (the analyses build a
    source's right-hand side from :func:`source_rows`).
    """

    def __init__(self, structure: MnaStructure):
        self.structure = structure
        size = structure.size
        self._g = TripletAccumulator(size)
        self._c = TripletAccumulator(size)
        self.rhs = np.zeros(size, dtype=float)

    # -- matrix access ---------------------------------------------------------

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

    def _add_rhs(self, row: int | None, value: float) -> None:
        if row is not None:
            self.rhs[row] += value

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
        self._add_rhs(self.structure.node_row(node_from), -value)
        self._add_rhs(self.structure.node_row(node_to), value)

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

    def branch_voltage_source(self, branch: str, node_p: str,
                              node_n: str) -> None:
        k = self.structure.branch_row(branch)
        p = self.structure.node_row(node_p)
        n = self.structure.node_row(node_n)
        self._add(self._g, p, k, 1.0)
        self._add(self._g, n, k, -1.0)
        self._add(self._g, k, p, 1.0)
        self._add(self._g, k, n, -1.0)

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


class _SlotRecorder(MatrixStamper):
    """Records where each node stamp call lands, for :class:`StampPattern`.

    Every call runs through :class:`MatrixStamper` with a unit value, so the
    triplets it leaves hold the sign each slot takes the real value with;
    ``g_calls``, ``c_calls`` and ``rhs_calls`` list the call each ``G``
    triplet, ``C`` triplet and RHS entry came from.
    """

    def __init__(self, structure: MnaStructure):
        super().__init__(structure)
        self.n_calls = 0
        self.g_calls: list[int] = []
        self.c_calls: list[int] = []
        self.rhs_slots: list[int] = []
        self.rhs_calls: list[int] = []
        self.rhs_signs: list[float] = []

    def _add(self, matrix: TripletAccumulator, row, col, value) -> None:
        if row is not None and col is not None:
            matrix.add(row, col, value)
            calls = self.g_calls if matrix is self._g else self.c_calls
            calls.append(self.n_calls)

    def _add_rhs(self, row, value) -> None:
        if row is not None:
            self.rhs_slots.append(row)
            self.rhs_calls.append(self.n_calls)
            self.rhs_signs.append(value)

    def _record(self, stamp, *nodes) -> None:
        stamp(*nodes, 1.0)
        self.n_calls += 1

    def conductance(self, node_a, node_b, value) -> None:
        self._record(super().conductance, node_a, node_b)

    def capacitance(self, node_a, node_b, value) -> None:
        self._record(super().capacitance, node_a, node_b)

    def current(self, node_from, node_to, value) -> None:
        self._record(super().current, node_from, node_to)

    def vccs(self, node_p, node_n, ctrl_p, ctrl_n, gm) -> None:
        self._record(super().vccs, node_p, node_n, ctrl_p, ctrl_n)

    def branch_voltage_source(self, *args) -> None:
        raise SimulationError("compiled stamps take node stamps only "
                              "(conductance, capacitance, current, vccs)")

    branch_inductor = branch_vcvs = branch_voltage_source


class _ValueCollector(Stamper):
    """Collects the value of every node stamp call, in call order."""

    def __init__(self):
        self.values: list[float] = []

    def conductance(self, node_a, node_b, value) -> None:
        self.values.append(value)

    capacitance = current = conductance

    def vccs(self, node_p, node_n, ctrl_p, ctrl_n, gm) -> None:
        self.values.append(gm)

    branch_voltage_source = branch_inductor = branch_vcvs = \
        _SlotRecorder.branch_voltage_source


class _Slots:
    """The slots of one matrix (rows and columns) or of the RHS (rows only),
    with the call each slot takes its value from and its sign.
    """

    def __init__(self, rows, cols, calls, signs, size: int):
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.calls = np.asarray(calls, dtype=np.intp)
        self.signs = np.asarray(signs, dtype=float)
        self.size = size

    @cached_property
    def positions(self) -> np.ndarray:
        """Every slot's flat position: ``row * size + col``, or ``row``."""
        return (self.rows * self.size + self.cols if self.cols.size
                else self.rows)

    def values(self, call_values: np.ndarray) -> np.ndarray:
        """The value of every slot, ``(..., slots)`` for ``(..., calls)``."""
        return call_values[..., self.calls] * self.signs

    def scatter(self, call_values: np.ndarray, length: int) -> np.ndarray:
        """The slot values of ``(corners, calls)`` summed onto ``length``
        flat positions per corner.

        One :func:`numpy.bincount` over the stack, each corner's positions
        offset by ``length``: it adds its weights in input order, so every
        position sums its values in recording order, corner by corner, as
        a corner alone would.
        """
        values = self.values(call_values)
        corners = len(values)
        offsets = np.arange(corners)[:, None] * length
        return np.bincount((offsets + self.positions).ravel(),
                           weights=values.ravel(),
                           minlength=corners * length
                           ).reshape(corners, length)


class StampPattern:
    """A fixed sequence of node stamp calls, compiled to matrix slots.

    :meth:`record` runs ``stamp(stamper)`` once against a recording
    stamper; afterwards :meth:`evaluate` runs it against a stamper that only
    collects the values, and :meth:`conductance`/:meth:`capacitance`/
    :meth:`rhs` scatter those values through the recorded slots.  This is
    what :class:`MatrixStamper` would build from the same calls, summed in
    the same order, so the results are bit-identical; no node lookup or
    triplet list is rebuilt per evaluation.  ``stamp`` must issue the same
    calls on the same nodes every time (the element models do: only the
    values depend on the voltages), and only node stamps
    (conductance, capacitance, current, vccs).

    A stack of corners is one evaluation too: stamped from a voltage map of
    1-D arrays, the values come as ``(corners, calls)`` and every matrix as
    ``(corners, n, n)`` (a list of CSR matrices above the dense cutoff),
    each corner's entries summed in the order it would be alone.
    """

    def __init__(self, structure: MnaStructure, recorder: _SlotRecorder):
        self.size = size = structure.size
        self.n_calls = recorder.n_calls
        self._g = _Slots(recorder._g.rows, recorder._g.cols,
                         recorder.g_calls, recorder._g.vals, size)
        self._c = _Slots(recorder._c.rows, recorder._c.cols,
                         recorder.c_calls, recorder._c.vals, size)
        self._rhs = _Slots(recorder.rhs_slots, (), recorder.rhs_calls,
                           recorder.rhs_signs, size)

    @classmethod
    def record(cls, structure: MnaStructure, stamp) -> "StampPattern":
        recorder = _SlotRecorder(structure)
        stamp(recorder)
        return cls(structure, recorder)

    def evaluate(self, stamp) -> np.ndarray:
        """The values of one run of ``stamp``, checked against the pattern:
        ``(calls,)``, or ``(corners, calls)`` when any value is a stack."""
        collector = _ValueCollector()
        stamp(collector)
        if len(collector.values) != self.n_calls:
            raise SimulationError(
                f"stamp pattern changed: recorded {self.n_calls} stamp "
                f"calls, got {len(collector.values)}")
        if not any(isinstance(value, np.ndarray) for value in
                   collector.values):
            return np.asarray(collector.values, dtype=float)
        return np.stack(np.broadcast_arrays(*collector.values), axis=-1
                        ).astype(float, copy=False)

    def _matrix(self, slots: _Slots, values: np.ndarray):
        size = self.size
        if values.ndim == 1:
            return _system_from_triplets(slots.rows, slots.cols,
                                         slots.values(values), size)
        if _solver.dense_kernel(size):
            return slots.scatter(values, size * size).reshape(
                (len(values), size, size))
        return [_system_from_triplets(slots.rows, slots.cols,
                                      slots.values(corner), size)
                for corner in values]

    def conductance(self, values: np.ndarray):
        """``G`` of the stamps, dense or CSR by size (per corner of a
        stack)."""
        return self._matrix(self._g, values)

    def capacitance(self, values: np.ndarray):
        """``C`` of the stamps, dense or CSR by size (per corner of a
        stack)."""
        return self._matrix(self._c, values)

    @cached_property
    def _stamp_slots(self) -> _Slots:
        """The slots of ``[G | C]``: ``C``'s in the ``n`` columns after
        ``G``'s."""
        g, c = self._g, self._c
        return _Slots(np.concatenate([g.rows, c.rows]),
                      np.concatenate([g.cols, c.cols + self.size]),
                      np.concatenate([g.calls, c.calls]),
                      np.concatenate([g.signs, c.signs]), 2 * self.size)

    def stamps(self, values: np.ndarray) -> np.ndarray:
        """``[G | C]`` of the stamps per corner of ``(corners, calls)``
        values (or ``(calls,)``, one corner), dense ``(corners, n, 2n)``;
        each entry summed in recording order, as :meth:`conductance` and
        :meth:`capacitance` sum it."""
        size = self.size
        return self._stamp_slots.scatter(
            np.atleast_2d(values), 2 * size * size).reshape(-1, size, 2 * size)

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """The right-hand side of the stamps' current sources, ``(n,)`` or
        ``(corners, n)``."""
        slots = self._rhs
        if values.ndim > 1:
            return slots.scatter(values, self.size)
        if not slots.rows.size:
            return np.zeros(self.size)
        return np.bincount(slots.rows, weights=slots.values(values),
                           minlength=self.size)


def _stamp_companions(nonlinear, voltages, stamper) -> None:
    for element in nonlinear:
        element.stamp_companion(stamper, voltages)


def _stamps_alike(compiled: Element, element: Element) -> bool:
    """Whether ``element`` stamps what ``compiled`` stamped into ``G``/``C``:
    the same object, or an independent source of the same kind, name and
    nodes.  A source's stamp carries no value (its value reaches only the
    right-hand sides built from :func:`source_rows`), so two such sources
    stamp the same by construction."""
    return compiled is element or (
        isinstance(element, (VoltageSource, CurrentSource))
        and type(element) is type(compiled)
        and element.name == compiled.name
        and element.nodes() == compiled.nodes())


def _sub_structure(structure: MnaStructure, rows: np.ndarray) -> MnaStructure:
    """The names of ``rows``, indexed by their position in ``rows``."""
    position = {int(row): index for index, row in enumerate(rows)}
    return MnaStructure(
        node_index={name: position[row]
                    for name, row in structure.node_index.items()
                    if row in position},
        branch_index={name: position[row]
                      for name, row in structure.branch_index.items()
                      if row in position})


@dataclass(eq=False)
class PortReduction:
    """``G + gmin + s*C`` of linear stamps, reduced onto kept rows.

    For every swept frequency the eliminated rows are solved out exactly
    (a Schur complement): ``matrices[f] = A_kk - A_ke A_ee^-1 A_ek`` and
    ``rhs[f] = b_k - A_ke A_ee^-1 b_e``, with ``A = G + gmin + s*C``.  Any
    stamp that lands only in kept rows and columns (the small-signal models
    of the nonlinear devices) adds straight onto ``matrices``, and the
    reduced system then gives the kept unknowns of the full one.  The
    arrays are read-only; ``base`` is the one field the transfer analysis
    sets.
    """

    kept: np.ndarray            #: kept rows of the full system, ascending
    structure: MnaStructure     #: names of the kept rows, by position
    frequencies: np.ndarray     #: (F,) hertz
    gmin: float
    source_rhs: np.ndarray      #: (n, m) the full right-hand sides reduced
    matrices: np.ndarray        #: (F, k, k) complex
    rhs: np.ndarray             #: (F, k, m) complex
    #: compiled state of the transfer analysis: the bytes of the last
    #: reference point solved on this reduction and its inverted
    #: :class:`~repro.simulator.solver.SweepBase`
    base: tuple | None = field(default=None, repr=False)

    @cached_property
    def s(self) -> np.ndarray:
        """The ``(F,)`` complex frequencies ``j * omega``."""
        return 2j * np.pi * self.frequencies

    def matches(self, kept: np.ndarray, frequencies: np.ndarray,
                gmin: float, rhs: np.ndarray) -> bool:
        return (np.array_equal(kept, self.kept)
                and np.array_equal(frequencies, self.frequencies)
                and gmin == self.gmin
                and np.array_equal(rhs, self.source_rhs))


def _schur_reduce(linear: "LinearStamps", kept: np.ndarray,
                  frequencies: np.ndarray, gmin: float,
                  rhs: np.ndarray) -> PortReduction:
    """Reduce ``linear`` onto ``kept`` at every frequency (one batched
    LAPACK solve of the eliminated blocks)."""
    structure = linear.structure
    g = _solver.add_gmin_diagonal(linear.conductance, structure.n_nodes,
                                  gmin)
    c = linear.capacitance
    s = 2j * np.pi * frequencies
    eliminated = np.setdiff1d(np.arange(structure.size), kept)

    def block(rows, cols):
        index = np.ix_(rows, cols)
        return g[index] + s[:, None, None] * c[index]

    matrices = block(kept, kept)
    reduced = np.repeat(rhs[kept][None], frequencies.size, axis=0)
    if eliminated.size:
        a_ee = block(eliminated, eliminated)
        a_ke = block(kept, eliminated)
        b_e = np.broadcast_to(rhs[eliminated], (frequencies.size,)
                              + rhs[eliminated].shape)
        try:
            solved = _solver.solve_stacked(
                a_ee, np.concatenate([block(eliminated, kept), b_e], axis=2),
                _sub_structure(structure, eliminated))
        except SimulationError as exc:
            raise SimulationError(f"port reduction failed: {exc}") from exc
        matrices -= a_ke @ solved[:, :, :kept.size]
        reduced -= a_ke @ solved[:, :, kept.size:]
    for array in (matrices, reduced):
        array.flags.writeable = False
    return PortReduction(kept=kept, structure=_sub_structure(structure, kept),
                         frequencies=frequencies.copy(), gmin=gmin,
                         source_rhs=rhs.copy(), matrices=matrices,
                         rhs=reduced)


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
    #: compiled state derived on first use: the companion and small-signal
    #: stamp patterns, the structural facts of the port reduction and its
    #: one cached entry (which keeps the transfer base of its last
    #: reference point)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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
            if compiled is not element and not _stamps_alike(compiled,
                                                              element):
                raise SimulationError(
                    f"linear stamps do not match circuit {circuit.name!r}: "
                    f"element {element.name!r} is not the compiled "
                    f"{compiled.name!r}")
        return linear

    @cached_property
    def nonlinear_elements(self) -> tuple[Element, ...]:
        """The compiled circuit's nonlinear elements, in circuit order.

        They are the very objects of every circuit these stamps serve
        (only independent sources may differ), so the analyses read them
        here instead of filtering the circuit per call.
        """
        return tuple(element for element in self.elements
                     if element.is_nonlinear)

    @cached_property
    def sources(self) -> tuple[VoltageSource | CurrentSource, ...]:
        """The compiled circuit's independent sources, in circuit order.

        A circuit these stamps serve has sources of the same kind, name
        and nodes (so the same :func:`source_rows`); only their values may
        differ, and those are read from the circuit itself.
        """
        return tuple(element for element in self.elements
                     if isinstance(element, (VoltageSource, CurrentSource)))

    def companion_pattern(self) -> StampPattern:
        """The DC Newton companion stamps of the nonlinear elements,
        compiled on first use (:class:`StampPattern`)."""
        pattern = self._cache.get("companion")
        if pattern is None:
            voltages = dict.fromkeys(self.structure.node_index, 0.0)
            pattern = self._cache["companion"] = StampPattern.record(
                self.structure, partial(_stamp_companions,
                                        self.nonlinear_elements, voltages))
        return pattern

    def companion_system(self, voltages: dict[str, float]):
        """The companion ``G`` and right-hand side of the nonlinear
        elements linearised at ``voltages`` (node -> volts, or a stack of
        corners: node -> 1-D array, giving ``(corners, n, n)`` and
        ``(corners, n)``).

        Scattered through :meth:`companion_pattern`, which gives what a
        fresh :class:`MatrixStamper` would, bit for bit, per corner.
        """
        pattern = self.companion_pattern()
        values = pattern.evaluate(partial(_stamp_companions,
                                          self.nonlinear_elements, voltages))
        return pattern.conductance(values), pattern.rhs(values)

    def small_signal_pattern(self, structure: MnaStructure) -> StampPattern:
        """The small-signal stamps of the nonlinear elements indexed by
        ``structure`` (these stamps' own, or the kept rows of a
        :class:`PortReduction`), compiled on first use.

        One pattern is cached, and recorded again when ``structure``
        changes.  The calls are recorded at zero volts; only their values
        depend on the operating point.
        """
        cached = self._cache.get("small_signal")
        if cached is None or cached[0] != structure:
            voltages = dict.fromkeys(self.structure.node_index, 0.0)

            def stamp(stamper):
                for element in self.nonlinear_elements:
                    element.stamp_small_signal(stamper, voltages)

            cached = self._cache["small_signal"] = (
                structure, StampPattern.record(structure, stamp))
        return cached[1]

    def kept_rows(self, observe_nodes) -> np.ndarray:
        """The rows a port reduction keeps, ascending.

        They are the terminals of the nonlinear elements, the observed
        nodes, and every branch row whose other columns are all kept: such a
        row (a voltage source straight across two kept nodes, say) has no
        entry in the eliminated block, which it would make singular.
        """
        facts = self._cache.get("ports")
        if facts is None:
            structure = self.structure
            terminals = {structure.node_row(node)
                         for element in self.nonlinear_elements
                         for node in element.nodes()} - {None}
            pattern = (np.abs(self.conductance) + np.abs(self.capacitance)
                       ) != 0.0
            branches = [(row, set(np.flatnonzero(pattern[row]).tolist())
                         - {row})
                        for row in structure.branch_index.values()]
            facts = self._cache["ports"] = (terminals, branches)
        terminals, branches = facts
        kept = terminals | {self.structure.node_row(node)
                            for node in observe_nodes} - {None}
        kept |= {row for row, columns in branches if columns <= kept}
        return np.array(sorted(kept), dtype=np.intp)

    def port_reduction(self, observe_nodes, frequencies: np.ndarray,
                       gmin: float, rhs: np.ndarray) -> PortReduction:
        """``G + gmin + s*C`` reduced onto :meth:`kept_rows` for the swept
        ``frequencies``, with the right-hand sides ``rhs`` (n x m).

        Needs dense stamps.  One reduction is cached, and replaced when the
        kept rows, frequencies, gmin or right-hand sides change; it is
        compile-time state like the stamps themselves, so it counts no
        solver work.  Recorded as a ``sim.reduce`` span.
        """
        kept = self.kept_rows(observe_nodes)
        frequencies = np.asarray(frequencies, dtype=float)
        rhs = np.asarray(rhs, dtype=complex)
        cached = self._cache.get("reduction")
        reused = cached is not None and cached.matches(kept, frequencies,
                                                       gmin, rhs)
        with trace_span("sim.reduce", kept=int(kept.size),
                        eliminated=int(self.structure.size - kept.size),
                        points=int(frequencies.size), reused=reused):
            if not reused:
                cached = self._cache["reduction"] = _schur_reduce(
                    self, kept, frequencies, gmin, rhs)
        return cached


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
