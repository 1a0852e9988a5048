"""Sparse linear-solver core: cached factorizations and shared patterns.

The solver layer owns everything between "here is an assembled MNA system"
and "here is the solution vector":

* :class:`Factorization` — one LU factorization of a sparse matrix, reusable
  for any number of right-hand sides (single vectors or multi-RHS blocks).
  Linear transient analysis has a constant left-hand side and factorizes
  exactly once for the whole time grid; the substrate Kron reduction solves
  its internal block against all port columns in a single call, factorized
  with the symmetric ordering of :func:`splu_spd`.
* :class:`SharedPatternPair` — ``G`` and ``C`` expanded onto one shared CSC
  sparsity pattern so an AC sweep can assemble ``G + s*C`` per frequency by
  combining ``.data`` arrays in place, never reallocating matrix structure.
* :func:`solve_sparse` — one-shot solve with proper singular-matrix
  diagnostics: an exactly singular factorization becomes a
  :class:`~repro.errors.SimulationError` (naming the offending node when the
  MNA structure is available) and a finite-check backstop catches anything
  that slips through.  No warnings-filter mutation anywhere in the layer —
  the interpreter-global filter list is not thread-safe, and the AC
  per-frequency fan-out solves from worker threads.
* :func:`add_gmin_diagonal` — the vectorized "gmin from every node to
  ground" regularisation shared by the DC, AC and transient analyses.

A module-level :data:`stats` counter records factorizations and solves so
tests (and benchmarks) can assert the caching behaviour — e.g. that a linear
transient performs exactly one factorization regardless of step count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..errors import SimulationError
from ..obs import trace_span


@dataclass
class SolverStats:
    """Counters of the expensive solver operations (for tests / benchmarks).

    Every :class:`~repro.simulator.linalg.LinearSolver` instance owns one of
    these, so parallel workers (e.g. the per-frequency AC fan-out) each count
    into their own instance and are aggregated afterwards with :meth:`merge`
    instead of racing on a shared global.  ``backend`` names the solver
    backend that produced the counts; the multigrid backend additionally
    records its cycles, its V-cycle-preconditioned CG traffic and its
    fallbacks to a direct factorization.
    """

    factorizations: int = 0     #: numeric factorizations (LU or MG hierarchy)
    solves: int = 0             #: triangular / multigrid solve calls
    cg_solves: int = 0          #: right-hand sides solved by MG-precond. CG
    cg_iterations: int = 0      #: total CG iterations over all solves
    mg_solves: int = 0          #: right-hand sides solved by multigrid
    mg_cycles: int = 0          #: multigrid cycles (standalone + precond apply)
    fallbacks: int = 0          #: multigrid solves that fell back to direct LU
    dc_gmin_steps: int = 0      #: gmin-continuation rungs taken by DC Newton
    dc_source_steps: int = 0    #: source-stepping rungs taken by DC Newton
    backend: str = ""           #: backend name ("" for the module-level global)

    _COUNTERS = ("factorizations", "solves", "cg_solves", "cg_iterations",
                 "mg_solves", "mg_cycles", "fallbacks",
                 "dc_gmin_steps", "dc_source_steps")

    #: The subset of counters that record *graceful degradation* — a solve or
    #: analysis that only succeeded by falling back (multigrid -> direct LU,
    #: plain Newton -> gmin stepping -> source stepping).  Campaign runners
    #: snapshot these around each task and surface non-zero deltas in result
    #: sidecars.
    DEGRADATION_COUNTERS = ("fallbacks", "dc_gmin_steps", "dc_source_steps")

    def reset(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def merge(self, other: "SolverStats") -> None:
        """Fold a worker's counters into this instance (``backend`` is kept)."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int | str]:
        record: dict[str, int | str] = {name: getattr(self, name)
                                        for name in self._COUNTERS}
        record["backend"] = self.backend
        return record


#: Global solver counters; ``stats.reset()`` before a run to measure it.
#: Solver instances mirror their counts here (single-threaded paths only);
#: fan-out workers use per-instance stats merged at the end instead.
stats = SolverStats()


def _row_names(rows: np.ndarray, structure) -> list[str]:
    """Best-effort mapping of MNA row indices to node / branch names."""
    if structure is None:
        return [f"row {int(row)}" for row in rows]
    inverse: dict[int, str] = {}
    for name, row in structure.node_index.items():
        inverse[row] = f"node {name!r}"
    for name, row in structure.branch_index.items():
        inverse[row] = f"branch {name!r}"
    return [inverse.get(int(row), f"row {int(row)}") for row in rows]


def _singular_hint(matrix: sp.spmatrix, structure=None, limit: int = 3) -> str:
    """Describe structurally empty rows (floating nodes) of a singular matrix."""
    csr = sp.csr_matrix(matrix)
    row_abs_sum = np.asarray(abs(csr).sum(axis=1)).ravel()
    bad = np.flatnonzero(row_abs_sum == 0.0)
    if bad.size == 0:
        return ""
    names = ", ".join(_row_names(bad[:limit], structure))
    suffix = ", ..." if bad.size > limit else ""
    return f" (all-zero matrix row for {names}{suffix} — floating node?)"


def _check_finite(solution: np.ndarray, matrix: sp.spmatrix,
                  structure=None) -> np.ndarray:
    if not np.all(np.isfinite(solution)):
        raise SimulationError(
            "MNA solution contains non-finite values (singular matrix or "
            "floating node)" + _singular_hint(matrix, structure))
    return solution


def splu_spd(matrix: sp.csc_matrix):
    """SuperLU factorization of a symmetric positive-definite matrix.

    ``splu``'s default COLAMD orders the columns of an *unsymmetric* matrix;
    on an SPD mesh Laplacian a symmetric minimum-degree ordering of
    ``A + A^T`` with diagonal pivots (SuperLU's symmetric mode) roughly
    halves the L+U fill, and with it the factorization time and memory.
    Diagonal pivoting is stable for SPD matrices.  An exactly singular
    matrix still raises ``RuntimeError``, as plain ``splu`` does.
    """
    return spla.splu(matrix, permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


class Factorization:
    """One LU factorization of a square sparse matrix, reusable across solves.

    ``solve`` accepts a single right-hand side vector or a dense ``(n, k)``
    multi-RHS block, real or complex (a complex RHS against a real
    factorization is solved as two real solves).  ``spd=True`` is the
    caller's promise that the matrix is symmetric positive definite and
    selects :func:`splu_spd`; every other matrix (all MNA systems) keeps
    ``splu``'s default COLAMD ordering with partial pivoting.
    """

    def __init__(self, matrix: sp.spmatrix, structure=None,
                 sinks: tuple[SolverStats, ...] | None = None,
                 spd: bool = False):
        if matrix.shape[0] != matrix.shape[1]:
            raise SimulationError("MNA matrix must be square")
        self.shape = matrix.shape
        self._structure = structure
        self._sinks = (stats,) if sinks is None else tuple(sinks)
        self._matrix = sp.csc_matrix(matrix)
        self._complex = np.iscomplexobj(self._matrix.data)
        if self.shape[0] == 0:
            self._lu = None
        else:
            # splu signals an exactly singular matrix with a RuntimeError
            # (no warning machinery involved — the solver layer must stay
            # free of warnings-filter mutation, which is interpreter-global
            # and not thread-safe under the per-frequency AC fan-out).
            try:
                with trace_span("solver.factorize"):
                    self._lu = (splu_spd(self._matrix) if spd
                                else spla.splu(self._matrix))
            except RuntimeError as exc:
                raise SimulationError(
                    f"sparse factorization failed: {exc}"
                    + _singular_hint(self._matrix, structure)) from exc
        for sink in self._sinks:
            sink.factorizations += 1

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` using the cached factorization."""
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise SimulationError(
                f"RHS length {rhs.shape[0]} does not match matrix size "
                f"{self.shape[0]}")
        if self._lu is None:
            return np.zeros_like(rhs)
        with trace_span("solver.solve"):
            if np.iscomplexobj(rhs) and not self._complex:
                solution = (self._lu.solve(np.ascontiguousarray(rhs.real))
                            + 1j * self._lu.solve(
                                np.ascontiguousarray(rhs.imag)))
            else:
                if self._complex and not np.iscomplexobj(rhs):
                    rhs = rhs.astype(complex)
                solution = self._lu.solve(np.ascontiguousarray(rhs))
        for sink in self._sinks:
            sink.solves += 1
        return _check_finite(solution, self._matrix, self._structure)


def factorize(matrix: sp.spmatrix, structure=None) -> Factorization:
    """Factorize ``matrix`` once for reuse over many right-hand sides."""
    return Factorization(matrix, structure=structure)


def solve_sparse(matrix: sp.spmatrix, rhs: np.ndarray,
                 structure=None,
                 sinks: tuple[SolverStats, ...] | None = None) -> np.ndarray:
    """One-shot sparse solve raising :class:`SimulationError` on failure.

    An exactly singular matrix fails the factorization with a
    :class:`SimulationError` naming the offending node when ``structure``
    (an :class:`~repro.simulator.mna.MnaStructure`) is available; the
    finite-check stays as a backstop for near-singular systems that solve
    without error.  Counts one ``solve`` (and no ``factorization``) in the
    stats, matching the historical one-shot-solve semantics.
    """
    if matrix.shape[0] != matrix.shape[1]:
        raise SimulationError("MNA matrix must be square")
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=rhs.dtype)
    solution = Factorization(matrix, structure=structure, sinks=()).solve(rhs)
    for sink in (stats,) if sinks is None else sinks:
        sink.solves += 1
    return np.atleast_1d(solution)


def gmin_diagonal(size: int, n_nodes: int,
                  gmin: float) -> sp.csr_matrix | None:
    """The reusable ``gmin``-to-ground diagonal matrix, or ``None`` for a no-op.

    Newton loops build this once and add it per iteration, so the
    regularisation costs one CSR addition per solve instead of a format
    conversion plus diagonal construction.
    """
    if gmin <= 0.0 or n_nodes <= 0:
        return None
    diagonal = np.zeros(size)
    diagonal[:n_nodes] = gmin
    return sp.diags(diagonal, format="csr")


def add_gmin_diagonal(matrix: sp.spmatrix, n_nodes: int,
                      gmin: float) -> sp.csr_matrix:
    """Add ``gmin`` from every node to ground in one vectorized operation.

    Only the first ``n_nodes`` rows (the node equations) receive the shunt;
    branch-current rows are left untouched.  Returns CSR; a matrix that is
    already CSR is not re-canonicalized (the no-op path returns it as-is).
    """
    base = matrix if sp.issparse(matrix) and matrix.format == "csr" \
        else sp.csr_matrix(matrix)
    diagonal = gmin_diagonal(matrix.shape[0], n_nodes, gmin)
    if diagonal is None:
        return base
    return base + diagonal


class SharedPatternPair:
    """``G`` and ``C`` expanded onto one shared CSC sparsity pattern.

    :meth:`assemble` builds ``G + s*C`` for any complex frequency ``s`` by
    writing into the ``.data`` array of a single preallocated matrix — no
    sparse additions, conversions or structure allocations per frequency
    point, which is what makes dense AC sweeps cheap.
    """

    def __init__(self, g_matrix: sp.spmatrix, c_matrix: sp.spmatrix):
        if g_matrix.shape != c_matrix.shape:
            raise SimulationError("G and C must have the same shape")
        g = self._canonical(g_matrix)
        c = self._canonical(c_matrix)
        # Union sparsity pattern via |G| + |C|: abs prevents cancellation, so
        # every slot that is nonzero in either matrix survives the addition.
        union = sp.csc_matrix(abs(g) + abs(c))
        union.sort_indices()
        n_rows = union.shape[0]
        union_cols = np.repeat(np.arange(union.shape[1], dtype=np.int64),
                               np.diff(union.indptr))
        union_keys = union_cols * n_rows + union.indices
        self.g_data = self._aligned_data(g, union, union_keys)
        self.c_data = self._aligned_data(c, union, union_keys)
        self._matrix = sp.csc_matrix(
            (np.zeros(union.nnz, dtype=complex), union.indices, union.indptr),
            shape=union.shape)

    @staticmethod
    def _canonical(matrix: sp.spmatrix) -> sp.csc_matrix:
        csc = sp.csc_matrix(matrix).copy()
        csc.sum_duplicates()
        csc.eliminate_zeros()
        csc.sort_indices()
        return csc

    @staticmethod
    def _aligned_data(matrix: sp.csc_matrix, union: sp.csc_matrix,
                      union_keys: np.ndarray) -> np.ndarray:
        """Scatter ``matrix.data`` into the slots of the union pattern.

        Both matrices are canonical CSC, so their (column, row) keys are
        sorted and the matrix's pattern is a subset of the union's; a single
        ``searchsorted`` finds every slot.
        """
        cols = np.repeat(np.arange(matrix.shape[1], dtype=np.int64),
                         np.diff(matrix.indptr))
        keys = cols * matrix.shape[0] + matrix.indices
        data = np.zeros(union.nnz)
        data[np.searchsorted(union_keys, keys)] = matrix.data
        return data

    @classmethod
    def from_arrays(cls, g_data: np.ndarray, c_data: np.ndarray,
                    indices: np.ndarray, indptr: np.ndarray,
                    shape: tuple[int, int]) -> "SharedPatternPair":
        """Rehydrate a pair from its raw CSC arrays (already canonical).

        This is the zero-copy entry point of the process-level frequency
        fan-out: a worker attaches the parent's shared-memory views of
        ``g_data``/``c_data``/``indices``/``indptr`` and rebuilds the pair
        without re-deriving the union pattern — only the per-worker complex
        assembly buffer is allocated.  The arrays are used as-is (views are
        fine); callers must not mutate them afterwards.
        """
        pair = object.__new__(cls)
        pair.g_data = g_data
        pair.c_data = c_data
        pair._matrix = sp.csc_matrix(
            (np.zeros(len(g_data), dtype=complex), indices, indptr),
            shape=shape)
        return pair

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    @property
    def csc_indices(self) -> np.ndarray:
        """Row indices of the shared CSC pattern (what workers need to ship)."""
        return self._matrix.indices

    @property
    def csc_indptr(self) -> np.ndarray:
        """Column pointers of the shared CSC pattern."""
        return self._matrix.indptr

    def assemble(self, s: complex) -> sp.csc_matrix:
        """Return ``G + s*C`` on the shared pattern (in-place data update)."""
        np.multiply(self.c_data, s, out=self._matrix.data)
        self._matrix.data += self.g_data
        return self._matrix

    def with_private_buffer(self) -> "SharedPatternPair":
        """A clone whose :meth:`assemble` writes into its own data buffer.

        The (immutable) ``g_data`` / ``c_data`` arrays and the sparsity
        structure are shared with the parent; only the assembly target is
        fresh.  This is what lets the per-frequency AC fan-out hand each
        worker thread its own assembly scratch without re-deriving the union
        pattern.
        """
        clone = object.__new__(SharedPatternPair)
        clone.g_data = self.g_data
        clone.c_data = self.c_data
        clone._matrix = sp.csc_matrix(
            (np.zeros(self._matrix.nnz, dtype=complex),
             self._matrix.indices, self._matrix.indptr),
            shape=self._matrix.shape)
        return clone
