"""Linear-solver core: cached factorizations and shared patterns.

The solver layer owns everything between "here is an assembled MNA system"
and "here is the solution vector":

* :class:`Factorization` — one LU factorization of a square matrix, reusable
  for any number of right-hand sides (single vectors or multi-RHS blocks).
  A dense array goes to LAPACK ``getrf``/``getrs``, a sparse matrix to
  SuperLU with COLAMD ordering; the analyses assemble a system dense
  exactly when it has at most :data:`DENSE_MAX_SIZE` unknowns
  (:func:`dense_kernel`), so the system size picks the kernel.  Linear
  transient analysis has a constant left-hand side and factorizes exactly
  once for the whole time grid; the direct path of the substrate Kron
  reduction solves its internal block against all port columns in a single
  call, factorized with the symmetric ordering of :func:`splu_spd`.
* :class:`StackedFactorization` — an ``(F, n, n)`` stack of small dense
  systems (one per swept frequency of a reduced transfer analysis),
  factorized and solved together by one batched LAPACK call and counted
  as ``F`` factorizations and ``F`` solves.
* :class:`SharedPatternPair` — a large system's ``G`` and ``C`` on one
  shared CSC sparsity pattern, so a transfer sweep assembles ``G + s*C``
  per frequency by combining ``.data`` arrays in place, without
  reallocating.  Small systems never need it: their sweeps solve all
  frequencies as one :class:`StackedFactorization`.
* singular-matrix diagnostics: an exactly singular factorization
  (SuperLU's error, LAPACK's ``info > 0``) becomes a
  :class:`~repro.errors.SimulationError` (naming the offending node when
  the MNA structure is available) and a finite-check backstop catches
  anything that slips through.  No warnings-filter mutation anywhere in
  the layer — the filter list is interpreter-global state.
* :func:`add_gmin_diagonal` — the vectorized "gmin from every node to
  ground" regularisation shared by the DC, transfer and transient analyses.

The dense cutoff is the measured crossover of one complex ``G + s*C``
assembly + factor + solve on the resistor-grid circuit of
``benchmarks/test_solver_micro.py`` (the sparsest realistic MNA system, so
the case least favourable to dense), best of 300 on a shared 2-vCPU Intel
Xeon with scipy 1.17's OpenBLAS:

========  ======  ======  ======  ======  ======  ======  =======
unknowns      17      37      65      82      91     101      577
SuperLU    59 us   73 us  100 us  119 us  136 us  146 us  1305 us
LAPACK     21 us   30 us   70 us  108 us  131 us  187 us  9421 us
========  ======  ======  ======  ======  ======  ======  =======

The merged impact netlist of the VCO testchip has 43 unknowns whatever the
substrate mesh (the Kron reduction keeps only its ports), so every DC
and transfer system of the Figure-8/10 sweeps takes the dense path; the
577-unknown micro-benchmark grid stays on SuperLU.

The module-level :data:`stats` record is the one place solver work is
counted: every factorization, solve and DC homotopy rung lands there,
including the dense Cholesky of the spectral Kron reduction.  Tests,
benchmarks and the campaign runner measure a stretch of work as a
:meth:`SolverStats.since` delta of it — e.g. that a linear transient
performs exactly one factorization regardless of step count.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from ..errors import SimulationError
from ..obs import trace_span

#: MNA systems with at most this many unknowns are assembled dense and
#: factorized by LAPACK; larger ones sparse for SuperLU (the crossover table
#: is above).  A measured constant, deliberately not an option.
DENSE_MAX_SIZE = 90

#: LAPACK LU kernels by matrix dtype: (getrf, getrs).
_LAPACK_LU = {
    np.dtype(float): (lapack.dgetrf, lapack.dgetrs),
    np.dtype(complex): (lapack.zgetrf, lapack.zgetrs),
}


def dense_kernel(size: int) -> bool:
    """Whether a ``size``-unknown system is assembled dense and solved by
    LAPACK (``True``) or kept sparse for SuperLU."""
    return size <= DENSE_MAX_SIZE


@dataclass
class SolverStats:
    """Counters of the expensive solver operations (for tests / benchmarks).

    The module-level :data:`stats` instance is the live record; other
    instances are deltas of it (:meth:`since`) or sums of such deltas
    (:meth:`merge`).  ``backend`` names the solver backend a delta was
    taken for.
    """

    factorizations: int = 0     #: sparse LU, or the spectral Kron's Cholesky
    solves: int = 0             #: solve calls against a factorization
    fallbacks: int = 0          #: spectral Kron reductions redone by sparse LU
    dc_gmin_steps: int = 0      #: gmin-continuation rungs taken by DC Newton
    dc_source_steps: int = 0    #: source-stepping rungs taken by DC Newton
    backend: str = ""           #: backend name ("" for the module-level global)

    #: Always zero: no multigrid backend exists any more.  Kept as a plain
    #: attribute only because the benchmark harness still reads it.
    mg_cycles = 0

    _COUNTERS = ("factorizations", "solves", "fallbacks",
                 "dc_gmin_steps", "dc_source_steps")

    #: The subset of counters that record *graceful degradation* — a solve or
    #: analysis that only succeeded by falling back (spectral Kron -> sparse
    #: LU, plain Newton -> gmin stepping -> source stepping).  Campaign
    #: runners snapshot these around each task and surface non-zero deltas in
    #: result sidecars.
    DEGRADATION_COUNTERS = ("fallbacks", "dc_gmin_steps", "dc_source_steps")

    def reset(self) -> None:
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def since(self, before: "SolverStats",
              backend: str = "") -> "SolverStats":
        """The counts accrued since ``before``, a :meth:`snapshot` of self."""
        return SolverStats(backend=backend, **{
            name: getattr(self, name) - getattr(before, name)
            for name in self._COUNTERS})

    def snapshot(self) -> "SolverStats":
        """A copy to take a :meth:`since` delta against later."""
        return replace(self)

    @contextmanager
    def uncounted(self):
        """Leave the counters as they were before the block: the block's
        solves are compile-time state (e.g. a reference operating point),
        not the work of whatever task happened to trigger them."""
        before = self.snapshot()
        try:
            yield
        finally:
            for name in self._COUNTERS:
                setattr(self, name, getattr(before, name))

    def merge(self, other: "SolverStats") -> None:
        """Fold another record's counters in (``backend`` is kept)."""
        for name in self._COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, int | str]:
        record: dict[str, int | str] = {name: getattr(self, name)
                                        for name in self._COUNTERS}
        record["backend"] = self.backend
        return record


#: The solver counters of this process; measure a stretch of work as
#: ``stats.since(snapshot)``.
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


def _singular_hint(matrix, structure=None, limit: int = 3) -> str:
    """Describe all-zero rows (floating nodes) of a singular matrix."""
    if sp.issparse(matrix):
        row_abs_sum = np.asarray(abs(sp.csr_matrix(matrix)).sum(axis=1)).ravel()
    else:
        row_abs_sum = np.abs(matrix).sum(axis=1)
    bad = np.flatnonzero(row_abs_sum == 0.0)
    if bad.size == 0:
        return ""
    names = ", ".join(_row_names(bad[:limit], structure))
    suffix = ", ..." if bad.size > limit else ""
    return f" (all-zero matrix row for {names}{suffix} — floating node?)"


def _check_finite(solution: np.ndarray, matrix,
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
    """One LU factorization of a square matrix, reusable across solves.

    The matrix format picks the kernel: a dense array is factorized by
    LAPACK ``getrf``/``getrs``, a sparse matrix by SuperLU.  The analyses
    assemble a system dense exactly when :func:`dense_kernel` says so, so
    MNA systems of at most :data:`DENSE_MAX_SIZE` unknowns take LAPACK and
    larger ones SuperLU.  ``spd=True`` is the caller's promise that the
    matrix is symmetric positive definite and selects SuperLU with
    :func:`splu_spd`; every other sparse matrix keeps ``splu``'s default
    COLAMD ordering with partial pivoting.  ``solve`` accepts a single
    right-hand side vector or a dense ``(n, k)`` multi-RHS block, real or
    complex (a complex RHS against a real factorization is solved as two
    real solves).  Counts one factorization in :data:`stats`, and one solve
    per :meth:`solve` call, unless ``counted`` is false (the throwaway
    factorization of :meth:`~repro.simulator.linalg.LinearSolver.solve`).
    """

    def __init__(self, matrix, structure=None, spd: bool = False,
                 counted: bool = True):
        if matrix.shape[0] != matrix.shape[1]:
            raise SimulationError("MNA matrix must be square")
        size = matrix.shape[0]
        self.shape = matrix.shape
        self._structure = structure
        self._counted = counted
        #: the kernel the matrix format routed to: "lapack" or "superlu"
        self.kernel = ("lapack" if isinstance(matrix, np.ndarray) and not spd
                       else "superlu")
        if self.kernel == "lapack":
            self._matrix = matrix
        else:
            self._matrix = sp.csc_matrix(matrix)
        self._complex = np.iscomplexobj(self._matrix)
        self._lu = None
        if size:
            with trace_span("solver.factorize", kernel=self.kernel, n=size):
                if self.kernel == "lapack":
                    self._factorize_dense()
                else:
                    self._factorize_sparse(spd)
        if self._counted:
            stats.factorizations += 1

    def _factorize_dense(self) -> None:
        dtype = np.dtype(complex) if self._complex else np.dtype(float)
        getrf, self._getrs = _LAPACK_LU[dtype]
        lu, piv, info = getrf(self._matrix.astype(dtype, copy=False))
        # LAPACK reports an exactly zero pivot U[info-1, info-1] as info > 0.
        if info > 0:
            raise SimulationError(
                "dense LU factorization failed: matrix is exactly singular "
                f"(zero pivot in column {info})"
                + _singular_hint(self._matrix, self._structure))
        self._lu = (lu, piv)

    def _factorize_sparse(self, spd: bool) -> None:
        # splu signals an exactly singular matrix with a RuntimeError (no
        # warning machinery involved — the solver layer must stay free of
        # warnings-filter mutation, which is interpreter-global).
        try:
            self._lu = (splu_spd(self._matrix) if spd
                        else spla.splu(self._matrix))
        except RuntimeError as exc:
            raise SimulationError(
                f"sparse factorization failed: {exc}"
                + _singular_hint(self._matrix, self._structure)) from exc

    def _backsolve(self, rhs: np.ndarray) -> np.ndarray:
        """``A x = rhs`` for a RHS of the factorization's own dtype."""
        if self.kernel == "lapack":
            lu, piv = self._lu
            solution, _ = self._getrs(lu, piv, rhs)
            return solution
        return self._lu.solve(np.ascontiguousarray(rhs))

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
                solution = (self._backsolve(rhs.real.astype(float))
                            + 1j * self._backsolve(rhs.imag.astype(float)))
            else:
                solution = self._backsolve(
                    rhs.astype(complex if self._complex else float,
                               copy=False))
        if self._counted:
            stats.solves += 1
        return _check_finite(solution, self._matrix, self._structure)


class StackedFactorization:
    """LU factorizations of a stack of equally sized dense matrices.

    The ``(F, n, n)`` stack is ``F`` independent systems — one per swept
    frequency of a reduced transfer analysis.  :meth:`solve` factorizes and
    solves all of them in one batched LAPACK ``gesv`` call; it is meant to
    be called once, with every right-hand side as an ``(F, n, k)`` block.
    Counts ``F`` factorizations in :data:`stats` and ``F`` solves per
    :meth:`solve` call, as ``F`` separate :class:`Factorization` handles
    would.  An exactly singular system raises the same
    :class:`~repro.errors.SimulationError` as :class:`Factorization`.
    """

    kernel = "lapack"

    def __init__(self, matrices: np.ndarray, structure=None):
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise SimulationError(
                "a stacked factorization needs an (F, n, n) array, got shape "
                f"{matrices.shape}")
        self.shape = matrices.shape
        self._matrices = matrices
        self._structure = structure
        stats.factorizations += matrices.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve every system against its ``(n, k)`` block of ``rhs``."""
        rhs = np.asarray(rhs)
        if rhs.shape[:2] != self.shape[:2]:
            raise SimulationError(
                f"RHS stack of shape {rhs.shape} does not match the "
                f"systems {self.shape}")
        with trace_span("solver.solve", kernel=self.kernel,
                        n=self.shape[1], batch=self.shape[0]):
            solution = solve_stacked(self._matrices, rhs, self._structure)
        stats.solves += self.shape[0]
        return solution


def solve_stacked(matrices: np.ndarray, rhs: np.ndarray,
                  structure=None) -> np.ndarray:
    """Solve an ``(F, n, n)`` stack of dense systems against ``(F, n, k)``
    right-hand sides in one batched LAPACK ``gesv`` call (uncounted).

    An exactly singular system, or a non-finite solution, raises
    :class:`SimulationError` naming the first all-zero row found (by
    ``structure`` when given).
    """
    try:
        solution = np.linalg.solve(matrices, rhs)
    except np.linalg.LinAlgError:
        solution = None
    if solution is None or not np.all(np.isfinite(solution)):
        hint = next((hint for hint in (_singular_hint(matrix, structure)
                                       for matrix in matrices) if hint), "")
        raise SimulationError(
            "dense LU factorization failed: matrix is exactly singular"
            + hint)
    return solution


def add_gmin_diagonal(matrix, n_nodes: int, gmin: float):
    """Add ``gmin`` from every node to ground in one vectorized operation.

    Only the first ``n_nodes`` rows (the node equations) receive the shunt;
    branch-current rows are left untouched.  A dense array comes back as a
    new dense array; anything else comes back as CSR, and a matrix that is
    already CSR is not re-canonicalized.  The no-op path (``gmin <= 0`` or
    no nodes) returns the input as-is.
    """
    dense = isinstance(matrix, np.ndarray)
    base = matrix if dense or (sp.issparse(matrix)
                               and matrix.format == "csr") \
        else sp.csr_matrix(matrix)
    if gmin <= 0.0 or n_nodes <= 0:
        return base
    diagonal = np.zeros(matrix.shape[0])
    diagonal[:n_nodes] = gmin
    return base + (np.diag(diagonal) if dense
                   else sp.diags(diagonal, format="csr"))


class SharedPatternPair:
    """``G`` and ``C`` expanded onto one shared CSC sparsity pattern.

    :meth:`assemble` builds ``G + s*C`` for any complex frequency ``s`` by
    writing into the ``.data`` array of a single preallocated matrix — no
    sparse additions, conversions or structure allocations per frequency
    point, which is what makes many-point transfer sweeps of large systems
    cheap.
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

    def assemble(self, s: complex) -> sp.csc_matrix:
        """Return ``G + s*C`` on the shared pattern (in-place data update)."""
        np.multiply(self.c_data, s, out=self._matrix.data)
        self._matrix.data += self.g_data
        return self._matrix
