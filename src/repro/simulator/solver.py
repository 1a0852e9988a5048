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
* :class:`CornerSweepFactorization` — the small dense systems of a
  frequency sweep over a stack of bias corners (one corner without a base
  for a linear circuit).  Each corner is reached from one inverted base
  system per frequency by a low-rank update and one refinement step, with
  a residual check that sends a failing corner, like every corner without
  a base, to the direct solve: one batched LAPACK call that factorizes
  each system on its own.
* :class:`SharedPatternPair` — a large system's ``G`` and ``C`` on one
  shared CSC sparsity pattern, so a transfer sweep assembles ``G + s*C``
  per frequency by combining ``.data`` arrays in place, without
  reallocating.  Small systems never need it: their sweeps are one
  :class:`CornerSweep`.
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

    #: LU factorizations (LAPACK or SuperLU), and the spectral Kron's
    #: Cholesky
    factorizations: int = 0
    solves: int = 0             #: solve calls against a factorization
    #: spectral Kron reductions redone by sparse LU, and transfer corners
    #: that took the direct solve instead of the update from their base
    fallbacks: int = 0
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


#: A ``[G | C]`` entry whose value at a corner differs from its value at
#: the base by more than this share of it puts its row and column among
#: the corner's update rows; the refinement step takes up every other
#: entry.  Across the Fig-8 V_tune sweep the seven varactor entries of
#: ``C`` move by up to 63%, every other entry by at most 4.9e-10.
UPDATE_THRESHOLD = 1e-8
#: The largest normwise backward error an updated corner may keep at any
#: frequency; a corner above it takes the direct solve.  A LAPACK solve of
#: the VCO transfer systems leaves ~3e-17.
UPDATE_TOLERANCE = 1e-15


@dataclass(frozen=True, eq=False)
class SweepBase:
    """A corner stack's shared reference point on the systems of a
    :class:`CornerSweep`, inverted once (:meth:`invert`) and shared by
    every stack started from that point."""

    stamps: np.ndarray              #: (n, 2n) ``[G | C]`` at the point
    inverse: np.ndarray | None      #: (F, n, n), None when one is singular
    shared_norm: np.ndarray         #: (F,) infinity norms of ``shared``

    @classmethod
    def invert(cls, shared: np.ndarray, s: np.ndarray,
               stamps: np.ndarray) -> "SweepBase":
        """Invert the base systems ``shared[f] + G + s[f] * C`` of the
        ``(n, 2n)`` ``stamps`` ``[G | C]`` in one batched LAPACK call that
        counts no work (a ``solver.factorize`` span with ``base=True``)."""
        size = shared.shape[1]
        systems = (shared + stamps[:, :size]
                   + s[:, None, None] * stamps[:, size:])
        with trace_span("solver.factorize", kernel="lapack",
                        n=size, batch=shared.shape[0], base=True):
            try:
                inverse = np.linalg.inv(systems)
            except np.linalg.LinAlgError:
                inverse = None
        if inverse is not None and not np.all(np.isfinite(inverse)):
            inverse = None
        return cls(stamps=stamps, inverse=inverse,
                   shared_norm=np.abs(shared).sum(axis=-1).max(axis=-1))


@dataclass(frozen=True, eq=False)
class CornerSweep:
    """The dense systems of a frequency sweep at any corner of a stack.

    At a corner whose ``(n, 2n)`` stamps are ``[G | C]``, the system of
    frequency ``f`` is ``shared[f] + G + s[f] * C``.  ``base`` is the
    stack's inverted reference point, or ``None`` without one (a linear
    circuit's sweep is one such corner, with zero stamps).
    :meth:`LinearSolver.factorize
    <repro.simulator.linalg.LinearSolver.factorize>` takes it whole and
    returns a :class:`CornerSweepFactorization`.
    """

    shared: np.ndarray              #: (F, n, n) complex
    s: np.ndarray                   #: (F,) complex, j * omega
    base: SweepBase | None = None


class CornerSweepFactorization:
    """The systems of a :class:`CornerSweep`, solved for a stack of corners
    from one base factorization per frequency.

    The base systems ``B[f] = shared[f] + G0 + s[f] * C0`` (the base
    stamps ``[G0 | C0]``) are inverted by :meth:`SweepBase.invert`, once
    per reference point.  :meth:`solve` reaches each corner of a stack
    from them:

    * **update** — the rows and columns of the ``[G | C]`` entries that
      moved from the base by more than :data:`UPDATE_THRESHOLD` of their
      base value are the corner's update rows ``R``.  On them the corner
      differs from the base by ``D = dG_RR + s dC_RR``, so its system is
      solved exactly by the Sherman-Morrison-Woodbury identity:
      ``x = y - Z (I + D Z_RR)^-1 D y_R`` with ``y = B^-1 b`` and
      ``Z = B^-1[:, R]``, the base inverse's columns, an ``r x r`` system
      per corner and frequency;
    * **refinement** — one step against the true residual
      ``b - A x`` takes up the entries outside ``R``, which
      differ from the base in the last digits only;
    * **check** — a corner whose normwise backward error
      ``|b - A x| / (|A| |x| + |b|)`` (largest real or imaginary part,
      ``|A|`` bounded by its parts) exceeds :data:`UPDATE_TOLERANCE` at
      any frequency takes the direct solve instead and counts one
      ``fallbacks``.  This is the one fallback rule.

    Every product is one system's own: the base inverse is applied per
    (corner, frequency) vector and the corner stamps per corner, over the
    ``F`` frequency columns, and the ``r x r`` systems are eliminated
    elementwise.  A corner's update rows depend on its own stamps only, so
    its solution is bit-identical alone or in any stack (a multi-column
    ``getrs`` or ``(F, n, n) @ (F, n, k)`` product is not: its columns
    differ from single-column solves in the last bits).

    Without a base, or with a singular one, every corner takes the direct
    solve: its systems assembled and factorized each on its own, in one
    batched LAPACK ``gesv`` call.
    """

    kernel = "lapack"

    def __init__(self, sweep: CornerSweep, structure=None):
        self.sweep = sweep
        self.shape = sweep.shared.shape
        self._structure = structure

    def solve(self, rhs: np.ndarray, stamps: np.ndarray
              ) -> tuple[np.ndarray, tuple[SolverStats, ...]]:
        """Every corner's solutions against the ``(F, n, m)`` right-hand
        sides, for the corners' ``(corners, n, 2n)`` ``stamps``
        ``[G | C]``: ``(corners, F, n, m)``, and each corner's solver work.

        An updated corner counts ``F`` solves; a direct one ``F``
        factorizations and ``F`` solves, plus one ``fallbacks`` when it had
        a base to be updated from.  A direct solve that raises counts
        nothing.  Recorded as a ``solver.update`` span carrying the
        corners updated, the fallbacks and the first one's reason
        (``"no base"`` without a base).
        """
        sweep = self.sweep
        rhs = np.asarray(rhs, dtype=complex)
        points, size = self.shape[:2]
        if rhs.shape[:2] != (points, size):
            raise SimulationError(
                f"RHS stack of shape {rhs.shape} does not match the "
                f"systems {self.shape}")
        corners = len(stamps)
        solutions = np.empty((corners,) + rhs.shape, dtype=complex)
        reached = np.zeros(corners, dtype=bool)
        reasons: dict[int, str] = {}
        with trace_span("solver.update", kernel=self.kernel, n=size,
                        corners=corners, points=points) as span:
            base = sweep.base
            if base is not None and base.inverse is None:
                reasons = dict.fromkeys(range(corners), "singular base")
            elif base is not None:
                base_solution = (base.inverse @ rhs)[None]
                # |A| per corner and frequency, bounded by its parts.
                magnitudes = np.abs(stamps)
                norm = (base.shared_norm
                        + magnitudes[..., :size].sum(axis=-1).max(axis=-1
                                                                  )[:, None]
                        + np.abs(sweep.s)
                        * magnitudes[..., size:].sum(axis=-1).max(axis=-1
                                                                  )[:, None])
                rhs_part = _largest(rhs)
                for group, rows in self._update_sets(stamps):
                    x, residual = self._update(rows, rhs, base_solution,
                                               stamps[group])
                    with np.errstate(divide="ignore", invalid="ignore"):
                        error = _largest(residual) / (
                            norm[group] * _largest(x) + rhs_part)
                    # max() keeps a NaN, which then fails the check.
                    error = error.max(axis=1)
                    good = error <= UPDATE_TOLERANCE
                    solutions[group[good]] = x[good]
                    reached[group[good]] = True
                    for corner, value in zip(group[~good], error[~good]):
                        reasons[int(corner)] = (
                            f"backward error {value:.2e} > "
                            f"{UPDATE_TOLERANCE:.0e}")
            direct = np.flatnonzero(~reached)
            if direct.size:
                solutions[direct] = self._direct(stamps[direct], rhs)
            stats.factorizations += points * direct.size
            stats.solves += points * corners
            stats.fallbacks += len(reasons)
            if span is not None:
                first = min(reasons, default=None)
                span.set(updated=int(reached.sum()), fallbacks=len(reasons),
                         reason="no base" if base is None
                         else "" if first is None
                         else f"corner {first}: {reasons[first]}")
        work = tuple(
            SolverStats(solves=points) if reached[corner]
            else SolverStats(factorizations=points, solves=points,
                             fallbacks=int(corner in reasons))
            for corner in range(corners))
        return solutions, work

    def _update_sets(self, stamps: np.ndarray):
        """The corners grouped by update rows: ``(corners, rows)`` per
        group."""
        base = self.sweep.base.stamps
        size = self.shape[1]
        moved = np.abs(stamps - base) > UPDATE_THRESHOLD * np.abs(base)
        # A moved entry of G or C in row i and column j updates i and j.
        moved = moved[..., :size] | moved[..., size:]
        moved |= moved.transpose(0, 2, 1)
        rows = moved.any(axis=2)
        sets: dict[bytes, list[int]] = {}
        for corner, row in enumerate(rows):
            sets.setdefault(row.tobytes(), []).append(corner)
        for group in sets.values():
            yield np.array(group), np.flatnonzero(rows[group[0]])

    def _update(self, rows, rhs, base_solution, stamps):
        """The corners whose update rows are ``rows`` and whose ``[G | C]``
        are the ``(k, n, 2n)`` ``stamps``, solved by the update and one
        refinement step from the ``(1, F, n, m)`` base solutions ``y = B^-1
        rhs``: their ``(k, F, n, m)`` solutions and true residuals.

        ``D`` is applied as the corners' stamps are (:meth:`_stamped`),
        from ``[dG_RR | dC_RR]``.  The ``r x r`` systems and their
        right-hand sides are eliminated update index first, ``(r, r, k,
        F)`` and ``(r, k, F, m)``, so every elementwise step runs over all
        corners and frequencies at once.
        """
        base, size = self.sweep.base, self.shape[1]
        z = base.inverse[:, :, rows]                        # (F, n, r)
        # [dG_RR | dC_RR]: D v = dG_RR v + s dC_RR v.
        block = np.ix_(rows, np.concatenate([rows, rows + size]))
        step = stamps[:, block[0], block[1]] - base.stamps[block]
        # The factors of I + D Z_RR.
        system = np.moveaxis(self._stamped(step, z[None, :, rows]),
                             (2, 3), (0, 1))
        system += np.eye(rows.size)[:, :, None, None]
        lu = _unpivoted_lu(system)[..., None]

        def reduced(direction):
            # direction - Z beta, (I + D Z_RR) beta = D direction_R.
            projected = self._stamped(step, direction[:, :, rows])
            beta = _unpivoted_solve(lu, np.moveaxis(projected, 2, 0))
            return direction - z @ np.moveaxis(beta, 0, -2)

        x = np.broadcast_to(reduced(base_solution),
                            (len(stamps),) + rhs.shape)
        correction = base.inverse @ (rhs - self._product(x, stamps))
        x = x + reduced(correction)
        return x, rhs - self._product(x, stamps)

    def _product(self, x, stamps):
        """``A x`` of the ``(k, F, n, m)`` vectors of ``k`` corners whose
        ``[G | C]`` are the ``(k, n, 2n)`` ``stamps``: ``shared @ x`` per
        (corner, frequency) vector, plus :meth:`_stamped`."""
        return self.sweep.shared @ x + self._stamped(stamps, x)

    def _stamped(self, stamps, x):
        """``(G + s C) x`` of ``k`` corners whose ``[G | C]`` are the
        ``(k, p, 2q)`` ``stamps``, for their ``(k, F, q, m)`` vectors (or
        ``(1, F, q, m)`` shared ones): one product per corner of its
        stamps with the real and imaginary parts of ``[x; s x]`` at all its
        frequencies, ``(k, F, p, m)``."""
        corners, points, size, columns = x.shape
        both = np.empty((corners, 2 * size, points, columns), dtype=complex)
        both[:, :size] = np.moveaxis(x, 1, 2)
        np.multiply(self.sweep.s[:, None], both[:, :size], out=both[:, size:])
        stamped = (stamps @ both.reshape(
            corners, 2 * size, points * columns).view(float)).view(complex)
        return np.moveaxis(stamped.reshape(
            stamps.shape[:2] + (points, columns)), 1, 2)

    def _direct(self, stamps, rhs):
        """The direct solve of the corners whose ``[G | C]`` are the
        ``(k, n, 2n)`` ``stamps``: every system assembled and factorized on
        its own, all in one batched LAPACK ``gesv`` call (uncounted; a
        ``solver.solve`` span carrying the systems it ``factorizes``)."""
        sweep = self.sweep
        size = self.shape[1]
        matrices = sweep.shared[None] + stamps[:, None, :, :size]
        # Corner by corner: no (corners, F, n, n) temporary.
        for matrix, corner in zip(matrices, stamps):
            matrix += sweep.s[:, None, None] * corner[:, size:]
        count = len(matrices) * len(sweep.s)
        block = np.broadcast_to(rhs, (len(matrices),) + rhs.shape)
        with trace_span("solver.solve", kernel=self.kernel, n=size,
                        batch=count, factorizes=count):
            solution = solve_stacked(
                matrices.reshape(count, size, size),
                block.reshape((count,) + rhs.shape[1:]), self._structure)
        return solution.reshape(block.shape)


def _largest(x: np.ndarray) -> np.ndarray:
    """The largest real or imaginary part magnitude of each ``(n, m)``
    block of the ``(..., n, m)`` complex stack ``x``."""
    blocks = np.abs(np.ascontiguousarray(x).view(float)).reshape(
        -1, 2 * x.shape[-2] * x.shape[-1])
    # Reduced along the blocks, each entry in turn: cheaper than a
    # reduction per short row.
    return np.ascontiguousarray(blocks.T).max(axis=0).reshape(x.shape[:-2])


def _unpivoted_lu(matrices: np.ndarray) -> np.ndarray:
    """LU factors (unit lower part below the diagonal) of ``(r, r, ...)``
    matrices, eliminated without pivoting, elementwise over the trailing
    axes."""
    lu = matrices.copy()
    for j in range(lu.shape[0] - 1):
        lu[j + 1:, j] /= lu[j, j]
        lu[j + 1:, j + 1:] -= lu[j + 1:, j, None] * lu[j, None, j + 1:]
    return lu


def _unpivoted_solve(lu: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(r, ...)`` right-hand sides with :func:`_unpivoted_lu`
    factors, elementwise over the trailing axes."""
    x = rhs.copy()
    size = lu.shape[0]
    for j in range(size - 1):
        x[j + 1:] -= lu[j + 1:, j] * x[j]
    for j in reversed(range(size)):
        x[j] /= lu[j, j]
        x[:j] -= lu[:j, j] * x[j]
    return x


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
