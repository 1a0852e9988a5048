"""Geometric multigrid on the structured substrate-mesh grid.

The substrate mesh of :mod:`repro.substrate.mesh` is a regular box grid with
node index ``(iz * ny + iy) * nx + ix`` — exactly the structure geometric
multigrid wants.  :class:`MultigridSolver` exploits it:

* **Transfer operators** — cell-centred linear interpolation, built as 1-D
  factors and combined with Kronecker products (``I_z (x) P_y (x) P_x``), so
  arbitrary (odd, non-power-of-two) lateral sizes coarsen cleanly.
  Restriction is the transpose (full weighting up to scaling), which keeps
  the hierarchy variational.
* **Galerkin coarse operators** — every coarse matrix is ``P^T A P`` in
  sparse form, so port contact stamps, guard-ring conductance patterns and
  the non-uniform vertical profile survive coarsening instead of being
  re-discretised away.
* **Smoother** — red-black (laterally coloured) z-line Gauss-Seidel: the
  mesh is strongly anisotropic in z (thin surface boxes give vertical
  couplings ~50x the lateral ones), and solving each vertical line exactly
  (batched Thomas algorithm, vectorized over lines *and* right-hand sides)
  is what point smoothers cannot do there.
* **Coarsening** is lateral-only (semicoarsening): z stays at mesh
  resolution — it is shallow (a handful of layers) and fully handled by the
  line smoother — while x and y halve per level until the system fits a
  direct coarsest-level LU.

V(2,1) cycles are applied **standalone** to a multi-RHS block — iterated on
the whole block at once, so the Kron reduction's port columns ride one set
of sparse products — and as a symmetric **CG preconditioner** to a single
vector.

Only the Kron reduction's mesh block takes this path: the caller must pass
``spd=True`` and the block's :class:`GridGeometry`.  Every other system is
factorized by direct LU, exactly as the direct backend does.  If the
hierarchy cannot be built, or the cycle/PCG iteration misses its residual
target within :data:`MAX_CYCLES`, the block falls back to a direct SPD
factorization — counted in ``stats.fallbacks`` and logged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ...errors import SimulationError
from ...obs import get_logger, trace_span
from ..solver import Factorization, _check_finite, splu_spd
from .backends import LinearSolver
from .options import BACKEND_MULTIGRID

logger = get_logger(__name__)

#: smoothing sweeps before / after the coarse-grid correction: V(2,1)
PRE_SMOOTH = 2
POST_SMOOTH = 1
#: stop coarsening once a level has at most this many nodes (direct LU)
COARSEST_SIZE = 800
#: cycle budget of one solve: standalone cycles, or PCG iterations
MAX_CYCLES = 60
#: relative residual target of every solve
RTOL = 1e-12
#: a cycle must shrink the residual by at least this factor to count as
#: converging; _STAGNATION_CYCLES consecutive misses abandon the iteration
_STAGNATION_FACTOR = 0.9
_STAGNATION_CYCLES = 3


@dataclass(frozen=True)
class GridGeometry:
    """Structured-grid shape behind a mesh matrix.

    Node ``(ix, iy, iz)`` maps to row ``(iz * ny + iy) * nx + ix`` — the
    ordering of :meth:`repro.substrate.mesh.SubstrateMesh.node_index`.
    """

    nx: int
    ny: int
    nz: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1 or self.nz < 1:
            raise SimulationError("grid dimensions must be >= 1")

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny * self.nz


def prolongation_1d(n: int) -> sp.csr_matrix:
    """Cell-centred linear interpolation from ``ceil(n/2)`` coarse cells.

    Fine cell ``i`` sits a quarter cell off its parent ``i // 2``, so the
    interior weights are 3/4 on the parent and 1/4 on the lateral neighbour;
    at the domain boundary the neighbour weight folds into the parent
    (constant extrapolation), which preserves the row sum of 1.
    """
    nc = (n + 1) // 2
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for i in range(n):
        parent = i // 2
        neighbour = parent - 1 if i % 2 == 0 else parent + 1
        if 0 <= neighbour < nc:
            rows += [i, i]
            cols += [parent, neighbour]
            vals += [0.75, 0.25]
        else:
            rows.append(i)
            cols.append(parent)
            vals.append(1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, nc))


class _Level:
    """One level of the hierarchy: operator, transfers, smoother data."""

    __slots__ = ("matrix", "nxl", "nyl", "nz", "prolongation", "restriction",
                 "colours", "lu")

    def __init__(self, matrix: sp.csr_matrix, nxl: int, nyl: int, nz: int):
        self.matrix = matrix
        self.nxl = nxl
        self.nyl = nyl
        self.nz = nz
        self.prolongation = None
        self.restriction = None
        self.colours = ()
        self.lu = None

    @property
    def n_lateral(self) -> int:
        return self.nxl * self.nyl

    # -- smoother preparation ------------------------------------------------

    def prepare_smoother(self) -> None:
        diag = self.matrix.diagonal()
        if np.any(diag <= 0.0):
            raise SimulationError(
                "multigrid level has a non-positive diagonal entry")
        nxy, nz = self.n_lateral, self.nz
        diag3 = diag.reshape(nz, nxy)
        if nz > 1:
            # diagonal(-nxy)[m] couples rows m+nxy and m: the (z+1, z) link
            # of lateral cell m % nxy — exactly the line sub-diagonals.
            sub = np.asarray(self.matrix.diagonal(-nxy)).reshape(nz - 1, nxy)
            sup = np.asarray(self.matrix.diagonal(nxy)).reshape(nz - 1, nxy)
        else:
            sub = np.zeros((0, nxy))
            sup = np.zeros((0, nxy))
        lateral = np.arange(nxy)
        parity = (lateral % self.nxl + lateral // self.nxl) % 2
        colours = []
        for colour in (0, 1):
            idx = np.flatnonzero(parity == colour)
            colours.append(_Colour(self.matrix, idx, nxy, nz,
                                   diag3, sub, sup))
        self.colours = tuple(colours)

    def to_single(self) -> None:
        """Demote this level's cycle operators to float32.

        A V-cycle is a preconditioner application: its ~1e-7 relative
        rounding is absorbed by the float64 outer iteration (classic
        mixed-precision iterative refinement — the outer residual is always
        computed against the float64 fine operator), while the memory-bound
        sparse kernels run ~2x faster on half-width data.  The coarsest
        direct LU stays float64; its RHS is cast around it.
        """
        if self.lu is not None:
            return
        self.matrix = self.matrix.astype(np.float32)
        self.prolongation = self.prolongation.astype(np.float32)
        self.restriction = self.restriction.astype(np.float32)
        for colour in self.colours:
            colour.to_single()

    # -- smoother sweeps -----------------------------------------------------

    def smooth(self, x: np.ndarray, b: np.ndarray,
               reverse: bool = False) -> None:
        """One in-place smoothing sweep (``reverse`` flips the colour order
        on post-smoothing so the cycle stays a symmetric operator)."""
        x3 = x.reshape(self.nz, self.n_lateral, -1)
        colours = reversed(self.colours) if reverse else self.colours
        for colour in colours:
            colour.update(x, x3, b)


class _Colour:
    """One colour of the red-black z-line smoother on one level.

    Holds the colour's lateral cells, the row slice of the level operator
    restricted to those cells (so each half-sweep computes only its own
    residual rows — half a matvec instead of a full one), and the no-pivot
    Thomas factors of the cells' vertical-line tridiagonals.  The line blocks
    are principal submatrices of an SPD matrix, hence SPD themselves: no
    pivoting needed, the eliminated diagonal stays positive.
    """

    __slots__ = ("idx", "rows", "offline", "sup", "lmult", "dprime", "nz")

    def __init__(self, matrix: sp.csr_matrix, idx: np.ndarray, nxy: int,
                 nz: int, diag3: np.ndarray, sub: np.ndarray,
                 sup: np.ndarray):
        self.idx = idx
        self.nz = nz
        # z-major row order matches the (nz, m, k) RHS reshape below
        self.rows = (np.arange(nz)[:, None] * nxy + idx[None, :]).ravel()
        # The operator restricted to this colour's rows, minus the in-line
        # entries the tridiagonals T_i already represent (same lateral cell,
        # |dz| <= 1): the exact line solve is x_i <- T_i^{-1} (b_i - B x) in
        # one short matvec, with no separate residual pass.
        offline = sp.coo_matrix(matrix[self.rows])
        row_lateral = self.rows[offline.row] % nxy
        row_z = self.rows[offline.row] // nxy
        in_line = ((offline.col % nxy == row_lateral)
                   & (np.abs(offline.col // nxy - row_z) <= 1))
        offline.data[in_line] = 0.0
        self.offline = offline.tocsr()
        self.offline.eliminate_zeros()
        self.sup = np.ascontiguousarray(sup[:, idx])
        sub_c = np.ascontiguousarray(sub[:, idx])
        self.dprime = np.ascontiguousarray(diag3[:, idx])
        self.lmult = np.zeros_like(sub_c)
        for z in range(1, nz):
            self.lmult[z - 1] = sub_c[z - 1] / self.dprime[z - 1]
            self.dprime[z] = self.dprime[z] \
                - self.lmult[z - 1] * self.sup[z - 1]
        if np.any(self.dprime <= 0.0):
            raise SimulationError(
                "multigrid z-line elimination lost positive definiteness")

    def to_single(self) -> None:
        self.offline = self.offline.astype(np.float32)
        self.sup = self.sup.astype(np.float32)
        self.lmult = self.lmult.astype(np.float32)
        self.dprime = self.dprime.astype(np.float32)

    def update(self, x: np.ndarray, x3: np.ndarray, b: np.ndarray) -> None:
        """Exact solve of this colour's vertical lines given the rest of the
        current iterate: ``x_i <- T_i^{-1} (b_i - B x)`` (batched Thomas over
        lines and RHS columns)."""
        nz = self.nz
        m = len(self.idx)
        rhs = (b[self.rows] - self.offline @ x).reshape(nz, m, -1)
        for z in range(1, nz):
            rhs[z] -= self.lmult[z - 1][:, None] * rhs[z - 1]
        rhs[nz - 1] /= self.dprime[nz - 1][:, None]
        for z in range(nz - 2, -1, -1):
            rhs[z] = (rhs[z] - self.sup[z][:, None] * rhs[z + 1]) \
                / self.dprime[z][:, None]
        x3[:, self.idx, :] = rhs


def build_hierarchy(matrix: sp.spmatrix, grid: GridGeometry,
                    coarsest_size: int = COARSEST_SIZE) -> list[_Level]:
    """Galerkin hierarchy of ``matrix`` along the lateral grid directions.

    Coarsening halves x and y per level (z is handled by the line smoother)
    until the system has at most ``coarsest_size`` nodes or a lateral
    direction drops below 4 cells; the last level holds a direct LU.
    """
    levels: list[_Level] = []
    current = sp.csr_matrix(matrix)
    current.sort_indices()
    nxl, nyl, nz = grid.nx, grid.ny, grid.nz
    while True:
        level = _Level(current, nxl, nyl, nz)
        n = current.shape[0]
        if n <= coarsest_size or min(nxl, nyl) < 4:
            try:
                # Galerkin coarse operators of an SPD matrix stay SPD.
                level.lu = splu_spd(sp.csc_matrix(current))
            except RuntimeError as exc:
                raise SimulationError(
                    f"multigrid coarsest-level factorization failed: {exc}")
            levels.append(level)
            return levels
        level.prepare_smoother()
        p_x = prolongation_1d(nxl)
        p_y = prolongation_1d(nyl)
        prolongation = sp.kron(
            sp.kron(sp.identity(nz, format="csr"), p_y), p_x).tocsr()
        level.prolongation = prolongation
        level.restriction = prolongation.T.tocsr()
        levels.append(level)
        current = (level.restriction @ current @ prolongation).tocsr()
        current.sort_indices()
        nxl = (nxl + 1) // 2
        nyl = (nyl + 1) // 2


class _MgFactorization:
    """A prepared multigrid hierarchy exposing the usual ``solve(rhs)``.

    ``residual_history`` records the relative residual after each standalone
    cycle of the most recent solve (worst column of a multi-RHS block), so
    callers — tests, benchmarks, the obs tracer — can see convergence, not
    just a final answer.
    """

    def __init__(self, solver: "MultigridSolver", levels: list[_Level],
                 csc: sp.csc_matrix, structure):
        self.shape = csc.shape
        self._solver = solver
        self._levels = levels
        self._csc = csc
        #: float64 fine operator for outer residuals (cycles run in float32)
        self._fine = sp.csr_matrix(csc)
        self._structure = structure
        self._fallback = None
        self.residual_history: list[float] = []

    # -- one cycle -----------------------------------------------------------

    def _cycle(self, level_index: int, b: np.ndarray) -> np.ndarray:
        """One V-cycle with zero initial guess; ``b`` is float32 ``(n, k)``
        (the coarsest float64 LU is cast around)."""
        level = self._levels[level_index]
        if level.lu is not None:
            return level.lu.solve(
                np.ascontiguousarray(b, dtype=np.float64)).astype(np.float32)
        x = np.zeros_like(b)
        for _ in range(PRE_SMOOTH):
            level.smooth(x, b)
        residual = b - level.matrix @ x
        x += level.prolongation @ self._cycle(level_index + 1,
                                              level.restriction @ residual)
        for _ in range(POST_SMOOTH):
            level.smooth(x, b, reverse=True)
        return x

    def _top_cycle(self, b: np.ndarray) -> np.ndarray:
        self._solver._bump("mg_cycles")
        return self._cycle(0, np.ascontiguousarray(b, dtype=np.float32))

    # -- solve strategies ----------------------------------------------------

    def _standalone(self, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
        """Iterate cycles on the whole block; returns (x, converged).

        Convergence is per-column relative residual, reported as the worst
        column; stagnation (three consecutive cycles shrinking the residual
        by less than 10%) abandons the iteration early.
        """
        matrix = self._fine
        norms = np.linalg.norm(rhs, axis=0)
        norms[norms == 0.0] = 1.0
        x = np.zeros_like(rhs)
        residual = rhs.copy()
        history: list[float] = []
        self.residual_history = history
        stagnant = 0
        for _ in range(MAX_CYCLES):
            x += self._top_cycle(residual)
            residual = rhs - matrix @ x
            relative = float(np.max(np.linalg.norm(residual, axis=0) / norms))
            if history and relative > _STAGNATION_FACTOR * history[-1]:
                stagnant += 1
            else:
                stagnant = 0
            history.append(relative)
            if relative <= RTOL:
                return x, True
            if stagnant >= _STAGNATION_CYCLES or not np.isfinite(relative):
                break
        return x, False

    def _pcg(self, rhs: np.ndarray) -> tuple[np.ndarray, bool]:
        """CG on one column with one V-cycle as the preconditioner, at most
        :data:`MAX_CYCLES` iterations; returns (x, converged)."""
        x = np.zeros_like(rhs)
        if not rhs.any():
            return x, True
        target = RTOL * np.linalg.norm(rhs)

        def precondition(vector: np.ndarray) -> np.ndarray:
            return self._top_cycle(vector[:, None]).ravel().astype(np.float64)

        residual = rhs.copy()
        z = precondition(residual)
        direction = z.copy()
        rz = residual @ z
        for iteration in range(1, MAX_CYCLES + 1):
            product = self._fine @ direction
            step = rz / (direction @ product)
            x += step * direction
            residual -= step * product
            norm = np.linalg.norm(residual)
            if norm <= target or not np.isfinite(norm) \
                    or iteration == MAX_CYCLES:
                break
            z = precondition(residual)
            rz, previous = residual @ z, rz
            direction = z + (rz / previous) * direction
        self._solver._bump("cg_iterations", iteration)
        return x, bool(norm <= target)

    def _solve_real_block(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs):
            return (self._solve_real_block(np.ascontiguousarray(rhs.real))
                    + 1j * self._solve_real_block(
                        np.ascontiguousarray(rhs.imag)))
        if self._fallback is not None:
            # An earlier solve already proved multigrid stagnant here.
            return self._fallback.solve(rhs)
        block = np.ascontiguousarray(
            rhs if rhs.ndim == 2 else rhs.reshape(-1, 1), dtype=float)
        columns = block.shape[1]
        if columns > 1:
            with trace_span("solver.mg_solve", mode="standalone",
                            columns=columns):
                x, converged = self._standalone(block)
            reason = "standalone cycles stagnated at " \
                f"{self.residual_history[-1]:.2e}"
        else:
            with trace_span("solver.mg_solve", mode="pcg", columns=columns):
                x, converged = self._pcg(block[:, 0])
            x = x[:, None]
            reason = f"PCG missed rtol {RTOL:.0e} in {MAX_CYCLES} iterations"
            if converged:
                self._solver._bump("cg_solves")
        if not converged:
            self._fallback = self._solver._fall_back(
                self._csc, self._structure, reason)
            return self._fallback.solve(rhs)
        self._solver._bump("mg_solves", columns)
        return x if rhs.ndim == 2 else x.ravel()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs)
        if rhs.shape[0] != self.shape[0]:
            raise SimulationError(
                f"RHS length {rhs.shape[0]} does not match matrix size "
                f"{self.shape[0]}")
        solution = self._solve_real_block(rhs)
        self._solver._bump("solves")
        return _check_finite(solution, self._csc, self._structure)


class MultigridSolver(LinearSolver):
    """Geometric multigrid for the Kron reduction's SPD mesh block.

    The multigrid path needs the caller's ``spd=True`` promise and the
    :class:`GridGeometry` the matrix was assembled on (``kron_reduce``
    passes both; a one-shot :meth:`solve` never makes that promise).  Every
    other system — MNA matrices of the DC, AC, transient and transfer
    analyses — gets the :class:`~repro.simulator.solver.Factorization`
    :class:`~repro.simulator.linalg.DirectLUSolver` builds, and is not a
    degradation.  The one fallback is multigrid -> direct SPD factorization,
    when the hierarchy set-up or the cycle/PCG iteration fails.
    """

    name = BACKEND_MULTIGRID

    def factorize(self, matrix: sp.spmatrix, structure=None, grid=None,
                  spd: bool = False):
        if not (spd and isinstance(grid, GridGeometry)
                and grid.n_nodes == matrix.shape[0]):
            return Factorization(matrix, structure=structure, spd=spd)
        csc = sp.csc_matrix(matrix)
        try:
            with trace_span("solver.mg_setup", nodes=csc.shape[0],
                            nx=grid.nx, ny=grid.ny, nz=grid.nz):
                levels = build_hierarchy(csc, grid)
                # Built in float64 (Galerkin products, Thomas positivity
                # checks), applied in float32 (see _Level.to_single).
                for level in levels:
                    level.to_single()
        except SimulationError as exc:
            return self._fall_back(csc, structure,
                                   f"hierarchy setup failed: {exc}")
        self._bump("factorizations")
        return _MgFactorization(self, levels, csc, structure)

    def _fall_back(self, csc: sp.csc_matrix, structure,
                   reason: str) -> Factorization:
        """The one degradation: a direct SPD factorization of the block."""
        self._bump("fallbacks")
        logger.warning(
            "solver degradation: backend=%s rung=%s reason=%s n=%d",
            self.name, "direct", reason, csc.shape[0])
        return Factorization(csc, structure=structure, spd=True)
