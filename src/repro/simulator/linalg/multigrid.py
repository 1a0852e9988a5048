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
* **Smoothers** — red-black (laterally coloured) z-line Gauss-Seidel by
  default: the mesh is strongly anisotropic in z (thin surface boxes give
  vertical couplings ~50x the lateral ones), and solving each vertical line
  exactly (batched Thomas algorithm, vectorized over lines *and* right-hand
  sides) is what point smoothers cannot do there.  Weighted point Jacobi is
  available as the cheaper alternative (``mg_smoother = "jacobi"``).
* **Coarsening** is lateral-only (semicoarsening): z stays at mesh
  resolution — it is shallow (a handful of layers) and fully handled by the
  line smoother — while x and y halve per level until the system fits a
  direct coarsest-level LU.

Cycles are applied either **standalone** — iterated on the whole multi-RHS
block at once, so the Kron reduction's port columns ride one set of sparse
products — or as a symmetric **CG preconditioner** per column; ``mg_mode``
picks ("auto": blocks standalone, single vectors through CG).

Robustness is a ladder, not a hope: systems without grid geometry degrade to
the CG/ILU backend, non-SPD systems continue down its existing
reuse-LU/direct ladder, and a standalone iteration that stagnates falls back
to MG-preconditioned CG and then to LU — every rung counted in
:class:`~repro.simulator.solver.SolverStats` and logged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ...errors import SimulationError
from ...obs import get_logger, trace_span
from ..solver import _check_finite, splu_spd
from .backends import (
    _CG_RTOL_KEYWORD,
    IterativeSolver,
    _canonical_csc,
    register_backend,
)
from .options import BACKEND_MULTIGRID

logger = get_logger(__name__)

#: damping of the weighted-Jacobi smoother (a robust choice for 3-D stencils)
_JACOBI_WEIGHT = 0.7
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
                 "diag", "colours", "lu")

    def __init__(self, matrix: sp.csr_matrix, nxl: int, nyl: int, nz: int):
        self.matrix = matrix
        self.nxl = nxl
        self.nyl = nyl
        self.nz = nz
        self.prolongation = None
        self.restriction = None
        self.lu = None

    @property
    def n_lateral(self) -> int:
        return self.nxl * self.nyl

    # -- smoother preparation ------------------------------------------------

    def prepare_smoother(self, smoother: str) -> None:
        diag = self.matrix.diagonal()
        if np.any(diag <= 0.0):
            raise SimulationError(
                "multigrid level has a non-positive diagonal entry")
        self.diag = diag
        self.colours = ()
        if smoother != "rbgs":
            return
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
        self.diag = self.diag.astype(np.float32)
        for colour in self.colours:
            colour.to_single()

    # -- smoother sweeps -----------------------------------------------------

    def smooth(self, x: np.ndarray, b: np.ndarray, smoother: str,
               reverse: bool = False) -> None:
        """One in-place smoothing sweep (``reverse`` flips the colour order
        on post-smoothing so the cycle stays a symmetric operator)."""
        if smoother == "jacobi":
            residual = b - self.matrix @ x
            residual /= self.diag[:, None]
            residual *= _JACOBI_WEIGHT
            x += residual
            return
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
                    coarsest_size: int, smoother: str) -> list[_Level]:
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
        level.prepare_smoother(smoother)
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

    def level_sizes(self) -> list[int]:
        return [level.matrix.shape[0] for level in self._levels]

    # -- one cycle -----------------------------------------------------------

    def _cycle(self, level_index: int, b: np.ndarray) -> np.ndarray:
        """One V/W-cycle with zero initial guess; ``b`` is float32 ``(n, k)``
        (the coarsest float64 LU is cast around)."""
        level = self._levels[level_index]
        if level.lu is not None:
            return level.lu.solve(
                np.ascontiguousarray(b, dtype=np.float64)).astype(np.float32)
        options = self._solver.options
        x = np.zeros_like(b)
        for _ in range(options.mg_pre_smooth):
            level.smooth(x, b, options.mg_smoother)
        residual = b - level.matrix @ x
        coarse_rhs = level.restriction @ residual
        coarse = self._cycle(level_index + 1, coarse_rhs)
        if (options.mg_cycle == "w"
                and self._levels[level_index + 1].lu is None):
            coarse_residual = coarse_rhs \
                - self._levels[level_index + 1].matrix @ coarse
            coarse = coarse + self._cycle(level_index + 1, coarse_residual)
        x += level.prolongation @ coarse
        for _ in range(options.mg_post_smooth):
            level.smooth(x, b, options.mg_smoother, reverse=True)
        return x

    def _top_cycle(self, b: np.ndarray) -> np.ndarray:
        self._solver._bump("mg_cycles")
        return self._cycle(0, np.ascontiguousarray(b, dtype=np.float32))

    # -- solve strategies ----------------------------------------------------

    def _standalone(self, rhs: np.ndarray):
        """Iterate cycles on the whole block; returns (x, converged, history).

        Convergence is per-column relative residual, reported as the worst
        column; stagnation (three consecutive cycles shrinking the residual
        by less than 10%) abandons the iteration for the CG fallback.
        """
        options = self._solver.options
        matrix = self._fine
        norms = np.linalg.norm(rhs, axis=0)
        norms[norms == 0.0] = 1.0
        x = np.zeros_like(rhs)
        residual = rhs.copy()
        history: list[float] = []
        stagnant = 0
        for _ in range(options.mg_max_cycles):
            x += self._top_cycle(residual)
            residual = rhs - matrix @ x
            relative = float(np.max(np.linalg.norm(residual, axis=0) / norms))
            if history and relative > _STAGNATION_FACTOR * history[-1]:
                stagnant += 1
            else:
                stagnant = 0
            history.append(relative)
            if relative <= options.mg_rtol:
                return x, True, history
            if stagnant >= _STAGNATION_CYCLES or not np.isfinite(relative):
                break
        return x, False, history

    def _pcg_column(self, rhs: np.ndarray, x0: np.ndarray | None):
        """CG on one column with one V-cycle as the preconditioner."""
        options = self._solver.options

        def apply_cycle(vector: np.ndarray) -> np.ndarray:
            column = np.asarray(vector, dtype=float).reshape(-1, 1)
            return self._top_cycle(column).ravel().astype(np.float64)

        preconditioner = spla.LinearOperator(self.shape, matvec=apply_cycle,
                                             dtype=float)
        iterations = 0

        def count(_x):
            nonlocal iterations
            iterations += 1

        tolerances = {_CG_RTOL_KEYWORD: options.mg_rtol,
                      "atol": options.cg_atol}
        solution, info = spla.cg(self._fine, rhs, x0=x0,
                                 maxiter=options.cg_max_iterations
                                 or self.shape[0],
                                 M=preconditioner, callback=count,
                                 **tolerances)
        self._solver._bump("cg_iterations", iterations)
        return solution, info

    def _fallback_lu(self):
        """The ladder below multigrid: reuse-LU, then plain direct."""
        if self._fallback is None:
            self._fallback = self._solver._degraded_factorize(
                self._csc, self._structure,
                reason="multigrid did not converge")
        return self._fallback

    def _solve_real_block(self, rhs: np.ndarray) -> np.ndarray:
        if np.iscomplexobj(rhs):
            return (self._solve_real_block(np.ascontiguousarray(rhs.real))
                    + 1j * self._solve_real_block(
                        np.ascontiguousarray(rhs.imag)))
        if self._fallback is not None:
            # An earlier solve already proved multigrid stagnant here.
            return self._fallback.solve(rhs)
        options = self._solver.options
        block = np.ascontiguousarray(
            rhs if rhs.ndim == 2 else rhs.reshape(-1, 1), dtype=float)
        mode = options.mg_mode
        if mode == "auto":
            mode = "standalone" if block.shape[1] > 1 else "pcg"
        if mode == "standalone":
            with trace_span("solver.mg_solve", mode="standalone",
                            columns=block.shape[1]):
                x, converged, history = self._standalone(block)
            self.residual_history = history
            self._solver.last_residual_history = history
            if converged:
                self._solver._bump("mg_solves", block.shape[1])
                return x if rhs.ndim == 2 else x.ravel()
            logger.info(
                "solver degradation: backend=%s rung=%s reason=%s n=%d",
                self._solver.name, "mg-pcg",
                f"standalone cycles stagnated at {history[-1]:.2e}",
                self.shape[0])
            self._solver._bump("fallbacks")
        # CG per column, one V-cycle as preconditioner.
        columns = []
        with trace_span("solver.mg_solve", mode="pcg",
                        columns=block.shape[1]):
            for k in range(block.shape[1]):
                column = np.ascontiguousarray(block[:, k])
                solution, info = self._pcg_column(column, None)
                if info != 0:
                    return self._fallback_lu().solve(rhs)
                self._solver._bump("mg_solves")
                self._solver._bump("cg_solves")
                columns.append(solution)
        x = np.column_stack(columns)
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


class MultigridSolver(IterativeSolver):
    """Geometric multigrid for grid-structured SPD systems.

    The fast path needs two things: the matrix must pass the SPD screen and
    the caller must supply the :class:`GridGeometry` it was assembled on
    (the mesh/reduction layer threads it through automatically).  Everything
    else steps down an explicit, stats-recorded ladder::

        multigrid  ->  CG/ILU  ->  reuse-LU  ->  direct LU

    SPD systems without grid geometry take the CG/ILU rung (counted in
    ``stats.fallbacks``); non-SPD systems continue down the iterative
    backend's existing ladder.  A standalone cycle iteration that stagnates
    retries as MG-preconditioned CG before degrading to LU.
    """

    name = BACKEND_MULTIGRID

    def __init__(self, options=None, *, mirror_global: bool = True):
        super().__init__(options, mirror_global=mirror_global)
        #: relative-residual trajectory of the most recent standalone solve
        self.last_residual_history: list[float] = []

    def factorize(self, matrix: sp.spmatrix, structure=None, grid=None,
                  spd: bool = False):
        if matrix.shape[0] != matrix.shape[1]:
            raise SimulationError("MNA matrix must be square")
        if matrix.shape[0] == 0:
            return super().factorize(matrix, structure=structure)
        csc = _canonical_csc(matrix)
        grid_ok = (isinstance(grid, GridGeometry)
                   and grid.n_nodes == csc.shape[0])
        if not grid_ok or not self._spd_candidate(csc):
            if not grid_ok and self._spd_candidate(csc):
                # SPD but gridless: the CG/ILU rung will solve it — record
                # the degradation (non-SPD systems are counted by the
                # iterative backend's own ladder instead).
                if not self.options.iterative_fallback:
                    raise SimulationError(
                        "no grid geometry supplied for the multigrid backend "
                        "and iterative_fallback is disabled")
                self._bump("fallbacks")
                logger.info(
                    "solver degradation: backend=%s rung=%s reason=%s n=%d",
                    self.name, "iterative", "no grid geometry supplied",
                    csc.shape[0])
            return super().factorize(csc, structure=structure)
        options = self.options
        try:
            with trace_span("solver.mg_setup", nodes=csc.shape[0],
                            nx=grid.nx, ny=grid.ny, nz=grid.nz):
                levels = build_hierarchy(csc, grid, options.mg_coarsest_size,
                                         options.mg_smoother)
                # Built in float64 (Galerkin products, Thomas positivity
                # checks), applied in float32 (see _Level.to_single).
                for level in levels:
                    level.to_single()
        except SimulationError as exc:
            # Hierarchy construction itself failed (e.g. a pathological
            # operator): one rung down to CG/ILU.
            self._bump("fallbacks")
            logger.warning(
                "solver degradation: backend=%s rung=%s reason=%s n=%d",
                self.name, "iterative", f"hierarchy setup failed: {exc}",
                csc.shape[0])
            return super().factorize(csc, structure=structure)
        self._bump("factorizations")
        return _MgFactorization(self, levels, csc, structure)


register_backend(BACKEND_MULTIGRID, MultigridSolver)
