"""The linear-solver seam and its direct-LU backend.

Every analysis in the simulator used to call ``splu``/``spsolve`` directly;
this module is the strategy seam that replaced those hard-wired calls.  A
:class:`LinearSolver` exposes the same two operations the analyses always
needed —

* :meth:`LinearSolver.factorize` — prepare a matrix for repeated solves,
  returning a handle with a ``solve(rhs)`` accepting vectors or multi-RHS
  blocks,
* :meth:`LinearSolver.solve` — a one-shot solve,

— and counts that work into the one process-wide record,
:data:`repro.simulator.solver.stats`.

:class:`DirectLUSolver` is the one backend.  A dense array (an MNA system
of at most :data:`~repro.simulator.solver.DENSE_MAX_SIZE` unknowns, which
the analyses assemble dense) is factorized by LAPACK; a sparse matrix by
SuperLU, where SPD blocks (``factorize(..., spd=True)``) get a symmetric
minimum-degree ordering instead of COLAMD.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..solver import Factorization, StackedFactorization, solve_sparse, stats
from .options import BACKEND_DIRECT, SolverOptions


class LinearSolver:
    """Base class / protocol of the solver backends.

    Subclasses implement :meth:`factorize`; :meth:`solve` defaults to
    factorize-then-solve.  Every count goes to the module-level
    :data:`repro.simulator.solver.stats`.
    """

    name = "?"

    def __init__(self, options: SolverOptions | None = None):
        self.options = options or SolverOptions()

    def _bump(self, counter: str, amount: int = 1) -> None:
        setattr(stats, counter, getattr(stats, counter) + amount)

    # -- the seam ------------------------------------------------------------

    def factorize(self, matrix: sp.spmatrix | np.ndarray, structure=None,
                  spd: bool = False):
        """Prepare ``matrix`` (sparse, or a dense array) for repeated
        solves; returns a handle with ``solve(rhs)`` accepting a vector or
        a dense ``(n, k)`` block.  A dense ``(F, n, n)`` stack is ``F``
        independent systems, solved together against an ``(F, n, k)``
        block (:class:`~repro.simulator.solver.StackedFactorization`).

        ``spd=True`` is the caller's promise that the matrix is symmetric
        positive definite (the Kron reduction's internal mesh block): the
        direct backend then uses a symmetric fill-reducing ordering
        (:func:`~repro.simulator.solver.splu_spd`).
        """
        raise NotImplementedError

    def solve(self, matrix: sp.spmatrix | np.ndarray, rhs: np.ndarray,
              structure=None) -> np.ndarray:
        """One-shot solve of ``matrix @ x = rhs``."""
        return self.factorize(matrix, structure=structure).solve(rhs)


class DirectLUSolver(LinearSolver):
    """The reference backend: one LU factorization per matrix (LAPACK for
    dense arrays, SuperLU for sparse matrices)."""

    name = BACKEND_DIRECT

    def factorize(
        self, matrix: sp.spmatrix | np.ndarray, structure=None, spd: bool = False
    ) -> Factorization | StackedFactorization:
        if isinstance(matrix, np.ndarray) and matrix.ndim == 3:
            return StackedFactorization(matrix, structure=structure)
        return Factorization(matrix, structure=structure, spd=spd)

    def solve(self, matrix: sp.spmatrix | np.ndarray, rhs: np.ndarray,
              structure=None) -> np.ndarray:
        return solve_sparse(matrix, rhs, structure=structure)
