"""The linear-solver seam and its direct-LU backend.

Every analysis in the simulator used to call ``splu``/``spsolve`` directly;
this module is the strategy seam that replaced those hard-wired calls.  A
:class:`LinearSolver` exposes the same two operations the analyses always
needed —

* :meth:`LinearSolver.factorize` — prepare a matrix for repeated solves,
  returning a handle with a ``solve(rhs)`` accepting vectors or multi-RHS
  blocks,
* :meth:`LinearSolver.solve` — a one-shot solve,

— plus per-instance :class:`~repro.simulator.solver.SolverStats` so parallel
workers (the per-frequency AC fan-out, process-pool campaigns) count into
their own instance and are aggregated afterwards with :meth:`LinearSolver.absorb`
instead of racing on the module-level global.

:class:`DirectLUSolver` is the SuperLU path and the default; SPD blocks
(``factorize(..., spd=True)``) get a symmetric minimum-degree ordering
instead of COLAMD.  The geometric-multigrid
:class:`~repro.simulator.linalg.MultigridSolver` lives in
:mod:`repro.simulator.linalg.multigrid`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..solver import (
    Factorization,
    SolverStats,
    solve_sparse,
    stats as global_stats,
)
from .options import BACKEND_DIRECT, SolverOptions


class LinearSolver:
    """Base class / protocol of the solver backends.

    Subclasses implement :meth:`factorize`; :meth:`solve` defaults to
    factorize-then-solve.  ``stats`` is per-instance; single-threaded solvers
    additionally mirror their counts into the module-level
    :data:`repro.simulator.solver.stats` so existing counter-based tests and
    benchmarks keep working, while :meth:`spawn`/:meth:`absorb` give fan-out
    workers isolated counters that are merged exactly once at the end.
    """

    name = "?"

    def __init__(self, options: SolverOptions | None = None, *,
                 mirror_global: bool = True):
        self.options = options or SolverOptions()
        self.stats = SolverStats(backend=self.name)
        self._mirror_global = mirror_global

    # -- counting ------------------------------------------------------------

    @property
    def _sinks(self) -> tuple[SolverStats, ...]:
        if self._mirror_global:
            return (self.stats, global_stats)
        return (self.stats,)

    def _bump(self, counter: str, amount: int = 1) -> None:
        for sink in self._sinks:
            setattr(sink, counter, getattr(sink, counter) + amount)

    # -- the seam ------------------------------------------------------------

    def factorize(self, matrix: sp.spmatrix, structure=None, grid=None,
                  spd: bool = False):
        """Prepare ``matrix`` for repeated solves; returns a handle with
        ``solve(rhs)`` accepting a vector or a dense ``(n, k)`` block.

        ``spd=True`` is the caller's promise that the matrix is symmetric
        positive definite (the Kron reduction's internal mesh block): the
        direct backend then uses a symmetric fill-reducing ordering
        (:func:`~repro.simulator.solver.splu_spd`).  ``grid`` optionally
        describes the structured mesh geometry behind such a block (a
        :class:`~repro.simulator.linalg.GridGeometry`); the multigrid backend
        coarsens along it, the direct backend ignores it.
        """
        raise NotImplementedError

    def solve(self, matrix: sp.spmatrix, rhs: np.ndarray,
              structure=None, grid=None) -> np.ndarray:
        """One-shot solve of ``matrix @ x = rhs``."""
        return self.factorize(matrix, structure=structure, grid=grid).solve(rhs)

    # -- fan-out -------------------------------------------------------------

    def spawn(self) -> "LinearSolver":
        """A worker clone: same options, isolated stats, no global mirror."""
        return type(self)(self.options, mirror_global=False)

    def absorb(self, worker: "LinearSolver") -> None:
        """Fold a :meth:`spawn`-ed worker's counters back into this solver."""
        self.absorb_stats(worker.stats)

    def absorb_stats(self, stats: SolverStats) -> None:
        """Fold a bare :class:`SolverStats` into this solver's counters.

        The process-level frequency fan-out sends counters home *by value*
        (a worker process's solver instance cannot travel back), so the
        absorption seam accepts the stats object itself; :meth:`absorb`
        is the thread-path convenience over it.
        """
        self.stats.merge(stats)
        if self._mirror_global:
            global_stats.merge(stats)


class DirectLUSolver(LinearSolver):
    """The reference backend: one SuperLU factorization per matrix."""

    name = BACKEND_DIRECT

    def factorize(self, matrix: sp.spmatrix, structure=None, grid=None,
                  spd: bool = False) -> Factorization:
        return Factorization(matrix, structure=structure, sinks=self._sinks,
                             spd=spd)

    def solve(self, matrix: sp.spmatrix, rhs: np.ndarray,
              structure=None, grid=None) -> np.ndarray:
        return solve_sparse(matrix, rhs, structure=structure,
                            sinks=self._sinks)
