"""The linear solver every analysis factors and solves through.

Every analysis (DC, AC, transient, transfer functions, the direct path of
the substrate Kron reduction) takes a ``solver=`` argument: a
:class:`LinearSolver`, shared across analyses, or ``None`` for a fresh
default one.  :class:`SolverOptions` is its declarative configuration: it
travels from the campaign ``[solver]`` table through
:class:`~repro.core.flow.FlowOptions` and, as a plain frozen dataclass of
primitives, keys the extraction cache and the result sidecars.

The solver is direct LU whose kernel follows the system size.  MNA systems
of at most :data:`~repro.simulator.solver.DENSE_MAX_SIZE` (90) unknowns are
assembled dense and factorized by LAPACK ``getrf``/``getrs``; larger ones
stay sparse for SuperLU with COLAMD ordering.  The cutoff is the measured
crossover of one complex factor + solve on a resistor grid (the table is
in :mod:`repro.simulator.solver`): LAPACK takes 21 us at 17 unknowns
against SuperLU's 59 us, and 187 us against 146 us at 101.  It is a module
constant, not an option.  The substrate Kron reduction of a structured
mesh does not come through here: it is reduced exactly by
:mod:`repro.substrate.spectral`, and only raw matrices and the meshes that
path does not cover reach :meth:`LinearSolver.factorize` with ``spd=True``
(SuperLU with a symmetric ordering at any size).  All work is counted in
the one module-level :data:`repro.simulator.solver.stats` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..errors import SimulationError
from ..obs import trace_span
from .solver import Factorization, StackedFactorization, solve_stacked, stats

#: Direct LU (LAPACK or SuperLU by system size) — the one backend.
BACKEND_DIRECT = "direct"


@dataclass(frozen=True)
class SolverOptions:
    """Backend name and gmin override of the linear solver.

    The defaults reproduce the historical behaviour exactly: direct LU
    everywhere, analysis-supplied gmin.
    """

    #: the one backend, :data:`BACKEND_DIRECT`; anything else is an error
    backend: str = BACKEND_DIRECT
    #: overrides the per-analysis gmin regularisation when set (siemens)
    gmin: float | None = None

    def __post_init__(self) -> None:
        if self.backend != BACKEND_DIRECT:
            raise SimulationError(
                f"unknown solver backend {self.backend!r}; choose one of {BACKEND_DIRECT}"
            )
        if self.gmin is not None and not (math.isfinite(self.gmin) and self.gmin >= 0.0):
            raise SimulationError(f"solver gmin must be finite and >= 0, got {self.gmin!r}")

    def effective_gmin(self, analysis_default: float) -> float:
        """The gmin to use: this object's override, or the analysis default."""
        return analysis_default if self.gmin is None else self.gmin


class LinearSolver:
    """Direct LU of a square system: LAPACK for dense arrays, SuperLU for
    sparse matrices.  ``options`` carries the gmin override the analyses
    read through ``solver.options``."""

    def __init__(self, options: SolverOptions | None = None):
        self.options = options or SolverOptions()

    def factorize(
        self, matrix: sp.spmatrix | np.ndarray, structure=None, spd: bool = False
    ) -> Factorization | StackedFactorization:
        """Prepare ``matrix`` (sparse, or a dense array) for repeated
        solves; returns a handle with ``solve(rhs)`` accepting a vector or
        a dense ``(n, k)`` block.  A dense ``(F, n, n)`` stack is ``F``
        independent systems, solved together against an ``(F, n, k)``
        block (:class:`~repro.simulator.solver.StackedFactorization`).

        ``spd=True`` is the caller's promise that the matrix is symmetric
        positive definite (the Kron reduction's internal mesh block): it
        is then factorized with a symmetric fill-reducing ordering
        (:func:`~repro.simulator.solver.splu_spd`).
        """
        if isinstance(matrix, np.ndarray) and matrix.ndim == 3:
            return StackedFactorization(matrix, structure=structure)
        return Factorization(matrix, structure=structure, spd=spd)

    def solve(
        self, matrix: sp.spmatrix | np.ndarray, rhs: np.ndarray, structure=None
    ) -> np.ndarray:
        """One-shot solve of ``matrix @ x = rhs``.

        The matrix format picks the kernel as in :meth:`factorize`.  An
        exactly singular matrix raises :class:`SimulationError` naming the
        offending node when ``structure`` (an
        :class:`~repro.simulator.mna.MnaStructure`) is given, and a
        non-finite solution is caught as a backstop.  Counts one ``solve``
        and no ``factorization``, the historical one-shot semantics.

        ``rhs`` is one vector, or ``k`` right-hand sides as the rows of a
        ``(k, n)`` array.  Rows against one matrix share its LU (one
        ``solver.factorize`` span); each row is back-substituted on its
        own, so it is solved as it would be alone, and counts one solve.
        A dense ``(k, n, n)`` stack against ``(k, n)`` right-hand sides is
        ``k`` systems solved in one batched LAPACK ``gesv`` call (one
        ``solver.factorize`` span), each as it would be alone; it counts
        ``k`` solves.
        """
        rhs = np.asarray(rhs)
        if isinstance(matrix, np.ndarray) and matrix.ndim == 3:
            stats.solves += matrix.shape[0]
            if not matrix.shape[1]:
                return np.zeros(rhs.shape, dtype=rhs.dtype)
            with trace_span("solver.factorize", kernel="lapack",
                            n=matrix.shape[1]):
                return solve_stacked(matrix, rhs[..., None],
                                     structure)[..., 0]
        if matrix.shape[0] == matrix.shape[1] == 0:
            return np.zeros(rhs.shape, dtype=rhs.dtype)
        factorization = Factorization(matrix, structure=structure,
                                      counted=False)
        if rhs.ndim == 1:
            solution = factorization.solve(rhs)
        else:
            solution = np.array([factorization.solve(row) for row in rhs]
                                ).reshape(rhs.shape)
        stats.solves += 1 if rhs.ndim == 1 else len(rhs)
        return solution
