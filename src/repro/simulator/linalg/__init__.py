"""Pluggable linear-solver backend layer.

The strategy seam between "here is an assembled sparse system" and "here is
the solution": every analysis (DC, AC, transient, transfer functions, the
substrate Kron reduction) takes a ``solver=`` argument accepting a
:class:`SolverOptions` (declarative, travels through campaign configs and
cache keys) or a ready :class:`LinearSolver` instance (reused across
analyses).  Every backend counts its work into the one module-level
:data:`repro.simulator.solver.stats` record.

Backends: :class:`DirectLUSolver` (SuperLU, the reference and default) and
:class:`MultigridSolver` (geometric multigrid on the Kron reduction's
structured mesh block, falling back to a direct SPD factorization if it
fails; every other system is solved by direct LU).
"""

from ..solver import SolverStats
from .backends import DirectLUSolver, LinearSolver
from .multigrid import GridGeometry, MultigridSolver
from .options import (
    BACKEND_DIRECT,
    BACKEND_MULTIGRID,
    BACKENDS,
    SolverOptions,
)

_BACKEND_CLASSES: dict[str, type[LinearSolver]] = {
    BACKEND_DIRECT: DirectLUSolver,
    BACKEND_MULTIGRID: MultigridSolver,
}


def make_solver(options: SolverOptions | None = None) -> LinearSolver:
    """Instantiate the backend selected by ``options.backend``."""
    options = options or SolverOptions()
    return _BACKEND_CLASSES[options.backend](options)


def resolve_solver(solver: "SolverOptions | LinearSolver | None"
                   ) -> LinearSolver:
    """Normalise the ``solver=`` argument every analysis accepts.

    ``None`` means the historical direct-LU behaviour; a
    :class:`SolverOptions` builds a fresh backend; an existing
    :class:`LinearSolver` instance is passed through so callers (e.g.
    :class:`~repro.core.vco_experiment.VcoImpactAnalysis`) can share one
    solver across many analyses.
    """
    if solver is None:
        return DirectLUSolver()
    if isinstance(solver, SolverOptions):
        return make_solver(solver)
    return solver


__all__ = [
    "BACKENDS",
    "BACKEND_DIRECT",
    "BACKEND_MULTIGRID",
    "DirectLUSolver",
    "GridGeometry",
    "LinearSolver",
    "MultigridSolver",
    "SolverOptions",
    "SolverStats",
    "make_solver",
    "resolve_solver",
]
