"""Pluggable linear-solver backend layer.

The strategy seam between "here is an assembled sparse system" and "here is
the solution": every analysis (DC, AC, transient, transfer functions, the
substrate Kron reduction) takes a ``solver=`` argument accepting a
:class:`SolverOptions` (declarative, travels through campaign configs and
cache keys) or a ready :class:`LinearSolver` instance (reused across
analyses).  Every backend counts its work into the one module-level
:data:`repro.simulator.solver.stats` record.

The one backend is :class:`DirectLUSolver`: direct LU whose kernel follows
the system size.  MNA systems of at most
:data:`~repro.simulator.solver.DENSE_MAX_SIZE` (90) unknowns are assembled
dense and factorized by LAPACK ``getrf``/``getrs``; larger ones stay sparse
for SuperLU with COLAMD ordering.  The cutoff is the measured crossover of
one complex factor + solve on a resistor grid (the table is in
:mod:`repro.simulator.solver`): LAPACK takes 21 us at 17 unknowns against
SuperLU's 59 us, and 187 us against 146 us at 101.  It is a module
constant, not an option.  The substrate Kron reduction of a structured mesh
does not come through this seam: it is reduced exactly by
:mod:`repro.substrate.spectral`, and only raw matrices and the meshes that
path does not cover reach :meth:`LinearSolver.factorize` with ``spd=True``
(SuperLU with a symmetric ordering at any size).
"""

from ..solver import SolverStats
from .backends import DirectLUSolver, LinearSolver
from .options import BACKEND_DIRECT, BACKENDS, SolverOptions

_BACKEND_CLASSES: dict[str, type[LinearSolver]] = {
    BACKEND_DIRECT: DirectLUSolver,
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
    "DirectLUSolver",
    "LinearSolver",
    "SolverOptions",
    "SolverStats",
    "make_solver",
    "resolve_solver",
]
