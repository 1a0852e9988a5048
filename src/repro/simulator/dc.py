"""DC operating-point analysis (Newton-Raphson with a continuation ladder).

The operating point is the starting point of every impact simulation: the
small-signal parameters of the MOSFETs (gm, gds, gmb) and the varactor
capacitances — and therefore the sensitivity of the circuit to substrate
noise — are evaluated at the DC solution.

The solver uses plain Newton-Raphson backed by a two-rung continuation
(homotopy) ladder, so exotic corners degrade gracefully instead of raising
:class:`~repro.errors.ConvergenceError` at the first stumble:

1. **plain Newton** from the caller's ``initial`` guess, or from zero
   without one — converges in one iteration for linear circuits and a
   handful for the paper's testbenches from zero (one or two from a nearby
   operating point);
2. **gmin stepping** — the solve is repeated with a large conductance from
   every node to ground (``gmin_start``), which makes the Jacobian strongly
   diagonally dominant, then the conductance is relaxed geometrically down
   to the target gmin, warm-starting each rung with the previous solution;
3. **source stepping** — the independent sources are ramped from zero in a
   few steps, using each converged solution as the next initial guess.

Both ladder rungs start from zero whatever the ``initial`` guess was, so a
guess only ever changes the plain-Newton attempt.

The strategy that finally converged is recorded on the
:class:`DcSolution` (``strategy``) and counted into
:data:`repro.simulator.solver.stats` (``dc_gmin_steps`` /
``dc_source_steps``), so campaign results can surface which corners only
converged via the ladder.

The linear part of the Jacobian comes from the circuit's
:class:`~repro.simulator.mna.LinearStamps` — compiled here, or passed in as
``linear=`` by a caller that solves one netlist at many bias corners.  Each
Newton solve adds the gmin shunt to it once (dense for small systems, see
:mod:`repro.simulator.solver`); an iteration adds only the nonlinear
companion stamps.  Those are scattered through an index pattern compiled
once per ``LinearStamps`` from the elements' own ``stamp_companion``
calls (:class:`~repro.simulator.mna.StampPattern`), so no iteration
rebuilds a stamper or looks up a node.  The nonlinear elements themselves
are read from the compiled stamps, not filtered out of the circuit.

The first plain-Newton iteration depends on the start vector ``x0`` and
the gmin only, apart from the source right-hand side: its Jacobian
``G + gmin + companion_G(x0)`` and companion right-hand side are compiled
on the ``LinearStamps`` as a :class:`~repro.simulator.mna.NewtonStart`
(one entry, keyed on the bytes of ``x0`` and the gmin).  A caller that
starts many corners from one reference point pays one back-substitution
for that iteration; LAPACK sees the same matrix and right-hand side as a
fresh solve, so the iterate is bit-identical, and it counts the same one
solve.  The ladder rungs never read it.  The whole analysis runs under
one ``sim.dc`` span carrying ``iterations`` and ``strategy``.

A :class:`DcSolution` builds its node-voltage map once and evaluates each
nonlinear device's operating point at most once, however often
:meth:`DcSolution.operating_point_of` is asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ConvergenceError, SimulationError
from ..netlist.circuit import Circuit
from ..netlist.devices import NonlinearElement
from ..obs import trace_span
from .linalg import LinearSolver
from .mna import (
    LinearStamps,
    MnaStructure,
    NewtonStart,
    SolutionView,
    source_rows,
)
from .solver import add_gmin_diagonal, stats


@dataclass
class DcSolution:
    """Result of a DC operating-point analysis."""

    circuit: Circuit
    structure: MnaStructure
    vector: np.ndarray
    iterations: int
    #: how the solve converged: "newton" (plain), "gmin-stepping" or
    #: "source-stepping" — anything but "newton" is a graceful degradation
    strategy: str = "newton"
    #: element name -> operating point, filled on first request
    _device_points: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)

    @cached_property
    def _voltage_map(self) -> dict[str, float]:
        return {name: float(self.vector[row])
                for name, row in self.structure.node_index.items()}

    def voltage(self, node: str) -> float:
        return float(SolutionView(self.structure, self.vector).voltage(node))

    def voltages(self) -> dict[str, float]:
        return dict(self._voltage_map)

    def branch_current(self, branch: str) -> float:
        return float(SolutionView(self.structure, self.vector).branch_current(branch))

    def operating_point_of(self, element_name: str):
        """Operating point of a nonlinear element (e.g. a MOSFET) at the DC
        solution, evaluated on the first request and reused after it."""
        point = self._device_points.get(element_name)
        if point is None:
            element = self.circuit[element_name]
            if not isinstance(element, NonlinearElement):
                raise ConvergenceError(
                    f"{element_name!r} is not a nonlinear element")
            point = element.operating_point(self._voltage_map)
            self._device_points[element_name] = point
        return point


@dataclass
class DcOptions:
    """Newton iteration controls."""

    max_iterations: int = 150
    abs_tolerance: float = 1e-9     #: volts
    rel_tolerance: float = 1e-6
    damping: float = 1.0            #: Newton step scaling (1.0 = full step)
    source_steps: int = 8           #: ramp steps used by the source-stepping fallback
    gmin: float = 1e-12             #: conductance added from every node to ground
    gmin_steps: int = 6             #: rungs of the gmin-stepping continuation ladder
    gmin_start: float = 1e-3        #: starting (heavily regularised) ladder gmin

    def __post_init__(self) -> None:
        for name in ("max_iterations", "source_steps"):
            if getattr(self, name) < 1:
                raise SimulationError(
                    f"DcOptions.{name} must be >= 1, got "
                    f"{getattr(self, name)!r}")
        if self.gmin_steps < 0:
            raise SimulationError(
                f"DcOptions.gmin_steps must be >= 0, got {self.gmin_steps!r}")
        if not (math.isfinite(self.damping) and 0.0 < self.damping <= 1.0):
            raise SimulationError(
                f"DcOptions.damping must be finite and in (0, 1], got "
                f"{self.damping!r}")
        for name in ("abs_tolerance", "rel_tolerance", "gmin", "gmin_start"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise SimulationError(
                    f"DcOptions.{name} must be finite and >= 0, got "
                    f"{value!r}")


def _source_rhs(circuit: Circuit, linear: LinearStamps,
                scale: float = 1.0) -> np.ndarray:
    """The RHS holding the (possibly scaled) DC values of the circuit's
    sources, on the rows of the compiled ones."""
    structure = linear.structure
    rhs = np.zeros(structure.size)
    for compiled in linear.sources:
        value = circuit[compiled.name].value.dc
        for row, sign in source_rows(structure, compiled):
            rhs[row] += sign * scale * value
    return rhs


def _newton_solve(circuit: Circuit, linear: LinearStamps,
                  jacobian, options: DcOptions,
                  initial: np.ndarray, source_scale: float,
                  solver: LinearSolver,
                  start: NewtonStart | None = None) -> tuple[np.ndarray, int]:
    """Newton iteration at a fixed source scaling; returns (solution, iterations).

    ``jacobian`` is the linear part of the Jacobian with the gmin shunt
    already added; each iteration adds only the companion stamps.  A
    ``start`` compiled for ``initial`` and this gmin takes the first
    iteration as one back-substitution.
    """
    structure = linear.structure
    x = initial.copy()
    n_nodes = structure.n_nodes
    source_rhs = _source_rhs(circuit, linear, scale=source_scale)

    for iteration in range(1, options.max_iterations + 1):
        if iteration == 1 and start is not None:
            x_new = start.step(source_rhs)
        else:
            voltages = {name: float(x[row])
                        for name, row in structure.node_index.items()}
            companion_g, companion_rhs = linear.companion_system(voltages)
            x_new = solver.solve(jacobian + companion_g,
                                 source_rhs + companion_rhs,
                                 structure=structure)
        delta = x_new - x
        x = x + options.damping * delta
        max_delta = float(np.max(np.abs(delta[:n_nodes]))) if n_nodes else 0.0
        max_value = float(np.max(np.abs(x[:n_nodes]))) if n_nodes else 0.0
        if max_delta <= options.abs_tolerance + options.rel_tolerance * max_value:
            return x, iteration
    raise ConvergenceError(
        f"DC Newton did not converge in {options.max_iterations} iterations "
        f"(last max voltage update {max_delta:.3e} V)")


def _gmin_ladder(start: float, target: float, steps: int) -> list[float]:
    """Decreasing intermediate gmin rungs from ``start`` down to ``target``.

    The returned rungs exclude the target itself (the final solve always
    runs at the analysis gmin, so a ladder-converged solution satisfies the
    exact same system as a plain-Newton one).  A non-positive target relaxes
    toward a tiny positive floor instead — the final unregularised solve
    still runs afterwards.
    """
    if steps < 1 or start <= 0.0:
        return []
    floor = target if target > 0.0 else 1e-15
    if start <= floor:
        return [start]
    return [float(g) for g in np.geomspace(start, floor, steps + 1)[:-1]]


def dc_operating_point(circuit: Circuit, options: DcOptions | None = None,
                       solver: LinearSolver | None = None,
                       linear: LinearStamps | None = None,
                       initial: np.ndarray | None = None) -> DcSolution:
    """Solve the DC operating point of ``circuit``.

    Linear circuits converge in a single iteration.  For nonlinear circuits,
    plain Newton is attempted first; on failure the continuation ladder runs
    gmin stepping (``options.gmin_steps`` rungs from ``options.gmin_start``
    down to the analysis gmin) and then source stepping
    (``options.source_steps`` ramp steps).  The winning strategy is recorded
    on the returned :class:`DcSolution` and the ladder rungs are counted
    into :data:`repro.simulator.solver.stats`.
    ``solver`` is the linear solver (a fresh default one without it); the
    system size picks its LU kernel.  ``linear`` is the circuit's compiled
    :class:`~repro.simulator.mna.LinearStamps`; without it the circuit is
    validated, indexed and stamped here.  Stamps compiled from a different
    circuit raise :class:`SimulationError`.  ``initial``
    is the MNA vector plain Newton starts from (zero without it); the
    ladder rungs always start from zero.
    """
    options = options or DcOptions()
    solver = solver or LinearSolver()
    linear = LinearStamps.resolve(circuit, linear)
    size = linear.structure.size
    if initial is not None and np.shape(initial) != (size,):
        raise SimulationError(
            f"initial guess has shape {np.shape(initial)}, the circuit "
            f"{circuit.name!r} has {size} unknowns")
    with trace_span("sim.dc", size=size) as span:
        solution = _operating_point(circuit, linear, options, solver,
                                    initial)
        if span is not None:
            span.set(iterations=solution.iterations,
                     strategy=solution.strategy)
    return solution


def _operating_point(circuit: Circuit, linear: LinearStamps,
                     options: DcOptions, solver: LinearSolver,
                     guess: np.ndarray | None) -> DcSolution:
    """Plain Newton from ``guess`` (or zero), then the gmin- and
    source-stepping rungs from zero."""
    structure = linear.structure
    linear_g = linear.conductance
    zero = np.zeros(structure.size)
    target_gmin = solver.options.effective_gmin(options.gmin)

    def newton(guess, scale, gmin, start=None):
        jacobian = add_gmin_diagonal(linear_g, structure.n_nodes, gmin)
        return _newton_solve(circuit, linear, jacobian, options, guess,
                             source_scale=scale, solver=solver, start=start)

    def solution(vector, iterations, strategy):
        return DcSolution(circuit=circuit, structure=structure,
                          vector=vector, iterations=iterations,
                          strategy=strategy)

    try:
        start = zero if guess is None else np.asarray(guess, dtype=float)
        return solution(*newton(start, 1.0, target_gmin,
                                linear.newton_start(start, target_gmin)),
                        "newton")
    except ConvergenceError:
        pass

    # Rung 1: gmin-stepping homotopy.  A large gmin makes the Jacobian
    # strongly diagonally dominant (every rung converges easily), and each
    # solution warm-starts the next, slightly less regularised, rung.  The
    # final solve runs at the true analysis gmin, so the returned operating
    # point solves the identical system a plain Newton solve would have.
    ladder = _gmin_ladder(options.gmin_start, target_gmin, options.gmin_steps)
    if ladder:
        try:
            vector = zero
            total_iterations = 0
            for rung_gmin in ladder:
                vector, iterations = newton(vector, 1.0, rung_gmin)
                total_iterations += iterations
                stats.dc_gmin_steps += 1
            vector, iterations = newton(vector, 1.0, target_gmin)
            return solution(vector, total_iterations + iterations,
                            "gmin-stepping")
        except ConvergenceError:
            pass

    # Rung 2: source-stepping homotopy — ramp the independent sources from
    # zero, warm-starting each step with the previous solution.
    try:
        vector = zero
        total_iterations = 0
        for step in range(1, options.source_steps + 1):
            scale = step / options.source_steps
            vector, iterations = newton(vector, scale, target_gmin)
            total_iterations += iterations
            stats.dc_source_steps += 1
        return solution(vector, total_iterations, "source-stepping")
    except ConvergenceError as exc:
        raise ConvergenceError(
            "DC operating point did not converge: plain Newton, "
            f"{len(ladder)}-rung gmin stepping and "
            f"{options.source_steps}-step source stepping all failed "
            f"(last failure: {exc})") from exc
