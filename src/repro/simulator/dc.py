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

**A stack of corners is one solve.**  ``sources=`` maps source names to
per-corner DC values; every corner's source right-hand side is built
straight from :func:`~repro.simulator.mna.source_rows`, with no circuit
copy, and plain Newton runs on all corners at once.  Every corner starts
from the same iterate, so the first iteration is paid once per stack: one
device evaluation on Python floats, one companion scatter and one LU of
the Jacobian there, back-substituted against each corner's own right-hand
side on its own.  Every later iteration is one stacked device evaluation,
companion scatter and batched LAPACK solve.  The ladder rungs run the
same Newton.  A per-corner convergence mask freezes each corner at the
iteration it converged on, and every step of a corner reads only its own
iterate, so its result is bit-identical alone or in any stack.  A corner
that plain Newton misses leaves the stack and climbs the ladder on its
own.  The result is a :class:`DcCorners`; every corner's solves and
ladder rungs are attributed to it (``work``), as well as counted in
:data:`~repro.simulator.solver.stats`.  A call without ``sources`` is a
stack of one and returns its :class:`DcSolution`.  The whole analysis runs
under one ``sim.dc`` span carrying ``corners``, ``iterations`` and
``strategy``.

A :class:`DcSolution` builds its node-voltage map once and evaluates each
nonlinear device's operating point at most once, however often
:meth:`DcSolution.operating_point_of` is asked; a :class:`DcCorners` does
the same for the whole stack.
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
    SolutionView,
    source_rows,
)
from .solver import SolverStats, add_gmin_diagonal, stats


@dataclass
class DcSolution:
    """Result of a DC operating-point analysis.

    ``circuit`` is the circuit that was solved; for a corner of a
    :class:`DcCorners` it is the stack's circuit, whose own source values
    are not the corner's (its elements, read by
    :meth:`operating_point_of`, are).
    """

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


@dataclass(eq=False)
class DcCorners:
    """DC operating points of a stack of corners of one circuit.

    ``vectors`` is ``(corners, n)``; ``corner_iterations``, ``strategies``
    and ``work`` (each corner's solves and ladder rungs) hold one entry per
    corner.  Node voltages, branch currents and device operating points
    come as arrays along the corner axis, or as Python floats for a stack
    of one (:mod:`repro.devices.stack`).
    """

    circuit: Circuit
    structure: MnaStructure
    vectors: np.ndarray
    corner_iterations: tuple[int, ...]
    strategies: tuple[str, ...]
    work: tuple[SolverStats, ...]
    #: element name -> stacked operating point, filled on first request
    _device_points: dict = field(default_factory=dict, init=False,
                                 repr=False)

    @classmethod
    def of(cls, solution: DcSolution) -> "DcCorners":
        """The one-corner stack of ``solution``."""
        return cls(circuit=solution.circuit, structure=solution.structure,
                   vectors=solution.vector[None],
                   corner_iterations=(solution.iterations,),
                   strategies=(solution.strategy,), work=(SolverStats(),))

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def iterations(self) -> int:
        """Newton iterations summed over the corners."""
        return sum(self.corner_iterations)

    def corner(self, index: int) -> DcSolution:
        """The operating point of corner ``index``."""
        return DcSolution(circuit=self.circuit, structure=self.structure,
                          vector=self.vectors[index],
                          iterations=self.corner_iterations[index],
                          strategy=self.strategies[index])

    @cached_property
    def _voltage_map(self) -> dict:
        return _corner_voltages(self.structure, self.vectors)

    def voltages(self) -> dict:
        """Node voltages per corner (Python floats for a stack of one)."""
        return dict(self._voltage_map)

    def _column(self, row: int):
        if len(self) == 1:
            return float(self.vectors[0, row])
        return self.vectors[:, row].copy()

    def voltage(self, node: str):
        """A node's voltage per corner (a float for a stack of one)."""
        row = self.structure.node_row(node)
        return self._column(row) if row is not None else (
            0.0 if len(self) == 1 else np.zeros(len(self)))

    def branch_current(self, branch: str):
        """A branch current per corner (a float for a stack of one)."""
        return self._column(self.structure.branch_row(branch))

    def operating_point_of(self, element_name: str):
        """Stacked operating point of a nonlinear element, evaluated once."""
        point = self._device_points.get(element_name)
        if point is None:
            element = self.circuit[element_name]
            if not isinstance(element, NonlinearElement):
                raise ConvergenceError(
                    f"{element_name!r} is not a nonlinear element")
            point = element.operating_point(self._voltage_map)
            self._device_points[element_name] = point
        return point


def _corner_voltages(structure: MnaStructure, vectors: np.ndarray) -> dict:
    """The node voltages of a ``(corners, n)`` stack: a 1-D array per node,
    or Python floats for a stack of one.  The device equations give the
    same bits on either (:mod:`repro.devices.stack`); floats skip numpy's
    per-call cost where there is nothing to vectorise."""
    if len(vectors) == 1:
        return {name: float(vectors[0, row])
                for name, row in structure.node_index.items()}
    return {name: np.ascontiguousarray(vectors[:, row])
            for name, row in structure.node_index.items()}


def _source_values(circuit: Circuit, linear: LinearStamps,
                   sources) -> list[np.ndarray]:
    """Every compiled source's DC value per corner, in compiled order:
    ``sources[name]`` where given (one value per corner, or one for all),
    the circuit's own value otherwise.  Broadcast to one corner count."""
    overrides = dict(sources or {})
    names = {compiled.name for compiled in linear.sources}
    unknown = sorted(set(overrides) - names)
    if unknown:
        raise SimulationError(
            f"circuit {circuit.name!r} has no independent source named "
            f"{unknown[0]!r}")
    values = [np.atleast_1d(np.asarray(
        overrides.get(compiled.name, circuit[compiled.name].value.dc),
        dtype=float)) for compiled in linear.sources]
    if any(value.ndim != 1 for value in values):
        raise SimulationError("source values must be one number per corner")
    return np.broadcast_arrays(*values) if values else [np.zeros(1)]


def _source_rhs(linear: LinearStamps, values: list[np.ndarray],
                scale: float = 1.0) -> np.ndarray:
    """The ``(corners, n)`` right-hand sides holding the (possibly scaled)
    source ``values`` on the rows of the compiled sources."""
    structure = linear.structure
    rhs = np.zeros((len(values[0]), structure.size))
    for compiled, value in zip(linear.sources, values):
        for row, sign in source_rows(structure, compiled):
            rhs[:, row] += sign * scale * value
    return rhs


def _solve_stack(solver: LinearSolver, jacobian, companion_g,
                 rhs: np.ndarray, structure: MnaStructure) -> np.ndarray:
    """``(jacobian + companion_g[k]) x[k] = rhs[k]`` for every corner ``k``:
    one batched LAPACK solve when dense, one sparse solve per corner
    otherwise."""
    corners = len(rhs)
    if isinstance(jacobian, np.ndarray):
        systems = np.broadcast_to(jacobian + companion_g,
                                  (corners,) + jacobian.shape)
        return solver.solve(systems, rhs, structure=structure)
    if not isinstance(companion_g, list):
        companion_g = [companion_g] * corners
    return np.stack([solver.solve(jacobian + matrix, row, structure=structure)
                     for matrix, row in zip(companion_g, rhs)])


def _newton(linear: LinearStamps, jacobian, options: DcOptions,
            start: np.ndarray, source_rhs: np.ndarray,
            solver: LinearSolver):
    """Plain Newton on a stack of corners at a fixed source scaling.

    ``jacobian`` is the linear part of the Jacobian with the gmin shunt
    already added; each iteration adds only the companion stamps of the
    corners still iterating.  Every corner starts from the one MNA vector
    ``start``, so the first iteration is shared: the companion model is
    evaluated once, on floats, and one LU of the Jacobian there serves
    every corner's own source right-hand side, back-substituted on its own
    (:meth:`~repro.simulator.linalg.LinearSolver.solve` of a ``(corners,
    n)`` block).  Later iterations solve the corners' own Jacobians as one
    stack.  A corner leaves the stack on the iteration it converges on.
    Returns the ``(corners, n)`` iterates, every corner's iteration count
    (the solves it took), whether it converged and its last max voltage
    update.
    """
    structure = linear.structure
    n_nodes = structure.n_nodes
    corners = len(source_rhs)
    x = np.empty((corners, structure.size))
    iterations = np.full(corners, options.max_iterations)
    last_update = np.zeros(corners)
    converged = np.zeros(corners, dtype=bool)
    # The corners still iterating: their indices, iterates and sources.
    # Until the first step every corner shares the one start row.
    index = np.arange(corners)
    current, rhs = start[None], source_rhs
    for iteration in range(1, options.max_iterations + 1):
        companion_g, companion_rhs = linear.companion_system(
            _corner_voltages(structure, current))
        if iteration == 1:
            x_new = solver.solve(jacobian + companion_g, rhs + companion_rhs,
                                 structure=structure)
        else:
            x_new = _solve_stack(solver, jacobian, companion_g,
                                 rhs + companion_rhs, structure)
        delta = x_new - current
        current = current + options.damping * delta
        if n_nodes:
            max_delta = np.max(np.abs(delta[:, :n_nodes]), axis=1)
            max_value = np.max(np.abs(current[:, :n_nodes]), axis=1)
        else:
            max_delta = max_value = np.zeros(index.size)
        done = max_delta <= (options.abs_tolerance
                             + options.rel_tolerance * max_value)
        last_update[index] = max_delta
        if done.any():
            finished = index[done]
            x[finished] = current[done]
            iterations[finished] = iteration
            converged[finished] = True
            keep = ~done
            index, current, rhs = index[keep], current[keep], rhs[keep]
            if not index.size:
                break
    x[index] = current
    return x, iterations, converged, last_update


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
                       initial: np.ndarray | None = None,
                       sources=None) -> DcSolution | DcCorners:
    """Solve the DC operating point of ``circuit``, or of a stack of its
    source corners.

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

    ``sources`` maps independent-source names to their DC value per corner
    (1-D sequences of one length, or one number for every corner); the
    other sources keep the circuit's values.  Every corner is then solved
    in one stack (see the module docstring) and a :class:`DcCorners` is
    returned.
    """
    options = options or DcOptions()
    solver = solver or LinearSolver()
    linear = LinearStamps.resolve(circuit, linear)
    size = linear.structure.size
    if initial is not None and np.shape(initial) != (size,):
        raise SimulationError(
            f"initial guess has shape {np.shape(initial)}, the circuit "
            f"{circuit.name!r} has {size} unknowns")
    values = _source_values(circuit, linear, sources)
    with trace_span("sim.dc", size=size, corners=len(values[0])) as span:
        solutions = _operating_points(circuit, linear, options, solver,
                                      initial, values)
        if span is not None:
            span.set(iterations=solutions.iterations,
                     strategy=",".join(sorted(set(solutions.strategies))))
    return solutions if sources is not None else solutions.corner(0)


def _operating_points(circuit: Circuit, linear: LinearStamps,
                      options: DcOptions, solver: LinearSolver,
                      guess: np.ndarray | None,
                      values: list[np.ndarray]) -> DcCorners:
    """Plain Newton on the whole stack from ``guess`` (or zero), then the
    ladder, from zero, for each corner it missed."""
    structure = linear.structure
    corners = len(values[0])
    start = (np.zeros(structure.size) if guess is None
             else np.asarray(guess, dtype=float))
    target_gmin = solver.options.effective_gmin(options.gmin)
    jacobian = add_gmin_diagonal(linear.conductance, structure.n_nodes,
                                 target_gmin)
    vectors, iterations, converged, _ = _newton(
        linear, jacobian, options, start, _source_rhs(linear, values),
        solver)
    strategies = ["newton"] * corners
    work = [SolverStats(solves=int(count)) for count in iterations]
    for corner in np.flatnonzero(~converged):
        before = stats.snapshot()
        vector, count, strategies[corner] = _ladder(
            linear, options, solver, [value[corner:corner + 1]
                                      for value in values])
        vectors[corner], iterations[corner] = vector, count
        work[corner].merge(stats.since(before))
    return DcCorners(circuit=circuit, structure=structure, vectors=vectors,
                     corner_iterations=tuple(int(n) for n in iterations),
                     strategies=tuple(strategies), work=tuple(work))


def _ladder(linear: LinearStamps, options: DcOptions, solver: LinearSolver,
            values: list[np.ndarray]) -> tuple[np.ndarray, int, str]:
    """The gmin- and source-stepping rungs for one corner (its source
    ``values``), each from zero: (vector, iterations, strategy)."""
    structure = linear.structure
    zero = np.zeros(structure.size)
    target_gmin = solver.options.effective_gmin(options.gmin)

    def newton(guess, scale, gmin):
        jacobian = add_gmin_diagonal(linear.conductance, structure.n_nodes,
                                     gmin)
        x, iterations, converged, last_update = _newton(
            linear, jacobian, options, guess,
            _source_rhs(linear, values, scale), solver)
        if not converged[0]:
            raise ConvergenceError(
                f"DC Newton did not converge in {options.max_iterations} "
                f"iterations (last max voltage update "
                f"{last_update[0]:.3e} V)")
        return x[0], int(iterations[0])

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
            return vector, total_iterations + iterations, "gmin-stepping"
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
        return vector, total_iterations, "source-stepping"
    except ConvergenceError as exc:
        raise ConvergenceError(
            "DC operating point did not converge: plain Newton, "
            f"{len(ladder)}-rung gmin stepping and "
            f"{options.source_steps}-step source stepping all failed "
            f"(last failure: {exc})") from exc
