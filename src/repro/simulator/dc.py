"""DC operating-point analysis (Newton-Raphson with a continuation ladder).

The operating point is the starting point of every impact simulation: the
small-signal parameters of the MOSFETs (gm, gds, gmb) and the varactor
capacitances — and therefore the sensitivity of the circuit to substrate
noise — are evaluated at the DC solution.

The solver uses plain Newton-Raphson backed by a two-rung continuation
(homotopy) ladder, so exotic corners degrade gracefully instead of raising
:class:`~repro.errors.ConvergenceError` at the first stumble:

1. **plain Newton** from a zero initial guess — converges in one iteration
   for linear circuits and a handful for the paper's testbenches;
2. **gmin stepping** — the solve is repeated with a large conductance from
   every node to ground (``gmin_start``), which makes the Jacobian strongly
   diagonally dominant, then the conductance is relaxed geometrically down
   to the target gmin, warm-starting each rung with the previous solution;
3. **source stepping** — the independent sources are ramped from zero in a
   few steps, using each converged solution as the next initial guess.

The strategy that finally converged is recorded on the
:class:`DcSolution` (``strategy``) and counted into
:data:`repro.simulator.solver.stats` (``dc_gmin_steps`` /
``dc_source_steps``), so campaign results can surface which corners only
converged via the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..netlist.circuit import Circuit
from ..netlist.devices import NonlinearElement
from ..netlist.elements import CurrentSource, VoltageSource
from .linalg import LinearSolver, SolverOptions, resolve_solver
from .mna import MatrixStamper, MnaStructure, SolutionView, stamp_linear_elements
from .solver import gmin_diagonal


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

    def voltage(self, node: str) -> float:
        return float(SolutionView(self.structure, self.vector).voltage(node))

    def voltages(self) -> dict[str, float]:
        return {k: float(v)
                for k, v in SolutionView(self.structure, self.vector).voltages().items()}

    def branch_current(self, branch: str) -> float:
        return float(SolutionView(self.structure, self.vector).branch_current(branch))

    def operating_point_of(self, element_name: str):
        """Operating point of a nonlinear element (e.g. a MOSFET) at the DC solution."""
        element = self.circuit[element_name]
        if not isinstance(element, NonlinearElement):
            raise ConvergenceError(f"{element_name!r} is not a nonlinear element")
        return element.operating_point(self.voltages())


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


def _fill_source_rhs(stamper: MatrixStamper, circuit: Circuit,
                     scale: float = 1.0) -> None:
    """Overwrite the RHS with the (possibly scaled) DC source values."""
    stamper.rhs[:] = 0.0
    for element in circuit.sources():
        if isinstance(element, VoltageSource):
            row = stamper.structure.branch_row(element.name)
            stamper.rhs[row] = scale * element.value.dc
        elif isinstance(element, CurrentSource):
            value = scale * element.value.dc
            row_p = stamper.structure.node_row(element.node_p)
            row_n = stamper.structure.node_row(element.node_n)
            if row_p is not None:
                stamper.rhs[row_p] -= value
            if row_n is not None:
                stamper.rhs[row_n] += value


def _newton_solve(circuit: Circuit, structure: MnaStructure,
                  linear: MatrixStamper, options: DcOptions,
                  initial: np.ndarray, source_scale: float,
                  solver: LinearSolver,
                  gmin_diag) -> tuple[np.ndarray, int]:
    """Newton iteration at a fixed source scaling; returns (solution, iterations)."""
    x = initial.copy()
    nonlinear = circuit.nonlinear_elements()
    n_nodes = structure.n_nodes

    for iteration in range(1, options.max_iterations + 1):
        stamper = linear.copy()
        _fill_source_rhs(stamper, circuit, scale=source_scale)
        voltages = {name: float(x[row])
                    for name, row in structure.node_index.items()}
        for element in nonlinear:
            element.stamp_companion(stamper, voltages)
        # gmin from every node to ground keeps floating nodes solvable; the
        # diagonal is built once per analysis, so every iteration pays one
        # CSR addition instead of a format conversion.
        matrix = stamper.conductance_matrix()
        if gmin_diag is not None:
            matrix = matrix + gmin_diag
        x_new = solver.solve(matrix, stamper.rhs, structure=structure)
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
                       solver: SolverOptions | LinearSolver | None = None
                       ) -> DcSolution:
    """Solve the DC operating point of ``circuit``.

    Linear circuits converge in a single iteration.  For nonlinear circuits,
    plain Newton is attempted first; on failure the continuation ladder runs
    gmin stepping (``options.gmin_steps`` rungs from ``options.gmin_start``
    down to the analysis gmin) and then source stepping
    (``options.source_steps`` ramp steps).  The winning strategy is recorded
    on the returned :class:`DcSolution` and the ladder rungs are counted
    into :data:`repro.simulator.solver.stats`.
    ``solver`` selects the linear-solver backend (options or a shared
    instance); every backend factorizes the Newton systems by direct LU.
    """
    options = options or DcOptions()
    solver = resolve_solver(solver)
    circuit.validate()
    structure = MnaStructure.from_circuit(circuit)
    linear = stamp_linear_elements(circuit, structure)
    initial = np.zeros(structure.size)
    target_gmin = solver.options.effective_gmin(options.gmin)
    gmin_diag = gmin_diagonal(structure.size, structure.n_nodes, target_gmin)

    def newton(guess, scale, diag):
        return _newton_solve(circuit, structure, linear, options, guess,
                             source_scale=scale, solver=solver,
                             gmin_diag=diag)

    try:
        vector, iterations = newton(initial, 1.0, gmin_diag)
        return DcSolution(circuit=circuit, structure=structure,
                          vector=vector, iterations=iterations,
                          strategy="newton")
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
            vector = initial
            total_iterations = 0
            for rung_gmin in ladder:
                rung_diag = gmin_diagonal(structure.size, structure.n_nodes,
                                          rung_gmin)
                vector, iterations = newton(vector, 1.0, rung_diag)
                total_iterations += iterations
                solver._bump("dc_gmin_steps")
            vector, iterations = newton(vector, 1.0, gmin_diag)
            total_iterations += iterations
            return DcSolution(circuit=circuit, structure=structure,
                              vector=vector, iterations=total_iterations,
                              strategy="gmin-stepping")
        except ConvergenceError:
            pass

    # Rung 2: source-stepping homotopy — ramp the independent sources from
    # zero, warm-starting each step with the previous solution.
    try:
        vector = initial
        total_iterations = 0
        for step in range(1, options.source_steps + 1):
            scale = step / options.source_steps
            vector, iterations = newton(vector, scale, gmin_diag)
            total_iterations += iterations
            solver._bump("dc_source_steps")
        return DcSolution(circuit=circuit, structure=structure,
                          vector=vector, iterations=total_iterations,
                          strategy="source-stepping")
    except ConvergenceError as exc:
        raise ConvergenceError(
            "DC operating point did not converge: plain Newton, "
            f"{len(ladder)}-rung gmin stepping and "
            f"{options.source_steps}-step source stepping all failed "
            f"(last failure: {exc})") from exc
