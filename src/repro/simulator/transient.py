"""Transient analysis.

Fixed-step time-domain integration of the MNA system

``C dx/dt + G x = b(t)``

* linear circuits: backward Euler or trapezoidal integration,
* circuits with nonlinear devices (MOSFETs, varactors): backward Euler with a
  Newton solve per time step; the reactive part of the nonlinear devices is
  frozen at its operating-point linearisation (constant small-signal
  capacitances), which is accurate for the small perturbations that substrate
  noise represents.

Performance notes: the linear path has a constant left-hand side, so it is
LU-factorized exactly once (:class:`~repro.simulator.solver.Factorization`)
and every time step is a cheap triangular solve; a nonlinear Newton step
scatters the companion stamps through the pattern DC Newton compiles
(:meth:`~repro.simulator.mna.LinearStamps.companion_pattern`); as in every
analysis, the system size decides whether the matrices are assembled dense
for LAPACK or sparse for SuperLU; the source right-hand side is sampled over
the whole time grid up front
(:func:`repro.netlist.elements.SourceValue.sample`) instead of per step.

The analysis is used to propagate substrate-noise waveforms through the
extracted impact netlist and to produce the node waveforms the methodology
promises for "all the nodes within the circuit".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..errors import ConvergenceError, SimulationError
from ..netlist.circuit import Circuit
from .dc import DcOptions, DcSolution, dc_operating_point
from .linalg import LinearSolver
from .mna import LinearStamps, MatrixStamper, MnaStructure, source_rows
from .solver import add_gmin_diagonal


@dataclass
class TransientSolution:
    """Time-domain waveforms of every node voltage and branch current."""

    circuit: Circuit
    structure: MnaStructure
    times: np.ndarray                 #: shape (T,)
    vectors: np.ndarray               #: shape (T, size)

    def voltage(self, node: str) -> np.ndarray:
        row = self.structure.node_row(node)
        if row is None:
            return np.zeros(len(self.times))
        return self.vectors[:, row]

    def voltage_between(self, node_p: str, node_n: str) -> np.ndarray:
        return self.voltage(node_p) - self.voltage(node_n)

    def branch_current(self, branch: str) -> np.ndarray:
        return self.vectors[:, self.structure.branch_row(branch)]

    @property
    def timestep(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0


@dataclass
class TransientOptions:
    """Integration controls."""

    method: Literal["backward_euler", "trapezoidal"] = "backward_euler"
    newton_max_iterations: int = 60
    newton_tolerance: float = 1e-8
    gmin: float = 1e-12


def _source_rhs_rows(circuit: Circuit, structure: MnaStructure,
                     times: np.ndarray) -> dict[int, np.ndarray]:
    """Per-row source samples over the whole time grid.

    Each source's waveform is sampled over ``times`` once; the result maps
    only the RHS rows that sources actually touch to their ``(T,)`` sample
    arrays, so memory stays O(sources * T) instead of a dense ``(T, size)``
    block while the per-step work is a handful of scalar adds.
    """
    rows: dict[int, np.ndarray] = {}
    for element in circuit.sources():
        samples = element.value.sample(times)
        for row, sign in source_rows(structure, element):
            existing = rows.get(row)
            if existing is None:
                rows[row] = sign * samples
            else:
                existing += sign * samples
    return rows


def transient_analysis(circuit: Circuit, t_stop: float, timestep: float,
                       operating_point: DcSolution | None = None,
                       options: TransientOptions | None = None,
                       dc_options: DcOptions | None = None,
                       solver: LinearSolver | None = None
                       ) -> TransientSolution:
    """Integrate the circuit from 0 to ``t_stop`` with a fixed ``timestep``.

    The initial condition is the DC operating point (sources at their DC/
    time-zero values).  ``solver`` is the linear solver (a fresh default one
    without it); the system size picks its LU kernel.
    """
    options = options or TransientOptions()
    solver = solver or LinearSolver()
    linear = LinearStamps.of(circuit)
    structure = linear.structure
    if t_stop <= 0 or timestep <= 0:
        raise SimulationError("t_stop and timestep must be positive")
    n_steps = int(round(t_stop / timestep))
    if n_steps < 1:
        raise SimulationError("the requested time span contains no steps")

    if operating_point is None:
        operating_point = dc_operating_point(circuit, dc_options,
                                             solver=solver, linear=linear)

    g_lin = add_gmin_diagonal(linear.conductance, structure.n_nodes,
                              solver.options.effective_gmin(options.gmin))
    c_lin = linear.capacitance

    # Freeze the reactive part of the nonlinear devices at the operating point.
    nonlinear = circuit.nonlinear_elements()
    if nonlinear:
        cap_stamper = MatrixStamper(structure)
        op_voltages = operating_point.voltages()
        for element in nonlinear:
            element.stamp_small_signal(cap_stamper, op_voltages)
        # Only keep the capacitance part: the conductive small-signal stamps
        # are replaced by full Newton companion models during integration.
        c_lin = c_lin + cap_stamper.capacitance_system()

    times = np.linspace(0.0, n_steps * timestep, n_steps + 1)
    vectors = np.zeros((n_steps + 1, structure.size))
    vectors[0] = operating_point.vector

    use_trap = options.method == "trapezoidal"
    if use_trap and nonlinear:
        raise SimulationError(
            "trapezoidal integration is only supported for linear circuits; "
            "use backward_euler for circuits with nonlinear devices")

    c_over_h = c_lin / timestep
    if use_trap:
        lhs_matrix = g_lin + 2.0 * c_over_h
        history_matrix = 2.0 * c_over_h - g_lin
    else:
        lhs_matrix = g_lin + c_over_h
        history_matrix = c_over_h

    rhs_rows = _source_rhs_rows(circuit, structure, times)

    if not nonlinear:
        # Constant LHS: factorize exactly once for the whole time grid.
        lu = solver.factorize(lhs_matrix, structure=structure)
        for step in range(1, n_steps + 1):
            rhs_total = history_matrix @ vectors[step - 1]
            if use_trap:
                for row, samples in rhs_rows.items():
                    rhs_total[row] += samples[step] + samples[step - 1]
            else:
                for row, samples in rhs_rows.items():
                    rhs_total[row] += samples[step]
            vectors[step] = lu.solve(rhs_total)
    else:
        for step in range(1, n_steps + 1):
            x_prev = vectors[step - 1]
            x = x_prev.copy()
            base_rhs = c_over_h @ x_prev
            for row, samples in rhs_rows.items():
                base_rhs[row] += samples[step]
            converged = False
            for _ in range(options.newton_max_iterations):
                voltages = {name: float(x[row])
                            for name, row in structure.node_index.items()}
                companion_g, companion_rhs = linear.companion_system(
                    voltages)
                x_new = solver.solve(lhs_matrix + companion_g,
                                     base_rhs + companion_rhs,
                                     structure=structure)
                delta = np.max(np.abs(x_new[:structure.n_nodes] - x[:structure.n_nodes])) \
                    if structure.n_nodes else 0.0
                x = x_new
                if delta <= options.newton_tolerance:
                    converged = True
                    break
            if not converged:
                raise ConvergenceError(
                    f"transient Newton failed to converge at t = {times[step]:.3e} s")
            vectors[step] = x

    return TransientSolution(circuit=circuit, structure=structure,
                             times=times, vectors=vectors)
