"""Transfer-function analysis: the simulator's one small-signal analysis.

Computes the small-signal transfer ``H(f) = V(observe) / source`` from one
or several independent sources to any set of observation nodes.  The
circuit is linearised around its DC operating point and the complex MNA
system ``(G + j*omega*C) x = b`` is solved at every requested frequency,
with a unit drive on the analysed source as ``b``.  This is the
workhorse of the impact methodology: the transfer from the
substrate-injection source to every sensitive node (back-gate, on-chip
ground, tank, output) is a transfer function of this kind — the paper's
``h_sub^i`` factors.

Three performance properties of the implementation matter for sweeps:

* **Batched multi-RHS solves** — all requested sources are solved through
  *one* LU factorization per frequency point: the MNA matrices depend only on
  the operating point (never on a source's drive), so the per-source work
  is one extra right-hand-side column in a single
  :meth:`~repro.simulator.solver.Factorization.solve` call.
* **Compiled linear stamps** — a caller that analyses one netlist at many
  bias corners passes its :class:`~repro.simulator.mna.LinearStamps` as
  ``linear=``; the analysis then stamps only the small-signal models of the
  nonlinear devices on top, without re-validating, re-indexing or
  re-stamping the linear netlist.  Those stamps are scattered through a
  :class:`~repro.simulator.mna.StampPattern` recorded once per solved row
  structure (:meth:`~repro.simulator.mna.LinearStamps.small_signal_pattern`),
  bit-identical to a fresh stamper, so a bias corner builds no stamper
  and looks up no node.
* **Port reduction** — on the dense path only the rows the small-signal
  models touch or the caller reads stay: the linear stamps are reduced
  onto them once per frequency sweep (a Schur complement cached on
  ``linear``), so every further bias corner solves a system of its device
  terminals and observed nodes only (13 unknowns instead of 43 for the
  VCO testbench), all frequencies in one stacked LAPACK call.
* **Corner stacks** — given the :class:`~repro.simulator.dc.DcCorners` of
  a stack of bias corners, the small-signal values of every corner are
  scattered as one ``(corners, calls)`` block and all corners x
  frequencies are solved in one stacked LAPACK call on the reduced rows
  (the sparse path loops over the corners).  Each system is factorized
  and solved on its own, so a corner's transfer is bit-identical alone or
  in any stack; the transfers then carry a leading corner axis.

Transfers are unit-drive by construction (each source's right-hand side is
its MNA incidence, :func:`~repro.simulator.mna.source_rows`), and the
circuit is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from .dc import DcCorners, DcOptions, DcSolution, dc_operating_point
from .linalg import LinearSolver
from .mna import LinearStamps, MnaStructure, StampPattern, source_rows
from .solver import SharedPatternPair, add_gmin_diagonal


def swept_index(frequencies: np.ndarray, frequency: float) -> int:
    """Index of the swept point equal to ``frequency`` within relative 1e-9.

    Raises :class:`SimulationError` naming ``frequency`` (and the nearest
    swept point) when none matches.
    """
    offsets = np.abs(frequencies - frequency)
    index = int(np.argmin(offsets))
    if not offsets[index] <= 1e-9 * abs(frequency):
        raise SimulationError(
            f"frequency {frequency!r} Hz was not swept (nearest swept "
            f"point {float(frequencies[index])!r} Hz)")
    return index


def _small_signal_values(linear: LinearStamps, structure: MnaStructure,
                         corners: DcCorners | None
                         ) -> tuple[StampPattern, np.ndarray] | None:
    """The small-signal stamp pattern of the nonlinear elements on
    ``structure`` (the full system, or the kept rows of a port reduction)
    and its values at the operating points ``corners``: ``(corners,
    calls)``, or ``(calls,)`` for a stack of one (evaluated on floats);
    ``None`` for a linear circuit.

    Each device stamps from its stacked operating point as cached on the
    DC corners, so no device model is evaluated twice.
    """
    nonlinear = linear.nonlinear_elements
    if not nonlinear:
        return None
    if corners is None:
        raise SimulationError(
            "circuit contains nonlinear elements: an operating point is required")
    voltages = corners.voltages()

    def stamp(stamper):
        for element in nonlinear:
            element.stamp_small_signal(
                stamper, voltages,
                point=corners.operating_point_of(element.name))

    pattern = linear.small_signal_pattern(structure)
    return pattern, pattern.evaluate(stamp)


@dataclass
class TransferFunction:
    """Transfer from one source to several observation nodes over frequency."""

    source_name: str
    frequencies: np.ndarray
    #: node -> complex H(f), shape (F,), or (corners, F) for a corner stack
    transfers: dict[str, np.ndarray]

    def magnitude(self, node: str) -> np.ndarray:
        return np.abs(self.transfers[node])

    def magnitude_db(self, node: str) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(self.magnitude(node), 1e-30))

    def phase_deg(self, node: str) -> np.ndarray:
        return np.degrees(np.angle(self.transfers[node]))

    def index_of(self, frequency: float) -> int:
        """Index of the swept point equal to ``frequency`` (relative 1e-9).

        Raises :class:`SimulationError` naming ``frequency`` when no swept
        point matches.
        """
        return swept_index(self.frequencies, frequency)

    def at(self, node: str, frequency: float) -> complex:
        """Transfer to ``node`` at the swept point ``frequency``."""
        return complex(self.transfers[node][self.index_of(frequency)])

    def nodes(self) -> list[str]:
        return list(self.transfers)

    def corner(self, index: int) -> "TransferFunction":
        """The transfer of corner ``index`` of a corner stack."""
        return TransferFunction(
            source_name=self.source_name, frequencies=self.frequencies,
            transfers={node: h[index] for node, h in self.transfers.items()})


def transfer_functions(circuit: Circuit, source_names: Sequence[str],
                       observe_nodes: list[str],
                       frequencies: np.ndarray | list[float],
                       operating_point: DcSolution | DcCorners | None = None,
                       dc_options: DcOptions | None = None,
                       gmin: float = 1e-12,
                       solver: LinearSolver | None = None,
                       linear: LinearStamps | None = None
                       ) -> dict[str, TransferFunction]:
    """Compute ``V(node)/source`` for every (source, node) combination.

    All sources are solved *batched*: per frequency point the complex system
    ``(G + j*omega*C)`` is factorized once, and every source's unit-drive
    right-hand side is solved through that single factorization as one
    multi-RHS block.  A small system (dense stamps) is first reduced onto
    its device terminals and observed nodes
    (:meth:`~repro.simulator.mna.LinearStamps.port_reduction`, cached on
    ``linear``), and all its frequency points are solved in one stacked
    LAPACK call; a large one is assembled per point on a shared sparsity
    pattern.  Either way one point counts one factorization and one solve
    in :data:`~repro.simulator.solver.stats`.  ``solver`` is the linear
    solver (a fresh default one without it).  ``linear`` is the circuit's
    compiled :class:`~repro.simulator.mna.LinearStamps` (compiled here when
    absent; stamps of a different circuit raise :class:`SimulationError`).
    Returns a mapping ``source name -> TransferFunction`` (V/V for voltage
    sources, V/A for current sources).  An ``operating_point`` that is a
    :class:`~repro.simulator.dc.DcCorners` analyses its whole stack at
    once (each point of each corner one factorization and one solve), and
    every transfer then has a leading corner axis.
    """
    if not observe_nodes:
        raise SimulationError("at least one observation node is required")
    if not source_names:
        raise SimulationError("at least one source name is required")
    linear = LinearStamps.resolve(circuit, linear)
    structure = linear.structure
    solver = solver or LinearSolver()
    frequencies = np.asarray(list(frequencies), dtype=float)
    if frequencies.size == 0:
        raise SimulationError("transfer analysis needs at least one frequency")
    bad = ~(np.isfinite(frequencies) & (frequencies >= 0))
    if bad.any():
        raise SimulationError(
            f"AC frequencies must be finite and non-negative, got "
            f"{float(frequencies[bad][0])!r} Hz")

    sources = {element.name: element for element in linear.sources}
    for name in source_names:
        if name not in sources:
            raise SimulationError(f"no independent source named {name!r}")
    if len(set(source_names)) != len(source_names):
        raise SimulationError("duplicate source names in transfer request")

    if operating_point is None and linear.nonlinear_elements:
        operating_point = dc_operating_point(circuit, dc_options,
                                             solver=solver, linear=linear)
    stacked = isinstance(operating_point, DcCorners)
    corners = (operating_point if stacked or operating_point is None
               else DcCorners.of(operating_point))
    gmin = solver.options.effective_gmin(gmin)

    # One unit-drive RHS column per source.
    rhs_block = np.zeros((structure.size, len(source_names)), dtype=complex)
    for column, name in enumerate(source_names):
        for row, sign in source_rows(structure, sources[name]):
            rhs_block[row, column] += sign

    if isinstance(linear.conductance, np.ndarray):
        rows, vectors = _reduced_solve(linear, corners,
                                       observe_nodes, frequencies, gmin,
                                       rhs_block, solver)
    else:
        rows = structure.node_index
        vectors = _full_solve(linear, corners,
                              frequencies, gmin, rhs_block, solver)
    if not stacked:
        vectors = vectors[0]

    results: dict[str, TransferFunction] = {}
    for column, name in enumerate(source_names):
        transfers = {}
        for node in observe_nodes:
            # node_row: None for ground, an error for an unknown node
            transfers[node] = (
                np.zeros(vectors.shape[:-2], dtype=complex)
                if structure.node_row(node) is None
                else vectors[..., rows[node], column])
        results[name] = TransferFunction(source_name=name,
                                         frequencies=frequencies.copy(),
                                         transfers=transfers)
    return results


def _full_solve(linear: LinearStamps, corners: DcCorners | None,
                frequencies: np.ndarray, gmin: float, rhs_block: np.ndarray,
                solver: LinearSolver) -> np.ndarray:
    """Every unknown at every frequency of every corner: ``G + j*omega*C``
    of the whole system factorized once per point (the sparse path).
    Returns the ``(corners, F, n, sources)`` solutions."""
    structure = linear.structure
    # The small-signal matrices depend on the operating point only, never on
    # the sources, so they are built once for all sources.
    stamps = _small_signal_values(linear, structure, corners)
    n_corners = 1 if stamps is None else len(corners)
    vectors = np.zeros((n_corners, frequencies.size) + rhs_block.shape,
                       dtype=complex)
    for corner in range(n_corners):
        g_matrix, c_matrix = linear.conductance, linear.capacitance
        if stamps is not None:
            small_signal, values = stamps
            values = np.atleast_2d(values)[corner]
            g_matrix = g_matrix + small_signal.conductance(values)
            c_matrix = c_matrix + small_signal.capacitance(values)
        pattern = SharedPatternPair(
            add_gmin_diagonal(g_matrix, structure.n_nodes, gmin), c_matrix)
        for index, frequency in enumerate(frequencies):
            factorization = solver.factorize(
                pattern.assemble(2j * np.pi * frequency), structure=structure)
            vectors[corner, index] = factorization.solve(rhs_block)
    return vectors


def _reduced_solve(linear: LinearStamps, corners: DcCorners | None,
                   observe_nodes: list[str], frequencies: np.ndarray,
                   gmin: float, rhs_block: np.ndarray, solver: LinearSolver
                   ) -> tuple[dict[str, int], np.ndarray]:
    """The kept unknowns at every frequency of every corner, on the port
    reduction of the linear stamps (the dense path).

    The small-signal stamps land on device terminals only, which the
    reduction keeps, so they add straight onto its ``(F, k, k)`` systems,
    one copy per corner; one stacked factorization solves all corners x
    frequencies.  Returns the kept nodes' rows and the
    ``(corners, F, k, sources)`` solutions.
    """
    reduction = linear.port_reduction(observe_nodes, frequencies, gmin,
                                      rhs_block)
    structure = reduction.structure
    matrices = reduction.matrices[None]
    stamps = _small_signal_values(linear, structure, corners)
    if stamps is not None:
        pattern, values = stamps
        shape = (len(corners), structure.size, structure.size)
        s = 2j * np.pi * frequencies
        matrices = matrices + pattern.conductance(values).reshape(
            shape)[:, None]
        # Corner by corner: no (corners, F, k, k) temporary.
        for corner, capacitance in zip(
                matrices, pattern.capacitance(values).reshape(shape)):
            corner += s[:, None, None] * capacitance
    n_corners, n_points, size, _ = matrices.shape
    factorization = solver.factorize(
        matrices.reshape(n_corners * n_points, size, size),
        structure=structure)
    rhs = np.broadcast_to(reduction.rhs, (n_corners,) + reduction.rhs.shape)
    solutions = factorization.solve(
        rhs.reshape((n_corners * n_points,) + rhs.shape[2:]))
    return structure.node_index, solutions.reshape(rhs.shape)


def transfer_function(circuit: Circuit, source_name: str,
                      observe_nodes: list[str],
                      frequencies: np.ndarray | list[float],
                      operating_point: DcSolution | DcCorners | None = None,
                      dc_options: DcOptions | None = None,
                      gmin: float = 1e-12,
                      solver: LinearSolver | None = None,
                      linear: LinearStamps | None = None
                      ) -> TransferFunction:
    """Compute ``V(node)/source`` for each node in ``observe_nodes``.

    The drive is a unit excitation on the named independent source (voltage
    sources: 1 V, current sources: 1 A), so the returned transfers are in
    V/V or V/A respectively.  A precomputed ``operating_point`` of the
    circuit is reused directly; ``gmin`` is forwarded to the small-signal
    assembly and ``linear`` (compiled stamps of the circuit) to the
    analyses.  This is the single-source convenience wrapper around
    :func:`transfer_functions`.
    """
    return transfer_functions(circuit, [source_name], observe_nodes,
                              frequencies, operating_point=operating_point,
                              dc_options=dc_options, gmin=gmin,
                              solver=solver, linear=linear)[source_name]
