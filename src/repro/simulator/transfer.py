"""Transfer-function analysis.

Computes the small-signal transfer ``H(f) = V(observe) / source`` from one
or several independent sources to any set of observation nodes.  This is the
workhorse of the impact methodology: the transfer from the substrate-injection
source to every sensitive node (back-gate, on-chip ground, tank, output) is a
transfer function of this kind — the paper's ``h_sub^i`` factors.

Two performance properties of the implementation matter for sweeps:

* **Batched multi-RHS solves** — all requested sources are solved through
  *one* LU factorization per frequency point: the MNA matrices depend only on
  the operating point (never on a source's AC drive), so the per-source work
  is one extra right-hand-side column in a single
  :meth:`~repro.simulator.solver.Factorization.solve` call.
* **No circuit copies** — instead of cloning the circuit per source, the
  independent-source values are swapped out in place (unit AC drive on the
  analysed source, zero on every other) while the right-hand sides are
  assembled, and swapped back in a ``finally`` block, so the caller's circuit
  is restored even when the solve itself fails.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.elements import CurrentSource, SourceValue, VoltageSource
from .dc import DcOptions, DcSolution, dc_operating_point
from .linalg import LinearSolver, SolverOptions, resolve_solver
from .mna import MnaStructure
from .solver import SharedPatternPair, add_gmin_diagonal


@dataclass
class TransferFunction:
    """Transfer from one source to several observation nodes over frequency."""

    source_name: str
    frequencies: np.ndarray
    transfers: dict[str, np.ndarray]      #: node -> complex H(f), shape (F,)

    def magnitude(self, node: str) -> np.ndarray:
        return np.abs(self.transfers[node])

    def magnitude_db(self, node: str) -> np.ndarray:
        return 20.0 * np.log10(np.maximum(self.magnitude(node), 1e-30))

    def phase_deg(self, node: str) -> np.ndarray:
        return np.degrees(np.angle(self.transfers[node]))

    def at(self, node: str, frequency: float) -> complex:
        """Transfer to ``node`` at the frequency point closest to ``frequency``."""
        index = int(np.argmin(np.abs(self.frequencies - frequency)))
        return complex(self.transfers[node][index])

    def nodes(self) -> list[str]:
        return list(self.transfers)


@contextmanager
def substituted_sources(circuit: Circuit) -> Iterator:
    """Swap the independent-source values for AC-zeroed stand-ins, in place.

    Yields a ``drive(source_name)`` callback that re-swaps the values so that
    exactly ``source_name`` carries a unit AC drive (1 V / 1 A at zero phase)
    and every other independent source is AC-quiet; ``drive(None)`` silences
    all of them.  DC levels and transient waveforms are preserved throughout,
    so the operating point of the circuit is untouched.

    The original :class:`~repro.netlist.elements.SourceValue` objects are
    restored in a ``finally`` block — the circuit comes back unmodified even
    when the body raises (e.g. a singular-matrix
    :class:`~repro.errors.SimulationError` mid-solve).
    """
    sources = [element for element in circuit
               if isinstance(element, (VoltageSource, CurrentSource))]
    originals = [(element, element.value) for element in sources]

    def drive(source_name: str | None) -> None:
        for element, value in originals:
            magnitude = 1.0 if element.name == source_name else 0.0
            element.value = SourceValue(dc=value.dc, ac_magnitude=magnitude,
                                        ac_phase_deg=0.0,
                                        waveform=value.waveform)

    try:
        drive(None)
        yield drive
    finally:
        for element, value in originals:
            element.value = value


def transfer_functions(circuit: Circuit, source_names: Sequence[str],
                       observe_nodes: list[str],
                       frequencies: np.ndarray | list[float],
                       operating_point: DcSolution | None = None,
                       dc_options: DcOptions | None = None,
                       gmin: float = 1e-12,
                       solver: SolverOptions | LinearSolver | None = None
                       ) -> dict[str, TransferFunction]:
    """Compute ``V(node)/source`` for every (source, node) combination.

    All sources are solved *batched*: per frequency point the complex system
    ``(G + j*omega*C)`` is assembled on a shared sparsity pattern and
    factorized once, then every source's unit-drive right-hand side is solved
    through that single factorization as one multi-RHS block.  ``solver``
    selects the linear-solver backend.  Returns a mapping
    ``source name -> TransferFunction`` (V/V for voltage sources,
    V/A for current sources).
    """
    if not observe_nodes:
        raise SimulationError("at least one observation node is required")
    if not source_names:
        raise SimulationError("at least one source name is required")
    circuit.validate()
    solver = resolve_solver(solver)
    frequencies = np.asarray(list(frequencies), dtype=float)
    if frequencies.size == 0:
        raise SimulationError("transfer analysis needs at least one frequency")
    if np.any(frequencies < 0):
        raise SimulationError("AC frequencies must be non-negative")

    available = {element.name for element in circuit.sources()}
    for name in source_names:
        if name not in available:
            raise SimulationError(f"no independent source named {name!r}")
    if len(set(source_names)) != len(source_names):
        raise SimulationError("duplicate source names in transfer request")

    structure = MnaStructure.from_circuit(circuit)
    if operating_point is None and circuit.nonlinear_elements():
        operating_point = dc_operating_point(circuit, dc_options,
                                             solver=solver)

    # The small-signal matrices depend on the operating point only, never on
    # the sources' AC values, so they are built once for all sources.
    from .ac import _ac_rhs, _small_signal_matrices

    g_matrix, c_matrix = _small_signal_matrices(circuit, structure,
                                                operating_point)
    g_matrix = add_gmin_diagonal(g_matrix, structure.n_nodes,
                                 solver.options.effective_gmin(gmin))
    pattern = SharedPatternPair(g_matrix, c_matrix)

    vectors = np.zeros((frequencies.size, structure.size, len(source_names)),
                       dtype=complex)
    with substituted_sources(circuit) as drive:
        # One RHS column per source: swap a unit drive onto each source in
        # turn and read the stamped phasors back off the circuit.
        rhs_block = np.zeros((structure.size, len(source_names)),
                             dtype=complex)
        for column, name in enumerate(source_names):
            drive(name)
            rhs_block[:, column] = _ac_rhs(circuit, structure)

        for index, frequency in enumerate(frequencies):
            factorization = solver.factorize(
                pattern.assemble(2j * np.pi * frequency), structure=structure)
            vectors[index] = factorization.solve(rhs_block)

    results: dict[str, TransferFunction] = {}
    for column, name in enumerate(source_names):
        transfers = {}
        for node in observe_nodes:
            row = structure.node_row(node)
            transfers[node] = (np.zeros(frequencies.size, dtype=complex)
                               if row is None else vectors[:, row, column])
        results[name] = TransferFunction(source_name=name,
                                         frequencies=frequencies.copy(),
                                         transfers=transfers)
    return results


def transfer_function(circuit: Circuit, source_name: str,
                      observe_nodes: list[str],
                      frequencies: np.ndarray | list[float],
                      operating_point: DcSolution | None = None,
                      dc_options: DcOptions | None = None,
                      gmin: float = 1e-12,
                      solver: SolverOptions | LinearSolver | None = None
                      ) -> TransferFunction:
    """Compute ``V(node)/source`` for each node in ``observe_nodes``.

    The drive is applied as a unit AC excitation on the named independent
    source (voltage sources: 1 V, current sources: 1 A), so the returned
    transfers are in V/V or V/A respectively.  A precomputed
    ``operating_point`` of the original circuit is reused directly (only AC
    magnitudes are substituted during the solve, which leaves the DC solution
    untouched); ``gmin`` is forwarded to the underlying AC assembly.  This is
    the single-source convenience wrapper around :func:`transfer_functions`.
    """
    return transfer_functions(circuit, [source_name], observe_nodes,
                              frequencies, operating_point=operating_point,
                              dc_options=dc_options, gmin=gmin,
                              solver=solver)[source_name]
