"""Port reduction of the substrate mesh to a compact macromodel.

The full box-integration mesh has thousands of internal nodes; the circuit
only interacts with it through a handful of *ports* (substrate taps, guard
rings, device back-gates, wells, inductor footprints).  The mesh is reduced
exactly (for the resistive network) by a Schur complement — Kron reduction —
of the internal nodes:

``Y_red = Y_pp - Y_pi * Y_ii^{-1} * Y_ip``

:func:`kron_reduce` computes it one of two ways.  A laterally uniform
:class:`~repro.substrate.mesh.SubstrateMesh` contacted on its surface is
reduced spectrally (:mod:`repro.substrate.spectral`) without assembling its
matrix.  A raw conductance matrix, or a mesh that path does not cover, is
reduced by one sparse SPD factorization of ``Y_ii``: the reference path.

The reduced admittance matrix is then converted into an equivalent
resistor network between the port nodes, which is what gets merged into the
impact netlist.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import spectral
from ..errors import ExtractionError, SimulationError
from ..netlist.circuit import Circuit
from ..obs import get_logger, trace_span
from ..simulator.linalg import LinearSolver
from ..simulator.solver import stats
from .mesh import SubstrateMesh

logger = get_logger(__name__)

#: Diagonal shift of the internal block.  The floating mesh Laplacian is
#: singular only together with the port rows; once ports connect it is not,
#: and this tiny shift guards against round-off.  Both paths reduce it.
_SHIFT = 1e-12


@dataclass
class SubstrateMacromodel:
    """Reduced N-port admittance description of the substrate.

    ``admittance[i, j]`` is the (i, j) entry of the reduced nodal admittance
    matrix in siemens; ``ports`` gives the port names in matrix order.
    ``ground_port`` optionally names a port that is treated as the reference
    (e.g. a backside contact); it is kept in the matrix like any other port.
    """

    ports: tuple[str, ...]
    admittance: np.ndarray
    contact_resistance: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.ports)
        if self.admittance.shape != (n, n):
            raise ExtractionError("admittance matrix shape does not match port count")

    def port_index(self, name: str) -> int:
        try:
            return self.ports.index(name)
        except ValueError:
            raise ExtractionError(f"unknown substrate port {name!r}") from None

    def coupling_resistance(self, port_a: str, port_b: str) -> float:
        """Direct branch resistance between two ports in the equivalent network.

        This is ``-1 / Y_ab`` — the value of the resistor that connects the two
        port nodes in the reduced network (not the two-terminal driving-point
        resistance, which also includes paths through the other ports).
        """
        i, j = self.port_index(port_a), self.port_index(port_b)
        y = -self.admittance[i, j]
        if y <= 0.0:
            return np.inf
        return 1.0 / y

    def voltage_division(self, source_port: str, sense_port: str,
                         grounded_ports: dict[str, float]) -> float:
        """Voltage at ``sense_port`` per volt at ``source_port``.

        ``grounded_ports`` maps port names to the resistance with which they
        are tied to the external reference (0 V); use a small value for a
        solidly grounded guard ring, or the extracted interconnect resistance
        to reproduce the paper's observation that the ground-wire resistance
        nearly doubles the back-gate voltage.
        """
        n = len(self.ports)
        y = self.admittance.copy()
        for name, resistance in grounded_ports.items():
            if resistance < 0:
                raise ExtractionError("ground tie resistance must be >= 0")
            index = self.port_index(name)
            y[index, index] += 1.0 / max(resistance, 1e-9)
        src = self.port_index(source_port)
        sense = self.port_index(sense_port)
        keep = [i for i in range(n) if i != src]
        y_kk = y[np.ix_(keep, keep)]
        rhs = -y[np.ix_(keep, [src])].ravel()
        solution = np.linalg.solve(y_kk, rhs)
        voltages = np.zeros(n)
        voltages[src] = 1.0
        for value, index in zip(solution, keep):
            voltages[index] = value
        return float(voltages[sense])

    def to_circuit(self, node_names: dict[str, str] | None = None,
                   name: str = "substrate_macromodel",
                   min_conductance: float = 1e-9) -> Circuit:
        """Convert the macromodel to a resistor network circuit.

        ``node_names`` maps port names to circuit node names (defaults to the
        port names themselves).  Branches with conductance below
        ``min_conductance`` siemens (> 1 Gohm) are dropped to keep the netlist
        compact; the contact resistances recorded during extraction are added
        in series as explicit resistors on dedicated ``<port>__tap`` nodes.
        """
        node_names = node_names or {}
        circuit = Circuit(name=name)
        n = len(self.ports)

        def node_of(port: str) -> str:
            return node_names.get(port, port)

        # Internal mesh-side node of each port (before contact resistance).
        def mesh_node_of(port: str) -> str:
            if port in self.contact_resistance and self.contact_resistance[port] > 0:
                return f"{node_of(port)}__tap"
            return node_of(port)

        for i in range(n):
            for j in range(i + 1, n):
                g = -self.admittance[i, j]
                if g > min_conductance:
                    circuit.add_resistor(
                        f"Rsub_{self.ports[i]}_{self.ports[j]}",
                        mesh_node_of(self.ports[i]), mesh_node_of(self.ports[j]),
                        1.0 / g)
        for port, resistance in self.contact_resistance.items():
            if resistance > 0:
                circuit.add_resistor(f"Rcontact_{port}", node_of(port),
                                     f"{node_of(port)}__tap", resistance)
        return circuit


def _contact_shares(port_nodes, port_names, port_contact_conductance,
                    n_mesh: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate the port contacts; return the distinct contacted mesh nodes
    (sorted) and the ``(k, P)`` contact conductance of each node to each
    port."""
    rows: list[int] = []
    columns: list[int] = []
    values: list[float] = []
    for port_idx, (name, nodes, g_total) in enumerate(
            zip(port_names, port_nodes, port_contact_conductance)):
        if not nodes:
            raise ExtractionError(
                f"port {name!r} does not contact any mesh node "
                "(is the shape outside the meshed region?)")
        if g_total <= 0:
            raise ExtractionError("port contact conductance must be positive")
        if isinstance(nodes[0], tuple):
            weighted = [(node, float(g)) for node, g in nodes]
        else:
            weighted = [(node, g_total / len(nodes)) for node in nodes]
        for node, share in weighted:
            try:
                index = operator.index(node)
            except TypeError:
                raise ExtractionError(
                    f"port {name!r}: mesh node {node!r} is not an integer "
                    "index") from None
            if not 0 <= index < n_mesh:
                raise ExtractionError(
                    f"port {name!r}: mesh node {index} is outside the mesh "
                    f"(0..{n_mesh - 1})")
            if share <= 0:
                raise ExtractionError(
                    "per-node contact conductance must be positive")
            rows.append(index)
            columns.append(port_idx)
            values.append(share)
    nodes, inverse = np.unique(np.asarray(rows), return_inverse=True)
    shares = np.zeros((len(nodes), len(port_names)))
    np.add.at(shares, (inverse, columns), values)
    return nodes, shares


def _direct_kron(conductance: sp.spmatrix, nodes: np.ndarray,
                 shares: np.ndarray, solver: LinearSolver) -> np.ndarray:
    """``Y_pp - Y_pi Y_ii^-1 Y_ip`` by one sparse SPD factorization.

    The Schur blocks of the augmented (mesh + port) system are assembled
    directly: port couplings only add to the internal diagonal (Y_ii), the
    internal-to-port block (Y_ip, nonzero on the contacted rows only) and the
    port diagonal (Y_pp).
    """
    n_mesh = conductance.shape[0]
    diagonal = np.full(n_mesh, _SHIFT)
    diagonal[nodes] += shares.sum(axis=1)
    y_ii = sp.csc_matrix(conductance) + sp.diags(diagonal, format="csc")
    y_ip = np.zeros((n_mesh, shares.shape[1]))
    y_ip[nodes] = -shares
    solved = solver.factorize(y_ii, spd=True).solve(y_ip)
    return np.diag(shares.sum(axis=0)) + shares.T @ solved[nodes]


def kron_reduce(conductance: "sp.spmatrix | SubstrateMesh",
                port_nodes: list[list[int]] | list[list[tuple[int, float]]],
                port_names: list[str],
                port_contact_conductance: list[float] | None = None,
                solver: LinearSolver | None = None
                ) -> SubstrateMacromodel:
    """Reduce a substrate mesh to its port-level macromodel.

    Parameters
    ----------
    conductance:
        The mesh itself (a :class:`~repro.substrate.mesh.SubstrateMesh`), or
        an (N x N) conductance Laplacian such as its
        :meth:`~repro.substrate.mesh.SubstrateMesh.conductance_matrix`.  A
        mesh with uniform lateral edges whose ports all sit on surface cells
        is reduced by the spectral method of :mod:`repro.substrate.spectral`
        without assembling its matrix; anything else (a raw matrix, a
        contact below the surface, non-uniform edges) by direct sparse LU,
        the reference path.
    port_nodes:
        For each port, either a plain list of mesh node indices (the port's
        contact conductance is then split evenly over them) or a list of
        ``(node_index, conductance)`` pairs giving the connection conductance
        per mesh node explicitly (used for partial-coverage contacts).  Node
        indices must be integers in ``0..N-1``.
    port_names:
        Name of each port (same order as ``port_nodes``).
    port_contact_conductance:
        Total contact conductance of each port in siemens when ``port_nodes``
        holds plain indices (``None`` means an ideal connection, implemented
        as a very large conductance).  Ignored for ``(node, conductance)``
        pairs.
    solver:
        The :class:`~repro.simulator.linalg.LinearSolver` of the direct
        path (a fresh default one without it).  The regularised
        internal matrix is symmetric positive definite and is factorized
        with ``spd=True`` (a symmetric minimum-degree ordering).

    Returns
    -------
    SubstrateMacromodel
        Exact Schur complement of the internal mesh nodes.  If the spectral
        path's dense Cholesky fails, the reduction falls back to direct LU,
        counts one ``fallbacks`` in :data:`repro.simulator.solver.stats` and
        logs the reason at warning level.
    """
    if len(port_nodes) != len(port_names):
        raise ExtractionError("port_nodes and port_names must have the same length")
    if not port_names:
        raise ExtractionError("at least one port is required")
    mesh = conductance if isinstance(conductance, SubstrateMesh) else None
    n_mesh = mesh.n_nodes if mesh is not None else conductance.shape[0]
    n_ports = len(port_names)
    if port_contact_conductance is None:
        port_contact_conductance = [1e6] * n_ports
    if len(port_contact_conductance) != n_ports:
        raise ExtractionError("contact conductance list length mismatch")
    nodes, shares = _contact_shares(port_nodes, port_names,
                                    port_contact_conductance, n_mesh)

    with trace_span("extract.kron", nodes=n_mesh, ports=n_ports,
                    k=len(nodes)) as span:
        reduced = None
        if mesh is not None and spectral.supports(mesh, nodes):
            try:
                reduced, dense_seconds = spectral.spectral_kron(
                    mesh, nodes, shares, _SHIFT)
            except np.linalg.LinAlgError as exc:
                stats.fallbacks += 1
                logger.warning(
                    "solver degradation: spectral Kron reduction fell back "
                    "to sparse LU (k=%d): %s", len(nodes), exc)
            else:
                stats.factorizations += 1
                stats.solves += 1
                if span is not None:
                    span.set(path="spectral", dense_solve_s=dense_seconds)
        if reduced is None:
            matrix = (mesh.conductance_matrix() if mesh is not None
                      else conductance)
            try:
                reduced = _direct_kron(matrix, nodes, shares,
                                       solver or LinearSolver())
            except SimulationError as exc:
                raise ExtractionError(
                    f"substrate reduction failed: {exc}") from exc
            if span is not None:
                span.set(path="direct")
    # Enforce symmetry (numerical round-off).
    reduced = 0.5 * (reduced + reduced.T)
    return SubstrateMacromodel(ports=tuple(port_names), admittance=reduced)
