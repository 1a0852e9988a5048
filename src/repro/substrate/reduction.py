"""Port reduction of the substrate mesh to a compact macromodel.

The full box-integration mesh has thousands of internal nodes; the circuit
only interacts with it through a handful of *ports* (substrate taps, guard
rings, device back-gates, wells, inductor footprints).  The mesh is reduced
exactly (for the resistive network) by a Schur complement — Kron reduction —
of the internal nodes:

``Y_red = Y_pp - Y_pi * Y_ii^{-1} * Y_ip``

The reduced admittance matrix is then converted into an equivalent
resistor network between the port nodes, which is what gets merged into the
impact netlist.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..errors import ExtractionError, SimulationError
from ..netlist.circuit import Circuit
from ..obs import trace_span
from ..simulator.linalg import LinearSolver, SolverOptions, resolve_solver


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

    def transfer_resistance_matrix(self) -> np.ndarray:
        """Pseudo-inverse of the admittance matrix (useful for diagnostics)."""
        return np.linalg.pinv(self.admittance)

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


def kron_reduce(conductance: sp.spmatrix,
                port_nodes: list[list[int]] | list[list[tuple[int, float]]],
                port_names: list[str],
                port_contact_conductance: list[float] | None = None,
                solver: "SolverOptions | LinearSolver | None" = None,
                grid=None) -> SubstrateMacromodel:
    """Reduce a mesh conductance matrix to its port-level macromodel.

    Parameters
    ----------
    conductance:
        The (N x N) mesh Laplacian from
        :meth:`repro.substrate.mesh.SubstrateMesh.conductance_matrix`.
    port_nodes:
        For each port, either a plain list of mesh node indices (the port's
        contact conductance is then split evenly over them) or a list of
        ``(node_index, conductance)`` pairs giving the connection conductance
        per mesh node explicitly (used for partial-coverage contacts).
    port_names:
        Name of each port (same order as ``port_nodes``).
    port_contact_conductance:
        Total contact conductance of each port in siemens when ``port_nodes``
        holds plain indices (``None`` means an ideal connection, implemented
        as a very large conductance).  Ignored for ``(node, conductance)``
        pairs.
    solver:
        Linear-solver backend for the internal-block solve
        (:class:`~repro.simulator.linalg.SolverOptions` or a ready
        :class:`~repro.simulator.linalg.LinearSolver`).  The regularised
        internal matrix is symmetric positive definite and is factorized
        with ``spd=True``: the ``direct`` backend uses a symmetric
        minimum-degree ordering (half the fill of the default COLAMD
        ordering), the ``multigrid`` backend solves it with geometric
        multigrid.
    grid:
        Structured-grid shape behind ``conductance`` (a
        :class:`~repro.simulator.linalg.GridGeometry`, from
        :meth:`~repro.substrate.mesh.SubstrateMesh.grid_geometry`).  Enables
        geometric coarsening in the ``multigrid`` backend; the ``direct``
        backend ignores it.

    Returns
    -------
    SubstrateMacromodel
        Exact Schur complement of the internal mesh nodes.
    """
    if len(port_nodes) != len(port_names):
        raise ExtractionError("port_nodes and port_names must have the same length")
    if not port_names:
        raise ExtractionError("at least one port is required")
    n_mesh = conductance.shape[0]
    n_ports = len(port_names)
    if port_contact_conductance is None:
        port_contact_conductance = [1e6] * n_ports
    if len(port_contact_conductance) != n_ports:
        raise ExtractionError("contact conductance list length mismatch")

    # The Schur blocks of the augmented (mesh + port) system are assembled
    # directly — no augmented matrix is ever formed.  Port couplings only add
    # to the internal diagonal (Y_ii), the dense internal-to-port block
    # (Y_ip) and the port diagonal (Y_pp).
    internal_diagonal = np.zeros(n_mesh)
    y_ip = np.zeros((n_mesh, n_ports))
    y_pp = np.zeros((n_ports, n_ports))

    for port_idx, (nodes, g_total) in enumerate(zip(port_nodes, port_contact_conductance)):
        if not nodes:
            raise ExtractionError(
                f"port {port_names[port_idx]!r} does not contact any mesh node "
                "(is the shape outside the meshed region?)")
        if g_total <= 0:
            raise ExtractionError("port contact conductance must be positive")
        if isinstance(nodes[0], tuple):
            weighted = [(int(node), float(g)) for node, g in nodes]
        else:
            share = g_total / len(nodes)
            weighted = [(int(node), share) for node in nodes]
        for node, share in weighted:
            if share <= 0:
                raise ExtractionError("per-node contact conductance must be positive")
            internal_diagonal[node] += share
            y_ip[node, port_idx] -= share
            y_pp[port_idx, port_idx] += share

    # Regularise the internal block minimally: the floating mesh Laplacian is
    # singular only together with the port rows, and after connecting ports it
    # is non-singular; a tiny diagonal shift guards against round-off.
    y_ii = (sp.csc_matrix(conductance)
            + sp.diags(internal_diagonal + 1e-12, format="csc"))

    # One factorization (or multigrid hierarchy) of Y_ii, one multi-RHS
    # solve against every port column at once.
    try:
        with trace_span("extract.kron", nodes=n_mesh, ports=n_ports):
            solved = resolve_solver(solver).factorize(
                y_ii, grid=grid, spd=True).solve(y_ip)
    except SimulationError as exc:
        raise ExtractionError(f"substrate reduction failed: {exc}") from exc
    reduced = y_pp - y_ip.T @ solved
    # Enforce symmetry (numerical round-off).
    reduced = 0.5 * (reduced + reduced.T)
    return SubstrateMacromodel(ports=tuple(port_names), admittance=reduced)
