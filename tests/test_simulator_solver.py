"""Solver core: cached factorizations, shared patterns, gmin, singular errors.

The equivalence tests assert that every cached-factorization / shared-pattern
path produces results identical (atol <= 1e-12) to a direct ``spsolve`` of the
same systems, for DC, small-signal transfer, linear transient, Newton transient and the Kron
reduction of a small substrate mesh.  A property test holds the dense LAPACK
kernel and SuperLU to 1e-12 relative agreement on random circuits on both
sides of the dense cutoff.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import repro.simulator.solver as solver_module
from repro.errors import SimulationError
from repro.layout.geometry import Rect
from repro.netlist import Circuit, SourceValue
from repro.obs import tracer
from repro.simulator import (
    DcOptions,
    dc_operating_point,
    transfer_functions,
    transient_analysis,
)
from repro.simulator.linalg import LinearSolver
from repro.simulator.mna import MnaStructure, stamp_linear_elements
from repro.simulator.solver import (
    DENSE_MAX_SIZE,
    Factorization,
    SharedPatternPair,
    add_gmin_diagonal,
    stats,
)
from repro.technology import make_technology
from repro.substrate import MeshSpec, SubstrateMesh, kron_reduce

ATOL = 1e-12


def _rc_circuit():
    circuit = Circuit("rc")
    circuit.add_voltage_source("V1", "in", "0",
                               SourceValue(dc=1.0, waveform=lambda t: 1.0))
    circuit.add_resistor("R1", "in", "mid", 1e3)
    circuit.add_resistor("R2", "mid", "0", 2e3)
    circuit.add_capacitor("C1", "mid", "0", 1e-9)
    circuit.add_inductor("L1", "mid", "out", 1e-6)
    circuit.add_resistor("R3", "out", "0", 50.0)
    return circuit


def _mosfet_circuit(technology):
    circuit = Circuit("cs")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.8)
    circuit.add_voltage_source("VG", "g", "0",
                               SourceValue(dc=0.9,
                                           waveform=lambda t: 0.9 + 0.05 * min(t / 1e-7, 1.0)))
    circuit.add_resistor("RL", "vdd", "d", 1e3)
    circuit.add_mosfet("M1", "d", "g", "0", "0",
                       technology.mos_parameters("nmos_rf"),
                       width=10e-6, length=0.18e-6)
    return circuit


# -- Factorization ----------------------------------------------------------------------


def test_factorization_matches_spsolve():
    rng = np.random.default_rng(7)
    dense = rng.normal(size=(30, 30)) + 30.0 * np.eye(30)
    matrix = sp.csc_matrix(dense)
    rhs = rng.normal(size=30)
    lu = Factorization(matrix)
    assert np.allclose(lu.solve(rhs), spla.spsolve(matrix, rhs), atol=ATOL)


def test_factorization_multi_rhs_matches_columnwise():
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(20, 20)) + 20.0 * np.eye(20)
    matrix = sp.csc_matrix(dense)
    block = rng.normal(size=(20, 5))
    lu = Factorization(matrix)
    solved = lu.solve(block)
    for k in range(block.shape[1]):
        assert np.allclose(solved[:, k], spla.spsolve(matrix, block[:, k]),
                           atol=ATOL)


def test_factorization_complex_rhs_on_real_matrix():
    rng = np.random.default_rng(3)
    dense = rng.normal(size=(12, 12)) + 12.0 * np.eye(12)
    matrix = sp.csc_matrix(dense)
    rhs = rng.normal(size=12) + 1j * rng.normal(size=12)
    solved = Factorization(matrix).solve(rhs)
    assert np.allclose(solved, spla.spsolve(matrix, rhs), atol=ATOL)


def test_factorization_rejects_singular():
    matrix = sp.csc_matrix(np.zeros((3, 3)))
    with pytest.raises(SimulationError):
        Factorization(matrix)


def test_factorization_counts_in_stats():
    matrix = sp.csc_matrix(5.0 * np.eye(4))
    stats.reset()
    lu = Factorization(matrix)
    for _ in range(7):
        lu.solve(np.ones(4))
    assert stats.factorizations == 1
    assert stats.solves == 7


# -- equivalence: analyses vs direct spsolve -------------------------------------------


def test_dc_equivalent_to_direct_spsolve():
    circuit = _rc_circuit()
    solution = dc_operating_point(circuit)

    structure = MnaStructure.from_circuit(circuit)
    stamper = stamp_linear_elements(circuit, structure)
    matrix = add_gmin_diagonal(stamper.conductance_system(),
                               structure.n_nodes, 1e-12)
    rhs = np.zeros(structure.size)
    rhs[structure.branch_row("V1")] = 1.0
    direct = spla.spsolve(sp.csc_matrix(matrix), rhs)
    assert np.allclose(solution.vector, direct, atol=ATOL)


def test_ac_equivalent_to_direct_spsolve():
    circuit = _rc_circuit()
    frequencies = np.logspace(3, 9, 13)
    nodes = circuit.nodes()
    tf = transfer_functions(circuit, ["V1"], nodes, frequencies)["V1"]

    structure = MnaStructure.from_circuit(circuit)
    stamper = stamp_linear_elements(circuit, structure)
    g = add_gmin_diagonal(stamper.conductance_system(), structure.n_nodes, 1e-12)
    c = stamper.capacitance_system()
    rhs = np.zeros(structure.size, dtype=complex)
    rhs[structure.branch_row("V1")] = 1.0
    for index, frequency in enumerate(frequencies):
        matrix = sp.csc_matrix(g + 2j * np.pi * frequency * c)
        direct = spla.spsolve(matrix, rhs)
        for node in nodes:
            assert np.allclose(tf.transfers[node][index],
                               direct[structure.node_row(node)], atol=ATOL)


def test_linear_transient_equivalent_to_direct_spsolve():
    circuit = _rc_circuit()
    timestep = 1e-8
    result = transient_analysis(circuit, t_stop=2e-6, timestep=timestep)

    structure = MnaStructure.from_circuit(circuit)
    stamper = stamp_linear_elements(circuit, structure)
    g = add_gmin_diagonal(stamper.conductance_system(), structure.n_nodes, 1e-12)
    c = stamper.capacitance_system()
    lhs = sp.csc_matrix(g + c / timestep)
    rhs_template = np.zeros(structure.size)
    rhs_template[structure.branch_row("V1")] = 1.0

    x = result.vectors[0].copy()
    for step in range(1, len(result.times)):
        rhs = rhs_template + (c / timestep) @ x
        x = spla.spsolve(lhs, rhs)
        assert np.allclose(result.vectors[step], x, atol=ATOL)


def test_newton_transient_matches_reference_tolerance(technology):
    """The Newton path still uses per-iteration solves; the refactored
    stamping must reproduce the same waveforms as an independent run."""
    circuit = _mosfet_circuit(technology)
    a = transient_analysis(circuit, t_stop=2e-7, timestep=2e-9)
    b = transient_analysis(circuit, t_stop=2e-7, timestep=2e-9)
    assert np.allclose(a.vectors, b.vectors, atol=ATOL)
    # And the end point tracks the 50 mV gate step with a sane drain swing.
    assert a.voltage("d")[-1] != pytest.approx(a.voltage("d")[0], abs=1e-6)


def test_kron_reduction_equivalent_to_direct_schur(technology):
    spec = MeshSpec(region=Rect(0, 0, 100e-6, 100e-6), nx=5, ny=5,
                    max_depth=80e-6, n_z_per_layer=2)
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    g = mesh.conductance_matrix()
    left = [mesh.node_index(0, iy, 0) for iy in range(mesh.ny)]
    right = [mesh.node_index(mesh.nx - 1, iy, 0) for iy in range(mesh.ny)]
    macro = kron_reduce(g, [left, right], ["left", "right"], [1e4, 1e4])

    # Direct dense Schur complement of the augmented system.
    n = g.shape[0]
    augmented = np.zeros((n + 2, n + 2))
    augmented[:n, :n] = g.toarray()
    for port, nodes in enumerate((left, right)):
        share = 1e4 / len(nodes)
        row = n + port
        for node in nodes:
            augmented[row, row] += share
            augmented[node, node] += share
            augmented[row, node] -= share
            augmented[node, row] -= share
    y_ii = augmented[:n, :n] + 1e-12 * np.eye(n)
    y_ip = augmented[:n, n:]
    y_pp = augmented[n:, n:]
    reference = y_pp - y_ip.T @ np.linalg.solve(y_ii, y_ip)
    reference = 0.5 * (reference + reference.T)
    assert np.allclose(macro.admittance, reference,
                       atol=1e-12 * np.abs(reference).max())


# -- factorization caching guarantees ---------------------------------------------------


def test_linear_transient_single_factorization():
    """A linear transient must factorize once, no matter the step count."""
    circuit = _rc_circuit()
    operating_point = dc_operating_point(circuit)
    for n_steps in (10, 500):
        stats.reset()
        transient_analysis(circuit, t_stop=n_steps * 1e-8, timestep=1e-8,
                           operating_point=operating_point)
        assert stats.factorizations == 1
        assert stats.solves == n_steps


# -- shared-pattern AC assembly ---------------------------------------------------------


def test_shared_pattern_matches_sparse_add():
    g = sp.random(40, 40, density=0.1, format="csr", random_state=1)
    c = sp.random(40, 40, density=0.1, format="csr", random_state=2)
    pair = SharedPatternPair(g, c)
    for omega in (0.0, 1e3, 1e9):
        direct = (g + 1j * omega * c).toarray()
        assert np.allclose(pair.assemble(1j * omega).toarray(), direct,
                           atol=ATOL)


def test_shared_pattern_reuses_structure_per_point():
    """The AC sweep allocates no new sparse structure per frequency point."""
    g = sp.random(30, 30, density=0.15, format="csr", random_state=3)
    c = sp.random(30, 30, density=0.15, format="csr", random_state=4)
    pair = SharedPatternPair(g, c)
    first = pair.assemble(1j * 10.0)
    indices, indptr, data = first.indices, first.indptr, first.data
    second = pair.assemble(1j * 1e6)
    assert second is first
    assert second.indices is indices
    assert second.indptr is indptr
    assert second.data is data


def test_shared_pattern_disjoint_and_empty_patterns():
    g = sp.csr_matrix(np.diag([1.0, 2.0, 0.0]))
    c = sp.csr_matrix(([5.0], ([2], [0])), shape=(3, 3))
    pair = SharedPatternPair(g, c)
    assert np.allclose(pair.assemble(2j).toarray(),
                       g.toarray() + 2j * c.toarray(), atol=ATOL)
    empty = SharedPatternPair(sp.csr_matrix((2, 2)), sp.csr_matrix((2, 2)))
    assert empty.assemble(1j).nnz == 0


# -- gmin helper ------------------------------------------------------------------------


def test_add_gmin_only_touches_node_rows():
    matrix = sp.csr_matrix(np.zeros((4, 4)))
    result = add_gmin_diagonal(matrix, 2, 1e-9).toarray()
    assert np.allclose(np.diag(result), [1e-9, 1e-9, 0.0, 0.0])
    assert np.count_nonzero(result - np.diag(np.diag(result))) == 0


def test_add_gmin_noop_cases():
    matrix = sp.csr_matrix(np.eye(3))
    assert np.allclose(add_gmin_diagonal(matrix, 0, 1e-9).toarray(), np.eye(3))
    assert np.allclose(add_gmin_diagonal(matrix, 3, 0.0).toarray(), np.eye(3))


# -- singular-matrix diagnostics --------------------------------------------------------


def test_solve_sparse_promotes_rank_warning_to_error():
    # Structurally full but numerically singular: duplicate rows.
    matrix = sp.csc_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(SimulationError, match="singular"):
        LinearSolver().solve(matrix, np.ones(2))


def test_solve_sparse_names_floating_node():
    circuit = Circuit("f")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "0", 1.0)
    circuit.add_resistor("Rfloat", "a", "b", 1.0)
    structure = MnaStructure.from_circuit(circuit)
    stamper = stamp_linear_elements(circuit, structure)
    # A matrix with an all-zero row (simulating a floating node) must name it.
    matrix = sp.lil_matrix(stamper.conductance_system())
    row = structure.node_row("a")
    matrix[row, :] = 0.0
    matrix[:, row] = 0.0
    with pytest.raises(SimulationError, match="node 'a'"):
        LinearSolver().solve(matrix.tocsr(), np.zeros(structure.size),
                             structure=structure)


def test_solve_sparse_empty_and_nonsquare():
    assert LinearSolver().solve(sp.csr_matrix((0, 0)), np.zeros(0)).size == 0
    with pytest.raises(SimulationError):
        LinearSolver().solve(sp.csr_matrix((2, 3)), np.zeros(2))


def test_add_gmin_dense_returns_a_new_array():
    matrix = np.zeros((3, 3))
    result = add_gmin_diagonal(matrix, 2, 1e-9)
    np.testing.assert_array_equal(np.diag(result), [1e-9, 1e-9, 0.0])
    assert not matrix.any()
    assert add_gmin_diagonal(matrix, 2, 0.0) is matrix


# -- dense LAPACK kernel vs SuperLU -------------------------------------------------------


@contextmanager
def _kernel(kernel):
    """Force every MNA system onto one kernel by moving the dense cutoff,
    and check from the ``solver.factorize`` spans that it really ran."""
    cutoff = 10**9 if kernel == "lapack" else 0
    tracer.enable()
    tracer.reset()
    try:
        with mock.patch.object(solver_module, "DENSE_MAX_SIZE", cutoff):
            yield
        kernels = {dict(span.attrs)["kernel"] for span in tracer.spans()
                   if span.name == "solver.factorize"}
        assert kernels == {kernel}
    finally:
        tracer.disable()
        tracer.reset()


_NMOS = make_technology().mos_parameters("nmos_rf")


@st.composite
def _random_circuits(draw):
    """A random RLC network with VCCS/VCVS stages, MOSFETs and sources,
    with 3-30 nodes or just above the dense cutoff.

    Every network node has a resistor to ground, inductors lie only on
    the spanning tree (no loop of voltage-defined branches), controlled
    sources are weak or drive their own node, and MOSFET gates are biased
    by sources, so each system is well conditioned and Newton converges.
    """
    above = draw(st.booleans())
    n_nodes = draw(st.integers(DENSE_MAX_SIZE + 1, DENSE_MAX_SIZE + 15)
                   if above else st.integers(3, 30))
    resistance = st.floats(100.0, 1e4)
    circuit = Circuit("random")
    nodes = [f"n{k}" for k in range(n_nodes)]
    for k, node in enumerate(nodes):
        circuit.add_resistor(f"Rg{k}", node, "0",
                             draw(st.floats(100.0, 1e3)))
        if k:
            parent = nodes[draw(st.integers(0, k - 1))]
            if draw(st.integers(0, 4)) == 0:
                circuit.add_inductor(f"L{k}", parent, node,
                                     draw(st.floats(1e-9, 1e-6)))
            else:
                circuit.add_resistor(f"Rt{k}", parent, node,
                                     draw(resistance))
    pick = st.sampled_from(nodes)
    for k in range(draw(st.integers(0, n_nodes))):
        node_p, node_n = draw(pick), draw(pick)
        if node_p == node_n:
            continue
        if draw(st.booleans()):
            circuit.add_capacitor(f"C{k}", node_p, node_n,
                                  draw(st.floats(1e-14, 1e-11)))
        else:
            circuit.add_resistor(f"Rx{k}", node_p, node_n, draw(resistance))
    for k in range(draw(st.integers(0, 3))):
        circuit.add_vccs(f"G{k}", draw(pick), "0", draw(pick), "0",
                         draw(st.floats(-1e-4, 1e-4)))
    for k in range(draw(st.integers(0, 2))):
        circuit.add_vcvs(f"E{k}", f"e{k}", "0", draw(pick), "0",
                         draw(st.floats(-2.0, 2.0)))
        circuit.add_resistor(f"Re{k}", f"e{k}", draw(pick), draw(resistance))
    for k in range(draw(st.integers(1, 3))):
        circuit.add_voltage_source(
            f"V{k}", f"s{k}", "0",
            SourceValue(dc=draw(st.floats(0.0, 1.8))))
        circuit.add_resistor(f"Rs{k}", f"s{k}", draw(pick), draw(resistance))
    for k in range(draw(st.integers(0, 3))):
        circuit.add_voltage_source(f"VG{k}", f"g{k}", "0",
                                   draw(st.floats(0.3, 1.2)))
        circuit.add_mosfet(f"M{k}", draw(pick), f"g{k}", "0", "0", _NMOS,
                           width=draw(st.floats(1e-6, 10e-6)),
                           length=0.18e-6)
    return circuit


def _assert_close(actual, reference):
    # Relative to the largest entry, with an absolute floor of the smallest
    # normal double: hypothesis draws subnormal source values, whose
    # vectors sit below the reach of any relative bound.
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(actual - reference)) <= max(1e-12 * scale,
                                                     np.finfo(float).tiny)


@given(circuit=_random_circuits())
@settings(max_examples=30, deadline=None)
def test_dense_and_superlu_kernels_agree_on_random_circuits(circuit):
    frequencies = [1e3, 1e6, 1e9]
    sources = [element.name for element in circuit.sources()]
    nodes = circuit.nodes()
    options = DcOptions(abs_tolerance=0.0, rel_tolerance=1e-13)
    results = {}
    for kernel in ("lapack", "superlu"):
        with _kernel(kernel):
            dc = dc_operating_point(circuit, options)
            transfer = transfer_functions(circuit, sources, nodes,
                                          frequencies, operating_point=dc)
        results[kernel] = (dc.vector,
                           np.array([transfer[name].transfers[node]
                                     for name in sources for node in nodes]))
    for dense, sparse in zip(results["lapack"], results["superlu"]):
        _assert_close(dense, sparse)


@pytest.mark.parametrize("grid", [1, 10])
def test_singular_system_names_floating_node_on_both_kernels(grid):
    """A capacitor-only node with no gmin makes the DC system exactly
    singular; below the dense cutoff (LAPACK ``info > 0``) and above it
    (SuperLU) the error names the node."""
    circuit = Circuit("floating")
    circuit.add_voltage_source("V1", "n_0_0", "0", 1.0)
    for i in range(grid):
        for j in range(grid):
            node = f"n_{i}_{j}"
            circuit.add_resistor(f"Rg_{i}_{j}", node, "0", 1e3)
            if i + 1 < grid:
                circuit.add_resistor(f"Rx_{i}_{j}", node, f"n_{i + 1}_{j}",
                                     100.0)
            if j + 1 < grid:
                circuit.add_resistor(f"Ry_{i}_{j}", node, f"n_{i}_{j + 1}",
                                     100.0)
    circuit.add_capacitor("Cfloat", "n_0_0", "a", 1e-12)
    size = MnaStructure.from_circuit(circuit).size
    assert (size <= DENSE_MAX_SIZE) == (grid == 1)
    with pytest.raises(SimulationError, match="exactly singular.*node 'a'"):
        dc_operating_point(circuit, DcOptions(gmin=0.0))
