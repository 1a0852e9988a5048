"""MNA assembly: index maps, stamps, matrix properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.netlist import Circuit, SourceValue
from repro.simulator import (
    dc_operating_point,
    transfer_function,
    transfer_functions,
)
from repro.simulator.linalg import LinearSolver
from repro.simulator.mna import (
    LinearStamps,
    MnaStructure,
    SolutionView,
    source_rows,
    stamp_linear_elements,
)


def test_structure_indexing():
    circuit = Circuit("t")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", 1.0)
    circuit.add_inductor("L1", "out", "0", 1e-9)
    structure = MnaStructure.from_circuit(circuit)
    assert structure.n_nodes == 2
    assert structure.n_branches == 2
    assert structure.size == 4
    assert structure.node_row("0") is None
    assert structure.node_row("in") == 0
    with pytest.raises(SimulationError):
        structure.node_row("nope")
    with pytest.raises(SimulationError):
        structure.branch_row("nope")


def test_resistor_stamp_symmetry():
    circuit = Circuit("t")
    circuit.add_resistor("R1", "a", "b", 2.0)
    circuit.add_resistor("R2", "b", "0", 2.0)
    stamper = stamp_linear_elements(circuit)
    g = stamper.conductance_system()
    assert np.allclose(g, g.T)
    assert g[0, 0] == pytest.approx(0.5)
    assert g[1, 1] == pytest.approx(1.0)
    assert g[0, 1] == pytest.approx(-0.5)


def test_capacitor_stamps_into_c_matrix():
    circuit = Circuit("t")
    circuit.add_capacitor("C1", "a", "0", 1e-12)
    circuit.add_resistor("R1", "a", "0", 1.0)
    stamper = stamp_linear_elements(circuit)
    c = stamper.capacitance_system()
    assert c[0, 0] == pytest.approx(1e-12)


def test_vccs_stamp_pattern():
    circuit = Circuit("t")
    circuit.add_resistor("Rin", "cp", "0", 1.0)
    circuit.add_resistor("Rout", "p", "0", 1.0)
    circuit.add_vccs("G1", "p", "0", "cp", "0", gm=5e-3)
    stamper = stamp_linear_elements(circuit)
    g = stamper.conductance_system()
    structure = stamper.structure
    row_p = structure.node_row("p")
    col_cp = structure.node_row("cp")
    assert g[row_p, col_cp] == pytest.approx(5e-3)


def test_voltage_source_branch_and_rhs():
    # The source stamps its branch incidence only; its value reaches the
    # right-hand side through source_rows, never through the stamper.
    circuit = Circuit("t")
    circuit.add_voltage_source("V1", "in", "0", 3.3)
    circuit.add_resistor("R1", "in", "0", 1.0)
    stamper = stamp_linear_elements(circuit)
    structure = stamper.structure
    k = structure.branch_row("V1")
    g = stamper.conductance_system()
    assert g[structure.node_row("in"), k] == pytest.approx(1.0)
    assert g[k, structure.node_row("in")] == pytest.approx(1.0)
    assert not stamper.rhs.any()
    assert source_rows(structure, circuit["V1"]) == [(k, 1.0)]


def test_inductor_branch_stamp():
    circuit = Circuit("t")
    circuit.add_inductor("L1", "a", "0", 2e-9)
    circuit.add_resistor("R1", "a", "0", 1.0)
    stamper = stamp_linear_elements(circuit)
    structure = stamper.structure
    k = structure.branch_row("L1")
    c = stamper.capacitance_system()
    assert c[k, k] == pytest.approx(-2e-9)


def test_current_source_rhs_sign():
    circuit = Circuit("t")
    circuit.add_resistor("R1", "a", "0", 1.0)
    circuit.add_current_source("I1", "0", "a", 1e-3)   # pushes current into a
    stamper = stamp_linear_elements(circuit)
    row = stamper.structure.node_row("a")
    assert not stamper.rhs.any()
    assert source_rows(stamper.structure, circuit["I1"]) == [(row, 1.0)]


def test_sources_stamp_no_value():
    """Independent sources reach G only through a voltage source's branch
    incidence and the right-hand side only through source_rows: stamping
    leaves the stamper's rhs all zero, whatever the source values."""
    circuit = Circuit("t")
    circuit.add_voltage_source("V1", "in", "0", 3.3)
    circuit.add_resistor("R1", "in", "a", 1.0)
    circuit.add_resistor("R2", "a", "b", 1.0)
    circuit.add_resistor("R3", "b", "0", 1.0)
    circuit.add_current_source("I1", "a", "b", 2e-3)
    stamper = stamp_linear_elements(circuit)
    structure = stamper.structure
    assert stamper.rhs.shape == (structure.size,)
    assert not stamper.rhs.any()
    assert source_rows(structure, circuit["V1"]) == [
        (structure.branch_row("V1"), 1.0)]
    assert source_rows(structure, circuit["I1"]) == [
        (structure.node_row("a"), -1.0), (structure.node_row("b"), 1.0)]
    # The value never reaches G or C either: a re-driven copy stamps the
    # same matrices.
    driven = stamp_linear_elements(circuit.with_sources({"V1": -1.0,
                                                         "I1": 5.0}))
    np.testing.assert_array_equal(driven.conductance_system(),
                                  stamper.conductance_system())
    np.testing.assert_array_equal(driven.capacitance_system(),
                                  stamper.capacitance_system())


def test_solve_sparse_rejects_singular():
    import scipy.sparse as sp

    matrix = sp.csr_matrix(np.zeros((2, 2)))
    with pytest.raises(SimulationError):
        LinearSolver().solve(matrix, np.ones(2))


def test_solution_view_lookup():
    circuit = Circuit("t")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "0", 1.0)
    structure = MnaStructure.from_circuit(circuit)
    view = SolutionView(structure, np.array([1.0, -1.0]))
    assert view.voltage("in") == pytest.approx(1.0)
    assert view.voltage("0") == 0.0
    assert view.branch_current("V1") == pytest.approx(-1.0)
    assert view.voltage_between("in", "0") == pytest.approx(1.0)
    assert view.voltages() == {"in": 1.0}


@given(values=st.lists(st.floats(min_value=1.0, max_value=1e6),
                       min_size=2, max_size=8))
@settings(max_examples=30, deadline=None)
def test_resistive_ladder_matrix_properties(values):
    """The conductance matrix of any resistive ladder is symmetric and
    diagonally dominant with non-positive off-diagonal entries."""
    circuit = Circuit("ladder")
    previous = "0"
    for index, resistance in enumerate(values):
        node = f"n{index}"
        circuit.add_resistor(f"R{index}", previous, node, resistance)
        previous = node
    stamper = stamp_linear_elements(circuit)
    g = stamper.conductance_system()
    assert np.allclose(g, g.T)
    off_diagonal = g - np.diag(np.diag(g))
    assert np.all(off_diagonal <= 1e-15)
    assert np.all(np.diag(g) >= np.sum(np.abs(off_diagonal), axis=1) - 1e-12)


# -- compiled linear stamps ---------------------------------------------------------


def _rc_divider() -> Circuit:
    circuit = Circuit("rc")
    circuit.add_voltage_source("V1", "in", "0",
                               SourceValue(dc=1.0))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_resistor("R2", "out", "0", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-9)
    return circuit


def test_linear_stamps_hold_the_linear_system_read_only():
    circuit = _rc_divider()
    linear = LinearStamps.of(circuit)
    stamper = stamp_linear_elements(circuit)
    assert linear.structure == stamper.structure
    np.testing.assert_array_equal(linear.conductance,
                                  stamper.conductance_system())
    np.testing.assert_array_equal(linear.capacitance,
                                  stamper.capacitance_system())
    with pytest.raises(ValueError):
        linear.conductance[0, 0] = 1.0


def test_linear_stamps_serve_source_copies_bit_identically():
    """A copy with other source values solves against the original's
    stamps exactly as it does from scratch."""
    circuit = _rc_divider()
    linear = LinearStamps.of(circuit)
    corner = circuit.with_sources({"V1": SourceValue(dc=2.0)})
    np.testing.assert_array_equal(
        dc_operating_point(corner, linear=linear).vector,
        dc_operating_point(corner).vector)
    np.testing.assert_array_equal(
        transfer_function(corner, "V1", ["out"], [1e5],
                          linear=linear).transfers["out"],
        transfer_function(corner, "V1", ["out"], [1e5]).transfers["out"])


def test_mismatched_linear_stamps_raise_a_named_error():
    circuit = _rc_divider()
    linear = LinearStamps.of(circuit)
    grown = circuit.with_sources()
    grown.add_resistor("R3", "out", "0", 1e3)
    swapped = circuit.with_sources()
    swapped.remove("R2")
    swapped.add_resistor("R2", "out", "0", 2e3)
    moved = Circuit("rc")
    moved.add_voltage_source("V1", "out", "0", 1.0)
    for name in ("R1", "R2", "C1"):
        moved.add(circuit[name])
    analyses = (
        lambda c: dc_operating_point(c, linear=linear),
        lambda c: transfer_functions(c, ["V1"], ["out"], [1e3],
                                     linear=linear),
    )
    for other, named in ((grown, "compiled from 4 elements"),
                         (swapped, "'R2'"), (moved, "'V1'")):
        for analysis in analyses:
            with pytest.raises(SimulationError,
                               match="linear stamps do not match circuit"):
                analysis(other)
        with pytest.raises(SimulationError, match=named):
            dc_operating_point(other, linear=linear)
