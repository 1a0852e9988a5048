"""Tests of the batched transfer-function analysis.

The multi-source path must solve every source through *one* factorization per
frequency point (the ROADMAP's multi-RHS batching), and the analysis must
only read the caller's circuit: each source's unit drive is its MNA
incidence, so no source value is ever swapped, not even while a solve runs
or fails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.elements import SourceValue
from repro.simulator import (
    LinearSolver,
    LinearStamps,
    transfer_function,
    transfer_functions,
)
from repro.simulator.solver import stats


def _summing_network() -> Circuit:
    circuit = Circuit("two_sources")
    circuit.add_voltage_source("V1", "a", "0", SourceValue(dc=1.0))
    circuit.add_voltage_source("V2", "b", "0", SourceValue())
    circuit.add_current_source("I1", "0", "out", SourceValue())
    circuit.add_resistor("R1", "a", "out", 1e3)
    circuit.add_resistor("R2", "b", "out", 1e3)
    circuit.add_resistor("R3", "out", "0", 1e3)
    return circuit


def _resistor_ladder(sections: int = 100) -> Circuit:
    """An RC ladder of more than 90 unknowns (the sparse path)."""
    circuit = Circuit("ladder")
    circuit.add_voltage_source("V1", "n0", "0", SourceValue(dc=1.0))
    circuit.add_current_source("I1", "0", f"n{sections // 2}",
                               SourceValue(dc=1e-3))
    for k in range(sections):
        circuit.add_resistor(f"R{k}", f"n{k}", f"n{k + 1}", 10.0)
        circuit.add_capacitor(f"C{k}", f"n{k + 1}", "0", 1e-12)
    circuit.add_resistor("RL", f"n{sections}", "0", 50.0)
    return circuit


def test_batched_matches_single_source():
    circuit = _summing_network()
    frequencies = [1e3, 1e5, 1e7]
    batched = transfer_functions(circuit, ["V1", "V2", "I1"], ["out"],
                                 frequencies)
    for name in ("V1", "V2", "I1"):
        single = transfer_function(circuit, name, ["out"], frequencies)
        np.testing.assert_allclose(batched[name].transfers["out"],
                                   single.transfers["out"],
                                   rtol=0, atol=1e-13)
    # Voltage-source transfers: 1 V on one input of the summing network.
    assert abs(batched["V1"].at("out", 1e3)) == pytest.approx(1.0 / 3.0,
                                                              rel=1e-9)
    # Current-source transfer in V/A: 1 A into R3 || (R1 + R2/2...) etc.
    assert abs(batched["I1"].at("out", 1e3)) > 0


def test_one_factorization_per_frequency_regardless_of_sources():
    circuit = _summing_network()
    frequencies = [1e3, 1e4, 1e5, 1e6]
    stats.reset()
    transfer_functions(circuit, ["V1", "V2", "I1"], ["out"], frequencies)
    assert stats.factorizations == len(frequencies)
    assert stats.solves == len(frequencies)        # one multi-RHS block each


@pytest.mark.parametrize("build, node, dense", [
    (_summing_network, "out", True), (_resistor_ladder, "n1", False)],
    ids=["dense-reduced", "sparse"])
def test_sources_are_untouched_while_factorizing(monkeypatch, build, node,
                                                 dense):
    """Every factorization sees each source still holding its original
    value object: the unit drives never pass through the circuit."""
    circuit = build()
    assert isinstance(LinearStamps.of(circuit).conductance,
                      np.ndarray) is dense
    originals = {element.name: element.value
                 for element in circuit.sources()}
    untouched = []
    factorize = LinearSolver.factorize

    def recording_factorize(self, matrix, structure=None, spd=False):
        untouched.append(all(circuit[name].value is value
                             for name, value in originals.items()))
        return factorize(self, matrix, structure=structure, spd=spd)

    monkeypatch.setattr(LinearSolver, "factorize", recording_factorize)
    transfer_functions(circuit, list(originals), [node], [1e3, 1e6])
    assert untouched and all(untouched)


def test_sources_are_restored_after_analysis():
    circuit = _summing_network()
    originals = {element.name: element.value for element in circuit.sources()}
    transfer_functions(circuit, ["V1", "V2"], ["out"], [1e3])
    for element in circuit.sources():
        assert element.value is originals[element.name]


def test_sources_are_restored_on_solver_error(monkeypatch):
    circuit = _summing_network()
    originals = {element.name: element.value for element in circuit.sources()}

    from repro.simulator.linalg import LinearSolver

    def failing_factorize(self, matrix, structure=None, spd=False):
        raise SimulationError("injected factorization failure")

    monkeypatch.setattr(LinearSolver, "factorize", failing_factorize)
    with pytest.raises(SimulationError, match="injected"):
        transfer_functions(circuit, ["V1"], ["out"], [1e3])
    for element in circuit.sources():
        assert element.value is originals[element.name]
    # DC levels survived the round trip (the operating point is untouched).
    assert circuit.sources()[0].value.dc == 1.0


def test_transfer_input_validation():
    circuit = _summing_network()
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["nope"], ["out"], [1e3])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, [], ["out"], [1e3])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["V1"], [], [1e3])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["V1"], ["out"], [])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["V1"], ["out"], [-1.0])
    with pytest.raises(SimulationError):
        transfer_functions(circuit, ["V1", "V1"], ["out"], [1e3])


def test_at_reads_swept_points_only():
    """``at`` matches a swept frequency within a relative 1e-9 and refuses
    any other frequency instead of returning the nearest point."""
    tf = transfer_function(_summing_network(), "V1", ["out"], [1e3, 1e6])
    assert tf.at("out", 1e6) == tf.transfers["out"][1]
    assert tf.at("out", 1e6 * (1 + 1e-12)) == tf.transfers["out"][1]
    assert tf.index_of(1e3) == 0
    for frequency in (5e5, 1e6 * (1 + 1e-8), 0.0):
        with pytest.raises(SimulationError, match=f"{frequency!r} Hz"):
            tf.at("out", frequency)


def test_ground_observation_reads_zero_and_unknown_node_raises():
    circuit = _summing_network()
    tf = transfer_function(circuit, "V1", ["0"], [1e3, 1e6])
    np.testing.assert_array_equal(tf.transfers["0"],
                                  np.zeros(2, dtype=complex))
    with pytest.raises(SimulationError):
        transfer_function(circuit, "V1", ["ghost"], [1e3])


def test_rc_lowpass_corner():
    circuit = Circuit("rc")
    circuit.add_voltage_source("VIN", "in", "0", 1.0)
    circuit.add_resistor("R", "in", "out", 1e3)
    circuit.add_capacitor("C", "out", "0", 1e-9)
    corner = 1.0 / (2.0 * np.pi * 1e3 * 1e-9)
    tf = transfer_function(circuit, "VIN", ["out"], [corner])
    assert abs(tf.at("out", corner)) == pytest.approx(1.0 / np.sqrt(2.0),
                                                      rel=1e-9)
    assert tf.phase_deg("out")[0] == pytest.approx(-45.0, abs=1e-6)
