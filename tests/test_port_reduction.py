"""Tests of the device-port reduction and the compiled stamps.

A dense transfer analysis solves the Schur complement of the linear stamps
onto the device terminals and observed nodes, with the small-signal models
added on top; the oracle here is the unreduced ``G + sC`` of the whole
testbench, solved per frequency.  DC Newton scatters the companion stamps
through a pattern compiled once, and the transfer analysis the
small-signal stamps; the oracle is a fresh ``MatrixStamper`` per iteration
or corner.  A stack of warm-started corners solves all of them at once;
the oracle is each corner solved alone.  The VCO corner evaluates the spur
equations on (entries x frequencies) arrays; the oracle is the per-point
evaluation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.flow import run_extraction_flow
from repro.core.nmos import NmosExperimentOptions, _build_testbench
from repro.core.vco_experiment import (
    VcoImpactAnalysis,
    _compiled_testbench,
)
from repro.errors import SimulationError
from repro.layout.testchips import (
    VcoLayoutSpec,
    make_nmos_measurement_structure,
)
from repro.netlist import Circuit
from repro.obs import tracer
from repro.simulator import dc_operating_point, transfer_function
from repro.simulator import transfer as transfer_module
from repro.simulator.dc import DcCorners
from repro.simulator.mna import (
    LinearStamps,
    MatrixStamper,
    StampPattern,
    source_rows,
)
from repro.simulator.solver import DENSE_MAX_SIZE, SolverStats, stats
from repro.vco.sensitivity import entries_at_frequency
from repro.vco.spurs import compute_spurs

FREQUENCIES = np.logspace(np.log10(100e3), np.log10(15e6), 12)


@pytest.fixture(scope="module")
def fig10_analyses(technology):
    """The nominal and widened-ground VCO analyses at the default mesh."""
    return [VcoImpactAnalysis(technology,
                              spec=VcoLayoutSpec(ground_width_scale=scale))
            for scale in (1.0, 2.0)]


def _unreduced_transfer(circuit, linear, operating_point, source, nodes,
                        frequencies, gmin=1e-12):
    """The transfer of the whole MNA system, solved per frequency."""
    structure = linear.structure
    stamper = MatrixStamper(structure)
    voltages = operating_point.voltages()
    for element in circuit.nonlinear_elements():
        element.stamp_small_signal(stamper, voltages)
    g = np.asarray(linear.conductance) + stamper.conductance_system()
    g[np.arange(structure.n_nodes), np.arange(structure.n_nodes)] += gmin
    c = np.asarray(linear.capacitance) + stamper.capacitance_system()
    rhs = np.zeros(structure.size, dtype=complex)
    for row, sign in source_rows(structure, circuit[source]):
        rhs[row] += sign
    rows = [structure.node_row(node) for node in nodes]
    return np.array([np.linalg.solve(g + 2j * np.pi * f * c, rhs)[rows]
                     for f in frequencies]).T


def _observation_nodes(analysis, op, vtune) -> list[str]:
    """The nodes the entry catalogue of ``analysis`` reads at ``op``."""
    sensitivities = analysis.junction_sensitivities(op)
    return analysis.entry_catalog(analysis.vco_model(op, sensitivities),
                                  vtune, sensitivities).observation_nodes()


@pytest.mark.parametrize("vtune", [0.0, 0.75, 1.5])
def test_reduced_transfer_matches_unreduced_testbench(fig10_analyses, vtune):
    for analysis in fig10_analyses:
        circuit = analysis.build_testbench(vtune)
        _template, linear = _compiled_testbench(analysis.flow,
                                                analysis.options)
        assert linear.structure.size == 43
        op = dc_operating_point(circuit, linear=linear)
        nodes = _observation_nodes(analysis, op, vtune)
        reduced = transfer_function(circuit, "VSUB_SRC", nodes, FREQUENCIES,
                                    operating_point=op, linear=linear)
        assert linear.kept_rows(nodes).size == 13
        expected = _unreduced_transfer(circuit, linear, op, "VSUB_SRC",
                                       nodes, FREQUENCIES)
        got = np.array([reduced.transfers[node] for node in nodes])
        assert np.max(np.abs(got - expected)) <= \
            1e-10 * np.max(np.abs(expected))


def _follower_with_source_across_terminals(technology) -> Circuit:
    """A source follower whose gate is held 0.3 V above its drain by an
    ideal source straight across the two device terminals."""
    circuit = Circuit("source_across_terminals")
    circuit.add_voltage_source("VDD", "vdd_ext", "0", 1.8)
    circuit.add_resistor("RD", "vdd_ext", "d", 100.0)
    circuit.add_voltage_source("VGD", "g", "d", 0.3)
    circuit.add_mosfet("M1", "d", "g", "s", "0",
                       technology.mos_parameters("nmos_rf"),
                       width=10e-6, length=0.18e-6)
    circuit.add_resistor("RS", "s", "0", 1e3)
    circuit.add_resistor("RIN", "in", "vdd_ext", 50.0)
    circuit.add_voltage_source("VIN", "drive", "0", 0.0)
    circuit.add_resistor("RDRIVE", "drive", "in", 50.0)
    return circuit


def test_branch_row_across_device_terminals_is_kept(technology):
    circuit = _follower_with_source_across_terminals(technology)
    linear = LinearStamps.of(circuit)
    structure = linear.structure
    kept = linear.kept_rows(["s"])
    # Every column of the VGD row is a device terminal, so the row stays:
    # eliminated, it would be an all-zero row of the eliminated block.
    assert structure.branch_row("VGD") in kept
    assert structure.branch_row("VDD") not in kept
    op = dc_operating_point(circuit, linear=linear)
    reduced = transfer_function(circuit, "VIN", ["s", "d"], FREQUENCIES,
                                operating_point=op, linear=linear)
    expected = _unreduced_transfer(circuit, linear, op, "VIN", ["s", "d"],
                                   FREQUENCIES)
    got = np.array([reduced.transfers["s"], reduced.transfers["d"]])
    np.testing.assert_allclose(got, expected, rtol=1e-10,
                               atol=1e-12 * np.max(np.abs(expected)))


def test_singular_eliminated_block_names_the_node():
    circuit = Circuit("dangling_control")
    circuit.add_voltage_source("VIN", "in", "0", 0.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_resistor("R2", "out", "0", 1e3)
    # "ctl" is only the control input of a VCCS: its own row is empty.
    circuit.add_vccs("G1", "out", "0", "ctl", "0", 1e-3)
    with pytest.raises(SimulationError,
                       match="port reduction failed.*node 'ctl'"):
        transfer_function(circuit, "VIN", ["out"], [1e3], gmin=0.0)
    # Observed, the node is kept: the direct solve of the reduced systems
    # names it instead, and counts no work for the failed solve.
    before = stats.snapshot()
    with pytest.raises(SimulationError,
                       match="exactly singular.*node 'ctl'") as failure:
        transfer_function(circuit, "VIN", ["out", "ctl"], [1e3, 1e4],
                          gmin=0.0)
    assert "port reduction" not in str(failure.value)
    assert stats.since(before) == SolverStats()


def test_reduction_is_cached_uncounted_and_traced(technology):
    circuit = _follower_with_source_across_terminals(technology)
    linear = LinearStamps.of(circuit)
    op = dc_operating_point(circuit, linear=linear)
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        mark = tracer.mark()
        before = stats.snapshot()
        for _ in range(2):
            transfer_function(circuit, "VIN", ["s"], FREQUENCIES,
                              operating_point=op, linear=linear)
        spent = stats.since(before)
        spans = [dict(span.attrs) for span in tracer.spans_since(mark)
                 if span.name == "sim.reduce"]
        transfer_function(circuit, "VIN", ["s"], FREQUENCIES[:3],
                          operating_point=op, linear=linear)
        rebuilt = [dict(span.attrs) for span in tracer.spans_since(mark)
                   if span.name == "sim.reduce"][-1]
    finally:
        if not was_enabled:
            tracer.disable()
    # One point is one factorization and one solve; the reduction is not
    # solver work.
    assert spent.factorizations == spent.solves == 2 * FREQUENCIES.size
    assert [span["reused"] for span in spans] == [False, True]
    size = linear.structure.size
    assert spans[0]["kept"] + spans[0]["eliminated"] == size
    assert spans[0]["points"] == FREQUENCIES.size
    assert rebuilt["reused"] is False and rebuilt["points"] == 3


def _matrix_stamper_companion(linear, nonlinear, voltages):
    """The reference companion assembly: a fresh stamper per iteration and
    corner of the stacked ``voltages``."""
    corners = max(np.size(value) for value in voltages.values())
    systems, rhs = [], []
    for corner in range(corners):
        companion = MatrixStamper(linear.structure)
        corner_voltages = {name: float(np.atleast_1d(value)[corner])
                           for name, value in voltages.items()}
        for element in nonlinear:
            element.stamp_companion(companion, corner_voltages)
        systems.append(companion.conductance_system())
        rhs.append(companion.rhs)
    if isinstance(systems[0], np.ndarray):
        systems = np.stack(systems)
    return systems, np.stack(rhs)


def _compare_newton_paths(monkeypatch, circuit, linear):
    compiled = dc_operating_point(circuit, linear=linear)
    with monkeypatch.context() as patch:
        patch.setattr(LinearStamps, "companion_system",
                      lambda self, voltages: _matrix_stamper_companion(
                          self, circuit.nonlinear_elements(), voltages))
        reference = dc_operating_point(circuit, linear=linear)
    assert compiled.iterations == reference.iterations
    assert compiled.strategy == reference.strategy
    assert np.array_equal(compiled.vector, reference.vector)


@pytest.mark.parametrize("vtune", [0.0, 0.75, 1.5])
def test_compiled_newton_stamps_bit_identical_on_vco(monkeypatch,
                                                    fig10_analyses, vtune):
    analysis = fig10_analyses[0]
    _template, linear = _compiled_testbench(analysis.flow, analysis.options)
    _compare_newton_paths(monkeypatch, analysis.build_testbench(vtune),
                          linear)


def test_compiled_newton_stamps_bit_identical_on_fig3_nmos(monkeypatch,
                                                           technology):
    options = NmosExperimentOptions()
    flow = run_extraction_flow(make_nmos_measurement_structure(), technology,
                               options=options.flow)
    testbench, linear = _build_testbench(flow, options)
    for bias in options.bias_points:
        circuit = testbench.with_sources({"VGATE_SRC": bias,
                                          "VDRAIN_SRC": bias})
        _compare_newton_paths(monkeypatch, circuit, linear)


def test_stamp_pattern_rejects_a_changed_call_sequence():
    circuit = Circuit("rc")
    circuit.add_resistor("R1", "a", "0", 1e3)
    structure = LinearStamps.of(circuit).structure
    pattern = StampPattern.record(
        structure, lambda stamper: stamper.conductance("a", "0", 1.0))
    values = pattern.evaluate(
        lambda stamper: stamper.conductance("a", "0", 2.5))
    assert pattern.conductance(values)[0, 0] == 2.5
    with pytest.raises(SimulationError, match="recorded 1 stamp calls, got 2"):
        pattern.evaluate(lambda stamper: [stamper.conductance("a", "0", 1.0),
                                          stamper.current("a", "0", 1.0)])
    with pytest.raises(SimulationError, match="node stamps only"):
        StampPattern.record(structure, lambda stamper:
                            stamper.branch_voltage_source("V", "a", "0"))


def _matrix_stamper_small_signal(circuit, structure, operating_point):
    """The reference small-signal assembly: a fresh stamper per corner."""
    stamper = MatrixStamper(structure)
    voltages = operating_point.voltages()
    for element in circuit.nonlinear_elements():
        element.stamp_small_signal(
            stamper, voltages,
            point=operating_point.operating_point_of(element.name))
    return stamper.conductance_system(), stamper.capacitance_system()


def _assert_same_bytes(got, want):
    assert type(got) is type(want) and got.shape == want.shape
    if isinstance(want, np.ndarray):
        assert got.tobytes() == want.tobytes()
    else:
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == \
                getattr(want, part).tobytes(), part


def _compare_small_signal_paths(circuit, linear, structure, operating_point):
    """The pattern against a fresh stamper: for the operating point alone
    (values of one corner) and as both corners of a stack of two."""
    g, c = _matrix_stamper_small_signal(circuit, structure, operating_point)
    alone = DcCorners.of(operating_point)
    pair = replace(alone, vectors=np.stack([operating_point.vector] * 2),
                   corner_iterations=alone.corner_iterations * 2,
                   strategies=alone.strategies * 2, work=alone.work * 2)
    pattern, values = transfer_module._small_signal_values(
        linear, structure, alone)
    assert pattern is linear.small_signal_pattern(structure)
    assert values.shape == (pattern.n_calls,)
    _assert_same_bytes(pattern.conductance(values), g)
    _assert_same_bytes(pattern.capacitance(values), c)
    pattern, values = transfer_module._small_signal_values(
        linear, structure, pair)
    assert values.shape == (2, pattern.n_calls)
    for corner in range(2):
        _assert_same_bytes(pattern.conductance(values)[corner], g)
        _assert_same_bytes(pattern.capacitance(values)[corner], c)


@pytest.mark.parametrize("vtune", [0.0, 0.75, 1.5])
def test_compiled_small_signal_stamps_bit_identical_on_vco(fig10_analyses,
                                                          vtune):
    analysis = fig10_analyses[0]
    circuit = analysis.build_testbench(vtune)
    _template, linear = _compiled_testbench(analysis.flow, analysis.options)
    op = dc_operating_point(circuit, linear=linear)
    nodes = _observation_nodes(analysis, op, vtune)
    rhs = np.zeros((linear.structure.size, 1), dtype=complex)
    for row, sign in source_rows(linear.structure, circuit["VSUB_SRC"]):
        rhs[row, 0] += sign
    kept = linear.port_reduction(nodes, FREQUENCIES, 1e-12, rhs).structure
    assert kept.size == 13
    _compare_small_signal_paths(circuit, linear, kept, op)


def _long_ladder_amplifier(technology, sections=100) -> Circuit:
    """A degenerated common-source stage driving a 100-section RC ladder:
    more unknowns than the dense cutoff, so its systems are sparse."""
    circuit = Circuit("ladder_amplifier")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.8)
    circuit.add_voltage_source("VG", "g", "0", 0.9)
    circuit.add_resistor("RL", "vdd", "d", 1e3)
    circuit.add_mosfet("M1", "d", "g", "s", "b",
                       technology.mos_parameters("nmos_rf"),
                       width=10e-6, length=0.18e-6)
    circuit.add_resistor("RS", "s", "0", 100.0)
    circuit.add_resistor("RB", "b", "0", 1e3)
    previous = "d"
    for section in range(sections):
        node = f"l{section}"
        circuit.add_resistor(f"R{section}", previous, node, 10.0)
        circuit.add_capacitor(f"C{section}", node, "0", 1e-14)
        previous = node
    return circuit


def test_compiled_small_signal_stamps_bit_identical_on_sparse_circuit(
        technology):
    circuit = _long_ladder_amplifier(technology)
    linear = LinearStamps.of(circuit)
    assert linear.structure.size > DENSE_MAX_SIZE
    op = dc_operating_point(circuit, linear=linear)
    _compare_small_signal_paths(circuit, linear, linear.structure, op)


def _dc_with_counts(circuit, linear, **kwargs):
    before = stats.snapshot()
    solution = dc_operating_point(circuit, linear=linear, **kwargs)
    return solution, stats.since(before)


def test_warm_started_stack_matches_each_corner_alone(fig10_analyses):
    """One stacked DC solve of several V_tune corners from the reference
    point gives each corner the vector, iterations and solves of its own
    solve, on its own copy of the testbench."""
    analysis = fig10_analyses[0]
    template, linear = _compiled_testbench(analysis.flow, analysis.options)
    reference = analysis.reference_point()
    vtunes = np.array([0.0, 0.75, 1.5])
    stacked, stacked_counts = _dc_with_counts(
        template, linear, initial=reference,
        sources=analysis._corner_sources(vtunes))
    assert isinstance(stacked, DcCorners) and len(stacked) == vtunes.size
    assert stacked_counts.solves == stacked.iterations
    assert stacked_counts.factorizations == 0
    for index, vtune in enumerate(vtunes):
        alone, alone_counts = _dc_with_counts(
            analysis.build_testbench(vtune), linear, initial=reference)
        corner = stacked.corner(index)
        assert corner.vector.tobytes() == alone.vector.tobytes()
        assert corner.iterations == alone.iterations
        assert corner.strategy == alone.strategy == "newton"
        assert alone_counts.solves == alone.iterations
        assert alone_counts.factorizations == 0
        assert stacked.work[index] == SolverStats(solves=alone.iterations)


def _loop_spurs(entries, carrier_amplitude, noise_amplitude, frequency):
    """Eqs. (2)/(3) entry by entry in Python scalars: the reference."""
    scale = carrier_amplitude / 2.0 * noise_amplitude
    fm_sum = sum(e.h_sub * e.k_hz_per_volt / frequency for e in entries)
    am_sum = sum(e.h_sub * e.g_am_per_volt for e in entries)
    return (scale * abs(fm_sum), scale * abs(am_sum),
            scale * abs(fm_sum - am_sum), scale * abs(fm_sum + am_sum))


@pytest.mark.parametrize("vtune", [0.0, 1.5])
def test_array_spurs_equal_per_point_evaluation(fig10_analyses, vtune):
    analysis = fig10_analyses[1]
    sweep, vco, catalog, transfer = analysis.analyze(vtune, FREQUENCIES)
    assert len(sweep) == FREQUENCIES.size
    for point, frequency in enumerate(FREQUENCIES):
        entries = entries_at_frequency(catalog, transfer, float(frequency))
        single = compute_spurs(entries, vco.oscillation_frequency(vtune),
                               vco.amplitude(vtune), analysis._noise.amplitude,
                               float(frequency))
        assert sweep.noise_frequency[point] == single.noise_frequency[0]
        assert sweep.entry_names == single.entry_names == \
            [e.name for e in entries]
        np.testing.assert_allclose(sweep.h_sub[point], single.h_sub[0],
                                   rtol=1e-14, atol=0)
        reference = _loop_spurs(entries, single.carrier_amplitude,
                                single.noise_amplitude, float(frequency))
        for name, expected in zip(("fm_voltage", "am_voltage",
                                   "lower_sideband_voltage",
                                   "upper_sideband_voltage"), reference):
            assert getattr(sweep, name)[point] == pytest.approx(
                getattr(single, name)[0], rel=1e-13, abs=0)
            assert getattr(single, name)[0] == pytest.approx(
                expected, rel=1e-13, abs=0)
        np.testing.assert_allclose(sweep.per_entry_fm_voltage[point],
                                   single.per_entry_fm_voltage[0],
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(sweep.per_entry_am_voltage[point],
                                   single.per_entry_am_voltage[0],
                                   rtol=1e-13, atol=0)
        assert sweep.total_spur_power_dbm()[point] == pytest.approx(
            single.total_spur_power_dbm()[0], abs=1e-12)
