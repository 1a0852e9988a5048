"""DC, small-signal transfer and transient analyses on known circuits."""

import math
import re

import numpy as np
import pytest

from repro.errors import ConvergenceError, SimulationError
from repro.netlist import Circuit, SourceValue
from repro.simulator import (
    DcOptions,
    dc_operating_point,
    transfer_function,
    transient_analysis,
)
from repro.simulator.transient import TransientOptions


# -- DC --------------------------------------------------------------------------------


def test_dc_resistive_divider():
    circuit = Circuit("div")
    circuit.add_voltage_source("V1", "in", "0", 2.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_resistor("R2", "out", "0", 3e3)
    solution = dc_operating_point(circuit)
    assert solution.voltage("out") == pytest.approx(1.5, rel=1e-6)
    assert solution.voltage("in") == pytest.approx(2.0, rel=1e-6)
    # Source current: 2 V across 4 kohm = 0.5 mA flowing out of the source.
    assert solution.branch_current("V1") == pytest.approx(-0.5e-3, rel=1e-5)


def test_dc_current_source_into_resistor():
    circuit = Circuit("i")
    circuit.add_current_source("I1", "0", "a", 1e-3)
    circuit.add_resistor("R1", "a", "0", 2e3)
    solution = dc_operating_point(circuit)
    assert solution.voltage("a") == pytest.approx(2.0, rel=1e-6)


def test_dc_superposition_of_sources():
    circuit = Circuit("sp")
    circuit.add_voltage_source("V1", "a", "0", 1.0)
    circuit.add_resistor("R1", "a", "b", 1e3)
    circuit.add_current_source("I1", "0", "b", 1e-3)
    circuit.add_resistor("R2", "b", "0", 1e3)
    solution = dc_operating_point(circuit)
    # Node b: superposition of the divider (0.5 V) and I1 into R1||R2 (0.5 V).
    assert solution.voltage("b") == pytest.approx(1.0, rel=1e-6)


def test_dc_vcvs_gain():
    circuit = Circuit("e")
    circuit.add_voltage_source("V1", "in", "0", 0.25)
    circuit.add_resistor("Rin", "in", "0", 1e6)
    circuit.add_vcvs("E1", "out", "0", "in", "0", gain=4.0)
    circuit.add_resistor("RL", "out", "0", 1e3)
    solution = dc_operating_point(circuit)
    assert solution.voltage("out") == pytest.approx(1.0, rel=1e-6)


def test_dc_mosfet_common_source(technology):
    circuit = Circuit("cs")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.8)
    circuit.add_voltage_source("VG", "g", "0", 0.9)
    circuit.add_resistor("RL", "vdd", "d", 1e3)
    circuit.add_mosfet("M1", "d", "g", "0", "0",
                       technology.mos_parameters("nmos_rf"),
                       width=10e-6, length=0.18e-6)
    solution = dc_operating_point(circuit)
    vd = solution.voltage("d")
    assert 0.0 < vd < 1.8
    op = solution.operating_point_of("M1")
    assert op.ids == pytest.approx((1.8 - vd) / 1e3, rel=1e-3)
    with pytest.raises(ConvergenceError):
        solution.operating_point_of("RL")


def test_dc_diode_connected_mosfet(technology):
    circuit = Circuit("diode")
    # 1 mA pushed into the drain of the diode-connected device.
    circuit.add_current_source("I1", "vdd", "d", 1e-3)
    circuit.add_voltage_source("VDD", "vdd", "0", 1.8)
    circuit.add_mosfet("M1", "d", "d", "0", "0",
                       technology.mos_parameters("nmos_rf"),
                       width=20e-6, length=0.18e-6)
    solution = dc_operating_point(circuit)
    op = solution.operating_point_of("M1")
    assert op.ids == pytest.approx(1e-3, rel=1e-2)
    assert op.vgs == pytest.approx(solution.voltage("d"), rel=1e-9)


def test_dc_empty_circuit_rejected():
    with pytest.raises(Exception):
        dc_operating_point(Circuit("empty"))


@pytest.mark.parametrize("field, value", [
    ("max_iterations", 0),
    ("max_iterations", -3),
    ("source_steps", 0),
    ("gmin_steps", -1),
    ("damping", 0.0),
    ("damping", -0.5),
    ("damping", 1.5),
    ("damping", float("nan")),
    ("damping", float("inf")),
    ("abs_tolerance", -1.0),
    ("rel_tolerance", float("nan")),
    ("gmin", -1e-12),
    ("gmin", float("inf")),
    ("gmin_start", float("nan")),
])
def test_dc_options_reject_invalid_controls(field, value):
    """Controls that would crash the Newton loop, or let the ladder return
    an all-zero "operating point", fail at construction naming the field."""
    with pytest.raises(SimulationError, match=f"DcOptions.{field} "):
        DcOptions(**{field: value})
    # Boundary values stay legal: no gmin ladder, zero tolerances, full step.
    DcOptions(gmin_steps=0, abs_tolerance=0.0, gmin=0.0, damping=1.0,
              max_iterations=1, source_steps=1)


def _latch(technology) -> Circuit:
    """Cross-coupled NMOS pair: plain Newton from zero needs 7 iterations."""
    circuit = Circuit("latch")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.8)
    circuit.add_resistor("R1", "vdd", "a", 5e3)
    circuit.add_resistor("R2", "vdd", "b", 5e3)
    parameters = technology.mos_parameters("nmos_rf")
    circuit.add_mosfet("M1", "a", "b", "0", "0", parameters,
                       width=20e-6, length=0.18e-6)
    circuit.add_mosfet("M2", "b", "a", "0", "0", parameters,
                       width=20e-6, length=0.18e-6)
    return circuit


def test_dc_initial_guess_starts_plain_newton_only(technology):
    cold = dc_operating_point(_latch(technology))
    warm = dc_operating_point(_latch(technology), initial=cold.vector)
    assert (warm.strategy, warm.iterations) == ("newton", 1)
    assert cold.iterations > 1
    assert np.max(np.abs(warm.vector - cold.vector)) <= 1e-12

    # A guess plain Newton cannot finish from leaves the ladder as it is:
    # its rungs start from zero, so the result is the guess-free one.
    options = DcOptions(max_iterations=5, gmin_steps=10)
    ladder = dc_operating_point(_latch(technology), options)
    far = np.full(cold.vector.size, 100.0)
    rescued = dc_operating_point(_latch(technology), options, initial=far)
    assert ladder.strategy == rescued.strategy == "gmin-stepping"
    assert rescued.iterations == ladder.iterations
    assert np.array_equal(rescued.vector, ladder.vector)
    assert np.array_equal(far, np.full(cold.vector.size, 100.0))

    with pytest.raises(SimulationError, match="initial guess has shape"):
        dc_operating_point(_latch(technology), initial=cold.vector[:-1])


# -- AC (small-signal transfer) --------------------------------------------------------


def test_ac_rc_lowpass_pole():
    circuit = Circuit("rc")
    circuit.add_voltage_source("V1", "in", "0", SourceValue())
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-9)
    f_pole = 1.0 / (2 * math.pi * 1e3 * 1e-9)
    tf = transfer_function(circuit, "V1", ["out"],
                           [f_pole / 100, f_pole, f_pole * 100])
    magnitude = tf.magnitude("out")
    assert magnitude[0] == pytest.approx(1.0, rel=1e-3)
    assert magnitude[1] == pytest.approx(1 / math.sqrt(2), rel=1e-3)
    assert magnitude[2] == pytest.approx(0.01, rel=0.05)
    # Phase at the pole is -45 degrees.
    assert tf.phase_deg("out")[1] == pytest.approx(-45.0, abs=1.0)


def test_ac_lc_resonance():
    circuit = Circuit("lc")
    circuit.add_current_source("I1", "0", "tank", SourceValue())
    circuit.add_inductor("L1", "tank", "0", 2e-9)
    circuit.add_capacitor("C1", "tank", "0", 1.4e-12)
    circuit.add_resistor("R1", "tank", "0", 300.0)
    f0 = 1.0 / (2 * math.pi * math.sqrt(2e-9 * 1.4e-12))
    tf = transfer_function(circuit, "I1", ["tank"], [f0 / 2, f0, f0 * 2])
    # The transfer is per unit drive (V/A).
    magnitude = tf.magnitude("tank")
    # At resonance the tank impedance is the parallel loss resistance.
    assert magnitude[1] == pytest.approx(300.0, rel=1e-2)
    assert magnitude[1] > magnitude[0]
    assert magnitude[1] > magnitude[2]


@pytest.mark.parametrize("frequencies", [
    [], [-1.0], [math.nan], [math.inf], [1e3, math.nan]],
    ids=["empty", "negative", "nan", "inf", "nan-after-valid"])
def test_transfer_rejects_bad_frequencies(frequencies):
    """Empty, negative and non-finite frequency lists fail with an error
    naming the offending value, before any solve."""
    circuit = Circuit("x")
    circuit.add_resistor("R1", "a", "0", 1.0)
    circuit.add_voltage_source("V1", "a", "0", 1.0)
    match = (repr(float(frequencies[-1])) if frequencies
             else "at least one frequency")
    with pytest.raises(SimulationError, match=re.escape(match)):
        transfer_function(circuit, "V1", ["a"], frequencies)


def test_ac_mosfet_amplifier_gain(technology):
    """Small-signal gain of a common-source stage is -gm * (RL || rds)."""
    circuit = Circuit("cs")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.8)
    circuit.add_voltage_source("VG", "g", "0",
                               SourceValue(dc=0.9))
    circuit.add_resistor("RL", "vdd", "d", 1e3)
    circuit.add_mosfet("M1", "d", "g", "0", "0",
                       technology.mos_parameters("nmos_rf"),
                       width=10e-6, length=0.18e-6)
    solution = dc_operating_point(circuit)
    op = solution.operating_point_of("M1")
    expected = op.gm * (1e3 * (1 / op.gds)) / (1e3 + 1 / op.gds)
    tf = transfer_function(circuit, "VG", ["d"], [1e5],
                           operating_point=solution)
    assert abs(tf.at("d", 1e5)) == pytest.approx(expected, rel=1e-2)


# -- transfer function ----------------------------------------------------------------------


def test_transfer_function_divider():
    circuit = Circuit("div")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_resistor("R2", "out", "0", 1e3)
    tf = transfer_function(circuit, "V1", ["out", "in"], [1e3, 1e6])
    assert abs(tf.at("out", 1e3)) == pytest.approx(0.5, rel=1e-6)
    assert abs(tf.at("in", 1e6)) == pytest.approx(1.0, rel=1e-6)
    assert tf.magnitude_db("out")[0] == pytest.approx(-6.02, abs=0.05)
    assert tf.nodes() == ["out", "in"]


def test_transfer_function_only_drives_named_source():
    circuit = Circuit("two_sources")
    circuit.add_voltage_source("V1", "a", "0", SourceValue())
    circuit.add_voltage_source("V2", "b", "0", SourceValue())
    circuit.add_resistor("R1", "a", "out", 1e3)
    circuit.add_resistor("R2", "b", "out", 1e3)
    circuit.add_resistor("R3", "out", "0", 1e3)
    tf = transfer_function(circuit, "V1", ["out"], [1e3])
    # With only V1 active at 1 V, out = 1/3 V.
    assert abs(tf.at("out", 1e3)) == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_transfer_function_unknown_source():
    circuit = Circuit("x")
    circuit.add_voltage_source("V1", "a", "0", 1.0)
    circuit.add_resistor("R1", "a", "0", 1.0)
    with pytest.raises(SimulationError):
        transfer_function(circuit, "nope", ["a"], [1e3])
    with pytest.raises(SimulationError):
        transfer_function(circuit, "V1", [], [1e3])


# -- transient -------------------------------------------------------------------------------


def test_transient_rc_step_response():
    circuit = Circuit("rc")
    tau = 1e-6
    circuit.add_voltage_source("V1", "in", "0",
                               SourceValue(dc=0.0, waveform=lambda t: 1.0))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-9)
    result = transient_analysis(circuit, t_stop=5 * tau, timestep=tau / 100)
    v_final = result.voltage("out")[-1]
    assert v_final == pytest.approx(1.0 - math.exp(-5.0), rel=0.02)
    index_tau = int(round(tau / result.timestep))
    assert result.voltage("out")[index_tau] == pytest.approx(1 - math.exp(-1), rel=0.05)


def test_transient_sine_amplitude_tracks_ac():
    circuit = Circuit("rc")
    circuit.add_voltage_source("V1", "in", "0", SourceValue.sine(1.0, 1e6))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 159.155e-12)   # pole at 1 MHz
    result = transient_analysis(circuit, t_stop=5e-6, timestep=2e-9)
    steady = result.voltage("out")[len(result.times) // 2:]
    amplitude = (steady.max() - steady.min()) / 2
    assert amplitude == pytest.approx(1 / math.sqrt(2), rel=0.05)


def test_transient_trapezoidal_matches_backward_euler():
    circuit = Circuit("rc")
    circuit.add_voltage_source("V1", "in", "0",
                               SourceValue(dc=0.0, waveform=lambda t: 1.0))
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_capacitor("C1", "out", "0", 1e-9)
    be = transient_analysis(circuit, 5e-6, 1e-8)
    trap = transient_analysis(circuit, 5e-6, 1e-8,
                              options=TransientOptions(method="trapezoidal"))
    assert trap.voltage("out")[-1] == pytest.approx(be.voltage("out")[-1], rel=1e-3)


def test_transient_rejects_bad_inputs():
    circuit = Circuit("x")
    circuit.add_resistor("R1", "a", "0", 1.0)
    circuit.add_voltage_source("V1", "a", "0", 1.0)
    with pytest.raises(SimulationError):
        transient_analysis(circuit, t_stop=-1.0, timestep=1e-9)
    with pytest.raises(SimulationError):
        transient_analysis(circuit, t_stop=1e-6, timestep=0.0)


def test_transient_nonlinear_follower(technology):
    """A MOSFET source follower driven by a slow ramp tracks its input."""
    circuit = Circuit("sf")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.8)
    circuit.add_voltage_source("VG", "g", "0",
                               SourceValue(dc=1.2, waveform=lambda t: 1.2 + 0.2 * min(t / 1e-6, 1.0)))
    circuit.add_mosfet("M1", "vdd", "g", "s", "0",
                       technology.mos_parameters("nmos_rf"),
                       width=50e-6, length=0.5e-6)
    circuit.add_resistor("RS", "s", "0", 2e3)
    result = transient_analysis(circuit, t_stop=2e-6, timestep=2e-8)
    v_start = result.voltage("s")[0]
    v_end = result.voltage("s")[-1]
    # The output follows the 0.2 V gate ramp (attenuated by body effect).
    assert 0.05 < (v_end - v_start) < 0.25
