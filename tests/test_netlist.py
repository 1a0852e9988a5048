"""Netlist elements, circuit container and subcircuits."""


import pytest

from repro.devices.varactor import AccumulationModeVaractor
from repro.errors import NetlistError
from repro.netlist import (
    GROUND,
    Capacitor,
    Circuit,
    Inductor,
    MosfetElement,
    Resistor,
    SourceValue,
    Subcircuit,
    vectorized_waveform,
)
from repro.technology import make_technology


# -- elements -----------------------------------------------------------------------


def test_resistor_validation_and_conductance():
    r = Resistor(name="R1", node_p="a", node_n="0", resistance=50.0)
    assert r.conductance == pytest.approx(0.02)
    with pytest.raises(NetlistError):
        Resistor(name="R2", node_p="a", node_n="0", resistance=0.0)
    with pytest.raises(NetlistError):
        Resistor(name="R3", node_p="a", node_n="0", resistance=float("inf"))


def test_capacitor_and_inductor_validation():
    Capacitor(name="C1", node_p="a", node_n="0", capacitance=0.0)
    with pytest.raises(NetlistError):
        Capacitor(name="C2", node_p="a", node_n="0", capacitance=-1e-12)
    with pytest.raises(NetlistError):
        Inductor(name="L1", node_p="a", node_n="0", inductance=0.0)
    inductor = Inductor(name="L2", node_p="a", node_n="0", inductance=1e-9)
    assert inductor.branches() == ("L2",)


def test_source_value_sine_and_phasor():
    value = SourceValue.sine(amplitude=2.0, frequency=1e6, dc_offset=0.5)
    assert value.dc == pytest.approx(0.5)
    assert value.ac_magnitude == pytest.approx(2.0)
    assert value.value_at(0.0) == pytest.approx(0.5)
    assert value.value_at(0.25e-6) == pytest.approx(2.5)
    phasor = SourceValue(ac_magnitude=1.0, ac_phase_deg=90.0).ac_phasor
    assert phasor.real == pytest.approx(0.0, abs=1e-12)
    assert phasor.imag == pytest.approx(1.0)


def test_source_value_sample_grid():
    import numpy as np

    times = np.linspace(0.0, 1e-6, 11)
    # No waveform: the DC level everywhere.
    assert np.allclose(SourceValue(dc=2.5).sample(times), 2.5)
    # Marked vectorized waveform (sine): one array call, exact values.
    sine = SourceValue.sine(1.0, 1e6)
    assert np.allclose(sine.sample(times),
                       [sine.value_at(t) for t in times])
    # Unmarked stateful waveform: evaluated strictly once per time point.
    draws = iter(range(100))
    stateful = SourceValue(waveform=lambda t: float(next(draws)))
    assert np.array_equal(stateful.sample(times), np.arange(11.0))
    # A vectorized waveform returning the wrong shape is rejected.
    bad = SourceValue(waveform=vectorized_waveform(lambda t: 1.0))
    with pytest.raises(NetlistError):
        bad.sample(times)


def test_vectorized_waveform_does_not_mutate_grid():
    import numpy as np

    @vectorized_waveform
    def mutating(t):
        t *= 2.0
        return np.sin(t)

    times = np.linspace(0.0, 1.0, 5)
    SourceValue(waveform=mutating).sample(times)
    assert np.array_equal(times, np.linspace(0.0, 1.0, 5))


def test_source_value_without_waveform_holds_dc():
    value = SourceValue(dc=1.8)
    assert value.value_at(123.0) == pytest.approx(1.8)


def test_nonlinear_flags():
    tech = make_technology()
    circuit = Circuit("t")
    mosfet = circuit.add_mosfet("M1", "d", "g", "0", "0",
                                tech.mos_parameters("nmos_rf"),
                                width=10e-6, length=0.18e-6)
    assert mosfet.is_nonlinear
    assert not Resistor(name="R", node_p="a", node_n="0", resistance=1.0).is_nonlinear
    assert mosfet.nodes() == ("d", "g", "0", "0")


def test_mosfet_element_requires_model():
    with pytest.raises(NetlistError):
        MosfetElement(name="M1", drain="d", gate="g", source="s", bulk="b",
                      model=None)


# -- circuit container ------------------------------------------------------------------


def test_circuit_add_and_duplicate():
    circuit = Circuit("t")
    circuit.add_resistor("R1", "a", "0", 100.0)
    with pytest.raises(NetlistError):
        circuit.add_resistor("R1", "a", "0", 100.0)
    assert "R1" in circuit
    assert len(circuit) == 1
    assert circuit["R1"].resistance == pytest.approx(100.0)
    with pytest.raises(NetlistError):
        circuit["nope"]


def test_circuit_remove():
    circuit = Circuit("t")
    circuit.add_resistor("R1", "a", "0", 100.0)
    circuit.remove("R1")
    assert len(circuit) == 0
    with pytest.raises(NetlistError):
        circuit.remove("R1")


def test_circuit_nodes_and_branches():
    circuit = Circuit("t")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "out", 1e3)
    circuit.add_inductor("L1", "out", "0", 1e-9)
    assert circuit.nodes() == ["in", "out"]
    assert set(circuit.branches()) == {"V1", "L1"}
    assert len(circuit.sources()) == 1


def test_circuit_validation():
    circuit = Circuit("t")
    with pytest.raises(NetlistError):
        circuit.validate()
    circuit.add_resistor("R1", "a", "b", 1.0)
    with pytest.raises(NetlistError):
        circuit.validate()       # no ground connection
    circuit.add_resistor("R2", "b", GROUND, 1.0)
    circuit.validate()


def test_floating_nodes_detection():
    circuit = Circuit("t")
    circuit.add_voltage_source("V1", "in", "0", 1.0)
    circuit.add_resistor("R1", "in", "mid", 1e3)
    circuit.add_capacitor("C1", "mid", "float", 1e-12)
    floating = circuit.floating_nodes()
    assert "float" in floating
    assert "mid" not in floating


def test_with_sources_shares_elements_and_copies_sources():
    circuit = Circuit("t")
    circuit.add_voltage_source("V1", "a", "0", 1.0)
    circuit.add_current_source("I1", "0", "b", SourceValue(ac_magnitude=2.0))
    circuit.add_resistor("R1", "a", "b", 1e3)
    circuit.add_resistor("R2", "b", "0", 1e3)
    copy = circuit.with_sources({"V1": 2.5})
    assert list(copy.elements) == list(circuit.elements)
    assert copy["R1"] is circuit["R1"] and copy["R2"] is circuit["R2"]
    assert copy["V1"] is not circuit["V1"]
    assert copy["I1"] is not circuit["I1"]
    assert copy["V1"].value.dc == 2.5 and circuit["V1"].value.dc == 1.0
    assert copy["I1"].value == circuit["I1"].value
    copy.add_resistor("R3", "a", "0", 1.0)
    assert "R3" not in circuit
    with pytest.raises(NetlistError, match="'R1'"):
        circuit.with_sources({"R1": 1.0})


def test_circuit_merge_with_prefix():
    a = Circuit("a")
    a.add_resistor("R1", "x", "0", 1.0)
    b = Circuit("b")
    b.add_resistor("R1", "x", "y", 2.0)
    a.merge(b, prefix="sub")
    assert "sub:R1" in a
    assert len(a) == 2
    # Node names are shared (that is how models connect).
    assert set(a.nodes()) == {"x", "y"}


def test_circuit_summary_counts():
    circuit = Circuit("t")
    circuit.add_resistor("R1", "a", "0", 1.0)
    circuit.add_resistor("R2", "a", "0", 1.0)
    circuit.add_capacitor("C1", "a", "0", 1e-12)
    summary = circuit.summary()
    assert summary["Resistor"] == 2
    assert summary["Capacitor"] == 1


def test_elements_at_node():
    circuit = Circuit("t")
    circuit.add_resistor("R1", "a", "0", 1.0)
    circuit.add_resistor("R2", "b", "0", 1.0)
    assert {e.name for e in circuit.elements_at_node("a")} == {"R1"}


# -- subcircuits ------------------------------------------------------------------------------


def _divider_subckt() -> Subcircuit:
    template = Circuit("divider")
    template.add_resistor("Rtop", "in", "out", 1e3)
    template.add_resistor("Rbot", "out", GROUND, 1e3)
    return Subcircuit(name="divider", ports=("in", "out"), circuit=template)


def test_subcircuit_port_validation():
    template = Circuit("t")
    template.add_resistor("R1", "a", "0", 1.0)
    with pytest.raises(NetlistError):
        Subcircuit(name="bad", ports=("missing",), circuit=template)
    with pytest.raises(NetlistError):
        Subcircuit(name="bad", ports=("a", "a"), circuit=template)


def test_subcircuit_instantiation_flattens():
    parent = Circuit("top")
    parent.add_voltage_source("V1", "vin", "0", 1.0)
    sub = _divider_subckt()
    sub.instantiate(parent, "X1", {"in": "vin", "out": "vmid"})
    sub.instantiate(parent, "X2", {"in": "vmid", "out": "vout"})
    assert "X1.Rtop" in parent and "X2.Rbot" in parent
    assert "vmid" in parent.nodes() and "vout" in parent.nodes()

    from repro.simulator import dc_operating_point
    solution = dc_operating_point(parent)
    assert solution.voltage("vmid") == pytest.approx(0.4, rel=1e-6)
    assert solution.voltage("vout") == pytest.approx(0.2, rel=1e-6)


def test_subcircuit_connection_errors():
    parent = Circuit("top")
    sub = _divider_subckt()
    with pytest.raises(NetlistError):
        sub.instantiate(parent, "X1", {"in": "a"})                 # missing port
    with pytest.raises(NetlistError):
        sub.instantiate(parent, "X2", {"in": "a", "out": "b", "zz": "c"})


def test_subcircuit_varactor_remap():
    template = Circuit("var")
    model = AccumulationModeVaractor(cmin=1e-12, cmax=2e-12)
    template.add_varactor("CV", "p", "w", model)
    template.add_resistor("R", "p", GROUND, 1.0)
    sub = Subcircuit(name="var", ports=("p",), circuit=template)
    parent = Circuit("top")
    sub.instantiate(parent, "X1", {"p": "tank"})
    varactor = parent["X1.CV"]
    assert varactor.gate == "tank"
    assert varactor.well == "X1.w"
