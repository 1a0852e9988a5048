"""Interconnect extraction, RC wire models and package models."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExtractionError, NetlistError
from repro.interconnect import WireRC, extract_interconnect
from repro.layout.cell import Cell
from repro.layout.primitives import draw_wire
from repro.layout.testchips import NET_GROUND_PAD, NET_GROUND_RING
from repro.netlist import Circuit, SourceValue
from repro.package import BondwireModel, PackageModel, RfProbeModel
from repro.simulator import dc_operating_point, transfer_function


# -- WireRC ----------------------------------------------------------------------------


def test_wire_rc_validation():
    with pytest.raises(ExtractionError):
        WireRC("w", "a", "b", resistance=-1.0, capacitance=0.0)
    WireRC("w", "a", "b", resistance=10.0, capacitance=20e-15)


def test_wire_pi_model_elements():
    wire = WireRC("gnd", "ring", "pad", resistance=15.0, capacitance=40e-15)
    circuit = Circuit("t")
    wire.add_pi_model(circuit, substrate_node="sub")
    assert circuit["Rw_gnd"].resistance == pytest.approx(15.0)
    assert circuit["Cw_gnd_a"].capacitance == pytest.approx(20e-15)
    assert circuit["Cw_gnd_b"].capacitance == pytest.approx(20e-15)


def test_wire_pi_model_same_node_skips_resistor():
    wire = WireRC("x", "a", "a", resistance=5.0, capacitance=10e-15)
    circuit = Circuit("t")
    wire.add_pi_model(circuit, substrate_node="sub")
    assert "Rw_x" not in circuit
    assert circuit["Cw_x_a"].capacitance == pytest.approx(10e-15)


# -- extraction ----------------------------------------------------------------------------


def test_extract_simple_wire_resistance(technology):
    cell = Cell("wire_test")
    # 100 um long, 1 um wide metal-1 wire: 100 squares at 78 mohm/sq.
    draw_wire(cell, "M1", [(0.0, 0.0), (100e-6, 0.0)], 1e-6, net="N",
              nodes=("A", "B"))
    extraction = extract_interconnect(cell, technology)
    assert len(extraction.wires) == 1
    resistance = extraction.resistance_between("A", "B")
    assert resistance == pytest.approx(100 * 0.078, rel=1e-6)
    assert extraction.total_capacitance_of("A") > 0
    assert set(extraction.nodes()) == {"A", "B"}


def test_extract_requires_pins(technology):
    cell = Cell("bad")
    cell.add_path("M1", [(0.0, 0.0), (10e-6, 0.0)], 1e-6)
    with pytest.raises(ExtractionError):
        extract_interconnect(cell, technology)


def test_extract_empty_cell_raises(technology):
    with pytest.raises(ExtractionError):
        extract_interconnect(Cell("empty"), technology)


def test_resistance_between_unknown_nodes(technology):
    cell = Cell("wire_test")
    draw_wire(cell, "M1", [(0.0, 0.0), (10e-6, 0.0)], 1e-6, net="N",
              nodes=("A", "B"))
    extraction = extract_interconnect(cell, technology)
    with pytest.raises(ExtractionError):
        extraction.resistance_between("A", "Z")


def test_nmos_structure_ground_wire_extraction(nmos_flow):
    """The measurement structure's ground wire is a few ohms to tens of ohms."""
    resistance = nmos_flow.interconnect.resistance_between(
        NET_GROUND_RING, NET_GROUND_PAD)
    assert 2.0 < resistance < 50.0


def test_vco_inductor_not_double_counted(vco_flow):
    """The spiral's own metal must not appear as plain interconnect."""
    for wire in vco_flow.interconnect.wires:
        assert not ({wire.node_a, wire.node_b} == {"TANKP", "TANKN"})


def test_wider_ground_wire_has_lower_resistance(technology):
    from repro.interconnect import extract_interconnect
    from repro.layout.testchips import VcoLayoutSpec, make_vco_testchip

    nominal = extract_interconnect(make_vco_testchip(), technology)
    wide = extract_interconnect(
        make_vco_testchip(VcoLayoutSpec(ground_width_scale=2.0)), technology)
    r_nominal = nominal.resistance_between(NET_GROUND_RING, NET_GROUND_PAD)
    r_wide = wide.resistance_between(NET_GROUND_RING, NET_GROUND_PAD)
    assert r_wide == pytest.approx(r_nominal / 2, rel=1e-6)


@given(length=st.floats(min_value=10e-6, max_value=1e-3),
       width=st.floats(min_value=0.5e-6, max_value=10e-6))
@settings(max_examples=25, deadline=None)
def test_extracted_resistance_scales_with_geometry(technology, length, width):
    cell = Cell("w")
    draw_wire(cell, "M1", [(0.0, 0.0), (length, 0.0)], width, net="N",
              nodes=("A", "B"))
    extraction = extract_interconnect(cell, technology)
    expected = 0.078 * length / width
    assert extraction.resistance_between("A", "B") == pytest.approx(expected, rel=1e-6)


# -- package ---------------------------------------------------------------------------------


def test_package_models_validate():
    with pytest.raises(NetlistError):
        BondwireModel(inductance=-1e-9)
    with pytest.raises(NetlistError):
        RfProbeModel(resistance=0.0)


def test_package_requires_connections():
    package = PackageModel()
    with pytest.raises(NetlistError):
        package.add_to_circuit(Circuit("t"))


def test_rf_probe_connection_dc_path():
    circuit = Circuit("t")
    circuit.add_resistor("Rload", "PAD", "0", 1e3)
    package = PackageModel.rf_probed({"PAD": "EXT"})
    package.add_to_circuit(circuit)
    circuit.add_voltage_source("V1", "EXT", "0", 1.0)
    solution = dc_operating_point(circuit)
    # The probe only adds milliohms of series resistance at DC.
    assert solution.voltage("PAD") == pytest.approx(1.0, rel=1e-3)


def test_bondwire_inductance_isolates_at_high_frequency():
    circuit = Circuit("t")
    circuit.add_resistor("Rload", "PAD", "0", 1.0)
    package = PackageModel.bondwired({"PAD": "EXT"})
    package.add_to_circuit(circuit)
    circuit.add_voltage_source("V1", "EXT", "0", SourceValue())
    tf = transfer_function(circuit, "V1", ["PAD"], [1e6, 10e9])
    low, high = tf.magnitude("PAD")
    # At low frequency only the 0.12 ohm bondwire resistance divides against
    # the 1 ohm load; at 10 GHz the 2 nH bondwire (126 ohm) isolates the pad.
    assert low > 0.85
    assert high < 0.05
