"""Substrate mesh, Kron reduction and layout-driven extraction."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.flow import FlowOptions, run_extraction_flow
from repro.errors import ExtractionError
from repro.layout.geometry import Rect
from repro.layout.testchips import (
    NET_GROUND_PAD,
    NET_GROUND_RING,
    VcoLayoutSpec,
    make_vco_testchip,
)
from repro.package.model import PackageModel
from repro.simulator.linalg import SolverOptions
from repro.studies import extraction_key, fingerprint
from repro.substrate import (
    MeshSpec,
    PortKind,
    SubstrateMacromodel,
    SubstrateMesh,
    extract_substrate,
    identify_ports,
    kron_reduce,
    substrate_inputs,
)


@pytest.fixture(scope="module")
def small_mesh(technology):
    spec = MeshSpec(region=Rect(0, 0, 200e-6, 200e-6), nx=8, ny=8,
                    max_depth=100e-6, n_z_per_layer=2)
    return SubstrateMesh(spec=spec, profile=technology.substrate)


# -- mesh ---------------------------------------------------------------------------------


def test_mesh_spec_validation(technology):
    with pytest.raises(ExtractionError):
        MeshSpec(region=Rect(0, 0, 1e-6, 1e-6), nx=1, ny=4)
    with pytest.raises(ExtractionError):
        MeshSpec(region=Rect(0, 0, 1e-6, 1e-6), nx=4, ny=4, max_depth=-1.0)


def test_mesh_dimensions(small_mesh):
    assert small_mesh.nx == 8 and small_mesh.ny == 8
    assert small_mesh.nz >= 2
    assert small_mesh.n_nodes == 8 * 8 * small_mesh.nz
    assert small_mesh.z_edges[0] == 0.0
    assert small_mesh.z_edges[-1] <= 100e-6 + 1e-9


def test_mesh_node_index_bounds(small_mesh):
    assert small_mesh.node_index(0, 0, 0) == 0
    with pytest.raises(ExtractionError):
        small_mesh.node_index(8, 0, 0)
    with pytest.raises(ExtractionError):
        small_mesh.node_index(0, 0, small_mesh.nz)


def test_mesh_surface_cells_under(small_mesh):
    # A rectangle covering exactly the first cell (25 x 25 um cells).
    cells = small_mesh.surface_cells_under(Rect(0, 0, 25e-6, 25e-6))
    assert len(cells) >= 1
    total = sum(area for _ix, _iy, area in cells)
    assert total == pytest.approx(25e-6 * 25e-6, rel=1e-6)
    # A rectangle outside the mesh overlaps nothing.
    assert small_mesh.surface_cells_under(Rect(1.0, 1.0, 1.1, 1.1)) == []


def test_conductance_matrix_is_symmetric_laplacian(small_mesh):
    g = small_mesh.conductance_matrix()
    dense = g.toarray()
    assert np.allclose(dense, dense.T)
    # Zero row sums: the substrate floats.
    assert np.max(np.abs(dense.sum(axis=1))) < 1e-9 * np.max(dense)
    # Off-diagonal entries are non-positive conductance couplings.
    off = dense - np.diag(np.diag(dense))
    assert np.all(off <= 1e-15)
    assert np.all(np.diag(dense) > 0)


def test_conductance_scales_with_resistivity(technology):

    from repro.technology.process import SubstrateLayer, SubstrateProfile

    spec = MeshSpec(region=Rect(0, 0, 100e-6, 100e-6), nx=4, ny=4,
                    max_depth=50e-6, n_z_per_layer=1)
    low = SubstrateMesh(spec=spec, profile=SubstrateProfile(
        layers=(SubstrateLayer("b", 300e-6, 0.1),)))
    high = SubstrateMesh(spec=spec, profile=SubstrateProfile(
        layers=(SubstrateLayer("b", 300e-6, 0.2),)))
    g_low = low.conductance_matrix().toarray()
    g_high = high.conductance_matrix().toarray()
    assert np.allclose(g_low, 2.0 * g_high, rtol=1e-9)


# -- Kron reduction --------------------------------------------------------------------------


def _two_port_macromodel(small_mesh):
    g = small_mesh.conductance_matrix()
    left = [small_mesh.node_index(0, iy, 0) for iy in range(small_mesh.ny)]
    right = [small_mesh.node_index(small_mesh.nx - 1, iy, 0)
             for iy in range(small_mesh.ny)]
    return kron_reduce(g, [left, right], ["left", "right"], [1e6, 1e6])


def test_kron_reduce_two_port_properties(small_mesh):
    macromodel = _two_port_macromodel(small_mesh)
    y = macromodel.admittance
    assert y.shape == (2, 2)
    assert np.allclose(y, y.T, atol=1e-9)
    # Floating substrate: the reduced matrix still has ~zero row sums.
    assert np.max(np.abs(y.sum(axis=1))) < 1e-6 * np.max(np.abs(y))
    # The port-to-port coupling resistance is positive and finite.
    resistance = macromodel.coupling_resistance("left", "right")
    assert 0 < resistance < 1e7


def test_kron_reduce_validation(small_mesh):
    g = small_mesh.conductance_matrix()
    with pytest.raises(ExtractionError):
        kron_reduce(g, [[0]], ["a", "b"])
    with pytest.raises(ExtractionError):
        kron_reduce(g, [], [])
    with pytest.raises(ExtractionError):
        kron_reduce(g, [[]], ["a"])
    with pytest.raises(ExtractionError):
        kron_reduce(g, [[0]], ["a"], [0.0])


def test_macromodel_voltage_division(small_mesh):
    macromodel = _two_port_macromodel(small_mesh)
    # Driving "left" with "right" grounded: the sensed voltage at "right" is 0.
    division = macromodel.voltage_division("left", "right", {"right": 1e-6})
    assert division == pytest.approx(0.0, abs=1e-4)
    # Grounding "right" through a resistance comparable to the substrate path
    # gives a division strictly between 0 and 1.
    resistance = macromodel.coupling_resistance("left", "right")
    division = macromodel.voltage_division("left", "right",
                                           {"right": resistance})
    assert 0.05 < division < 0.95


def test_macromodel_to_circuit_roundtrip(small_mesh):
    macromodel = _two_port_macromodel(small_mesh)
    circuit = macromodel.to_circuit(node_names={"left": "A", "right": "B"})
    assert any(e.name.startswith("Rsub_") for e in circuit)
    nodes = circuit.nodes()
    assert "A" in nodes and "B" in nodes


def test_macromodel_shape_validation():
    with pytest.raises(ExtractionError):
        SubstrateMacromodel(ports=("a", "b"), admittance=np.zeros((3, 3)))
    model = SubstrateMacromodel(ports=("a", "b"),
                                admittance=np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ExtractionError):
        model.port_index("zzz")
    assert model.coupling_resistance("a", "b") == pytest.approx(1.0)


@given(g_tie=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=20, deadline=None)
def test_voltage_division_bounded(small_mesh, g_tie):
    """For any grounding resistance the division stays within [0, 1]."""
    macromodel = _two_port_macromodel(small_mesh)
    division = macromodel.voltage_division("left", "right", {"right": 1.0 / g_tie})
    assert -1e-9 <= division <= 1.0 + 1e-9


# -- layout-driven extraction -------------------------------------------------------------------


def test_identify_ports_kinds(nmos_cell, technology):
    ports = identify_ports(nmos_cell, technology)
    kinds = {p.kind for p in ports}
    assert PortKind.TAP in kinds
    assert PortKind.INJECTION in kinds
    assert PortKind.BACKGATE in kinds
    backgates = [p for p in ports if p.kind is PortKind.BACKGATE]
    assert len(backgates) == 4


def test_identify_ports_vco(vco_cell, technology):
    ports = identify_ports(vco_cell, technology)
    kinds = [p.kind for p in ports]
    assert kinds.count(PortKind.WELL) >= 3        # 2 PMOS wells + varactor wells
    assert kinds.count(PortKind.INDUCTOR) == 1
    inductor_port = next(p for p in ports if p.kind is PortKind.INDUCTOR)
    assert inductor_port.coupling_capacitance == pytest.approx(120e-15)


def test_extract_substrate_macromodel(nmos_flow):
    extraction = nmos_flow.substrate
    macromodel = extraction.macromodel
    n = len(extraction.ports)
    assert macromodel.admittance.shape == (n, n)
    assert np.allclose(macromodel.admittance, macromodel.admittance.T, atol=1e-9)
    # All port pairs couple with finite positive resistance through the bulk.
    injection = next(p.name for p in extraction.ports
                     if p.kind is PortKind.INJECTION)
    ring = next(p.name for p in extraction.ports
                if p.kind is PortKind.TAP)
    assert 0 < macromodel.coupling_resistance(injection, ring) < 1e9


def test_extraction_ports_of_helpers(nmos_flow):
    extraction = nmos_flow.substrate
    assert extraction.ports_of_kind(PortKind.BACKGATE)
    assert extraction.port(extraction.ports[0].name) is extraction.ports[0]
    with pytest.raises(ExtractionError):
        extraction.port("no such port")


def test_ground_wire_resistance_matters(nmos_flow):
    """Tying the local ring through its wire resistance raises the back-gate
    voltage compared to an ideally grounded ring — the paper's key Section-3
    observation."""
    extraction = nmos_flow.substrate
    macromodel = extraction.macromodel
    injection = next(p.name for p in extraction.ports
                     if p.kind is PortKind.INJECTION)
    ring = next(p.name for p in extraction.ports
                if p.kind is PortKind.TAP and "mos_ground_ring" in p.name)
    outer = next(p.name for p in extraction.ports
                 if p.kind is PortKind.TAP and "outer" in p.name)
    backgate = extraction.ports_of_kind(PortKind.BACKGATE)[0].name
    ideal = macromodel.voltage_division(injection, backgate,
                                        {ring: 1e-3, outer: 0.05})
    with_wire = macromodel.voltage_division(injection, backgate,
                                            {ring: 15.0, outer: 0.05})
    assert with_wire > ideal * 1.5


# -- substrate reuse across interconnect-only layout variants ------------------------------


def _inputs_key(cell, technology, options=None):
    return fingerprint(*substrate_inputs(cell, technology,
                                         options or FlowOptions()))


def test_substrate_inputs_ignore_interconnect_and_package(technology):
    nominal = make_vco_testchip()
    base = _inputs_key(nominal, technology)
    for spec in (VcoLayoutSpec(ground_width_scale=2.0),
                 VcoLayoutSpec(ground_wire_width=7e-6),
                 VcoLayoutSpec(ground_wire_length=500e-6)):
        variant = make_vco_testchip(spec)
        # A different layout (full cache key) with the same substrate inputs.
        assert extraction_key(variant, technology) \
            != extraction_key(nominal, technology)
        assert _inputs_key(variant, technology) == base
    # A package model keys the full extraction, never the substrate.
    probed = PackageModel.rf_probed({NET_GROUND_PAD: "0"})
    bonded = PackageModel.bondwired({NET_GROUND_PAD: "0"})
    assert extraction_key(nominal, technology, package=probed) \
        != extraction_key(nominal, technology, package=bonded)
    assert _inputs_key(nominal, technology) == base


def test_substrate_inputs_track_devices_mesh_technology_and_solver(
        technology):
    nominal = make_vco_testchip()
    base = _inputs_key(nominal, technology)

    wider_devices = make_vco_testchip(VcoLayoutSpec(nmos_width=80e-6))
    assert _inputs_key(wider_devices, technology) != base

    thicker_ring = make_vco_testchip()
    index = next(i for i, device in enumerate(thicker_ring.devices)
                 if device.name == "vco_ground_ring")
    ring = thicker_ring.devices[index]
    thicker_ring.devices[index] = replace(
        ring, parameters={**ring.parameters, "ring_width": 6e-6})
    assert _inputs_key(thicker_ring, technology) != base

    for substrate in (replace(FlowOptions().substrate, nx=40),
                      replace(FlowOptions().substrate, ny=40)):
        assert _inputs_key(nominal, technology,
                           FlowOptions(substrate=substrate)) != base

    bulk = technology.substrate.layers[-1]
    doped = replace(technology, substrate=replace(
        technology.substrate,
        layers=(*technology.substrate.layers[:-1],
                replace(bulk, resistivity=2 * bulk.resistivity))))
    assert _inputs_key(nominal, doped) != base

    multigrid = FlowOptions(solver=SolverOptions(backend="multigrid"))
    assert _inputs_key(nominal, technology, multigrid) != base


def test_flow_reuses_a_given_substrate_extraction(technology,
                                                  coarse_flow_options):
    leader = run_extraction_flow(make_vco_testchip(), technology,
                                 options=coarse_flow_options)
    widened = make_vco_testchip(VcoLayoutSpec(ground_width_scale=2.0))
    own = run_extraction_flow(widened, technology,
                              options=coarse_flow_options)
    follower = run_extraction_flow(widened, technology,
                                   options=coarse_flow_options,
                                   substrate=leader.substrate)
    assert follower.substrate is leader.substrate
    np.testing.assert_array_equal(follower.substrate.macromodel.admittance,
                                  own.substrate.macromodel.admittance)
    assert follower.solver_stats.factorizations == 0
    # Interconnect still comes from the widened layout itself.
    assert len(follower.impact.circuit) == len(own.impact.circuit)
    nets = (NET_GROUND_RING, NET_GROUND_PAD)
    assert follower.interconnect.resistance_between(*nets) \
        == own.interconnect.resistance_between(*nets)
