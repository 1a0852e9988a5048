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


@pytest.mark.parametrize("as_mesh", [False, True], ids=["matrix", "mesh"])
@pytest.mark.parametrize("bad, message", [
    (-1, "mesh node -1 is outside the mesh"),
    (256, "mesh node 256 is outside the mesh"),             # == n_nodes
    (1.7, "mesh node 1.7 is not an integer index"),
    ("3", "mesh node '3' is not an integer index"),
])
def test_kron_reduce_rejects_bad_port_nodes(small_mesh, as_mesh, bad, message):
    """A negative, past-the-end or non-integer node names its port, on both
    paths (a negative index would otherwise alias the deepest node, or pass
    the spectral path's surface check)."""
    target = small_mesh if as_mesh else small_mesh.conductance_matrix()
    assert small_mesh.n_nodes == 256
    with pytest.raises(ExtractionError, match=f"port 'b': {message}"):
        kron_reduce(target, [[0], [bad]], ["a", "b"])
    with pytest.raises(ExtractionError, match=f"port 'b': {message}"):
        kron_reduce(target, [[(0, 1.0)], [(1, 1.0), (bad, 1.0)]], ["a", "b"])


# -- spectral Kron reduction ------------------------------------------------------------------


def _kron_spans(run):
    """Run ``run()`` traced; return its result and its ``extract.kron`` span
    attributes."""
    from repro.obs import tracer

    was_enabled = tracer.enabled
    tracer.enable()
    try:
        mark = tracer.mark()
        result = run()
        spans = [dict(span.attrs) for span in tracer.spans_since(mark)
                 if span.name == "extract.kron"]
    finally:
        if not was_enabled:
            tracer.disable()
    return result, spans


def _relative_deviation(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@st.composite
def _meshes_and_ports(draw):
    nx = draw(st.integers(2, 12))
    ny = draw(st.integers(2, 12))
    width = draw(st.floats(20e-6, 400e-6))
    height = draw(st.floats(20e-6, 400e-6))
    spec = MeshSpec(region=Rect(0, 0, width, height), nx=nx, ny=ny,
                    max_depth=draw(st.floats(20e-6, 200e-6)),
                    n_z_per_layer=draw(st.integers(1, 3)))
    # Ports draw their cells from a small shared pool, so cells shared by
    # several ports (partial coverage on both sides) are common.
    pool = draw(st.lists(st.integers(0, nx * ny - 1), min_size=1,
                         max_size=min(nx * ny, 12), unique=True))
    # Contact conductances relative to the mesh's own surface-box
    # conductance (the test scales them): the direct reference cancels Y_pp
    # against Y_pi Y_ii^-1 Y_ip and loses about one digit per decade the
    # contacts exceed the substrate couplings.
    weights = st.floats(-2.0, 3.0).map(lambda exponent: 10.0 ** exponent)
    # Two ports at least: a lone port's admittance is only the 1e-12 S
    # regularisation leakage, below the direct path's round-off.
    port_nodes = []
    for _ in range(draw(st.integers(2, 4))):
        cells = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6,
                              unique=True))
        port_nodes.append([(cell, draw(weights)) for cell in cells])
    return spec, port_nodes


@given(case=_meshes_and_ports())
@settings(max_examples=150, deadline=None)
def test_spectral_kron_matches_direct_lu(technology, case):
    """The spectral reduction of a mesh equals direct LU on its assembled
    matrix, and is a passive floating-substrate admittance."""
    spec, port_nodes = case
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    box = mesh.layer_conductivity()[0] * (mesh.x_edges[1] - mesh.x_edges[0])
    port_nodes = [[(cell, box * weight) for cell, weight in nodes]
                  for nodes in port_nodes]
    names = [f"p{index}" for index in range(len(port_nodes))]
    spectral, spans = _kron_spans(
        lambda: kron_reduce(mesh, port_nodes, names).admittance)
    direct = kron_reduce(mesh.conductance_matrix(), port_nodes,
                         names).admittance
    assert [span["path"] for span in spans] == ["spectral"]
    assert _relative_deviation(spectral, direct) <= 1e-9

    scale = np.max(np.abs(spectral))
    np.testing.assert_array_equal(spectral, spectral.T)
    off_diagonal = spectral[~np.eye(len(names), dtype=bool)]
    assert np.all(off_diagonal <= 1e-12 * scale)
    assert np.min(np.linalg.eigvalsh(spectral)) >= -1e-9 * scale
    # All ports at 1 V draw only the 1e-12 S-per-node regularisation.
    row_sums = spectral.sum(axis=1)
    assert np.all(row_sums >= -1e-9 * scale)
    assert np.all(row_sums <= 1e-12 * mesh.n_nodes + 1e-9 * scale)


def test_spectral_path_reports_k_and_dense_solve_time(small_mesh):
    left = [small_mesh.node_index(0, iy, 0) for iy in range(small_mesh.ny)]
    right = [small_mesh.node_index(small_mesh.nx - 1, iy, 0)
             for iy in range(small_mesh.ny)]
    _, [span] = _kron_spans(lambda: kron_reduce(
        small_mesh, [left, right + left[:2]], ["left", "right"]))
    assert span["path"] == "spectral"
    assert span["k"] == 2 * small_mesh.ny
    assert span["dense_solve_s"] >= 0.0


def test_cholesky_failure_falls_back_to_direct_lu(small_mesh, monkeypatch,
                                                  caplog):
    """A dense Cholesky that raises is one counted, logged fallback to the
    direct path, with the direct path's result."""
    import logging

    from repro.simulator.solver import stats as solver_stats
    from repro.substrate import spectral

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("injected: not positive definite")

    left = [small_mesh.node_index(0, iy, 0) for iy in range(small_mesh.ny)]
    right = [small_mesh.node_index(small_mesh.nx - 1, iy, 0)
             for iy in range(small_mesh.ny)]
    ports = ([left, right], ["left", "right"])
    monkeypatch.setattr(spectral, "cho_factor", broken)
    before = solver_stats.snapshot()
    with caplog.at_level(logging.WARNING, logger="repro"):
        reduced, [span] = _kron_spans(
            lambda: kron_reduce(small_mesh, *ports).admittance)
    spent = solver_stats.since(before)
    assert (spent.fallbacks, spent.factorizations) == (1, 1)
    assert span["path"] == "direct"
    [record] = [r for r in caplog.records if "fell back" in r.getMessage()]
    assert record.levelno == logging.WARNING
    assert "injected: not positive definite" in record.getMessage()
    np.testing.assert_array_equal(
        reduced,
        kron_reduce(small_mesh.conductance_matrix(), *ports).admittance)


def test_subsurface_contact_routes_to_direct_lu(small_mesh):
    surface = [small_mesh.node_index(ix, 0, 0) for ix in range(small_mesh.nx)]
    buried = [small_mesh.node_index(3, 3, 1)]
    ports = ([surface, buried], ["surface", "buried"])
    reduced, [span] = _kron_spans(
        lambda: kron_reduce(small_mesh, *ports).admittance)
    assert span["path"] == "direct" and "dense_solve_s" not in span
    np.testing.assert_array_equal(
        reduced,
        kron_reduce(small_mesh.conductance_matrix(), *ports).admittance)


def test_raw_matrix_and_non_uniform_mesh_route_to_direct_lu(technology,
                                                            small_mesh):
    ports = ([[0, 1], [small_mesh.nx * small_mesh.ny - 1]], ["a", "b"])
    _, [span] = _kron_spans(
        lambda: kron_reduce(small_mesh.conductance_matrix(), *ports))
    assert span["path"] == "direct"

    skewed = SubstrateMesh(spec=small_mesh.spec, profile=technology.substrate)
    skewed.x_edges = skewed.x_edges.copy()
    skewed.x_edges[1] += 0.3 * (skewed.x_edges[2] - skewed.x_edges[1])
    reduced, [span] = _kron_spans(
        lambda: kron_reduce(skewed, *ports).admittance)
    assert span["path"] == "direct"
    np.testing.assert_array_equal(
        reduced, kron_reduce(skewed.conductance_matrix(), *ports).admittance)


def test_kron_admittance_converges_under_mesh_refinement(technology):
    """On the VCO testchip the Kron admittance approaches the 160x160
    result monotonically from 56x56 to 96x96 to 128x128 (8.1%, 2.3% and
    1.6% of the largest entry when measured)."""
    from repro.core.vco_experiment import VcoExperimentOptions

    cell = make_vco_testchip()
    options = VcoExperimentOptions().flow.substrate

    def admittance(n):
        return extract_substrate(cell, technology, replace(
            options, nx=n, ny=n)).macromodel.admittance

    finest = admittance(160)
    deviations = [_relative_deviation(admittance(n), finest)
                  for n in (56, 96, 128)]
    assert deviations == sorted(deviations, reverse=True)
    assert deviations[-1] < 0.05


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

    gmin = FlowOptions(solver=SolverOptions(gmin=1e-9))
    assert _inputs_key(nominal, technology, gmin) != base


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
