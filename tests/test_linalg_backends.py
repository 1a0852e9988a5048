"""The pluggable linear-solver layer: backend equivalence, fallback, fan-out.

The equivalence suite runs the same analyses (DC, AC, transient, Kron
reduction, full extraction flow, VCO spur analysis) through both backends
and asserts the multigrid backend matches the direct-LU reference to
<= 1e-10.  The routing test hands the multigrid backend MNA systems and
asserts they are solved by direct LU without counting a fallback; the
cache-key tests prove that campaigns differing only in solver settings
never share extraction cache entries.  The SPD tests pin the Kron block's
symmetric factorization against a COLAMD reference on the real VCO
testchip, and MNA systems to the unchanged COLAMD path.
"""

from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.flow import FlowOptions, run_extraction_flow
from repro.errors import ExtractionError, SimulationError
from repro.layout.geometry import Rect
from repro.netlist import Circuit, SourceValue
from repro.simulator import ac_analysis, dc_operating_point, transient_analysis
from repro.simulator.linalg import (
    BACKENDS,
    DirectLUSolver,
    MultigridSolver,
    SolverOptions,
    make_solver,
    resolve_solver,
)
from repro.simulator.solver import Factorization
from repro.simulator.transfer import transfer_functions
from repro.substrate import MeshSpec, SubstrateMesh, kron_reduce
from repro.substrate.extraction import SubstrateExtractionOptions

EQUIV_ATOL = 1e-10


def _rc_circuit():
    circuit = Circuit("rc")
    circuit.add_voltage_source("V1", "in", "0",
                               SourceValue(dc=1.0, ac_magnitude=1.0,
                                           waveform=lambda t: 1.0))
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
                               SourceValue(dc=0.9, ac_magnitude=1.0,
                                           waveform=lambda t: 0.9))
    circuit.add_resistor("RL", "vdd", "d", 1e3)
    circuit.add_mosfet("M1", "d", "g", "0", "0",
                       technology.mos_parameters("nmos_rf"),
                       width=10e-6, length=0.18e-6)
    return circuit


def _mesh_system(technology):
    """A small substrate-mesh Laplacian plus port contacts (SPD)."""
    spec = MeshSpec(region=Rect(0, 0, 120e-6, 120e-6), nx=8, ny=8,
                    max_depth=100e-6, n_z_per_layer=2)
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    conductance = mesh.conductance_matrix()
    n = conductance.shape[0]
    diagonal = np.zeros(n)
    diagonal[: mesh.nx] = 1e4 / mesh.nx
    matrix = sp.csc_matrix(conductance + sp.diags(diagonal + 1e-12))
    rhs = np.zeros(n)
    rhs[: mesh.nx] = -1e4 / mesh.nx
    return matrix, rhs


# -- backend equivalence on the analyses -------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_dc_backends_match_direct(technology, backend):
    reference = dc_operating_point(_mosfet_circuit(technology)).vector
    solution = dc_operating_point(_mosfet_circuit(technology),
                                  solver=SolverOptions(backend=backend))
    assert np.allclose(solution.vector, reference, atol=EQUIV_ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ac_backends_match_direct(backend):
    frequencies = np.logspace(3, 9, 9)
    reference = ac_analysis(_rc_circuit(), frequencies).vectors
    vectors = ac_analysis(_rc_circuit(), frequencies,
                          solver=SolverOptions(backend=backend)).vectors
    assert np.allclose(vectors, reference, atol=EQUIV_ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_transient_backends_match_direct(technology, backend):
    circuit = _mosfet_circuit(technology)
    reference = transient_analysis(circuit, t_stop=2e-8, timestep=1e-9).vectors
    vectors = transient_analysis(circuit, t_stop=2e-8, timestep=1e-9,
                                 solver=SolverOptions(backend=backend)).vectors
    assert np.allclose(vectors, reference, atol=EQUIV_ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_kron_reduction_backends_match_direct(technology, backend):
    spec = MeshSpec(region=Rect(0, 0, 100e-6, 100e-6), nx=6, ny=6,
                    max_depth=80e-6, n_z_per_layer=2)
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    conductance = mesh.conductance_matrix()
    left = [mesh.node_index(0, iy, 0) for iy in range(mesh.ny)]
    right = [mesh.node_index(mesh.nx - 1, iy, 0) for iy in range(mesh.ny)]
    reference = kron_reduce(conductance, [left, right], ["left", "right"],
                            [1e4, 1e4]).admittance
    solver = make_solver(SolverOptions(backend=backend))
    reduced = kron_reduce(conductance, [left, right], ["left", "right"],
                          [1e4, 1e4], solver=solver,
                          grid=mesh.grid_geometry()).admittance
    assert np.allclose(reduced, reference,
                       atol=EQUIV_ATOL * np.abs(reference).max())
    if backend == "multigrid":
        # The regularised internal block is SPD with a grid: multigrid
        # must actually run.
        assert solver.stats.mg_solves > 0
        assert solver.stats.fallbacks == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_extraction_flow_backends_match_direct(technology, nmos_cell, backend):
    small_mesh = SubstrateExtractionOptions(nx=10, ny=10, n_z_per_layer=2)
    reference = run_extraction_flow(
        nmos_cell, technology,
        options=FlowOptions(substrate=small_mesh))
    flow = run_extraction_flow(
        nmos_cell, technology,
        options=FlowOptions(substrate=small_mesh,
                            solver=SolverOptions(backend=backend)))
    scale = np.abs(reference.substrate.macromodel.admittance).max()
    assert np.allclose(flow.substrate.macromodel.admittance,
                       reference.substrate.macromodel.admittance,
                       atol=EQUIV_ATOL * scale)
    assert flow.solver_stats is not None
    assert flow.solver_stats.backend == backend
    assert flow.summary()["solver_backend"] == backend


def test_vco_spur_analysis_backends_match_direct(technology, vco_analysis):
    """The Fig-8/Fig-10 style spur analysis matches across backends.

    The linear solves (the substrate-to-node transfer functions at a fixed
    operating point) must match the direct backend to <= 1e-10; the
    end-to-end spur powers additionally absorb the DC Newton termination
    (abs_tolerance 1e-9 V — each backend's roundoff stops Newton at a
    slightly different iterate), so they are compared at 1e-6 dB.
    """
    from dataclasses import replace

    from repro.core.vco_experiment import VcoImpactAnalysis

    reference, _, _, tf_reference = vco_analysis.analyze(0.0)
    circuit = vco_analysis.build_testbench(0.0)
    operating_point = dc_operating_point(circuit)
    nodes = tf_reference.nodes()
    frequencies = tf_reference.frequencies
    direct_tf = transfer_functions(circuit, ["VSUB_SRC"], nodes, frequencies,
                                   operating_point=operating_point)["VSUB_SRC"]

    backend = "multigrid"
    tf = transfer_functions(
        circuit, ["VSUB_SRC"], nodes, frequencies,
        operating_point=operating_point,
        solver=SolverOptions(backend=backend))["VSUB_SRC"]
    for node in nodes:
        # 1e-9 instead of 1e-10: the full impact testbench spans twelve
        # orders of magnitude in conductance (gmin 1e-12 S to contact
        # ties 1e6 S), and ~3e-10 is the direct backend's own roundoff
        # reproducibility floor on that conditioning; the better-
        # conditioned DC/AC/transient/Kron flows above assert 1e-10.
        assert np.allclose(tf.transfers[node], direct_tf.transfers[node],
                           atol=1e-9, rtol=EQUIV_ATOL)

    options = replace(
        vco_analysis.options,
        flow=replace(vco_analysis.options.flow,
                     solver=SolverOptions(backend=backend)))
    analysis = VcoImpactAnalysis(technology, options=options,
                                 flow_result=vco_analysis.flow)
    results, _, _, _ = analysis.analyze(0.0)
    for got, want in zip(results, reference):
        assert got.total_spur_power_dbm() == pytest.approx(
            want.total_spur_power_dbm(), abs=1e-6)
    # Every system of the spur analysis is MNA, solved by direct LU: no
    # solver degradation is reported.
    assert analysis.solver.stats.fallbacks == 0


# -- symmetric factorization of the SPD Kron block ----------------------------------------


class _ColamdKronSolver(DirectLUSolver):
    """Direct LU that records each Kron block and factorizes it with the
    default COLAMD ordering (the pre-SPD reference)."""

    def __init__(self):
        super().__init__()
        self.blocks = []

    def factorize(self, matrix, structure=None, grid=None, spd=False):
        if spd:
            self.blocks.append(sp.csc_matrix(matrix))
        return super().factorize(matrix, structure=structure)


@pytest.fixture(scope="module")
def vco_kron_variants(technology):
    """The real 56x56 VCO-testchip Kron reduction of the nominal and the
    2x-wide ground variant: (block, COLAMD admittance, default admittance)."""
    from repro.core.vco_experiment import VcoExperimentOptions
    from repro.layout.testchips import VcoLayoutSpec, make_vco_testchip
    from repro.substrate.extraction import extract_substrate

    options = VcoExperimentOptions().flow.substrate
    variants = []
    for scale in (1.0, 2.0):
        cell = make_vco_testchip(VcoLayoutSpec(ground_width_scale=scale))
        colamd = _ColamdKronSolver()
        reference = extract_substrate(cell, technology, options, solver=colamd)
        default = extract_substrate(cell, technology, options)
        [block] = colamd.blocks
        variants.append((block, reference.macromodel.admittance,
                         default.macromodel.admittance))
    return variants


def test_spd_kron_matches_colamd_reference_on_vco_testchip(vco_kron_variants):
    for _, reference, admittance in vco_kron_variants:
        assert np.max(np.abs(admittance - reference)) \
            <= 1e-12 * np.abs(reference).max()


def test_multigrid_matches_direct_on_vco_testchip(technology,
                                                 vco_kron_variants):
    """The real 56x56 VCO-testchip Kron block through multigrid: 13 port
    columns in standalone cycles, no fallback, admittance within 1e-9
    relative of the direct backend (~2e-11 measured)."""
    from repro.core.vco_experiment import VcoExperimentOptions
    from repro.layout.testchips import make_vco_testchip
    from repro.substrate.extraction import extract_substrate

    [(_, _, reference), _] = vco_kron_variants
    solver = make_solver(SolverOptions(backend="multigrid"))
    admittance = extract_substrate(
        make_vco_testchip(), technology,
        VcoExperimentOptions().flow.substrate,
        solver=solver).macromodel.admittance
    assert np.max(np.abs(admittance - reference)) \
        <= 1e-9 * np.abs(reference).max()
    assert solver.stats.mg_solves == reference.shape[0]
    assert solver.stats.fallbacks == 0


def test_spd_factorization_halves_kron_fill(vco_kron_variants):
    """Deterministic fill guard: the symmetric ordering's L+U is at most
    0.6x the COLAMD fill on the real block (0.50x when measured), through
    the default backend's SPD path."""
    for block, _, _ in vco_kron_variants:
        colamd = spla.splu(block)
        spd = resolve_solver(None).factorize(block, spd=True)._lu
        assert spd.L.nnz + spd.U.nnz <= 0.6 * (colamd.L.nnz + colamd.U.nnz)


def test_spd_kron_with_floating_internal_node_raises_named_error(technology):
    """A mesh node with no conductance at all (its 1e-12 regularisation
    cancelled) makes the SPD block exactly singular: the symmetric
    factorization must still fail down the named error chain."""
    spec = MeshSpec(region=Rect(0, 0, 100e-6, 100e-6), nx=5, ny=5,
                    max_depth=80e-6, n_z_per_layer=2)
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    conductance = mesh.conductance_matrix().tolil()
    floating = mesh.node_index(2, 2, 1)
    conductance[floating, :] = 0.0
    conductance[:, floating] = 0.0
    conductance[floating, floating] = -1e-12
    left = [mesh.node_index(0, iy, 0) for iy in range(mesh.ny)]
    right = [mesh.node_index(mesh.nx - 1, iy, 0) for iy in range(mesh.ny)]
    with pytest.raises(ExtractionError,
                       match=f"row {floating} .*floating node"):
        kron_reduce(conductance.tocsr(), [left, right], ["left", "right"],
                    [1e4, 1e4])
    with pytest.raises(SimulationError, match="singular"):
        Factorization(sp.csc_matrix((3, 3)), spd=True)


def test_mna_analyses_keep_the_colamd_path(monkeypatch):
    """DC, AC and transient systems never take the SPD path: counts match
    and results are bit-identical to a plain COLAMD ``splu``."""
    import repro.simulator.solver as solver_module
    from repro.simulator.mna import MnaStructure, stamp_linear_elements
    from repro.simulator.solver import add_gmin_diagonal

    def refuse(matrix):
        raise AssertionError("an MNA system took the SPD factorization")

    monkeypatch.setattr(solver_module, "splu_spd", refuse)
    circuit = _rc_circuit()
    structure = MnaStructure.from_circuit(circuit)
    stamper = stamp_linear_elements(circuit, structure)
    g = add_gmin_diagonal(stamper.conductance_matrix(), structure.n_nodes,
                          1e-12)
    c = stamper.capacitance_matrix()
    rhs = np.zeros(structure.size)
    rhs[structure.branch_row("V1")] = 1.0

    solver = DirectLUSolver()
    dc = dc_operating_point(circuit, solver=solver)
    assert (solver.stats.factorizations, solver.stats.solves) == (0, 2)
    np.testing.assert_array_equal(dc.vector, spla.splu(g.tocsc()).solve(rhs))

    frequencies = np.logspace(3, 9, 7)
    solver = DirectLUSolver()
    ac = ac_analysis(circuit, frequencies, solver=solver)
    assert (solver.stats.factorizations, solver.stats.solves) == (0, 7)
    for vector, frequency in zip(ac.vectors, frequencies):
        matrix = (g + 2j * np.pi * frequency * c).tocsc()
        np.testing.assert_array_equal(
            vector, spla.splu(matrix).solve(rhs.astype(complex)))

    solver = DirectLUSolver()
    transient_analysis(circuit, t_stop=1e-7, timestep=1e-8,
                       operating_point=dc, solver=solver)
    assert (solver.stats.factorizations, solver.stats.solves) == (1, 10)


# -- multigrid routes MNA systems to direct LU ---------------------------------------------


def test_multigrid_solves_mna_systems_by_direct_lu_without_fallbacks():
    """DC, AC and transfer systems carry no SPD promise: under the multigrid
    backend they are solved by direct LU, bit-identically, and routing them
    there is not a degradation."""
    circuit = _rc_circuit()
    frequencies = np.logspace(3, 8, 6)
    solver = MultigridSolver(SolverOptions(backend="multigrid"))
    np.testing.assert_array_equal(
        dc_operating_point(circuit, solver=solver).vector,
        dc_operating_point(circuit).vector)
    np.testing.assert_array_equal(
        ac_analysis(circuit, frequencies, solver=solver).vectors,
        ac_analysis(circuit, frequencies).vectors)
    transfer = transfer_functions(circuit, ["V1"], ["out"], frequencies,
                                  solver=solver)
    np.testing.assert_array_equal(
        transfer["V1"].transfers["out"],
        transfer_functions(circuit, ["V1"], ["out"],
                           frequencies)["V1"].transfers["out"])
    assert solver.stats.fallbacks == 0
    assert solver.stats.mg_solves == solver.stats.mg_cycles == 0
    assert solver.stats.solves > 0


# -- per-frequency AC fan-out ---------------------------------------------------------------


def test_ac_workers_match_serial(technology):
    circuit = _mosfet_circuit(technology)
    frequencies = np.logspace(4, 9, 11)
    serial = ac_analysis(circuit, frequencies)
    for backend in BACKENDS:
        sharded = ac_analysis(
            circuit, frequencies,
            solver=SolverOptions(backend=backend, ac_workers=3))
        assert np.allclose(sharded.vectors, serial.vectors, atol=1e-12)


def test_transfer_ac_workers_match_serial():
    circuit = _rc_circuit()
    frequencies = np.logspace(3, 8, 10)
    serial = transfer_functions(circuit, ["V1"], ["out", "mid"], frequencies)
    sharded = transfer_functions(
        circuit, ["V1"], ["out", "mid"], frequencies,
        solver=SolverOptions(backend="multigrid", ac_workers=4))
    for node in ("out", "mid"):
        assert np.allclose(sharded["V1"].transfers[node],
                           serial["V1"].transfers[node], atol=1e-12)


def test_ac_fanout_aggregates_worker_stats():
    circuit = _rc_circuit()
    frequencies = np.logspace(3, 8, 8)
    solver = DirectLUSolver(SolverOptions(ac_workers=4))
    ac_analysis(circuit, frequencies, solver=solver)
    # All 8 per-frequency solves are visible on the parent solver's stats,
    # aggregated from the spawned workers rather than raced on a global.
    assert solver.stats.solves == len(frequencies)


def test_spawned_workers_do_not_touch_global_stats():
    from repro.simulator.solver import stats as global_stats

    matrix = sp.csc_matrix(3.0 * np.eye(4))
    parent = DirectLUSolver()
    worker = parent.spawn()
    before = global_stats.factorizations
    worker.factorize(matrix)
    assert global_stats.factorizations == before
    parent.absorb(worker)
    assert parent.stats.factorizations == 1
    assert global_stats.factorizations == before + 1


# -- solver options validation / resolution -------------------------------------------------


def test_solver_options_validation():
    with pytest.raises(SimulationError, match="backend"):
        SolverOptions(backend="cholesky")
    with pytest.raises(SimulationError, match="ac_workers"):
        SolverOptions(ac_workers=0)
    with pytest.raises(SimulationError, match="ac_mode"):
        SolverOptions(ac_mode="fork")
    with pytest.raises(SimulationError, match="gmin"):
        SolverOptions(gmin=-1.0)
    assert [f.name for f in fields(SolverOptions)] == [
        "backend", "gmin", "ac_workers", "ac_mode"]


def test_mna_solve_sparse_routes_through_solver_seam():
    from repro.simulator.mna import solve_sparse as mna_solve

    matrix = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    rhs = np.array([1.0, 2.0])
    reference = mna_solve(matrix, rhs)
    solver = DirectLUSolver()
    routed = mna_solve(matrix, rhs, solver=solver)
    assert np.allclose(routed, reference, atol=EQUIV_ATOL)
    assert solver.stats.solves == 1
    assert np.allclose(
        mna_solve(matrix, rhs, solver=SolverOptions(backend="multigrid")),
        reference, atol=EQUIV_ATOL)


def test_resolve_solver_passthrough_and_defaults():
    assert isinstance(resolve_solver(None), DirectLUSolver)
    assert isinstance(resolve_solver(SolverOptions(backend="multigrid")),
                      MultigridSolver)
    shared = MultigridSolver()
    assert resolve_solver(shared) is shared


def test_effective_gmin_override():
    options = SolverOptions(gmin=1e-9)
    assert options.effective_gmin(1e-12) == 1e-9
    assert SolverOptions().effective_gmin(1e-12) == 1e-12


# -- extraction-cache keys ------------------------------------------------------------------


def test_solver_options_are_part_of_extraction_cache_key(technology,
                                                         nmos_cell, tmp_path):
    from repro.studies import DiskExtractionCache, extraction_key

    base = FlowOptions(substrate=SubstrateExtractionOptions(nx=10, ny=10))
    loose = FlowOptions(
        substrate=base.substrate,
        solver=SolverOptions(backend="multigrid"))
    tight = FlowOptions(
        substrate=base.substrate,
        solver=SolverOptions(backend="multigrid", gmin=1e-9))

    key_base = extraction_key(nmos_cell, technology, base)
    key_loose = extraction_key(nmos_cell, technology, loose)
    key_tight = extraction_key(nmos_cell, technology, tight)
    assert len({key_base, key_loose, key_tight}) == 3

    # Pure parallelism knobs never influence results, so they must not
    # invalidate cached extractions.
    sharded = FlowOptions(
        substrate=base.substrate,
        solver=SolverOptions(ac_workers=4, ac_mode="process"))
    assert extraction_key(nmos_cell, technology, sharded) == key_base

    # Two campaigns differing only in the [solver] gmin must not share
    # DiskExtractionCache entries: an entry stored under one key is a miss
    # under the other.
    cache = DiskExtractionCache(tmp_path / "cache")
    flow = run_extraction_flow(nmos_cell, technology, options=loose)
    cache.store(key_loose, flow)
    assert cache.lookup(key_loose) is not None
    assert cache.lookup(key_tight) is None


def test_campaign_fingerprint_and_sidecar_record_solver(technology):
    from dataclasses import replace

    from repro.core.vco_experiment import VcoExperimentOptions
    from repro.studies import Campaign, ParamSpace

    space = ParamSpace({"vtune": (0.0,), "noise_frequency": (1e6,)})
    default = Campaign(name="c", space=space)
    tuned = Campaign(
        name="c", space=space,
        options=replace(
            VcoExperimentOptions(),
            flow=replace(VcoExperimentOptions().flow,
                         solver=SolverOptions(backend="multigrid"))))
    assert default.fingerprint() != tuned.fingerprint()
    assert tuned.describe()["options"]["solver"]["backend"] == "multigrid"

    # ac_workers is results-neutral: same fingerprint, so stored results of
    # a serial run still resume a sharded re-run.
    sharded = Campaign(
        name="c", space=space,
        options=replace(
            VcoExperimentOptions(),
            flow=replace(VcoExperimentOptions().flow,
                         solver=SolverOptions(ac_workers=3))))
    assert sharded.fingerprint() == default.fingerprint()
