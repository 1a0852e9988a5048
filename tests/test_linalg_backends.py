"""The linear solver: the one class every analysis calls, its SPD path and
its options.

The equivalence suite runs the same analyses (DC, small-signal transfer,
transient, Kron reduction, full extraction flow, VCO spur analysis) through a
``LinearSolver`` built from explicit ``SolverOptions`` and asserts each
matches the default direct-LU reference to <= 1e-10; a wrapping test
asserts that every analysis really calls ``LinearSolver.factorize`` or
``.solve`` (the methods the benchmark's ``linalg`` layer times); the
cache-key tests prove that campaigns differing only in solver settings
never share extraction cache entries.  The SPD
tests pin the Kron block's symmetric factorization against a COLAMD
reference on the real VCO testchip, the spectral reduction of the same
chip against both, and MNA systems to the kernel their size routes them
to: LAPACK at or below the dense cutoff, the unchanged COLAMD path above
it.  Solver work is asserted as deltas of the one global counter record.
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
from repro.simulator import dc_operating_point, transient_analysis
from repro.simulator.linalg import LinearSolver, SolverOptions
from repro.simulator.solver import Factorization
from repro.simulator.solver import stats as solver_stats
from repro.simulator.transfer import transfer_functions
from repro.substrate import MeshSpec, SubstrateMesh, kron_reduce
from repro.substrate.extraction import SubstrateExtractionOptions

EQUIV_ATOL = 1e-10

#: The backend names ``SolverOptions`` accepts.
BACKENDS = ("direct",)


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
                               SourceValue(dc=0.9, waveform=lambda t: 0.9))
    circuit.add_resistor("RL", "vdd", "d", 1e3)
    circuit.add_mosfet("M1", "d", "g", "0", "0",
                       technology.mos_parameters("nmos_rf"),
                       width=10e-6, length=0.18e-6)
    return circuit


# -- backend equivalence on the analyses -------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_dc_backends_match_direct(technology, backend):
    reference = dc_operating_point(_mosfet_circuit(technology)).vector
    solver = LinearSolver(SolverOptions(backend=backend))
    solution = dc_operating_point(_mosfet_circuit(technology), solver=solver)
    assert np.allclose(solution.vector, reference, atol=EQUIV_ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_ac_backends_match_direct(backend):
    frequencies = np.logspace(3, 9, 9)
    nodes = _rc_circuit().nodes()
    reference = transfer_functions(_rc_circuit(), ["V1"], nodes,
                                   frequencies)["V1"]
    solver = LinearSolver(SolverOptions(backend=backend))
    transfer = transfer_functions(_rc_circuit(), ["V1"], nodes, frequencies,
                                  solver=solver)["V1"]
    for node in nodes:
        assert np.allclose(transfer.transfers[node],
                           reference.transfers[node], atol=EQUIV_ATOL)


@pytest.mark.parametrize("backend", BACKENDS)
def test_transient_backends_match_direct(technology, backend):
    circuit = _mosfet_circuit(technology)
    reference = transient_analysis(circuit, t_stop=2e-8, timestep=1e-9).vectors
    solver = LinearSolver(SolverOptions(backend=backend))
    vectors = transient_analysis(circuit, t_stop=2e-8, timestep=1e-9,
                                 solver=solver).vectors
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
    solver = LinearSolver(SolverOptions(backend=backend))
    before = solver_stats.snapshot()
    reduced = kron_reduce(conductance, [left, right], ["left", "right"],
                          [1e4, 1e4], solver=solver).admittance
    spent = solver_stats.since(before)
    assert np.allclose(reduced, reference,
                       atol=EQUIV_ATOL * np.abs(reference).max())
    # A raw matrix takes the direct path: one sparse SPD factorization.
    assert (spent.factorizations, spent.fallbacks) == (1, 0)


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

    backend = "direct"
    tf = transfer_functions(
        circuit, ["VSUB_SRC"], nodes, frequencies,
        operating_point=operating_point,
        solver=LinearSolver(SolverOptions(backend=backend)))["VSUB_SRC"]
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
    before = solver_stats.snapshot()
    results, _, _, _ = analysis.analyze(0.0)
    assert len(results) == len(reference)
    assert results.total_spur_power_dbm() == pytest.approx(
        reference.total_spur_power_dbm(), abs=1e-6)
    # Every system of the spur analysis is MNA, solved by direct LU: no
    # solver degradation is reported.
    assert solver_stats.since(before).fallbacks == 0


# -- symmetric factorization of the SPD Kron block ----------------------------------------


class _ColamdKronSolver(LinearSolver):
    """Direct LU that records each Kron block and factorizes it with the
    default COLAMD ordering (the pre-SPD reference)."""

    def __init__(self):
        super().__init__()
        self.blocks = []

    def factorize(self, matrix, structure=None, spd=False):
        if spd:
            self.blocks.append(sp.csc_matrix(matrix))
        return super().factorize(matrix, structure=structure)


@pytest.fixture(scope="module")
def vco_kron_variants(technology):
    """The real 56x56 VCO-testchip Kron reduction of the nominal and the
    2x-wide ground variant: (block, COLAMD admittance, SPD direct
    admittance, spectral admittance from ``extract_substrate``)."""
    from repro.core.vco_experiment import VcoExperimentOptions
    from repro.layout.testchips import VcoLayoutSpec, make_vco_testchip
    from repro.substrate.extraction import (
        extract_substrate,
        identify_ports,
        mesh_contacts,
    )

    options = VcoExperimentOptions().flow.substrate
    variants = []
    for scale in (1.0, 2.0):
        cell = make_vco_testchip(VcoLayoutSpec(ground_width_scale=scale))
        ports = identify_ports(cell, technology)
        names = [port.name for port in ports]
        mesh, port_nodes = mesh_contacts(cell, technology, options, ports)
        conductance = mesh.conductance_matrix()
        colamd = _ColamdKronSolver()
        reference = kron_reduce(conductance, port_nodes, names, solver=colamd)
        direct = kron_reduce(conductance, port_nodes, names)
        spectral = extract_substrate(cell, technology, options)
        [block] = colamd.blocks
        variants.append((block, reference.admittance, direct.admittance,
                         spectral.macromodel.admittance))
    return variants


def test_spd_kron_matches_colamd_reference_on_vco_testchip(vco_kron_variants):
    for _, reference, admittance, _ in vco_kron_variants:
        assert np.max(np.abs(admittance - reference)) \
            <= 1e-12 * np.abs(reference).max()


def test_spectral_matches_direct_on_vco_testchip(vco_kron_variants):
    """The real 56x56 VCO-testchip reduction through the spectral path is
    within 1e-9 relative of the direct SPD LU (~1e-12 measured)."""
    for _, _, reference, spectral in vco_kron_variants:
        assert np.max(np.abs(spectral - reference)) \
            <= 1e-9 * np.abs(reference).max()


def test_multigrid_matches_direct_on_vco_testchip(technology,
                                                 vco_kron_variants):
    """The real 56x56 VCO-testchip extraction handed an explicit solver
    instance, as the retired multigrid backend once was: the solver only
    backs the direct path, so the spectral path still runs (one dense
    Cholesky, no fallback) and stays within 1e-9 relative of direct LU."""
    from repro.core.vco_experiment import VcoExperimentOptions
    from repro.layout.testchips import make_vco_testchip
    from repro.substrate.extraction import extract_substrate

    [(_, _, reference, _), _] = vco_kron_variants
    solver = LinearSolver(SolverOptions())
    before = solver_stats.snapshot()
    admittance = extract_substrate(
        make_vco_testchip(), technology,
        VcoExperimentOptions().flow.substrate,
        solver=solver).macromodel.admittance
    spent = solver_stats.since(before)
    assert np.max(np.abs(admittance - reference)) \
        <= 1e-9 * np.abs(reference).max()
    assert (spent.factorizations, spent.solves, spent.fallbacks) == (1, 1, 0)


def test_spd_factorization_halves_kron_fill(vco_kron_variants):
    """Deterministic fill guard: the symmetric ordering's L+U is at most
    0.6x the COLAMD fill on the real block (0.50x when measured), through
    the default backend's SPD path."""
    for block, _, _, _ in vco_kron_variants:
        colamd = spla.splu(block)
        spd = LinearSolver().factorize(block, spd=True)._lu
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


def _grid_circuit(size):
    """A size x size resistor grid with node capacitors, driven in a corner."""
    circuit = Circuit("grid")
    circuit.add_voltage_source("V1", "n_0_0", "0",
                               SourceValue(dc=1.0))
    for i in range(size):
        for j in range(size):
            node = f"n_{i}_{j}"
            if i + 1 < size:
                circuit.add_resistor(f"Rx_{i}_{j}", node, f"n_{i + 1}_{j}",
                                     100.0)
            if j + 1 < size:
                circuit.add_resistor(f"Ry_{i}_{j}", node, f"n_{i}_{j + 1}",
                                     100.0)
            circuit.add_capacitor(f"C_{i}_{j}", node, "0", 1e-13)
    circuit.add_resistor("Rgnd", f"n_{size - 1}_{size - 1}", "0", 100.0)
    return circuit


def _lapack_solve(matrix, rhs):
    """Reference ``getrf``/``getrs`` solve of a dense matrix."""
    from scipy.linalg import lapack

    complex_ = np.iscomplexobj(matrix)
    getrf = lapack.zgetrf if complex_ else lapack.dgetrf
    getrs = lapack.zgetrs if complex_ else lapack.dgetrs
    lu, piv, info = getrf(matrix)
    assert info == 0
    return getrs(lu, piv, rhs)[0]


def test_mna_analyses_keep_the_colamd_path(monkeypatch):
    """DC, transfer and transient systems never take the SPD path.  The
    system size picks the kernel: the RC circuit (at or below the dense
    cutoff) matches LAPACK ``getrf``/``getrs`` (bit-identically for DC; its
    transfers solve the port reduction, so to rounding), and a resistor
    grid above the cutoff is bit-identical to a plain COLAMD ``splu``; the
    counts match either way."""
    import repro.simulator.solver as solver_module
    from repro.simulator.mna import MnaStructure, stamp_linear_elements
    from repro.simulator.solver import DENSE_MAX_SIZE, add_gmin_diagonal

    def refuse(matrix):
        raise AssertionError("an MNA system took the SPD factorization")

    monkeypatch.setattr(solver_module, "splu_spd", refuse)
    frequencies = np.logspace(3, 9, 7)
    for circuit, dense in ((_rc_circuit(), True),
                           (_grid_circuit(10), False)):
        structure = MnaStructure.from_circuit(circuit)
        assert (structure.size <= DENSE_MAX_SIZE) == dense
        stamper = stamp_linear_elements(circuit, structure)
        g = add_gmin_diagonal(stamper.conductance_system(),
                              structure.n_nodes, 1e-12)
        c = stamper.capacitance_system()
        rhs = np.zeros(structure.size)
        rhs[structure.branch_row("V1")] = 1.0

        def reference(matrix, rhs):
            if dense:
                return _lapack_solve(matrix, rhs)
            return spla.splu(matrix.tocsc()).solve(rhs)

        before = solver_stats.snapshot()
        dc = dc_operating_point(circuit, solver=LinearSolver())
        spent = solver_stats.since(before)
        assert (spent.factorizations, spent.solves) == (0, 2)
        np.testing.assert_array_equal(dc.vector, reference(g, rhs))

        before = solver_stats.snapshot()
        nodes = circuit.nodes()
        transfer = transfer_functions(circuit, ["V1"], nodes, frequencies,
                                      solver=LinearSolver())["V1"]
        spent = solver_stats.since(before)
        assert (spent.factorizations, spent.solves) == (7, 7)
        rows = [structure.node_row(node) for node in nodes]
        for index, frequency in enumerate(frequencies):
            expected = reference(g + 2j * np.pi * frequency * c,
                                 rhs.astype(complex))[rows]
            actual = np.array([transfer.transfers[node][index]
                               for node in nodes])
            if dense:
                # The dense path solves the port reduction, not the full
                # system, so it agrees with LAPACK to rounding only.
                assert np.max(np.abs(actual - expected)) \
                    <= 1e-12 * np.max(np.abs(expected))
            else:
                np.testing.assert_array_equal(actual, expected)

        before = solver_stats.snapshot()
        transient_analysis(circuit, t_stop=1e-7, timestep=1e-8,
                           operating_point=dc, solver=LinearSolver())
        spent = solver_stats.since(before)
        assert (spent.factorizations, spent.solves) == (1, 10)


# -- MNA systems stay on direct LU ----------------------------------------------------------


def test_multigrid_solves_mna_systems_by_direct_lu_without_fallbacks():
    """DC and transfer systems carry no SPD promise.  The multigrid
    backend that once received them is gone: an explicitly passed solver
    solves them by direct LU, bit-identically to the default, without a
    fallback and with the kept ``mg_cycles`` attribute at zero."""
    circuit = _rc_circuit()
    frequencies = np.logspace(3, 8, 6)
    solver = LinearSolver(SolverOptions())
    before = solver_stats.snapshot()
    np.testing.assert_array_equal(
        dc_operating_point(circuit, solver=solver).vector,
        dc_operating_point(circuit).vector)
    transfer = transfer_functions(circuit, ["V1"], ["out"], frequencies,
                                  solver=solver)
    np.testing.assert_array_equal(
        transfer["V1"].transfers["out"],
        transfer_functions(circuit, ["V1"], ["out"],
                           frequencies)["V1"].transfers["out"])
    spent = solver_stats.since(before)
    assert spent.fallbacks == 0
    assert spent.mg_cycles == solver_stats.mg_cycles == 0
    assert spent.solves > 0


# -- solver options validation / resolution -------------------------------------------------


def test_solver_options_validation():
    with pytest.raises(SimulationError, match="backend"):
        SolverOptions(backend="cholesky")
    # The retired multigrid backend fails with the same named error.
    with pytest.raises(SimulationError,
                       match="unknown solver backend 'multigrid'"):
        SolverOptions(backend="multigrid")
    for bad in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SimulationError, match="gmin"):
            SolverOptions(gmin=bad)
    assert SolverOptions(gmin=0.0).effective_gmin(1e-12) == 0.0
    assert [f.name for f in fields(SolverOptions)] == ["backend", "gmin"]


def test_one_shot_solve_counts_one_solve():
    """``LinearSolver.solve`` counts one solve and no factorization,
    whatever its options."""
    matrix = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    rhs = np.array([1.0, 2.0])
    reference = spla.splu(matrix).solve(rhs)
    before = solver_stats.snapshot()
    solution = LinearSolver().solve(matrix, rhs)
    spent = solver_stats.since(before)
    assert np.allclose(solution, reference, atol=EQUIV_ATOL)
    assert (spent.factorizations, spent.solves) == (0, 1)
    assert np.allclose(
        LinearSolver(SolverOptions(gmin=1e-9)).solve(matrix, rhs),
        reference, atol=EQUIV_ATOL)


def test_every_analysis_calls_the_linear_solver(technology, monkeypatch):
    """DC, transfer (dense and sparse), transient and the direct Kron path
    each call ``LinearSolver.factorize`` or ``.solve`` (with the default
    solver).  These are the two methods the benchmark harness wraps for its
    ``linalg`` layer, so the layer cannot go silently empty."""
    from repro.simulator import linalg

    assert linalg.LinearSolver is LinearSolver
    assert linalg.SolverOptions is SolverOptions
    calls = []

    def recording(method):
        original = getattr(LinearSolver, method)

        def wrapper(self, *args, **kwargs):
            calls.append((method, kwargs.get("spd", False)))
            return original(self, *args, **kwargs)
        return wrapper

    for method in ("factorize", "solve"):
        monkeypatch.setattr(LinearSolver, method, recording(method))

    def called(run):
        calls.clear()
        run()
        return set(calls)

    frequencies = np.logspace(3, 8, 4)
    assert called(lambda: dc_operating_point(
        _mosfet_circuit(technology))) == {("solve", False)}
    for circuit in (_rc_circuit(), _grid_circuit(10)):
        assert called(lambda: transfer_functions(
            circuit, ["V1"], [circuit.nodes()[-1]], frequencies)) \
            == {("factorize", False)}
    assert called(lambda: transient_analysis(
        _rc_circuit(), t_stop=1e-8, timestep=1e-9)) \
        == {("solve", False), ("factorize", False)}
    spec = MeshSpec(region=Rect(0, 0, 100e-6, 100e-6), nx=5, ny=5,
                    max_depth=80e-6, n_z_per_layer=2)
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    left = [mesh.node_index(0, iy, 0) for iy in range(mesh.ny)]
    right = [mesh.node_index(mesh.nx - 1, iy, 0) for iy in range(mesh.ny)]
    assert called(lambda: kron_reduce(
        mesh.conductance_matrix(), [left, right], ["left", "right"],
        [1e4, 1e4])) == {("factorize", True)}


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
        solver=SolverOptions(gmin=1e-11))
    tight = FlowOptions(
        substrate=base.substrate,
        solver=SolverOptions(gmin=1e-9))

    key_base = extraction_key(nmos_cell, technology, base)
    key_loose = extraction_key(nmos_cell, technology, loose)
    key_tight = extraction_key(nmos_cell, technology, tight)
    assert len({key_base, key_loose, key_tight}) == 3

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
                         solver=SolverOptions(gmin=1e-9))))
    assert default.fingerprint() != tuned.fingerprint()
    assert tuned.describe()["options"]["solver"]["gmin"] == 1e-9
