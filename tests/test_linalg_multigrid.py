"""The geometric-multigrid backend: transfers, smoothing, routing, accuracy.

The accuracy suite runs DC/Kron mesh solves through the multigrid backend
and asserts it matches the direct-LU reference to <= 1e-8 (the observed
error is orders of magnitude better — the float64 outer iteration drives
the residual to ``RTOL`` regardless of the float32 cycles inside).  The
structural tests pin down the transfer operators, the Galerkin hierarchy,
the solver stats, which systems take the multigrid path (``spd=True`` plus
a matching grid) and the one fallback: multigrid -> direct LU.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SimulationError
from repro.layout.geometry import Rect
from repro.simulator.linalg import (
    BACKEND_MULTIGRID,
    BACKENDS,
    GridGeometry,
    MultigridSolver,
    SolverOptions,
    make_solver,
)
from repro.simulator.linalg import multigrid
from repro.simulator.linalg.multigrid import build_hierarchy, prolongation_1d
from repro.studies.cache import fingerprint
from repro.substrate import MeshSpec, SubstrateMesh, kron_reduce
from repro.technology import make_technology

MG_ATOL = 1e-8


@pytest.fixture(scope="module")
def technology():
    return make_technology()


def _mesh_system(technology, nx=24, ny=24):
    """A substrate-mesh Laplacian plus port contacts (SPD) and its grid."""
    spec = MeshSpec(region=Rect(0, 0, nx * 6e-6, ny * 6e-6), nx=nx, ny=ny,
                    max_depth=150e-6, n_z_per_layer=2)
    mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
    conductance = mesh.conductance_matrix()
    n = conductance.shape[0]
    diagonal = np.zeros(n)
    diagonal[: nx * ny] += 1e3 / (nx * ny)
    matrix = sp.csc_matrix(conductance + sp.diags(diagonal + 1e-12))
    rhs = np.zeros((n, 4))
    for k in range(4):
        rhs[k * nx:(k + 1) * nx, k] = -1.0
    return mesh, matrix, rhs


def _mg_solver(**kwargs):
    return MultigridSolver(SolverOptions(backend=BACKEND_MULTIGRID), **kwargs)


def _mg_factorize(solver, mesh, matrix):
    """The Kron reduction's call: an SPD block with its grid geometry."""
    return solver.factorize(matrix, grid=mesh.grid_geometry(), spd=True)


# -- transfer operators -------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 8, 9, 13, 56])
def test_prolongation_rows_sum_to_one(n):
    p = prolongation_1d(n)
    assert p.shape == (n, (n + 1) // 2)
    np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0)


def test_prolongation_interior_weights():
    p = prolongation_1d(8).toarray()
    # fine cell 2 sits a quarter cell left of parent 1: 0.75 / 0.25 split
    assert p[2, 1] == pytest.approx(0.75)
    assert p[2, 0] == pytest.approx(0.25)
    # boundary cells clamp to their parent with full weight
    assert p[0, 0] == pytest.approx(1.0)
    assert p[7, 3] == pytest.approx(1.0)


def test_grid_geometry_validation():
    assert GridGeometry(8, 9, 3).n_nodes == 216
    with pytest.raises(SimulationError):
        GridGeometry(0, 9, 3)
    with pytest.raises(SimulationError):
        GridGeometry(8, 9, -1)


# -- hierarchy ----------------------------------------------------------------------


def test_galerkin_hierarchy_is_symmetric(technology):
    mesh, matrix, _ = _mesh_system(technology)
    levels = build_hierarchy(matrix, mesh.grid_geometry(), coarsest_size=100)
    assert len(levels) >= 3
    sizes = [level.matrix.shape[0] for level in levels]
    assert sizes == sorted(sizes, reverse=True)
    assert levels[-1].lu is not None
    for level in levels:
        operator = sp.csr_matrix(level.matrix.astype(np.float64))
        asymmetry = abs(operator - operator.T)
        scale = np.abs(operator.data).max()
        assert asymmetry.data.max() if asymmetry.nnz else 0.0 <= 1e-10 * scale


def test_hierarchy_respects_coarsest_size(technology):
    mesh, matrix, _ = _mesh_system(technology)
    shallow = build_hierarchy(matrix, mesh.grid_geometry(),
                              coarsest_size=matrix.shape[0])
    assert len(shallow) == 1 and shallow[0].lu is not None


# -- accuracy against direct LU -----------------------------------------------------


def test_multigrid_matches_direct_on_mesh_block(technology):
    """Standalone block cycles match the direct reference to <= 1e-8."""
    mesh, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs)
    solver = _mg_solver()
    factorization = _mg_factorize(solver, mesh, matrix)
    solution = factorization.solve(rhs)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.mg_solves == rhs.shape[1]
    assert solver.stats.mg_cycles > 0
    assert solver.stats.fallbacks == 0
    history = factorization.residual_history
    assert history and history[-1] <= multigrid.RTOL
    assert history == sorted(history, reverse=True)


def test_multigrid_matches_direct_single_vector(technology):
    """Single vectors go through MG-preconditioned CG."""
    mesh, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs[:, 0])
    solver = _mg_solver()
    solution = _mg_factorize(solver, mesh, matrix).solve(rhs[:, 0])
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.cg_solves == 1
    assert solver.stats.mg_solves == 1
    assert 0 < solver.stats.cg_iterations <= multigrid.MAX_CYCLES
    assert solver.stats.fallbacks == 0


@pytest.mark.parametrize("mode", ["standalone", "pcg"])
def test_multigrid_modes_match_direct(technology, mode):
    """The RHS width picks the mode: blocks standalone, vectors PCG."""
    mesh, matrix, rhs = _mesh_system(technology)
    if mode == "pcg":
        rhs = rhs[:, :1]
    reference = spla.splu(matrix).solve(rhs)
    solver = _mg_solver()
    solution = _mg_factorize(solver, mesh, matrix).solve(rhs)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.cg_solves == (1 if mode == "pcg" else 0)
    assert solver.stats.mg_solves == rhs.shape[1]


def test_multigrid_complex_rhs(technology):
    mesh, matrix, rhs = _mesh_system(technology)
    complex_rhs = rhs[:, 0] + 1j * rhs[:, 1]
    lu = spla.splu(matrix)
    reference = lu.solve(rhs[:, 0]) + 1j * lu.solve(rhs[:, 1])
    solver = _mg_solver()
    solution = _mg_factorize(solver, mesh, matrix).solve(complex_rhs)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.mg_solves == 2


def test_multigrid_kron_reduction_matches_direct(technology):
    mesh, matrix, _ = _mesh_system(technology)
    conductance = mesh.conductance_matrix()
    nx = mesh.nx
    port_nodes = [[mesh.node_index(ix, 0, 0) for ix in range(4)],
                  [mesh.node_index(ix, mesh.ny - 1, 0)
                   for ix in range(nx - 4, nx)]]
    names = ["agg", "vic"]
    # realistic contact conductances (~5 ohm taps), as the extraction layer
    # stamps them — ideal 1e6 S contacts make the Schur complement cancel
    # ~11 digits and amplify *any* solver's residual into the result
    contacts = [0.2, 0.2]
    direct = kron_reduce(conductance, port_nodes, names,
                         port_contact_conductance=contacts)
    solver = _mg_solver()
    reduced = kron_reduce(conductance, port_nodes, names,
                          port_contact_conductance=contacts,
                          solver=solver, grid=mesh.grid_geometry())
    scale = np.max(np.abs(direct.admittance))
    assert np.max(np.abs(reduced.admittance
                         - direct.admittance)) <= MG_ATOL * scale
    assert solver.stats.mg_solves == len(names)
    assert solver.stats.fallbacks == 0


# -- routing: only SPD blocks with a matching grid take multigrid -------------------


def test_spd_without_grid_goes_to_direct(technology):
    """SPD block without geometry: plain direct LU, not a degradation."""
    _, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs[:, 0])
    solver = _mg_solver()
    solution = solver.factorize(matrix, spd=True).solve(rhs[:, 0])
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.fallbacks == 0
    assert solver.stats.mg_solves == 0
    assert solver.stats.factorizations == 1


def test_grid_size_mismatch_is_treated_as_no_grid(technology):
    _, matrix, rhs = _mesh_system(technology)
    solver = _mg_solver()
    wrong = GridGeometry(3, 3, 3)        # 27 != mesh size
    solver.factorize(matrix, grid=wrong, spd=True).solve(rhs[:, 0])
    assert solver.stats.fallbacks == 0
    assert solver.stats.mg_solves == 0


def test_non_spd_with_grid_goes_to_direct():
    """Without the caller's SPD promise a gridded system is factorized by
    direct LU (COLAMD, as the direct backend does), with no fallback."""
    n = 27
    rng = np.random.default_rng(7)
    matrix = sp.csc_matrix(rng.standard_normal((n, n)) + 10.0 * np.eye(n))
    rhs = rng.standard_normal(n)
    reference = spla.splu(matrix).solve(rhs)
    solver = _mg_solver()
    solution = solver.factorize(matrix, grid=GridGeometry(3, 3, 3)).solve(rhs)
    np.testing.assert_array_equal(solution, reference)
    assert solver.stats.fallbacks == 0
    assert solver.stats.mg_solves == 0
    np.testing.assert_array_equal(
        solver.solve(matrix, rhs, grid=GridGeometry(3, 3, 3)), reference)


# -- the one fallback: multigrid -> direct LU ---------------------------------------


def test_hierarchy_failure_falls_back_to_direct(technology, monkeypatch):
    """A failed hierarchy set-up degrades to a direct SPD factorization,
    counted once; the Kron admittance still matches the direct backend."""
    mesh, _, _ = _mesh_system(technology)
    conductance = mesh.conductance_matrix()
    ports = [[mesh.node_index(ix, 0, 0) for ix in range(4)],
             [mesh.node_index(ix, mesh.ny - 1, 0) for ix in range(4)]]
    direct = kron_reduce(conductance, ports, ["a", "b"], [0.2, 0.2])

    def broken(*args, **kwargs):
        raise SimulationError("injected hierarchy failure")

    monkeypatch.setattr(multigrid, "build_hierarchy", broken)
    solver = _mg_solver()
    reduced = kron_reduce(conductance, ports, ["a", "b"], [0.2, 0.2],
                          solver=solver, grid=mesh.grid_geometry())
    np.testing.assert_allclose(reduced.admittance, direct.admittance,
                               rtol=1e-12, atol=0.0)
    assert solver.stats.fallbacks == 1
    assert solver.stats.mg_solves == 0


def test_stagnation_falls_back_without_wrong_answers(technology, monkeypatch):
    """A cycle budget too small to converge still returns the right answer:
    the standalone iteration falls back to direct LU, once per block."""
    monkeypatch.setattr(multigrid, "MAX_CYCLES", 1)
    mesh, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs)
    solver = _mg_solver()
    factorization = _mg_factorize(solver, mesh, matrix)
    solution = factorization.solve(rhs)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.fallbacks == 1
    assert solver.stats.mg_cycles == 1
    # later solves reuse the fallback factorization instead of cycling again
    factorization.solve(rhs)
    assert (solver.stats.fallbacks, solver.stats.mg_cycles) == (1, 1)


def test_pcg_stall_is_capped_by_the_cycle_budget(technology, monkeypatch):
    """A PCG solve that cannot reach its target (rtol patched to 0) stops
    after MAX_CYCLES iterations and falls back to the direct answer."""
    monkeypatch.setattr(multigrid, "RTOL", 0.0)
    mesh, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs[:, 0])
    solver = _mg_solver()
    solution = _mg_factorize(solver, mesh, matrix).solve(rhs[:, 0])
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert solver.stats.fallbacks == 1
    assert 0 < solver.stats.mg_cycles <= multigrid.MAX_CYCLES
    assert solver.stats.cg_iterations <= multigrid.MAX_CYCLES
    assert solver.stats.cg_solves == 0


def test_empty_and_shape_errors(technology):
    solver = _mg_solver()
    empty = sp.csc_matrix((0, 0))
    assert solver.factorize(empty).solve(np.zeros((0,))).shape == (0,)
    mesh, matrix, _ = _mesh_system(technology)
    for factorization in (solver.factorize(matrix, grid=None),
                          _mg_factorize(solver, mesh, matrix)):
        with pytest.raises(SimulationError):
            factorization.solve(np.zeros(3))


# -- stats, spawn/absorb, registry --------------------------------------------------


def test_multigrid_registered_in_backends():
    assert BACKENDS == ("direct", "multigrid")
    solver = make_solver(SolverOptions(backend=BACKEND_MULTIGRID))
    assert isinstance(solver, MultigridSolver)
    assert solver.stats.backend == BACKEND_MULTIGRID


def test_spawned_worker_counts_are_absorbed(technology):
    mesh, matrix, rhs = _mesh_system(technology)
    solver = _mg_solver(mirror_global=False)
    worker = solver.spawn()
    _mg_factorize(worker, mesh, matrix).solve(rhs)
    assert solver.stats.mg_solves == 0
    solver.absorb(worker)
    assert solver.stats.mg_solves == rhs.shape[1]
    assert solver.stats.mg_cycles == worker.stats.mg_cycles > 0


# -- options and cache-key participation --------------------------------------------


@pytest.mark.parametrize("bad", [
    dict(cg_max_iterations=100),
    dict(max_cached_patterns=8),
    dict(mg_mode="auto"),
    dict(mg_pre_smooth=2),
    dict(mg_post_smooth=1),
    dict(mg_coarsest_size=800),
    dict(mg_max_cycles=60),
    dict(mg_rtol=1e-12),
])
def test_mg_option_validation(tmp_path, bad):
    """The cycle shape is fixed: an old ``[solver]`` table setting any of
    the retired knobs (``mg_*`` cycle shape, CG budget, LU pattern cache)
    fails with a named config error."""
    from repro.errors import AnalysisError
    from repro.studies.cli import load_campaign_config

    [knob] = bad
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "name": "old", "axes": {"vtune": [0.0]},
        "solver": dict(backend=BACKEND_MULTIGRID, **bad)}))
    with pytest.raises(AnalysisError, match=knob):
        load_campaign_config(path)


def test_mg_options_participate_in_cache_key():
    base = SolverOptions(backend=BACKEND_MULTIGRID)
    assert fingerprint(base) == fingerprint(
        SolverOptions(backend=BACKEND_MULTIGRID))
    assert fingerprint(base) != fingerprint(SolverOptions())
    assert fingerprint(base) != fingerprint(
        SolverOptions(backend=BACKEND_MULTIGRID, gmin=1e-9))
    assert fingerprint(base) == fingerprint(
        SolverOptions(backend=BACKEND_MULTIGRID, ac_workers=3,
                      ac_mode="process"))
