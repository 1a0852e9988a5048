"""What the retired geometric-multigrid backend covered, and what replaced it.

The multigrid backend solved the Kron reduction's SPD mesh block by
V-cycles and handed everything else to direct LU.  It is deleted: the
laterally uniform mesh is now reduced exactly by the spectral path of
:mod:`repro.substrate.spectral`, and every other system (a raw conductance
matrix, a mesh the spectral path does not cover, all MNA systems) by the
direct backend.  These tests hold that replacement to the old backend's
accuracy bar (<= 1e-8 against direct LU on the same mesh blocks), keep its
routing rules (only a structured mesh leaves direct LU) and its one counted
fallback (now spectral -> direct LU), and pin the named errors that its
backend name and retired ``[solver]`` knobs raise.  Solver work is asserted
as deltas of the global counter record.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SimulationError
from repro.layout.geometry import Rect
from repro.simulator import linalg
from repro.simulator.linalg import (
    BACKENDS,
    DirectLUSolver,
    SolverOptions,
    make_solver,
)
from repro.simulator.solver import stats as solver_stats
from repro.studies.cache import fingerprint
from repro.substrate import MeshSpec, SubstrateMesh, kron_reduce, spectral

MG_ATOL = 1e-8


@pytest.fixture(scope="module")
def technology():
    from repro.technology import make_technology

    return make_technology()


def _mesh_system(technology, nx=24, ny=24):
    """A substrate-mesh Laplacian plus port contacts (SPD) and its mesh."""
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


def _row_ports(mesh, rows):
    """One port per surface row ``iy`` in ``rows``, over all its cells."""
    return [[mesh.node_index(ix, iy, 0) for ix in range(mesh.nx)]
            for iy in rows]


def _traced_kron(*args, **kwargs):
    """``kron_reduce(*args, **kwargs)`` traced; returns the admittance and
    the path its ``extract.kron`` span reports."""
    from repro.obs import tracer

    was_enabled = tracer.enabled
    tracer.enable()
    try:
        mark = tracer.mark()
        admittance = kron_reduce(*args, **kwargs).admittance
        [path] = [dict(span.attrs)["path"] for span in tracer.spans_since(mark)
                  if span.name == "extract.kron"]
    finally:
        if not was_enabled:
            tracer.disable()
    return admittance, path


def _deviation(reduced, reference):
    return np.max(np.abs(reduced - reference)) / np.max(np.abs(reference))


@pytest.fixture
def spent():
    """Solver work since the test started (a delta of the global record)."""
    before = solver_stats.snapshot()
    return lambda: solver_stats.since(before)


# -- the mesh geometry the structured path relies on --------------------------------


def test_grid_geometry_validation(technology):
    """The spectral path takes a mesh only when its geometry is the
    structured one: ``linspace`` lateral edges and surface contacts."""
    mesh, _, _ = _mesh_system(technology, nx=8, ny=9)
    assert mesh.n_nodes == 8 * 9 * mesh.nz
    surface = np.arange(8 * 9)
    assert spectral.supports(mesh, surface)
    assert not spectral.supports(mesh, np.array([mesh.node_index(2, 2, 1)]))
    skewed = SubstrateMesh(spec=mesh.spec, profile=technology.substrate)
    skewed.y_edges = skewed.y_edges.copy()
    skewed.y_edges[3] += 0.2 * (skewed.y_edges[4] - skewed.y_edges[3])
    assert not spectral.supports(skewed, surface)


# -- accuracy against direct LU -----------------------------------------------------


def test_multigrid_matches_direct_on_mesh_block(technology):
    """The four contact rows of the old multigrid test block, as ports: the
    spectral reduction matches direct LU to <= 1e-8 with one dense
    Cholesky and no fallback."""
    mesh, _, _ = _mesh_system(technology)
    ports = _row_ports(mesh, range(4))
    names = [f"row{iy}" for iy in range(4)]
    contacts = [0.2] * 4
    direct = kron_reduce(mesh.conductance_matrix(), ports, names, contacts)
    before = solver_stats.snapshot()
    reduced, path = _traced_kron(mesh, ports, names, contacts)
    work = solver_stats.since(before)
    assert path == "spectral"
    assert _deviation(reduced, direct.admittance) <= MG_ATOL
    assert (work.factorizations, work.fallbacks) == (1, 0)


def test_multigrid_matches_direct_single_vector(technology):
    """Ports of a single surface cell each (k = 2, the smallest dense
    solve) match direct LU to <= 1e-8."""
    mesh, _, _ = _mesh_system(technology)
    ports = [[mesh.node_index(2, 3, 0)], [mesh.node_index(20, 17, 0)]]
    direct = kron_reduce(mesh.conductance_matrix(), ports, ["a", "b"],
                         [0.2, 0.2])
    before = solver_stats.snapshot()
    reduced, path = _traced_kron(mesh, ports, ["a", "b"], [0.2, 0.2])
    work = solver_stats.since(before)
    assert path == "spectral"
    assert _deviation(reduced, direct.admittance) <= MG_ATOL
    assert (work.factorizations, work.fallbacks) == (1, 0)


def test_multigrid_complex_rhs(technology, spent):
    """The SPD factorization of the mesh block solves a complex RHS as two
    real solves, within 1e-8 of COLAMD LU, counted as one solve."""
    _, matrix, rhs = _mesh_system(technology)
    complex_rhs = rhs[:, 0] + 1j * rhs[:, 1]
    lu = spla.splu(matrix)
    reference = lu.solve(rhs[:, 0]) + 1j * lu.solve(rhs[:, 1])
    solution = DirectLUSolver().factorize(matrix, spd=True).solve(complex_rhs)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert (spent().factorizations, spent().solves) == (1, 1)


def test_multigrid_kron_reduction_matches_direct(technology):
    mesh, _, _ = _mesh_system(technology)
    conductance = mesh.conductance_matrix()
    nx = mesh.nx
    port_nodes = [[mesh.node_index(ix, 0, 0) for ix in range(4)],
                  [mesh.node_index(ix, mesh.ny - 1, 0)
                   for ix in range(nx - 4, nx)]]
    names = ["agg", "vic"]
    # realistic contact conductances (~5 ohm taps), as the extraction layer
    # stamps them — ideal 1e6 S contacts make the direct Schur complement
    # cancel ~11 digits and amplify its residual into the reference
    contacts = [0.2, 0.2]
    direct = kron_reduce(conductance, port_nodes, names,
                         port_contact_conductance=contacts)
    before = solver_stats.snapshot()
    reduced, path = _traced_kron(mesh, port_nodes, names,
                                 port_contact_conductance=contacts,
                                 solver=make_solver(SolverOptions()))
    work = solver_stats.since(before)
    assert path == "spectral"
    assert _deviation(reduced, direct.admittance) <= MG_ATOL
    assert (work.factorizations, work.fallbacks) == (1, 0)


# -- routing: only a structured mesh leaves direct LU -------------------------------


def test_spd_without_grid_goes_to_direct(technology, spent):
    """SPD block without geometry: plain direct LU, not a degradation."""
    _, matrix, rhs = _mesh_system(technology)
    reference = spla.splu(matrix).solve(rhs[:, 0])
    solver = DirectLUSolver()
    solution = solver.factorize(matrix, spd=True).solve(rhs[:, 0])
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(solution - reference)) <= MG_ATOL * scale
    assert spent().fallbacks == 0
    assert spent().factorizations == 1


def test_grid_size_mismatch_is_treated_as_no_grid(technology, spent):
    """A mesh whose lateral edges are not uniform is reduced as its raw
    matrix would be: direct LU, bit-identical, no fallback counted."""
    mesh, _, _ = _mesh_system(technology, nx=8, ny=8)
    skewed = SubstrateMesh(spec=mesh.spec, profile=technology.substrate)
    skewed.y_edges = skewed.y_edges.copy()
    skewed.y_edges[3] += 0.2 * (skewed.y_edges[4] - skewed.y_edges[3])
    ports = (_row_ports(skewed, (0, 7)), ["a", "b"], [0.2, 0.2])
    reduced, path = _traced_kron(skewed, *ports)
    assert path == "direct"
    assert spent().fallbacks == 0
    assert spent().factorizations == 1
    np.testing.assert_array_equal(
        reduced,
        kron_reduce(skewed.conductance_matrix(), *ports).admittance)


def test_non_spd_with_grid_goes_to_direct(spent):
    """Without the caller's SPD promise a system is factorized by direct LU
    with COLAMD, as ``splu`` does by default, with no fallback."""
    n = 27
    rng = np.random.default_rng(7)
    matrix = sp.csc_matrix(rng.standard_normal((n, n)) + 10.0 * np.eye(n))
    rhs = rng.standard_normal(n)
    reference = spla.splu(matrix).solve(rhs)
    solver = DirectLUSolver()
    solution = solver.factorize(matrix).solve(rhs)
    np.testing.assert_array_equal(solution, reference)
    assert spent().fallbacks == 0
    np.testing.assert_array_equal(solver.solve(matrix, rhs), reference)


# -- the one fallback: spectral -> direct LU ----------------------------------------


def test_hierarchy_failure_falls_back_to_direct(technology, monkeypatch):
    """A failed set-up of the surface Green's table degrades to the direct
    SPD factorization, counted once; the admittance is the direct one."""
    mesh, _, _ = _mesh_system(technology)
    ports = ([[mesh.node_index(ix, 0, 0) for ix in range(4)],
              [mesh.node_index(ix, mesh.ny - 1, 0) for ix in range(4)]],
             ["a", "b"], [0.2, 0.2])
    direct = kron_reduce(mesh.conductance_matrix(), *ports)

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("injected table failure")

    monkeypatch.setattr(spectral, "_surface_green_table", broken)
    before = solver_stats.snapshot()
    reduced, path = _traced_kron(mesh, *ports)
    work = solver_stats.since(before)
    assert path == "direct"
    np.testing.assert_allclose(reduced, direct.admittance,
                               rtol=1e-12, atol=0.0)
    assert (work.fallbacks, work.factorizations) == (1, 1)


def test_stagnation_falls_back_without_wrong_answers(technology,
                                                     monkeypatch):
    """A dense system that really is indefinite (the Green's matrix negated)
    makes the Cholesky itself fail; the reduction still returns the direct
    answer, one fallback per reduction."""
    mesh, _, _ = _mesh_system(technology)
    ports = (_row_ports(mesh, (0, mesh.ny - 1)), ["a", "b"], [0.2, 0.2])
    direct = kron_reduce(mesh.conductance_matrix(), *ports)
    green = spectral._surface_green_matrix

    def negated(*args, **kwargs):
        matrix, uniform = green(*args, **kwargs)
        return -matrix, uniform

    monkeypatch.setattr(spectral, "_surface_green_matrix", negated)
    before = solver_stats.snapshot()
    for expected in (1, 2):
        reduced, path = _traced_kron(mesh, *ports)
        assert path == "direct"
        np.testing.assert_array_equal(reduced, direct.admittance)
        assert solver_stats.since(before).fallbacks == expected


def test_empty_and_shape_errors(technology):
    solver = DirectLUSolver()
    empty = sp.csc_matrix((0, 0))
    assert solver.factorize(empty).solve(np.zeros((0,))).shape == (0,)
    _, matrix, _ = _mesh_system(technology)
    for factorization in (solver.factorize(matrix),
                          solver.factorize(matrix, spd=True)):
        with pytest.raises(SimulationError):
            factorization.solve(np.zeros(3))


# -- registry --------------------------------------------------


def test_multigrid_registered_in_backends():
    """Direct LU is the one registered backend; the multigrid names are
    gone and its backend name fails with the named error."""
    assert BACKENDS == ("direct",)
    solver = make_solver(SolverOptions())
    assert isinstance(solver, DirectLUSolver)
    assert solver.name == "direct"
    for retired in ("BACKEND_MULTIGRID", "MultigridSolver", "GridGeometry"):
        assert not hasattr(linalg, retired)
    with pytest.raises(SimulationError,
                       match="unknown solver backend 'multigrid'"):
        make_solver(SolverOptions(backend="multigrid"))


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
    """An old ``[solver]`` table setting any of the retired knobs
    (``mg_*`` cycle shape, CG budget, LU pattern cache) fails with a named
    config error."""
    from repro.errors import AnalysisError
    from repro.studies.cli import load_campaign_config

    [knob] = bad
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "name": "old", "axes": {"vtune": [0.0]},
        "solver": dict(backend="multigrid", **bad)}))
    with pytest.raises(AnalysisError, match=knob):
        load_campaign_config(path)


def test_mg_options_participate_in_cache_key():
    """No multigrid option is left to key the cache: the solver options are
    the backend and gmin, an explicit direct backend keys like the default,
    and gmin still separates keys."""
    assert [f.name for f in fields(SolverOptions)] == ["backend", "gmin"]
    base = SolverOptions(backend="direct")
    assert fingerprint(base) == fingerprint(SolverOptions())
    assert fingerprint(base) != fingerprint(
        SolverOptions(backend="direct", gmin=1e-9))
