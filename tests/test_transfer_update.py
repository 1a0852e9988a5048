"""Transfers of a V_tune stack reached from one base factorization per
frequency.

A corner stack's transfer systems are the base systems at the stack's
shared Newton start plus the ``[G | C]`` entries that moved: an update on
their rows (the varactor rows across V_tune; exact, by Sherman-Morrison-
Woodbury) and entries that differ in the last digits (taken up by one
refinement step).  The oracle is the direct stacked solve, which
factorizes every system on its own: the update must agree with it to the
direct solve's own accuracy, fall back to it bit for bit when the
residual check fails, and take its place only when a base exists.  A
synthetic sweep moves ``G`` and ``C`` entries, an entry that is zero at
the base and a block that is not rank one.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import vco_experiment
from repro.core.vco_experiment import VcoImpactAnalysis
from repro.errors import SimulationError
from repro.obs import tracer
from repro.simulator import dc_operating_point, solver, transfer_function
from repro.simulator.dc import DcCorners
from repro.simulator.linalg import LinearSolver
from repro.simulator.mna import MnaStructure
from repro.simulator.solver import CornerSweep, SweepBase, stats
from repro.simulator.transfer import _small_signal_values

#: The perfbench V_tune lattice, 32 of its values including 0, 0.75 and
#: 1.5 V, and 24 frequencies of its 100 kHz - 15 MHz noise lattice.
LATTICE = np.linspace(0.0, 1.5, 49)
STACK = np.concatenate([LATTICE[::2], LATTICE[1:14:2]])
FREQUENCIES = np.logspace(5.0, np.log10(15e6), 49)[1::2]


@pytest.fixture(scope="module")
def perfbench_analysis(technology, vco_analysis):
    """The VCO analysis on the perfbench 56 x 56 substrate mesh."""
    flow = replace(vco_analysis.options.flow,
                   substrate=replace(vco_analysis.options.flow.substrate,
                                     nx=56, ny=56))
    return VcoImpactAnalysis(technology, options=replace(
        vco_analysis.options, noise_frequencies=tuple(FREQUENCIES),
        flow=flow))


def _direct(monkeypatch):
    """Make every stack take the direct stacked solve (no base), whether
    or not a base is kept on the port reduction."""
    monkeypatch.setattr(DcCorners, "start_point", property(lambda self: None))


def _stack_stamps(analysis, vtunes):
    """The port reduction of a stack of ``vtunes``, the corners'
    ``(corners, k, 2k)`` small-signal ``[G | C]`` and the ``(k, 2k)`` one
    at the stack's shared Newton start."""
    template, linear = vco_experiment._compiled_testbench(analysis.flow,
                                                          analysis.options)
    nodes = analysis.analyze_corners([0.0])[0].transfer.nodes()
    stack = dc_operating_point(template, solver=analysis.solver,
                               linear=linear,
                               initial=analysis.reference_point(),
                               sources=analysis._corner_sources(vtunes))
    rhs_block = np.zeros((linear.structure.size, 1), dtype=complex)
    rhs_block[linear.structure.branch_row("VSUB_SRC"), 0] = 1.0
    reduction = linear.port_reduction(
        nodes, np.asarray(analysis.options.noise_frequencies), 1e-12,
        rhs_block)
    pattern, values = _small_signal_values(linear, reduction.structure,
                                           stack)
    _, base_values = _small_signal_values(linear, reduction.structure,
                                          stack.start_point)
    return reduction, pattern.stamps(values), pattern.stamps(base_values)[0]


def _reduced_systems(analysis, vtunes):
    """The port-reduced transfer systems of ``vtunes``: the ``(c, F, k, k)``
    matrices, the ``(F, k, 1)`` right-hand sides, and the update and
    direct solutions."""
    reduction, stamps, base = _stack_stamps(analysis, vtunes)
    sweep = CornerSweep(shared=reduction.matrices, s=reduction.s,
                        base=SweepBase.invert(reduction.matrices,
                                              reduction.s, base))
    updated, _work = analysis.solver.factorize(sweep).solve(reduction.rhs,
                                                            stamps)
    size = reduction.matrices.shape[1]
    matrices = (reduction.matrices[None] + stamps[:, None, :, :size]
                + reduction.s[None, :, None, None]
                * stamps[:, None, :, size:])
    direct = np.linalg.solve(matrices, np.broadcast_to(
        reduction.rhs, matrices.shape[:2] + reduction.rhs.shape[1:]))
    return matrices, reduction.rhs, updated, direct


def _backward_error(matrices, rhs, x):
    """Each corner's largest normwise backward error over the frequencies."""
    residual = rhs - matrices @ x
    scale = (np.abs(matrices).sum(axis=-1).max(axis=-1)
             * np.abs(x).max(axis=(2, 3)) + np.abs(rhs).max(axis=(1, 2)))
    return (np.abs(residual).max(axis=(2, 3)) / scale).max(axis=1)


def test_the_update_matches_the_direct_solve_on_the_perfbench_lattice(
        perfbench_analysis, monkeypatch):
    analysis = perfbench_analysis
    matrices, rhs, updated, direct = _reduced_systems(analysis, STACK)
    assert updated.shape == direct.shape == (32, 24, 13, 1)
    worst = np.abs(updated - direct).max(axis=(1, 2, 3)) \
        / np.abs(direct).max(axis=(1, 2, 3))
    assert worst.max() <= 1e-10
    assert np.all(_backward_error(matrices, rhs, updated)
                  <= 10 * _backward_error(matrices, rhs, direct))

    before = stats.snapshot()
    corners = analysis.analyze_corners(STACK, FREQUENCIES)
    spent = stats.since(before)
    assert (spent.factorizations, spent.fallbacks) == (0, 0)
    _direct(monkeypatch)
    reference = analysis.analyze_corners(STACK, FREQUENCIES)
    for got, want in zip(corners, reference):
        for node, h in want.transfer.transfers.items():
            assert np.max(np.abs(got.transfer.transfers[node] - h)) \
                <= 1e-10 * np.max(np.abs(h))
        assert np.max(np.abs(got.sweep.total_spur_power_dbm()
                             - want.sweep.total_spur_power_dbm())) <= 1e-9
        assert got.solver_counts.solves == (FREQUENCIES.size
                                            + want.operating_point.iterations)
        # The reference is the direct stacked solve, base cached or not.
        assert want.solver_counts.factorizations == FREQUENCIES.size


def test_a_zero_volt_corner_has_no_update_and_keeps_its_bits_in_a_stack(
        vco_analysis):
    stack = vco_analysis.analyze_corners([0.75, 0.0, 1.5])
    alone, = vco_analysis.analyze_corners([0.0])
    for node, h in alone.transfer.transfers.items():
        assert stack[1].transfer.transfers[node].tobytes() == h.tobytes()
    points = len(vco_analysis.options.noise_frequencies)
    assert alone.solver_counts.factorizations == 0
    assert alone.solver_counts.solves == (points
                                          + alone.operating_point.iterations)

    # Its stamps differ from the base (the V_tune = 0 reference) in the
    # last digits only: it has no update rows; at 0.75 V they are the
    # varactor rows, moved in C only.
    reduction, stamps, base = _stack_stamps(vco_analysis,
                                            np.array([0.0, 0.75]))
    moved = np.abs(stamps - base) > solver.UPDATE_THRESHOLD * np.abs(base)
    assert not moved[0].any()
    size = base.shape[0]
    assert not moved[1][:, :size].any()
    rows, columns = np.nonzero(moved[1][:, size:])
    names = {row: name for name, row in reduction.structure.node_index.items()}
    assert {names[row] for row in np.concatenate([rows, columns])} \
        == {"TANKP", "TANKN", "VTUNE"}


def test_stamps_moving_outside_the_update_set_fall_back_to_direct_bits(
        vco_analysis, monkeypatch):
    """With the varactor moves left to the refinement step (a threshold
    above their 63%), one step cannot reach them: every corner but the
    V_tune = 0 reference fails the residual check and takes the direct
    stacked solve, bit for bit, counting one fallback."""
    vtunes = [0.0, 0.75, 1.5]
    points = len(vco_analysis.options.noise_frequencies)
    monkeypatch.setattr(solver, "UPDATE_THRESHOLD", 1.0)
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        mark = tracer.mark()
        before = stats.snapshot()
        fallen = vco_analysis.analyze_corners(vtunes)
        spent = stats.since(before)
        spans = [dict(span.attrs) for span in tracer.spans_since(mark)
                 if span.name == "solver.update"]
    finally:
        if not was_enabled:
            tracer.disable()
    assert [corner.solver_counts.fallbacks for corner in fallen] == [0, 1, 1]
    assert spent.fallbacks == 2
    assert spent.factorizations == 2 * points
    assert spent.solves == sum(corner.solver_counts.solves
                               for corner in fallen)
    assert spans[-1]["updated"] == 1 and spans[-1]["fallbacks"] == 2
    assert spans[-1]["reason"].startswith("corner 1: backward error")

    _direct(monkeypatch)
    direct = vco_analysis.analyze_corners(vtunes)
    assert [corner.solver_counts.fallbacks for corner in direct] == [0] * 3
    assert all(corner.solver_counts.factorizations == points
               for corner in direct)
    for got, want in zip(fallen[1:], direct[1:]):
        for node, h in want.transfer.transfers.items():
            assert got.transfer.transfers[node].tobytes() == h.tobytes()


def test_a_stack_started_from_zero_takes_the_direct_solve(vco_analysis):
    template, linear = vco_experiment._compiled_testbench(
        vco_analysis.flow, vco_analysis.options)
    sources = vco_analysis._corner_sources(np.array([0.0, 1.5]))
    cold = dc_operating_point(template, solver=vco_analysis.solver,
                              linear=linear, sources=sources)
    assert cold.start is None and cold.start_point is None
    frequencies = np.asarray(vco_analysis.options.noise_frequencies)
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        mark = tracer.mark()
        before = stats.snapshot()
        transfer = transfer_function(template, "VSUB_SRC", ["TANKP"],
                                     frequencies, operating_point=cold,
                                     solver=vco_analysis.solver,
                                     linear=linear)
        spent = stats.since(before)
        span, = [dict(span.attrs) for span in tracer.spans_since(mark)
                 if span.name == "solver.update"]
    finally:
        if not was_enabled:
            tracer.disable()
    assert (spent.factorizations, spent.solves, spent.fallbacks) \
        == (2 * frequencies.size, 2 * frequencies.size, 0)
    assert [work.as_dict() for work in transfer.work] == [
        solver.SolverStats(factorizations=frequencies.size,
                           solves=frequencies.size).as_dict()] * 2
    assert (span["updated"], span["fallbacks"], span["reason"]) \
        == (0, 0, "no base")
    # The direct stacked solve, corner by corner: the same bits.
    for index in range(2):
        alone = transfer_function(template, "VSUB_SRC", ["TANKP"],
                                  frequencies, operating_point=cold.corner(
                                      index), solver=vco_analysis.solver,
                                  linear=linear)
        assert alone.transfers["TANKP"].tobytes() \
            == transfer.transfers["TANKP"][index].tobytes()


def test_per_corner_counts_sum_to_the_global_counters(vco_analysis,
                                                     monkeypatch):
    """Whatever route each corner takes, its counts are its own and they
    add up to the global record, for a stack and its corners alone."""
    vtunes = [0.0, 0.375, 1.5]
    for threshold in (solver.UPDATE_THRESHOLD, 1.0):
        monkeypatch.setattr(solver, "UPDATE_THRESHOLD", threshold)
        before = stats.snapshot()
        stack = vco_analysis.analyze_corners(vtunes)
        spent = stats.since(before)
        total = solver.SolverStats()
        for corner in stack:
            total.merge(corner.solver_counts)
            alone, = vco_analysis.analyze_corners([corner.vtune])
            assert alone.solver_counts == corner.solver_counts
        assert total == spent


def test_unpivoted_elimination_solves_small_systems():
    rng = np.random.default_rng(3)
    matrices = (np.eye(3) + 0.3 * (rng.standard_normal((5, 4, 3, 3))
                                   + 1j * rng.standard_normal((5, 4, 3, 3))))
    rhs = rng.standard_normal((5, 4, 3, 2)) + 0j
    # The elimination takes the matrix axes first.
    lu = solver._unpivoted_lu(np.moveaxis(matrices, (-2, -1), (0, 1)))
    x = solver._unpivoted_solve(lu[..., None],
                                np.moveaxis(rhs, -2, 0))
    np.testing.assert_allclose(np.moveaxis(x, 0, -2),
                               np.linalg.solve(matrices, rhs),
                               rtol=1e-12, atol=1e-12)


def _synthetic_sweep():
    """Well-conditioned ``(F, n, n)`` shared systems and a base ``[G | C]``
    with an entry that is zero at the base, and the stamps of corners
    that move ``G`` entries, ``C`` entries, that zero entry and a 2 x 2
    ``G`` block that is not rank one; every corner also moves every entry
    in the last digits."""
    rng = np.random.default_rng(7)
    points, size = 5, 6
    shared = (size * np.eye(size)
              + 0.5 * (rng.standard_normal((points, size, size))
                       + 1j * rng.standard_normal((points, size, size))))
    s = 1j * np.linspace(0.5, 2.0, points)
    base = 0.3 * rng.standard_normal((size, 2 * size))
    base[1, size + 4] = 0.0
    block = np.array([[0.3, -0.2], [0.1, 0.4]])
    assert np.linalg.matrix_rank(block) == 2
    moves = np.zeros((6, size, 2 * size))
    moves[1, 0, 0] = 0.5                    # a G entry
    moves[1, 5, size + 2] = -0.2            # a C entry
    moves[2, 1, size + 4] = 0.4             # zero at the base
    moves[3, 2:4, 2:4] = block              # not rank one
    moves[4] = moves[1] + moves[2] + moves[3]
    moves[5, 0, 0] = -0.7                   # the update rows of corner 1
    moves[5, 5, size + 2] = 0.3
    stamps = (base * (1.0 + 1e-12 * rng.standard_normal(moves.shape))
              + moves)
    rhs = (rng.standard_normal((points, size, 2))
           + 1j * rng.standard_normal((points, size, 2)))
    return CornerSweep(shared=shared, s=s,
                       base=SweepBase.invert(shared, s, base)), stamps, rhs


def test_the_update_reaches_synthetic_corners_that_move_g_and_c():
    sweep, stamps, rhs = _synthetic_sweep()
    size = stamps.shape[1]
    handle = LinearSolver().factorize(sweep)
    before = stats.snapshot()
    solutions, work = handle.solve(rhs, stamps)
    spent = stats.since(before)
    points = len(sweep.s)
    assert (spent.factorizations, spent.fallbacks) == (0, 0)
    assert spent.solves == points * len(stamps)
    assert [counts.as_dict() for counts in work] \
        == [solver.SolverStats(solves=points).as_dict()] * len(stamps)

    matrices = (sweep.shared[None] + stamps[:, None, :, :size]
                + sweep.s[None, :, None, None] * stamps[:, None, :, size:])
    direct = np.linalg.solve(matrices, np.broadcast_to(
        rhs, matrices.shape[:2] + rhs.shape[1:]))
    worst = np.abs(solutions - direct).max(axis=(1, 2, 3)) \
        / np.abs(direct).max(axis=(1, 2, 3))
    assert worst.max() <= 1e-12
    for corner, solution in enumerate(solutions):
        alone, _work = handle.solve(rhs, stamps[corner:corner + 1])
        assert alone[0].tobytes() == solution.tobytes()


def test_a_failed_stacked_solve_counts_no_work():
    singular = np.zeros((3, 2, 2))
    singular[:, 0, 0] = 1.0
    before = stats.snapshot()
    with pytest.raises(SimulationError,
                       match="exactly singular.*row 1"):
        LinearSolver().solve(singular, np.ones((3, 2)))
    assert stats.since(before) == solver.SolverStats()

    structure = MnaStructure(node_index={"a": 0, "b": 1}, branch_index={})
    sweep = CornerSweep(shared=np.repeat(singular[:1], 4, axis=0) + 0j,
                        s=1j * np.arange(1.0, 5.0))
    handle = LinearSolver().factorize(sweep, structure=structure)
    with pytest.raises(SimulationError,
                       match="exactly singular.*node 'b'"):
        handle.solve(np.ones((4, 2, 1)), np.zeros((1, 2, 4)))
    assert stats.since(before) == solver.SolverStats()
