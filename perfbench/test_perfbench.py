"""Tests of the benchmark's own arithmetic, checks, grids and metric names.

Fast and independent of the timed workloads: they exercise the committed
reference and synthetic inputs, never a full extraction.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics
from perfbench.check import (
    ADMITTANCE_RTOL,
    SPUR_TOL_DB,
    Corner,
    Tally,
    admittance_deviation,
    check_corners,
    failed_frac,
    fig8_ok,
    fig10_ok,
    load_reference,
)
from perfbench.grid import (
    FNOISE_RANGE,
    VTUNE_RANGE,
    fnoise_lattice,
    seeded_grid,
    vtune_lattice,
)
from perfbench.stats import median, percentile

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# -- percentile and failed_frac arithmetic ----------------------------------


def test_percentile_interpolates_between_ranks():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0
    assert percentile([1, 2, 3], 0) == 1 and percentile([1, 2, 3], 100) == 3
    values = np.random.default_rng(0).lognormal(size=37)
    for q in (10, 50, 90, 99):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert median([3, 1, 2]) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_failed_frac_counts_against_attempted():
    assert failed_frac(1, 4) == 0.25
    assert failed_frac(0, 64) == 0.0
    assert failed_frac(0, 0) == 1.0            # nothing checked is a failure
    tally = Tally()
    for ok, deviation in ((True, 1e-7), (False, 0.5), (True, 2e-7)):
        tally.add(ok, deviation)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.failed_frac == pytest.approx(1 / 3)
    assert tally.max_dev_db == 0.5
    tally.add(False, math.nan)
    assert tally.max_dev_db == math.inf


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize("name", ["wall_s", "studies.corner_p50_ms",
                                  "a-b.c_d", "9lives", "x" * 64])
def test_valid_metric_names(name):
    assert metrics.valid_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space",
                                  "slash/no", "x" * 65, "ümlaut"])
def test_invalid_metric_names(name):
    assert not metrics.valid_name(name)


def test_declared_metrics_are_valid_and_unique():
    rows = metrics.END_TO_END + metrics.PER_LAYER
    names = [row[0] for row in rows]
    assert len(names) == len(set(names))
    for name, unit, better, *bound in rows:
        assert metrics.valid_name(name), name
        assert metrics.valid_unit(unit), unit
        assert better in ("lower", "higher")
        assert all(0 < b <= 0.25 for b in bound)
    assert ("setup_s", "s", "lower") in [row[:3] for row in metrics.END_TO_END]


def test_benchmark_json_matches_the_metric_tables():
    from perfbench.run import WORKLOAD_NAMES

    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(metrics.PER_LAYER)


# -- correctness checks ------------------------------------------------------


def _reference_corners(table, grid, n_variants=2):
    return [Corner(variant=variant, vtune_index=v, fnoise_index=grid.fnoise_index,
                   levels_dbm=tuple(table[variant, v, list(grid.fnoise_index)]))
            for variant in range(n_variants) for v in grid.vtune_index]


def test_reference_corners_pass_and_a_perturbed_reference_fails():
    grid = seeded_grid(5, 8, 24)
    observed = _reference_corners(load_reference()["spur_dbm"]["56"], grid)
    ok = {0: True, 1: True}

    tally = Tally()
    check_corners(tally, observed, grid, 2,
                  load_reference()["spur_dbm"]["56"], ok)
    assert (tally.attempted, tally.failed) == (16, 0)
    assert tally.max_dev_db == 0.0

    perturbed = load_reference(perturb_db=2 * SPUR_TOL_DB)["spur_dbm"]["56"]
    tally = Tally()
    check_corners(tally, observed, grid, 2, perturbed, ok)
    assert (tally.attempted, tally.failed) == (16, 16)
    assert tally.max_dev_db == pytest.approx(2 * SPUR_TOL_DB)


def test_admittance_study_and_missing_corners_fail():
    grid = seeded_grid(6, 3, 12)
    table = load_reference()["spur_dbm"]["96"]
    observed = _reference_corners(table, grid)
    tally = Tally()
    check_corners(tally, observed, grid, 2, table, {0: True, 1: False})
    assert tally.failed == 3                     # every variant-1 corner
    tally = Tally()
    check_corners(tally, observed, grid, 2, table, {0: True, 1: True},
                  study_ok=False)
    assert tally.failed == 6
    tally = Tally()
    check_corners(tally, observed[1:], grid, 2, table, {0: True, 1: True})
    assert (tally.attempted, tally.failed) == (6, 1)
    assert tally.max_dev_db == math.inf


def test_admittance_deviation_is_relative_to_the_largest_entry():
    reference = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert admittance_deviation(reference, reference) == 0.0
    nudged = reference + np.array([[0.0, 1e-9], [1e-9, 0.0]])
    assert admittance_deviation(nudged, reference) == pytest.approx(5e-10)
    assert admittance_deviation(reference * (1 + 3 * ADMITTANCE_RTOL),
                                reference) > ADMITTANCE_RTOL
    assert admittance_deviation(np.eye(3), reference) == math.inf


def test_figure_invariants():
    frequencies = fnoise_lattice()[::4]
    ideal = 30.0 - 20.0 * np.log10(frequencies / frequencies[0])
    assert fig8_ok(frequencies, ideal)
    assert not fig8_ok(frequencies, ideal * 0.5)          # -10 dB/decade
    bumped = ideal.copy()
    bumped[3] = bumped[2] + 0.1
    assert not fig8_ok(frequencies, bumped)               # not monotonic
    assert fig10_ok([1.0, 0.0], [-2.5, -3.0], 20.0, 10.0, 3.0, 6.02)
    assert not fig10_ok([1.0, 0.0], [-2.5, -3.0], 20.0, 10.0, 1.9, 6.02)
    assert not fig10_ok([1.0, 0.0], [-2.5, 0.5], 20.0, 10.0, 3.0, 6.02)
    assert not fig10_ok([1.0], [-2.5], 20.0, 12.0, 3.0, 6.02)


def test_committed_reference_holds_the_figure_invariants():
    reference = load_reference()
    frequencies = fnoise_lattice()
    for mesh, table in reference["spur_dbm"].items():
        assert table.shape == (2, vtune_lattice().size, frequencies.size)
        for curves in table:
            assert all(fig8_ok(frequencies, curve) for curve in curves), mesh
        assert reference["admittance"][mesh].shape[0] == 2


# -- seeded grids ------------------------------------------------------------


def test_same_seed_reproduces_the_grid_bit_for_bit():
    first, again = seeded_grid(11, 32, 24), seeded_grid(11, 32, 24)
    assert first == again
    assert (np.asarray(first.frequencies).tobytes()
            == np.asarray(again.frequencies).tobytes())
    assert (np.asarray(first.vtunes).tobytes()
            == np.asarray(again.vtunes).tobytes())


def test_another_seed_changes_the_grid():
    grids = {seeded_grid(seed, 32, 24) for seed in range(20)}
    assert len(grids) == 20
    assert seeded_grid(1, 1, 12) != seeded_grid(2, 1, 12)


def test_grid_stays_inside_the_paper_ranges_and_candidates():
    grid = seeded_grid(3, 5, 12, vtune_candidates=range(11, 29))
    assert all(11 <= i < 29 for i in grid.vtune_index)
    assert list(grid.vtune_index) == sorted(set(grid.vtune_index))
    assert list(grid.fnoise_index) == sorted(set(grid.fnoise_index))
    assert VTUNE_RANGE[0] <= min(grid.vtunes) <= max(grid.vtunes) \
        <= VTUNE_RANGE[1]
    assert FNOISE_RANGE[0] <= min(grid.frequencies) * (1 + 1e-12)
    assert max(grid.frequencies) <= FNOISE_RANGE[1] * (1 + 1e-12)
    with pytest.raises(ValueError):
        seeded_grid(0, 19, 12, vtune_candidates=range(11, 29))


# -- span analysis -----------------------------------------------------------


def _span(span_id, parent, name, start, duration, pid=1, **attrs):
    from repro.obs.trace import SpanRecord

    return SpanRecord(span_id=str(span_id), parent_id=parent, name=name,
                      start=start, duration=duration, pid=pid, thread="main",
                      attrs=tuple(sorted(attrs.items())))


def test_self_times_partition_a_serial_run():
    from perfbench.tracing import analyse_run

    root = _span(0, None, "bench:workload", 0.0, 10.0)
    spans = [
        _span(1, "0", "bench:studies.run", 0.5, 9.0, workers=1,
              telemetry={"metrics": {"counters": {
                  "campaign.task_attempts": 2}}}),
        _span(2, "1", "campaign.run", 0.5, 9.0),       # program span
        _span(3, "2", "campaign.corner", 1.0, 4.0),
        _span(4, "3", "bench:simulator.dc", 1.5, 2.0, newton_iters=5),
        _span(5, "4", "bench:linalg.solve", 2.0, 1.0, factorizations=2,
              solves=3),
        _span(6, "2", "campaign.corner", 5.0, 4.0),
        _span(7, "6", "bench:simulator.transfer", 5.0, 3.0),
        root,
    ]
    analysis = analyse_run(spans, root)
    own = {name: row[2] for name, row in analysis.table.items()}
    assert own == pytest.approx({"workload": 1.0, "studies.run": 1.0,
                                 "studies.corner": 3.0, "simulator.dc": 1.0,
                                 "linalg.solve": 1.0,
                                 "simulator.transfer": 3.0})
    assert sum(row[3] for row in analysis.table.values()) == \
        pytest.approx(root.duration)
    m = analysis.metrics
    assert m["simulator.dc_s"] == pytest.approx(1.0)
    assert (m["simulator.newton_iters"], m["linalg.factorizations"],
            m["linalg.solves"], m["studies.corners"],
            m["parallel.tasks"]) == (5, 2, 3, 2, 2)
    assert m["studies.corner_p50_ms"] == pytest.approx(4000.0)
    assert m["studies.overhead_s"] == pytest.approx(2.0)
    assert m["parallel.pool_start_s"] == pytest.approx(0.5)
    assert m["parallel.worker_busy_frac"] == pytest.approx(8.0 / 9.0)
    assert m["core.extractions"] == 0


def test_worker_self_times_are_scaled_to_wall_share():
    from perfbench.tracing import analyse_run

    root = _span(0, None, "bench:workload", 0.0, 6.0)
    spans = [
        _span(1, "0", "bench:studies.run", 0.5, 5.0, workers=2),
        _span(2, "1", "campaign.corner", 1.0, 4.0, pid=2),
        _span(3, "2", "bench:simulator.dc", 1.0, 2.0, pid=2),
        _span(4, "1", "campaign.corner", 1.0, 4.0, pid=3),
        _span(5, "4", "bench:simulator.dc", 1.0, 2.0, pid=3),
        root,
    ]
    analysis = analyse_run(spans, root)
    assert analysis.table["simulator.dc"][2] == pytest.approx(4.0)
    assert analysis.table["simulator.dc"][3] == pytest.approx(2.0)
    assert sum(row[3] for row in analysis.table.values()) == \
        pytest.approx(root.duration)
    assert analysis.metrics["parallel.worker_busy_frac"] == pytest.approx(0.8)


# -- host-speed calibration --------------------------------------------------


def test_calibrator_scales_by_kernel_speed_and_sensitivity(monkeypatch):
    from perfbench.calibrate import NOMINAL_KERNEL_S, Calibrator

    calibrator = Calibrator()
    monkeypatch.setattr(calibrator, "kernel", lambda: 2 * NOMINAL_KERNEL_S)
    result, raw, wall = calibrator.timed(lambda: "done", 1.0)
    assert result == "done" and wall == pytest.approx(raw / 2)
    _, raw, wall = calibrator.timed(lambda: None, 0.5)
    assert wall == pytest.approx(raw / math.sqrt(2))
    _, raw, wall = calibrator.timed(lambda: None, 0.0)
    assert wall == raw

    stopped = []

    def broken():
        raise RuntimeError("run failed")

    with pytest.raises(RuntimeError):
        calibrator.timed(broken, 1.0, after=lambda: stopped.append(True))
    assert stopped == [True]
