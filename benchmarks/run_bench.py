#!/usr/bin/env python
"""Write a perf snapshot of the reproduction flow to ``BENCH_<n>.json``.

Runs the Figure-10 runtime flow (extraction + one V_tune impact sweep), the
solver micro-benchmarks and the design-study sweep benchmark (serial vs
sharded, cold vs warm extraction cache) and records wall-clock seconds, so
every PR leaves a trajectory point future changes can be regressed against:

    PYTHONPATH=src python benchmarks/run_bench.py [--output BENCH_1.json]
    PYTHONPATH=src python benchmarks/run_bench.py --section sweep  # just one

The snapshot includes the solver counters (factorizations / solves) and the
extraction-cache counters (hits / misses) as cheap structural regression
checks alongside the raw timings.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from repro.core.flow import run_extraction_flow  # noqa: E402
from repro.core.vco_experiment import VcoExperimentOptions, VcoImpactAnalysis  # noqa: E402
from repro.layout.testchips import make_vco_testchip  # noqa: E402
from repro.obs import span_aggregates, tracer  # noqa: E402
from repro.simulator.solver import stats  # noqa: E402
from repro.technology import make_technology  # noqa: E402

from _report import NOISE_FREQUENCIES  # noqa: E402
from test_solver_micro import GRID_SIZE, run_solver_micro_stages  # noqa: E402


def _span_seconds(aggregates: dict, name: str) -> float:
    return aggregates.get(name, {}).get("total_seconds", 0.0)


def _bench_flow() -> dict:
    """Figure-10 runtime flow, with stage breakdowns from the span tracer.

    The breakdown keys are ``_seconds``-suffixed so ``perf_gate.py`` gates
    every stage individually — including ``mesh_assembly`` / ``kron_reduction``
    and the simulation setup that the pre-tracer breakdown under-accounted.
    """
    technology = make_technology()
    options = VcoExperimentOptions(vtune_values=(0.0, 0.75, 1.5),
                                   noise_frequencies=NOISE_FREQUENCIES)
    cell = make_vco_testchip()

    was_enabled = tracer.enabled
    tracer.enable()
    try:
        start = time.perf_counter()
        flow = run_extraction_flow(cell, technology, options=options.flow)
        extraction_seconds = time.perf_counter() - start

        stats.reset()
        sim_mark = tracer.mark()
        start = time.perf_counter()
        analysis = VcoImpactAnalysis(technology, options=options,
                                     flow_result=flow)
        analysis.spur_sweep(vtune_values=(0.0,),
                            noise_frequencies=np.asarray(NOISE_FREQUENCIES))
        simulation_seconds = time.perf_counter() - start
        aggregates = span_aggregates(tracer.spans_since(sim_mark))
    finally:
        if not was_enabled:
            tracer.disable()

    return {
        "extraction_seconds": extraction_seconds,
        "total_seconds": extraction_seconds + simulation_seconds,
        # FlowTimings.as_dict() is span-fed and already ``_seconds``-suffixed;
        # mesh_assembly / kron_reduction are sub-stages *inside* substrate.
        "extraction_breakdown": flow.timings.as_dict(),
        "simulation_seconds": simulation_seconds,
        "simulation_breakdown": {
            "setup_seconds": _span_seconds(aggregates, "sim.setup"),
            "transfer_function_seconds": _span_seconds(
                aggregates, "sim.transfer_function"),
            "solver_factorize_seconds": _span_seconds(
                aggregates, "solver.factorize"),
            "solver_solve_seconds": _span_seconds(aggregates, "solver.solve"),
        },
        "simulation_solver_counters": {
            "factorizations": stats.factorizations,
            "solves": stats.solves,
        },
        "mesh_nodes": flow.substrate.mesh_nodes,
        "impact_netlist_nodes": len(flow.impact.circuit.nodes()),
    }


def _bench_solver_micro() -> dict:
    return {"grid_size": GRID_SIZE, **run_solver_micro_stages()}


def _bench_sweep() -> dict:
    """Design-study sweep: serial vs sharded, cold vs warm extraction cache."""
    import tempfile

    from repro.core.flow import FlowOptions
    from repro.studies import (
        Campaign,
        DiskExtractionCache,
        ExtractionCache,
        ParamSpace,
        ProcessPoolBackend,
        SerialBackend,
        SweepRunner,
    )
    from repro.substrate.extraction import SubstrateExtractionOptions

    technology = make_technology()
    options = VcoExperimentOptions(
        flow=FlowOptions(substrate=SubstrateExtractionOptions(
            nx=40, ny=40, lateral_margin=60e-6)))
    campaign = Campaign(
        name="bench_grid_width_study",
        space=ParamSpace({
            "ground_width_scale": (1.0, 2.0),
            "vtune": (0.0, 0.75, 1.5),
            "noise_frequency": NOISE_FREQUENCIES,
        }),
        options=options)

    cache = ExtractionCache()
    serial = SweepRunner(technology, backend=SerialBackend(), cache=cache)

    start = time.perf_counter()
    cold = serial.run(campaign)
    serial_cold_seconds = time.perf_counter() - start

    start = time.perf_counter()
    warm = serial.run(campaign)
    serial_warm_seconds = time.perf_counter() - start

    # Sharded cold run against its own cache: the per-variant extractions
    # (the expensive half) are fanned out across the workers too.
    sharded_cold_runner = SweepRunner(
        technology, backend=ProcessPoolBackend(max_workers=2),
        cache=ExtractionCache())
    start = time.perf_counter()
    sharded_cold = sharded_cold_runner.run(campaign)
    sharded_cold_seconds = time.perf_counter() - start

    sharded = SweepRunner(technology, backend=ProcessPoolBackend(max_workers=2),
                          cache=cache)
    start = time.perf_counter()
    sharded_result = sharded.run(campaign)
    sharded_warm_seconds = time.perf_counter() - start

    # Disk-backed cache: populate a persistent store, then warm-start a
    # *fresh* cache instance from it (models a new process / CI run).
    with tempfile.TemporaryDirectory() as cache_dir:
        disk_writer = SweepRunner(technology, backend=SerialBackend(),
                                  cache=DiskExtractionCache(cache_dir))
        start = time.perf_counter()
        disk_writer.run(campaign)
        disk_cold_seconds = time.perf_counter() - start

        disk_reader = SweepRunner(technology, backend=SerialBackend(),
                                  cache=DiskExtractionCache(cache_dir))
        start = time.perf_counter()
        disk_warm = disk_reader.run(campaign)
        disk_warm_seconds = time.perf_counter() - start

    max_difference = float(np.max(np.abs(
        cold.column("spur_power_dbm") - sharded_result.column("spur_power_dbm"))))
    return {
        "points": len(cold),
        "layout_variants": len(cold.variants),
        "serial_cold_seconds": serial_cold_seconds,
        "serial_warm_seconds": serial_warm_seconds,
        "sharded_2workers_cold_seconds": sharded_cold_seconds,
        "sharded_2workers_warm_seconds": sharded_warm_seconds,
        "disk_cold_seconds": disk_cold_seconds,
        "disk_warm_fresh_process_seconds": disk_warm_seconds,
        "cold_extractions": cold.cache_misses,
        "warm_extractions": warm.cache_misses,
        "disk_warm_extractions": disk_warm.cache_misses,
        "sharded_cold_extractions": sharded_cold.cache_misses,
        "sharded_warm_extractions": sharded_result.cache_misses,
        "cache_totals": {"hits": cache.hits, "misses": cache.misses},
        "serial_vs_sharded_max_abs_dbm": max_difference,
    }


def _bench_parallel() -> dict:
    """Corner saturation ladder on the unified work scheduler.

    The Figure-8-style campaign of ``--section sweep`` (60 points over 2
    layout variants), run against a warm extraction cache serially and
    through the graph scheduler at 1/2/4 workers, with the spur deviation
    from the serial run recorded.

    The section records the measuring container's ``cpu_count`` because the
    ladder's meaning depends on it: on a 1-CPU container (the committed
    baseline, CI) every rung measures scheduling *overhead* over serial,
    while on a multi-core host the same rungs measure saturation speedup.
    """
    import os

    from repro.core.flow import FlowOptions
    from repro.studies import (
        Campaign,
        ExtractionCache,
        ParamSpace,
        ProcessPoolBackend,
        SerialBackend,
        SweepRunner,
    )
    from repro.substrate.extraction import SubstrateExtractionOptions

    technology = make_technology()
    campaign = Campaign(
        name="bench_parallel_ladder",
        space=ParamSpace({
            "ground_width_scale": (1.0, 2.0),
            "vtune": (0.0, 0.75, 1.5),
            "noise_frequency": NOISE_FREQUENCIES,
        }),
        options=VcoExperimentOptions(
            flow=FlowOptions(substrate=SubstrateExtractionOptions(
                nx=40, ny=40, lateral_margin=60e-6))))

    cache = ExtractionCache()
    serial_runner = SweepRunner(technology, backend=SerialBackend(),
                                cache=cache)
    serial_runner.run(campaign)                  # warm the cache
    start = time.perf_counter()
    serial = serial_runner.run(campaign)
    serial_seconds = time.perf_counter() - start

    corners: dict = {"points": len(serial),
                     "layout_variants": len(serial.variants),
                     "serial_warm_seconds": serial_seconds}
    max_abs_dbm = 0.0
    for n_workers in (1, 2, 4):
        runner = SweepRunner(
            technology, backend=ProcessPoolBackend(max_workers=n_workers),
            cache=cache)
        start = time.perf_counter()
        result = runner.run(campaign)
        corners[f"graph_{n_workers}workers_warm_seconds"] = (
            time.perf_counter() - start)
        max_abs_dbm = max(max_abs_dbm, float(np.max(np.abs(
            result.column("spur_power_dbm")
            - serial.column("spur_power_dbm")))))
    corners["graph_vs_serial_max_abs_dbm"] = max_abs_dbm

    return {
        "cpu_count": os.cpu_count(),
        "note": ("ladder semantics depend on cpu_count: on the 1-CPU "
                 "baseline/CI container every rung measures scheduler "
                 "overhead vs serial; multi-core hosts measure saturation"),
        "corners": corners,
    }


def _bench_solver() -> dict:
    """Direct sparse LU on the substrate-mesh Laplacian versus mesh size.

    For each lateral mesh resolution the benchmark builds the regularised
    mesh system of a Kron reduction (Laplacian + distributed port contacts)
    and times ``direct_cold``: one COLAMD LU factorization plus an 8-column
    solve.  This is a synthetic block (uniform surface contacts, row-stripe
    RHS), not the real Kron system of the VCO testchip, which extraction
    reduces spectrally (see the README Kron table).
    """
    import scipy.sparse as sp_mod

    from repro.layout.geometry import Rect
    from repro.simulator.linalg import LinearSolver
    from repro.substrate import MeshSpec, SubstrateMesh

    technology = make_technology()
    n_rhs = 8
    record: dict = {"rhs_columns": n_rhs, "mesh": {}}
    for nx in (56, 96, 160):
        side = nx * 7.2e-6                   # keep the box size constant
        spec = MeshSpec(region=Rect(0, 0, side, side), nx=nx, ny=nx,
                        max_depth=200e-6, n_z_per_layer=3)
        mesh = SubstrateMesh(spec=spec, profile=technology.substrate)
        conductance = mesh.conductance_matrix()
        n = conductance.shape[0]
        diagonal = np.zeros(n)
        diagonal[:nx * nx] += 1e3 / (nx * nx)
        matrix = sp_mod.csc_matrix(conductance
                                   + sp_mod.diags(diagonal + 1e-12))
        rhs = np.zeros((n, n_rhs))
        for k in range(n_rhs):
            rhs[k * nx:(k + 1) * nx, k] = -1.0

        start = time.perf_counter()
        LinearSolver().factorize(matrix).solve(rhs)
        record["mesh"][f"nx{nx}"] = {
            "nodes": n,
            "direct_cold_seconds": time.perf_counter() - start,
        }
    return record


#: Snapshot sections and the functions that produce them.
SECTIONS = {
    "flow": _bench_flow,
    "parallel": _bench_parallel,
    "solver": _bench_solver,
    "solver_micro": _bench_solver_micro,
    "sweep": _bench_sweep,
}


def _next_snapshot_path() -> Path:
    """First unused ``BENCH_<n>.json`` so PRs never clobber the trajectory."""
    index = 1
    while (REPO_ROOT / f"BENCH_{index}.json").exists():
        index += 1
    return REPO_ROOT / f"BENCH_{index}.json"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the snapshot JSON "
                             "(default: the next unused BENCH_<n>.json)")
    parser.add_argument("--section", choices=sorted(SECTIONS), action="append",
                        default=None,
                        help="record only the named section(s); "
                             "repeatable (default: all sections)")
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = _next_snapshot_path()
    sections = args.section or sorted(SECTIONS)

    import os

    snapshot = {
        "benchmark": "repro_perf_snapshot",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    for name in sections:
        snapshot[name] = SECTIONS[name]()

    args.output.write_text(json.dumps(snapshot, indent=2) + "\n")
    print(f"wrote {args.output}")
    print(json.dumps(snapshot, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
