"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload sweep_warm_56 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15 --trace 0

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` count checked corners; ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  A traced run
first times untraced runs for half of ``--seconds`` (to report the tracing
overhead), then traced runs for the other half; it writes the spans of its
median traced run to ``.perfbench/traces/`` and prints the self-time table.
``--all`` runs every workload in its own fresh process.
``--perturb-reference DB`` shifts the committed reference by DB decibels,
which must make the run report failures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("extract_cold_96", "sweep_warm_56", "campaign_store_2w")
#: Timed runs per process, at least (medians need a few samples).
MIN_RUNS = 3
MIN_TRACED_RUNS = 2
#: Host-speed sensitivity of set-up (dominated by 56x56 extractions and
#: imports; see perfbench.calibrate).
SETUP_SENSITIVITY = 0.5


def _bootstrap() -> None:
    """Put the checkout's ``src/`` on the path; fail without one."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _environment(workload) -> dict:
    import numpy
    import scipy

    from repro.simulator.linalg import SolverOptions

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "default_solver_backend": SolverOptions().backend,
        "extraction_solver_backend": sorted(workload.solver_backends),
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child (a pool
    worker; the benchmark starts no other child processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Run:
    """One successful timed run."""

    raw_s: float                   #: measured wall seconds
    wall_s: float                  #: host-speed-normalized seconds
    analysis: object = None        #: traced runs: perfbench.tracing.RunAnalysis
    spans: tuple = ()


def _timed_runs(workload, tally, calibrator, seconds: float, min_runs: int,
                traced: bool = False) -> list[Run]:
    """Run the workload until ``seconds`` elapse (and ``min_runs`` ran).

    A run that raises counts all its corners as failed and yields no
    :class:`Run`.  Traced runs execute under one root span each.
    """
    from repro.obs import trace_span, tracer

    from perfbench.tracing import ROOT_SPAN, analyse_run

    def traced_run():
        mark = tracer.mark()
        with trace_span(ROOT_SPAN) as root:
            outcome = workload.run()
        return outcome, mark, root.span_id

    done, attempts = [], 0
    deadline = time.perf_counter() + seconds
    while attempts < min_runs or time.perf_counter() < deadline:
        attempts += 1
        gc.collect()
        try:
            if traced:
                (outcome, mark, root_id), raw, wall = calibrator.timed(
                    traced_run, workload.host_sensitivity,
                    after=workload.after_run)
                spans = tracer.spans_since(mark)
                root = next(s for s in spans if s.span_id == root_id)
                run = Run(raw, wall, analyse_run(spans, root).scaled(
                    wall / raw), spans)
            else:
                outcome, raw, wall = calibrator.timed(
                    workload.run, workload.host_sensitivity,
                    after=workload.after_run)
                run = Run(raw, wall)
            workload.check(tally, outcome)
        except Exception:                 # noqa: BLE001 - a failed run is data
            traceback.print_exc(file=sys.stderr)
            for _ in range(workload.corners_per_run):
                tally.add(False, float("inf"))
        else:
            done.append(run)
    return done


def _print_table(traced: list[Run], untraced_wall: float) -> float:
    """Per-layer self-time table (mean per traced run) and the accounting
    line; returns the tracing overhead (median traced minus median
    untraced wall)."""
    from perfbench.stats import median

    n = len(traced)
    rows: dict[str, list] = {}
    for run in traced:
        for name, row in run.analysis.table.items():
            acc = rows.setdefault(name, [0.0] * 4)
            for i, value in enumerate(row):
                acc[i] += value / n
    mean_wall = sum(run.wall_s for run in traced) / n
    print(f"{'layer (mean per run)':<22s} {'calls':>8s} {'incl_s':>9s} "
          f"{'self_s':>9s} {'wall_share':>10s}")
    for name, (calls, inclusive, own, scaled) in sorted(
            rows.items(), key=lambda item: -item[1][3]):
        print(f"{name:<22s} {calls:8.0f} {inclusive:9.4f} {own:9.4f} "
              f"{scaled / mean_wall:10.1%}")
    outside = {"workload", "studies.run", "studies.lookup", "studies.journal",
               "studies.save"}
    layers = sum(row[3] for name, row in rows.items() if name not in outside)
    remainder = sum(run.analysis.metrics["studies.overhead_s"]
                    for run in traced) / n
    residual = abs(untraced_wall - layers)
    allowed = abs(mean_wall - untraced_wall) + remainder
    print(f"accounting: layer self times {layers:.4f} s + studies.overhead_s "
          f"{remainder:.4f} s vs traced wall {mean_wall:.4f} s; "
          f"|untraced wall {untraced_wall:.4f} s - layers| = {residual:.4f} s "
          f"{'<=' if residual <= allowed + 1e-3 else '>'} tracing overhead + "
          f"studies.overhead_s = {allowed:.4f} s")
    return median([run.wall_s for run in traced]) - untraced_wall


def run_workload(args) -> int:
    from perfbench.calibrate import Calibrator
    from perfbench.check import Tally, load_reference
    from perfbench.metrics import END_TO_END, PER_LAYER, units
    from perfbench.stats import median

    calibrator = Calibrator()
    # Importing the program happens once per process; it counts into every
    # set-up below (set-up = package import + the workload's own set-up).
    workloads, _, import_s = calibrator.timed(
        lambda: importlib.import_module("perfbench.workloads"),
        SETUP_SENSITIVITY)
    reference = load_reference(perturb_db=args.perturb_reference)
    out_dir = ROOT / ".perfbench"
    work_dir = out_dir / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, reference,
                                                  work_dir)
    tally = Tally()
    traced: list[Run] = []
    try:
        setups = []
        for _ in range(workload.setup_repeats):
            gc.collect()
            setups.append(import_s + calibrator.timed(
                workload.setup, SETUP_SENSITIVITY)[2])
        seconds = args.seconds / 2 if args.trace else args.seconds
        runs = _timed_runs(workload, tally, calibrator, seconds,
                           MIN_TRACED_RUNS if args.trace else MIN_RUNS)
        if args.trace:
            from repro.obs import tracer

            from perfbench.tracing import LayerPatches

            with LayerPatches():
                tracer.enable()
                tracer.reset()
                try:
                    traced = _timed_runs(workload, tally, calibrator, seconds,
                                         MIN_TRACED_RUNS, traced=True)
                finally:
                    tracer.disable()
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if not runs or (args.trace and not traced):
        print("perfbench: no run completed", file=sys.stderr)
        return 1

    env = _environment(workload)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"runs={len(runs)} points/run={workload.points_per_run} "
          f"corners/run={workload.corners_per_run}")
    print("env " + json.dumps(env, sort_keys=True))
    print("raw wall_s per run: " + " ".join(f"{run.raw_s:.3f}" for run in runs)
          + "; normalized: " + " ".join(f"{run.wall_s:.3f}" for run in runs))
    e2e = {
        "wall_s": median([run.wall_s for run in runs]),
        "points_per_s": median([workload.points_per_run / run.wall_s
                                for run in runs]),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": median(setups),
    }
    e2e_units = units(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:<14s} {value:12.6g} {e2e_units[name]}")
    print(f"  {'failed_frac':<14s} {tally.failed_frac:12.6g} ratio "
          f"({tally.failed}/{tally.attempted} corners)")
    print(f"  {'spur_dev_db':<14s} {tally.max_dev_db:12.6g} dB")

    if args.trace:
        overhead = _print_table(traced, e2e["wall_s"])
        values = {name: median([run.analysis.metrics[name] for run in traced])
                  for name in traced[0].analysis.metrics}
        values["trace.overhead_s"] = overhead
        values["check.failed_frac"] = tally.failed_frac
        values["check.spur_dev_db"] = tally.max_dev_db
        typical = median([run.wall_s for run in traced])
        chosen = min(traced, key=lambda run: abs(run.wall_s - typical))
        _write_trace(out_dir, workload.name, args.seed, env, chosen.spans)
        table = PER_LAYER
    else:
        values, table = e2e, END_TO_END
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit, *_ in table},
    }
    print(json.dumps(result))
    return 0


def _write_trace(out_dir: Path, name: str, seed: int, env: dict,
                 spans) -> None:
    from perfbench.tracing import spans_as_json

    path = out_dir / "traces" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workload": name, "seed": seed, "env": env,
                                "spans": spans_as_json(spans)}, default=str))
    print(f"trace written: {path.relative_to(ROOT)} ({len(spans)} spans)")


def run_all(args) -> int:
    """Every workload in its own fresh process (isolated RSS, pools, shm)."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--perturb-reference", str(args.perturb_reference)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   text=True, check=False)
        print(completed.stdout, end="")
        status = status or completed.returncode
    return status


def _stop_children() -> None:
    """Stop every process this one started and wait for each to end.

    The process pool's workers are joined; the shared-memory resource
    tracker (started before the pool's first fork) would otherwise exit
    only some time after this process, once it reads EOF on its pipe.
    """
    import multiprocessing

    pool = sys.modules.get("repro.parallel.pool")
    if pool is not None:
        pool.shared_pool().shutdown()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-reference", type=float, default=0.0,
                        metavar="DB", help="shift the reference spur levels")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.all:
        return run_all(args)
    try:
        return run_workload(args)
    finally:
        _stop_children()


if __name__ == "__main__":
    raise SystemExit(main())
