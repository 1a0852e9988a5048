"""``repro-campaign``: declare, launch, resume and inspect sweep campaigns.

The CLI turns a declarative TOML or JSON config file into a
:class:`~repro.studies.params.Campaign` and drives the
:class:`~repro.studies.runner.SweepRunner` with a persistent
:class:`~repro.studies.store.DiskExtractionCache`, so the paper's
Fig. 7-10-style studies become reproducible artifacts: results land in an
NPZ + JSON pair, extractions warm-start across runs, and an interrupted
campaign picks up exactly where it stopped.

Subcommands::

    repro-campaign run     CONFIG [--result R.npz] [--cache-dir DIR]
                                  [--trace-out T.trace.json] ...
    repro-campaign resume  CONFIG [--result R.npz] ...
    repro-campaign show    RESULT [--rows N] [--timings]
    repro-campaign cache   stats --cache-dir DIR
    repro-campaign cache   verify --cache-dir DIR [--repair]
    repro-campaign cache   prune --cache-dir DIR [--max-entries N]
                                 [--max-age-days D] [--all]
    repro-campaign trace   export RUNLOG [--output OUT.trace.json]

Global ``-v`` / ``-q`` flags raise / lower the ``repro.*`` logging level
(warnings by default; ``-v`` info, ``-vv`` debug, ``-q`` errors only).

Config schema (TOML shown; the same structure as JSON works on every
supported Python — TOML parsing needs the stdlib ``tomllib`` of 3.11+)::

    name = "fig8_spur_sweep"

    [axes]                      # sweep axes: lists, or log/linear ranges
    vtune = [0.0, 0.75, 1.5]
    noise_frequency = { start = 1e5, stop = 15e6, num = 12, spacing = "log" }

    [layout]                    # VcoLayoutSpec overrides (base layout)
    ground_width_scale = 1.0

    [options]                   # VcoExperimentOptions overrides
    injected_power_dbm = -5.0

    [options.mesh]              # SubstrateExtractionOptions overrides
    nx = 40
    ny = 40

    [solver]                    # linear-solver backend (SolverOptions)
    backend = "direct"          # the one backend: LAPACK up to 90
                                # unknowns, SuperLU above; the mesh Kron
                                # reduction is spectral regardless
    gmin = 1e-12                # optional override of the analysis gmin
                                # (finite, >= 0)

    [execution]                 # defaults for the CLI flags
    backend = "serial"          # or "process-pool"
    max_workers = 2             # worker processes (CLI: --workers);
                                # unset: REPRO_MAX_WORKERS or min(4, cpus)
    retries = 0
    cache_dir = ".repro-cache"
    result = "fig8_result.npz"
    on_error = "abort"          # "abort" | "skip" | "retry_then_skip"
    # task_timeout = 600.0      # wall-clock bound of each pooled extraction
                                # (process-pool only; an error with serial)
    checkpoint_corners = 1      # journal completed corners every N corners
    checkpoint_seconds = 30.0   # ... or every T seconds (0 corners disables)

    [observability]             # telemetry of the run (all optional)
    trace = false               # record hierarchical spans during the run
    trace_out = "c.trace.json"  # ... and export them as a Chrome/Perfetto
                                # trace (implies trace = true)
    run_log = true              # structured <result stem>.runlog.jsonl
    progress = true             # live progress line (default: only on a TTY)

The ``[solver]`` table participates in the extraction-cache key (two
campaigns differing only in solver backend or gmin never share cached
extractions) and is recorded in the result's ``.meta.json`` sidecar.

Failure handling: with ``on_error = "skip"`` / ``"retry_then_skip"`` a
campaign completes with partial results — failed corners are recorded in the
sidecar, ``show`` lists them, ``resume`` re-runs exactly them, and the exit
code is 3 (partial) instead of 0.  When a result path is configured, the
runner also journals completed corners to ``<result stem>.journal/`` while
running, so a campaign killed mid-flight (even ``kill -9``) resumes losing
at most one checkpoint interval; the journal is discarded once the full
result is saved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..errors import AnalysisError, ReproError, SimulationError
from ..layout.testchips import VcoLayoutSpec
from ..obs import (
    CompositeObserver,
    ProgressReporter,
    RunLogRecorder,
    configure_logging,
    export_chrome_trace,
    runlog_path_for,
    runlog_to_chrome_trace,
    tracer,
    validate_trace_events,
)
from ..technology import make_technology
from ..parallel.plan import ON_ERROR_ABORT, ON_ERROR_POLICIES
from ..parallel.scheduler import WorkScheduler
from .cache import ExtractionCache
from .params import Campaign, ParamSpace
from .persist import CampaignJournal, CheckpointPolicy, journal_path_for
from .results import SweepResult
from .runner import ProcessPoolBackend, SerialBackend, SweepRunner
from .store import DiskExtractionCache

#: VcoExperimentOptions fields settable from the ``[options]`` table.
_OPTION_FIELDS = (
    "vtune_values",
    "noise_frequencies",
    "injected_power_dbm",
    "source_impedance",
    "supply_voltage",
    "tail_bias_voltage",
    "output_load",
)


#: ``[execution]`` field -> (types, type wording, range test, range wording).
#: NaN fails ``v > 0``, so NaN timings are rejected; ``inf`` passes and
#: means "never".
_EXECUTION_RULES = {
    "backend": (str, "a string", lambda v: v in ("serial", "process-pool"),
                "'serial' or 'process-pool'"),
    "max_workers": (int, "an integer", lambda v: v >= 1, ">= 1"),
    "retries": (int, "an integer", lambda v: v >= 0, ">= 0"),
    "cache_dir": ((str, os.PathLike), "a path", lambda v: True, ""),
    "result": ((str, os.PathLike), "a path", lambda v: True, ""),
    "on_error": (str, "a string", lambda v: v in ON_ERROR_POLICIES,
                 f"one of {', '.join(ON_ERROR_POLICIES)}"),
    "task_timeout": ((int, float), "a number", lambda v: v > 0,
                     "positive (seconds)"),
    "checkpoint_corners": (int, "an integer", lambda v: v >= 0,
                           ">= 0 (0 disables the journal)"),
    "checkpoint_seconds": ((int, float), "a number", lambda v: v > 0,
                           "positive (seconds)"),
}
#: ``[execution]`` fields that may be left unset (``None``).
_EXECUTION_OPTIONAL = ("max_workers", "cache_dir", "result", "task_timeout")


@dataclass
class ExecutionSettings:
    """``[execution]`` table of a config, overridable by CLI flags.

    ``max_workers`` is the pool width; the CLI ``--workers`` flag sets it.
    When it is unset, the width falls back to
    :func:`~repro.parallel.pool.default_max_workers` — the
    ``REPRO_MAX_WORKERS`` environment override, else ``min(4, cpus)``.
    ``task_timeout`` bounds each extraction the pool runs (corners run
    inline); set with ``backend = "serial"`` it is an error.
    """

    backend: str = "serial"
    max_workers: int | None = None
    retries: int = 0
    cache_dir: str | None = None
    result: str | None = None
    on_error: str = ON_ERROR_ABORT
    task_timeout: float | None = None
    checkpoint_corners: int = 1       #: journal flush cadence; 0 disables
    checkpoint_seconds: float = 30.0

    def __post_init__(self) -> None:
        # A value of the wrong type (e.g. a quoted number in TOML) or out of
        # range is a named config error, not a TypeError in the scheduler.
        for name, (kinds, noun, valid, rule) in _EXECUTION_RULES.items():
            value = getattr(self, name)
            if value is None and name in _EXECUTION_OPTIONAL:
                continue
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise AnalysisError(
                    f"[execution] {name} must be {noun}, got {value!r}")
            if not valid(value):
                raise AnalysisError(
                    f"[execution] {name} must be {rule}, got {value!r}")
        if self.task_timeout is not None and self.backend == "serial":
            raise AnalysisError(
                "[execution] task_timeout bounds each pooled extraction and "
                "needs backend = \"process-pool\"; the serial backend runs "
                "every task inline, with nothing to time out")

    def make_backend(self) -> WorkScheduler:
        if self.backend == "serial":
            return SerialBackend(retries=self.retries)
        return ProcessPoolBackend(max_workers=self.max_workers,
                                  retries=self.retries,
                                  task_timeout=self.task_timeout)

    def make_cache(self) -> ExtractionCache:
        if self.cache_dir:
            return DiskExtractionCache(self.cache_dir)
        return ExtractionCache()

    def make_checkpoint(self) -> CheckpointPolicy | None:
        """Journal policy next to the result file (None when disabled)."""
        if not self.result or self.checkpoint_corners < 1:
            return None
        return CheckpointPolicy(path=journal_path_for(self.result),
                                every_corners=self.checkpoint_corners,
                                every_seconds=self.checkpoint_seconds)


@dataclass
class ObservabilitySettings:
    """``[observability]`` table of a config, overridable by CLI flags."""

    trace: bool = False            #: record hierarchical spans for the run
    trace_out: str | None = None   #: export a Chrome/Perfetto trace here
    run_log: bool = True           #: write ``<result stem>.runlog.jsonl``
    progress: bool | None = None   #: live progress line (None = TTY only)

    @property
    def tracing(self) -> bool:
        return self.trace or bool(self.trace_out)

    def progress_enabled(self) -> bool:
        if self.progress is None:
            return sys.stderr.isatty()
        return self.progress


@dataclass
class CampaignConfig:
    """A parsed campaign config file."""

    campaign: Campaign
    execution: ExecutionSettings
    path: Path
    observability: ObservabilitySettings = field(
        default_factory=ObservabilitySettings)


# -- config parsing -----------------------------------------------------------


def _read_config_data(path: Path) -> dict:
    if not path.exists():
        raise AnalysisError(f"campaign config {path} does not exist")
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            return json.loads(text)
        except ValueError as exc:
            raise AnalysisError(f"invalid JSON in {path}: {exc}") from exc
    try:
        import tomllib
    except ImportError as exc:             # Python 3.10: no stdlib TOML parser
        raise AnalysisError(
            f"cannot parse {path}: TOML configs need Python 3.11+ "
            "(tomllib); rewrite the config as JSON to run on this "
            "interpreter") from exc
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise AnalysisError(f"invalid TOML in {path}: {exc}") from exc


def _axis_values(name: str, value) -> tuple[float, ...]:
    """An axis entry: an explicit list, or a log/linear range spec.

    Integer values stay integers — mesh axes (``mesh_nx``, ...) and integer
    layout fields feed APIs that require ints, and floats otherwise work the
    same.
    """
    if isinstance(value, (list, tuple)):
        return tuple(v if isinstance(v, int) and not isinstance(v, bool)
                     else float(v) for v in value)
    if isinstance(value, dict):
        unknown = set(value) - {"start", "stop", "num", "spacing"}
        if unknown:
            raise AnalysisError(
                f"axis {name!r}: unknown range keys {sorted(unknown)}")
        try:
            start, stop = float(value["start"]), float(value["stop"])
            num = int(value.get("num", 10))
        except (KeyError, TypeError, ValueError) as exc:
            raise AnalysisError(
                f"axis {name!r}: a range needs numeric 'start', 'stop' "
                "and 'num'") from exc
        spacing = value.get("spacing", "linear")
        if spacing == "log":
            if start <= 0 or stop <= 0:
                raise AnalysisError(
                    f"axis {name!r}: log spacing needs positive bounds")
            return tuple(float(v) for v in
                         np.logspace(np.log10(start), np.log10(stop), num))
        if spacing == "linear":
            return tuple(float(v) for v in np.linspace(start, stop, num))
        raise AnalysisError(
            f"axis {name!r}: spacing must be 'log' or 'linear', "
            f"not {spacing!r}")
    raise AnalysisError(
        f"axis {name!r}: expected a list of values or a range table, "
        f"got {type(value).__name__}")


def _check_table(table: dict, allowed: tuple[str, ...], context: str) -> None:
    unknown = set(table) - set(allowed)
    if unknown:
        raise AnalysisError(
            f"unknown key(s) {sorted(unknown)} in [{context}]; "
            f"allowed: {sorted(allowed)}")


def load_campaign_config(path: str | Path) -> CampaignConfig:
    """Parse a TOML/JSON campaign config into a runnable campaign."""
    from ..core.vco_experiment import VcoExperimentOptions

    path = Path(path)
    data = _read_config_data(path)
    if not isinstance(data, dict):
        raise AnalysisError(f"campaign config {path} must be a table/object")
    _check_table(data,
                 ("name", "axes", "layout", "options", "solver", "execution",
                  "observability"),
                 "top level")

    axes_table = data.get("axes")
    if not axes_table:
        raise AnalysisError(f"campaign config {path} declares no [axes]")
    axes = {name: _axis_values(name, value)
            for name, value in axes_table.items()}

    layout_table = dict(data.get("layout") or {})
    spec_fields = tuple(f.name for f in fields(VcoLayoutSpec))
    _check_table(layout_table, spec_fields, "layout")
    base_spec = VcoLayoutSpec(**layout_table)

    options_table = dict(data.get("options") or {})
    mesh_table = dict(options_table.pop("mesh", {}) or {})
    _check_table(options_table, _OPTION_FIELDS, "options")
    for name in ("vtune_values", "noise_frequencies"):
        if name in options_table:
            options_table[name] = tuple(float(v)
                                        for v in options_table[name])
    options = VcoExperimentOptions(**options_table)
    if mesh_table:
        substrate = options.flow.substrate
        mesh_fields = tuple(f.name for f in fields(type(substrate)))
        _check_table(mesh_table, mesh_fields, "options.mesh")
        options = replace(options, flow=replace(
            options.flow, substrate=replace(substrate, **mesh_table)))

    solver_table = dict(data.get("solver") or {})
    if solver_table:
        from ..simulator.linalg import BACKEND_DIRECT, BACKENDS, SolverOptions

        _check_table(solver_table,
                     tuple(f.name for f in fields(SolverOptions)), "solver")
        try:
            solver_options = SolverOptions(**solver_table)
        except TypeError as exc:             # e.g. a quoted number in TOML
            raise AnalysisError(f"invalid [solver] value: {exc}") from exc
        except SimulationError as exc:
            # An unknown backend keeps its named error; any other rejected
            # value (e.g. gmin = nan) is a config error.
            if solver_table.get("backend", BACKEND_DIRECT) not in BACKENDS:
                raise
            raise AnalysisError(f"invalid [solver] value: {exc}") from exc
        options = replace(options, flow=replace(
            options.flow, solver=solver_options))

    execution_table = dict(data.get("execution") or {})
    _check_table(execution_table,
                 tuple(f.name for f in fields(ExecutionSettings)),
                 "execution")
    execution = ExecutionSettings(**execution_table)

    observability_table = dict(data.get("observability") or {})
    _check_table(observability_table,
                 tuple(f.name for f in fields(ObservabilitySettings)),
                 "observability")
    observability = ObservabilitySettings(**observability_table)

    name = data.get("name") or path.stem
    campaign = Campaign(name=str(name), space=ParamSpace(axes),
                        base_spec=base_spec, options=options)
    return CampaignConfig(campaign=campaign, execution=execution, path=path,
                          observability=observability)


def _apply_overrides(execution: ExecutionSettings,
                     args: argparse.Namespace) -> ExecutionSettings:
    updates = {}
    for field_name in ("backend", "retries", "cache_dir", "result",
                       "on_error", "task_timeout"):
        value = getattr(args, field_name, None)
        if value is not None:
            updates[field_name] = value
    if getattr(args, "workers", None) is not None:
        updates["max_workers"] = args.workers
    return replace(execution, **updates) if updates else execution


def _apply_obs_overrides(observability: ObservabilitySettings,
                         args: argparse.Namespace) -> ObservabilitySettings:
    updates: dict = {}
    if getattr(args, "trace_out", None) is not None:
        updates["trace_out"] = args.trace_out
    if getattr(args, "trace", None):
        updates["trace"] = True
    if getattr(args, "progress", None) is not None:
        updates["progress"] = args.progress
    return replace(observability, **updates) if updates else observability


# -- reporting ----------------------------------------------------------------


def _worst_spur(result: SweepResult) -> str:
    """The worst point's spur level and coordinates, read from the columns."""
    power = result.column("spur_power_dbm")
    row = int(np.argmax(power))
    return (f"{power[row]:.1f} dBm at "
            f"f_noise={result.column('noise_frequency')[row] / 1e6:.3f} MHz, "
            f"V_tune={result.column('vtune')[row]:g} V, "
            f"variant {result.column('variant')[row]}")


def _print_run_report(result: SweepResult, cache: ExtractionCache,
                      saved: tuple[Path, Path] | None) -> None:
    summary = result.summary()
    print(f"campaign {summary['campaign']!r}: {summary['points']} points, "
          f"{summary['variants']} layout variant(s) on {summary['backend']}")
    print(f"  extractions this run : {result.cache_misses} "
          f"(cache hits {result.cache_hits})")
    stats = cache.stats
    extra = ""
    if hasattr(stats, "evictions"):
        extra = (f", evictions {stats.evictions}, "
                 f"corrupted {stats.corrupted}")
    print(f"  cache totals         : hits {stats.hits}, "
          f"misses {stats.misses}{extra}")
    print(f"  wall clock           : {result.wall_seconds:.2f} s")
    if len(result):
        print(f"  worst spur           : {_worst_spur(result)}")
    if result.solver_degradations:
        counts = ", ".join(f"{name}={count}" for name, count
                           in sorted(result.solver_degradations.items()))
        print(f"  solver degradations  : {counts}")
    if result.failures:
        print(f"  FAILED corners       : {len(result.failures)} "
              "(partial result; 'repro-campaign resume' re-runs them)")
        for failure in result.failures[:5]:
            print(f"    - {failure.corner_label} "
                  f"[{failure.error_type} after {failure.attempts} "
                  f"attempt(s)]")
        if len(result.failures) > 5:
            print(f"    ... and {len(result.failures) - 5} more")
    if saved is not None:
        print(f"  result written       : {saved[0]} (+ {saved[1].name})")


def _write_summary_json(path: str, result: SweepResult,
                        cache: ExtractionCache,
                        saved: tuple[Path, Path] | None) -> None:
    payload = dict(result.summary())
    payload["extractions"] = result.cache_misses
    payload["cache_hits"] = result.cache_hits
    payload["cache_totals"] = {"hits": cache.stats.hits,
                               "misses": cache.stats.misses}
    if saved is not None:
        payload["result_npz"] = str(saved[0])
        payload["result_meta"] = str(saved[1])
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# -- subcommands --------------------------------------------------------------


def _launch(args: argparse.Namespace, resume: bool) -> int:
    """Shared body of ``run`` and ``resume``: one campaign through the runner."""
    config = load_campaign_config(args.config)
    execution = _apply_overrides(config.execution, args)
    observability = _apply_obs_overrides(config.observability, args)
    resume_from = None
    if resume:
        if not execution.result:
            raise AnalysisError(
                "resume needs a result path (--result or [execution].result "
                "in the config)")
        from .persist import result_paths

        npz_path = result_paths(Path(execution.result))[0]
        if npz_path.exists():
            resume_from = SweepResult.load(npz_path)
            print(f"resuming from {npz_path} "
                  f"({len(resume_from)} stored points)")
        else:
            print(f"no stored result at {npz_path}; starting fresh")
    cache = execution.make_cache()
    runner = SweepRunner(make_technology(), backend=execution.make_backend(),
                         cache=cache, on_error=execution.on_error)
    checkpoint = execution.make_checkpoint()

    enabled_tracer = False
    if observability.tracing and not tracer.enabled:
        tracer.enable()
        tracer.reset()
        enabled_tracer = True

    observers = []
    runlog_path = None
    if execution.result and observability.run_log:
        from .persist import result_paths

        runlog_path = runlog_path_for(result_paths(execution.result)[0])
        observers.append(RunLogRecorder(runlog_path))
    if observability.progress_enabled():
        observers.append(ProgressReporter(cache=cache))
    observer = CompositeObserver(*observers) if observers else None

    trace_path = None
    try:
        result = runner.run(config.campaign, resume_from=resume_from,
                            checkpoint=checkpoint, observer=observer)
        saved = result.save(execution.result) if execution.result else None
        if saved is not None and checkpoint is not None:
            # Every journaled corner now lives in the saved result; keeping
            # the journal would only re-feed stale corners to the next run.
            CampaignJournal(checkpoint.path,
                            campaign_name=config.campaign.name,
                            fingerprint=None).discard()
        if observability.trace_out:
            trace_path = export_chrome_trace(
                tracer.spans(), observability.trace_out,
                metadata={"campaign": config.campaign.name,
                          "fingerprint": config.campaign.fingerprint()})
    finally:
        if enabled_tracer:
            tracer.disable()
    _print_run_report(result, cache, saved)
    if runlog_path is not None:
        print(f"  run log              : {runlog_path}")
    if trace_path is not None:
        print(f"  trace written        : {trace_path} "
              "(load in ui.perfetto.dev)")
    if args.summary_json:
        _write_summary_json(args.summary_json, result, cache, saved)
    # Exit code 3: the campaign *completed* but only partially (skipped
    # corners) — distinct from 0 (full result) and 2 (hard error).
    return 3 if result.failures else 0


def _cmd_run(args: argparse.Namespace) -> int:
    return _launch(args, resume=False)


def _cmd_resume(args: argparse.Namespace) -> int:
    return _launch(args, resume=True)


def _cmd_show(args: argparse.Namespace) -> int:
    result = SweepResult.load(args.result)
    from .persist import result_paths

    meta = json.loads(result_paths(args.result)[1].read_text())
    print(f"campaign   : {result.campaign_name}")
    print(f"backend    : {result.backend_name}")
    print(f"points     : {len(result)} "
          f"({len(result.variants)} layout variant(s))")
    print(f"wall clock : {result.wall_seconds:.2f} s; cache hits "
          f"{result.cache_hits}, extractions {result.cache_misses}")
    if meta.get("git_sha"):
        print(f"git sha    : {meta['git_sha']}")
    print("axes       :")
    for name, values in result.axes.items():
        preview = ", ".join(f"{v:g}" for v in values[:6])
        ellipsis = ", ..." if len(values) > 6 else ""
        print(f"  {name:20s} [{preview}{ellipsis}] ({len(values)} values)")
    if len(result):
        print(f"worst spur : {_worst_spur(result)}")
    if result.solver_degradations:
        counts = ", ".join(f"{name}={count}" for name, count
                           in sorted(result.solver_degradations.items()))
        print(f"degraded   : {counts}")
    if result.failures:
        print(f"failures   : {len(result.failures)} corner(s) incomplete "
              "('repro-campaign resume' re-runs them)")
        for failure in result.failures:
            timeout_note = ", timed out" if failure.timed_out else ""
            print(f"  - {failure.corner_label} [{failure.error_type} after "
                  f"{failure.attempts} attempt(s){timeout_note}]: "
                  f"{failure.message}")
    if args.timings:
        _print_timings(result)
    if args.rows:
        print(f"\nfirst {args.rows} tidy rows:")
        head = result.subset(np.arange(min(args.rows, len(result))))
        for row in head.rows():
            cells = ", ".join(f"{key}={value:g}" for key, value in row.items()
                              if not key.startswith("entry:"))
            print(f"  {cells}")
    return 0


def _print_timings(result: SweepResult) -> None:
    """The ``show --timings`` section: per-span aggregates and metrics."""
    telemetry = result.telemetry or {}
    if not telemetry:
        print("timings    : no telemetry in this result (recorded by an "
              "older version, or loaded without it)")
        return
    metrics = telemetry.get("metrics") or {}
    hist = (metrics.get("histograms") or {}).get("campaign.corner_seconds")
    if hist and hist.get("count"):
        print(f"corners    : {hist['count']} timed; "
              f"mean {hist['mean']:.3f} s, max {hist['max']:.3f} s")
    spans = telemetry.get("spans") or {}
    if spans:
        print("spans      : (count, total, max)")
        width = max(len(name) for name in spans)
        for name in sorted(spans):
            row = spans[name]
            print(f"  {name:<{width}s}  n={int(row['count']):>5d}  "
                  f"total={row['total_seconds']:.4f} s  "
                  f"max={row['max_seconds']:.4f} s")
    counters = metrics.get("counters") or {}
    if counters:
        print("counters   :")
        for name in sorted(counters):
            print(f"  {name:40s} {counters[name]}")


def _cmd_trace(args: argparse.Namespace) -> int:
    """``trace export``: run log -> Chrome trace-event JSON."""
    runlog = Path(args.runlog)
    if not runlog.exists():
        raise AnalysisError(f"run log {runlog} does not exist")
    out = runlog_to_chrome_trace(runlog, args.output)
    payload = json.loads(Path(out).read_text())
    problems = validate_trace_events(payload)
    if problems:
        for problem in problems[:10]:
            print(f"repro-campaign: invalid trace: {problem}",
                  file=sys.stderr)
        return 2
    n_spans = sum(1 for event in payload["traceEvents"]
                  if event.get("ph") == "X")
    print(f"wrote {out} ({n_spans} spans; load in ui.perfetto.dev)")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    if not args.cache_dir:
        raise AnalysisError("cache commands need --cache-dir")
    # Inspection commands must not conjure the directory into existence —
    # a typo'd --cache-dir should fail, not report a healthy empty cache.
    if not Path(args.cache_dir).is_dir():
        raise AnalysisError(
            f"cache directory {args.cache_dir} does not exist")
    cache = DiskExtractionCache(args.cache_dir)
    if args.cache_command == "stats":
        for key, value in cache.describe().items():
            print(f"{key:15s}: {value}")
        return 0
    if args.cache_command == "verify":
        report = cache.verify(repair=args.repair)
        print(f"checked        : {report['checked']}")
        print(f"ok             : {report['ok']}")
        print(f"stale          : {len(report['stale'])}")
        print(f"corrupt        : {len(report['corrupt'])}")
        print(f"quarantined    : {report['quarantine_entries']}")
        print(f"orphans        : {len(report['orphans'])}"
              + (f" ({report['orphans_removed']} removed)"
                 if args.repair else ""))
        for problem in report["corrupt"]:
            print(f"  corrupt {problem['entry']}: {problem['error']}")
        for name in report["stale"]:
            print(f"  stale   {name}")
        for name in report["orphans"]:
            print(f"  orphan  {name}")
        if report["corrupt"] or report["stale"]:
            action = ("corrupt entries quarantined, stale entries evicted"
                      if args.repair else "run with --repair to quarantine "
                      "corrupt entries and evict stale ones")
            print(action)
            return 3
        return 0
    # prune
    if args.all:
        removed, freed = len(cache), cache.disk_bytes()
        cache.clear()
    else:
        if args.max_entries is None and args.max_age_days is None:
            raise AnalysisError(
                "cache prune needs --max-entries, --max-age-days or --all")
        max_age = (args.max_age_days * 86400.0
                   if args.max_age_days is not None else None)
        removed, freed = cache.prune(max_entries=args.max_entries,
                                     max_age_seconds=max_age)
    print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'} "
          f"({freed / 1e6:.2f} MB); {len(cache)} left")
    return 0


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Declare, launch, resume and inspect sweep campaigns "
                    "of the substrate-noise reproduction flow.")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more logging (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less logging (errors only)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_execution_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="campaign config file (.toml or .json)")
        p.add_argument("--result", default=None,
                       help="write the sweep result to this .npz path")
        p.add_argument("--cache-dir", dest="cache_dir", default=None,
                       help="persistent extraction-cache directory")
        p.add_argument("--backend", choices=("serial", "process-pool"),
                       default=None)
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes for --backend process-pool")
        p.add_argument("--retries", type=int, default=None,
                       help="per-task retries on worker failure")
        p.add_argument("--on-error", dest="on_error",
                       choices=ON_ERROR_POLICIES, default=None,
                       help="failure policy: abort the campaign, or skip "
                            "failed corners and keep a partial result")
        p.add_argument("--task-timeout", dest="task_timeout", type=float,
                       default=None,
                       help="wall-clock bound in seconds of each pooled "
                            "extraction (process-pool backend only)")
        p.add_argument("--summary-json", dest="summary_json", default=None,
                       help="also write a machine-readable run summary here")
        p.add_argument("--trace", action="store_true", default=None,
                       help="record hierarchical spans during the run "
                            "(dumped into the run log)")
        p.add_argument("--trace-out", dest="trace_out", default=None,
                       help="export the recorded spans as a Chrome/Perfetto "
                            ".trace.json (implies --trace)")
        p.add_argument("--progress", dest="progress",
                       action=argparse.BooleanOptionalAction, default=None,
                       help="force the live progress line on/off "
                            "(default: on when stderr is a TTY)")

    run = sub.add_parser("run", help="run a campaign from a config file")
    add_execution_flags(run)
    run.set_defaults(handler=_cmd_run)

    resume = sub.add_parser(
        "resume", help="complete a partially-run campaign (skips corners "
                       "already in the stored result)")
    add_execution_flags(resume)
    resume.set_defaults(handler=_cmd_resume)

    show = sub.add_parser("show", help="summarise a stored sweep result")
    show.add_argument("result", help="path of a saved result (.npz)")
    show.add_argument("--rows", type=int, default=0,
                      help="also print the first N tidy rows")
    show.add_argument("--timings", action="store_true",
                      help="also print the recorded telemetry (span "
                           "aggregates, corner timing, counters)")
    show.set_defaults(handler=_cmd_show)

    trace = sub.add_parser("trace", help="work with recorded run telemetry")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export", help="convert a .runlog.jsonl into a Chrome/Perfetto "
                       ".trace.json")
    export.add_argument("runlog", help="path of a <result>.runlog.jsonl")
    export.add_argument("--output", default=None,
                        help="output path (default: <stem>.trace.json next "
                             "to the run log)")
    export.set_defaults(handler=_cmd_trace)

    cache = sub.add_parser("cache", help="inspect or prune a cache directory")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    stats = cache_sub.add_parser("stats", help="entry count and disk usage")
    stats.add_argument("--cache-dir", dest="cache_dir", required=True)
    stats.set_defaults(handler=_cmd_cache)
    verify = cache_sub.add_parser(
        "verify", help="audit every entry's envelope and payload checksum")
    verify.add_argument("--cache-dir", dest="cache_dir", required=True)
    verify.add_argument("--repair", action="store_true",
                        help="quarantine corrupt entries, evict entries "
                             "from other format/code versions and delete "
                             "temporary files of killed writes older than "
                             "an hour")
    verify.set_defaults(handler=_cmd_cache)
    prune = cache_sub.add_parser("prune", help="evict cache entries")
    prune.add_argument("--cache-dir", dest="cache_dir", required=True)
    prune.add_argument("--max-entries", type=int, default=None,
                       help="keep at most this many newest entries")
    prune.add_argument("--max-age-days", type=float, default=None,
                       help="drop entries older than this many days")
    prune.add_argument("--all", action="store_true",
                       help="drop every entry")
    prune.set_defaults(handler=_cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"repro-campaign: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
