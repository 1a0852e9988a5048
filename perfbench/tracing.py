"""Traced mode: spans around each layer's public calls, and their analysis.

:class:`LayerPatches` wraps the public calls of every layer *where the
caller resolves them* (``repro.core.flow.extract_interconnect``, the
``VcoImpactAnalysis.build_testbench`` method, each solver backend's
``factorize``/``solve``, ...).  The wrappers open spans in the program's own
in-memory tracer (:mod:`repro.obs.trace`), which already ships spans
recorded in process-pool workers home with each corner, so one analysis
covers serial and parallel workloads.  Nothing under ``src/`` changes.

:func:`analyse_run` turns the spans of one timed run into the per-layer
metrics.  A span's *self time* is its duration minus the union of the
intervals its nearest timed descendants cover.  Spans recorded in worker
processes run concurrently; the accounting scales their self times by
(wall time covered by worker corners) / (summed worker corner time), so the
scaled self times of one run add up to its wall time.
"""

from __future__ import annotations

import functools
import importlib
import threading
from dataclasses import dataclass, field

from .stats import percentile

PREFIX = "bench:"
#: The program's own per-corner span (recorded in workers too).
CORNER_SPAN = "campaign.corner"
ROOT_SPAN = PREFIX + "workload"

#: Module-level names, patched in the module that calls them.
FUNCTION_PATCHES = (
    ("repro.substrate.extraction", "SubstrateMesh", "substrate.mesh"),
    ("repro.substrate.extraction", "kron_reduce", "substrate.kron"),
    ("repro.core.flow", "extract_interconnect", "interconnect.extract"),
    ("repro.core.flow", "extract_circuit", "extraction.circuit"),
    ("repro.core.flow", "merge_models", "extraction.merge"),
    ("repro.core.vco_experiment", "run_extraction_flow", "core.flow"),
    ("repro.studies.runner", "run_extraction_flow", "core.flow"),
    ("repro.core.vco_experiment", "dc_operating_point", "simulator.dc"),
    ("repro.core.vco_experiment", "transfer_function", "simulator.transfer"),
    ("repro.core.vco_experiment", "entries_at_frequency", "vco.spurs"),
    ("repro.core.vco_experiment", "compute_spurs", "vco.spurs"),
    ("repro.studies.persist", "save_result", "studies.save"),
)
#: Methods, patched on the class that defines them.
METHOD_PATCHES = (
    ("repro.substrate.mesh", "SubstrateMesh", "conductance_matrix",
     "substrate.mesh"),
    ("repro.core.vco_experiment", "VcoImpactAnalysis", "build_testbench",
     "core.testbench"),
    ("repro.core.vco_experiment", "VcoImpactAnalysis", "vco_model",
     "vco.model"),
    ("repro.core.vco_experiment", "VcoImpactAnalysis", "entry_catalog",
     "vco.model"),
    ("repro.studies.runner", "SweepRunner", "run", "studies.run"),
    ("repro.studies.cache", "ExtractionCache", "lookup", "studies.lookup"),
    ("repro.studies.store", "DiskExtractionCache", "lookup", "studies.lookup"),
    ("repro.studies.persist", "CampaignJournal", "append", "studies.journal"),
)
#: SolverStats counters recorded on the outermost linear-algebra span.
SOLVER_COUNTERS = ("factorizations", "solves", "mg_cycles", "fallbacks")


def _record_result(span_name: str, span, args, result) -> None:
    """Attach the per-call facts the per-layer metrics need."""
    if span_name == "substrate.mesh" and hasattr(result, "n_nodes"):
        span.set(mesh_nodes=int(result.n_nodes))
    elif span_name == "simulator.dc":
        span.set(newton_iters=int(result.iterations))
    elif span_name == "studies.lookup":
        span.set(hit=result is not None)
    elif span_name == "studies.run":
        backend = args[0].backend
        span.set(workers=int(getattr(backend, "max_workers", 1)),
                 telemetry=result.telemetry or {})


class LayerPatches:
    """Install/remove the layer wrappers (a context manager)."""

    def __init__(self):
        from repro.obs import trace_span
        from repro.simulator import solver as solver_module
        from repro.simulator.linalg import LinearSolver

        self._trace_span = trace_span
        self._solver_stats = solver_module.stats
        self._linear_solver = LinearSolver
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._patched_handles: set[type] = set()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        trace_span = self._trace_span

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            with trace_span(PREFIX + span_name) as span:
                result = fn(*args, **kwargs)
                if span is not None:
                    _record_result(span_name, span, args, result)
                return result
        return wrapper

    def _wrap_linalg(self, fn, span_name: str):
        """Linear-algebra wrapper: counter deltas on the outermost call,
        and the factorization handle's ``solve`` patched on first sight."""
        trace_span = self._trace_span
        stats = self._solver_stats
        local = self._local

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            before = ([getattr(stats, name) for name in SOLVER_COUNTERS]
                      if depth == 0 else None)
            local.depth = depth + 1
            try:
                with trace_span(PREFIX + span_name) as span:
                    result = fn(*args, **kwargs)
                    if span is not None and before is not None:
                        span.set(**{name: getattr(stats, name) - value
                                    for name, value
                                    in zip(SOLVER_COUNTERS, before)})
            finally:
                local.depth = depth
            if span_name == "linalg.factorize":
                self._patch_handle(type(result))
            return result
        return wrapper

    def _patch_handle(self, handle_type: type) -> None:
        if handle_type in self._patched_handles:
            return
        self._patched_handles.add(handle_type)
        original = handle_type.__dict__.get("solve")
        if original is not None:
            self._set(handle_type, "solve",
                      self._wrap_linalg(original, "linalg.solve"))

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # -- lifecycle -----------------------------------------------------------

    def _solver_classes(self):
        pending, seen = [self._linear_solver], []
        while pending:
            cls = pending.pop()
            if cls not in seen:
                seen.append(cls)
                pending.extend(cls.__subclasses__())
        return seen

    def __enter__(self) -> "LayerPatches":
        for module_name, attr, span_name in FUNCTION_PATCHES:
            module = importlib.import_module(module_name)
            self._set(module, attr, self._wrap(getattr(module, attr),
                                               span_name))
        for module_name, cls_name, method, span_name in METHOD_PATCHES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._set(cls, method, self._wrap(cls.__dict__[method],
                                              span_name))
        for cls in self._solver_classes():
            for method in ("factorize", "solve"):
                if method in cls.__dict__:
                    self._set(cls, method, self._wrap_linalg(
                        cls.__dict__[method], f"linalg.{method}"))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self._patched_handles.clear()


# -- analysis -----------------------------------------------------------------


@dataclass
class _Node:
    span: object
    start: float
    end: float
    children: list = field(default_factory=list)
    self_s: float = 0.0


def _union_length(intervals) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _clipped(nodes, start: float, end: float):
    return [(max(n.start, start), min(n.end, end)) for n in nodes
            if n.end > start and n.start < end]


def layer_name(span_name: str) -> str:
    """Table row of a span: the bench span name, or the corner glue."""
    if span_name == CORNER_SPAN:
        return "studies.corner"
    return span_name[len(PREFIX):]


def span_tree(spans, root) -> list[_Node]:
    """The timed spans under ``root`` (bench spans and corners), linked to
    their nearest timed ancestor, with self times filled in."""
    by_id = {span.span_id: span for span in spans}
    timed = {span.span_id: _Node(span, span.start, span.start + span.duration)
             for span in spans
             if span.name.startswith(PREFIX) or span.name == CORNER_SPAN}
    nearest: dict[str, str | None] = {}

    def timed_ancestor(span_id):
        path, parent = [], by_id[span_id].parent_id
        while parent is not None and parent not in timed:
            if parent in nearest or parent not in by_id:
                found = nearest.get(parent)
                break
            path.append(parent)
            parent = by_id[parent].parent_id
        else:
            found = parent
        for hop in path:
            nearest[hop] = found
        return found

    for span_id, node in timed.items():
        ancestor = timed_ancestor(span_id)
        if ancestor is not None and span_id != root.span_id:
            timed[ancestor].children.append(node)
    pending, members = [timed[root.span_id]], []
    while pending:
        node = pending.pop()
        members.append(node)
        pending.extend(node.children)
    for node in members:
        covered = _union_length(_clipped(node.children, node.start, node.end))
        node.self_s = max(node.span.duration - covered, 0.0)
    return members


@dataclass
class RunAnalysis:
    """Per-layer metrics of one traced run plus its self-time table."""

    metrics: dict[str, float]
    #: layer -> (calls, inclusive seconds, self seconds, wall-scaled self)
    table: dict[str, tuple[int, float, float, float]]
    wall_s: float

    def scaled(self, factor: float) -> "RunAnalysis":
        """The same run with every time multiplied by ``factor`` (the
        host-speed normalization of :mod:`perfbench.calibrate`)."""
        metrics = {name: value * factor if name.endswith(("_s", "_ms"))
                   else value for name, value in self.metrics.items()}
        table = {name: (calls, inclusive * factor, own * factor,
                        share * factor)
                 for name, (calls, inclusive, own, share)
                 in self.table.items()}
        return RunAnalysis(metrics, table, self.wall_s * factor)


def analyse_run(spans, root) -> RunAnalysis:
    nodes = span_tree(spans, root)
    parent_pid = root.pid
    corners = [n for n in nodes if n.span.name == CORNER_SPAN]
    worker_corners = [n for n in corners if n.span.pid != parent_pid]
    busy = sum(n.span.duration for n in worker_corners)
    scale = (_union_length((n.start, n.end) for n in worker_corners) / busy
             if busy > 0 else 1.0)

    table: dict[str, list] = {}
    for node in nodes:
        row = table.setdefault(layer_name(node.span.name), [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += node.span.duration
        row[2] += node.self_s
        row[3] += node.self_s * (scale if node.span.pid != parent_pid else 1.0)

    def named(name):
        return [n for n in nodes if n.span.name == PREFIX + name]

    def self_sum(name):
        return sum(n.self_s for n in named(name))

    def total(name):
        return sum(n.span.duration for n in named(name))

    def attr_sum(name, key):
        return sum(dict(n.span.attrs).get(key, 0) for n in named(name))

    linalg = named("linalg.factorize") + named("linalg.solve")
    runs = named("studies.run")
    flows = named("core.flow")
    lookups = named("studies.lookup")
    run_start = min((n.start for n in runs), default=root.start)
    first_corner = min((n.start for n in corners), default=run_start)
    extraction_before_corners = _union_length(
        _clipped(flows, run_start, first_corner))
    workers = max((dict(n.span.attrs).get("workers", 1) for n in runs),
                  default=1)
    run_wall = sum(n.span.duration for n in runs)
    counters: dict[str, float] = {}
    for node in runs:
        telemetry = dict(node.span.attrs).get("telemetry") or {}
        for key, value in (telemetry.get("metrics") or {}).get(
                "counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    corner_ms = [n.span.duration * 1e3 for n in corners]
    root_wall = root.duration
    metrics = {
        "substrate.mesh_s": self_sum("substrate.mesh"),
        "substrate.kron_s": total("substrate.kron"),
        "substrate.schur_s": self_sum("substrate.kron"),
        "substrate.mesh_nodes": max((dict(n.span.attrs).get("mesh_nodes", 0)
                                     for n in named("substrate.mesh")),
                                    default=0),
        "linalg.factorize_s": self_sum("linalg.factorize"),
        "linalg.solve_s": self_sum("linalg.solve"),
        "interconnect.extract_s": self_sum("interconnect.extract"),
        "extraction.circuit_s": self_sum("extraction.circuit"),
        "extraction.merge_s": self_sum("extraction.merge"),
        "core.flow_s": total("core.flow"),
        "core.extractions": len(flows),
        "core.testbench_s": self_sum("core.testbench"),
        "simulator.dc_s": self_sum("simulator.dc"),
        "simulator.newton_iters": attr_sum("simulator.dc", "newton_iters"),
        "simulator.transfer_s": self_sum("simulator.transfer"),
        "vco.model_s": self_sum("vco.model"),
        "vco.spurs_s": self_sum("vco.spurs"),
        "studies.corners": len(corners),
        "studies.corner_p50_ms": percentile(corner_ms, 50) if corners else 0.0,
        "studies.corner_p90_ms": percentile(corner_ms, 90) if corners else 0.0,
        "studies.cache_hits": sum(1 for n in lookups
                                  if dict(n.span.attrs).get("hit")),
        "studies.cache_misses": sum(1 for n in lookups
                                    if not dict(n.span.attrs).get("hit")),
        "studies.store_read_s": total("studies.lookup"),
        "studies.journal_appends": len(named("studies.journal")),
        "studies.journal_s": total("studies.journal"),
        "studies.save_s": total("studies.save"),
        "studies.overhead_s": root_wall - _union_length(
            (n.start, n.end) for n in corners + flows),
        "parallel.tasks": counters.get("campaign.task_attempts", len(corners)),
        "parallel.retries": counters.get("campaign.retries", 0),
        "parallel.pool_start_s": max(first_corner - run_start
                                     - extraction_before_corners, 0.0),
        "parallel.worker_busy_frac": (
            sum(n.span.duration for n in corners) / (workers * run_wall)
            if run_wall > 0 else 0.0),
    }
    for counter in SOLVER_COUNTERS:
        metrics[f"linalg.{counter}"] = sum(
            dict(n.span.attrs).get(counter, 0) for n in linalg)
    return RunAnalysis(metrics=metrics,
                       table={name: tuple(row) for name, row in table.items()},
                       wall_s=root_wall)


def spans_as_json(spans) -> list[dict]:
    """Spans as JSON-ready dicts (for the trace file)."""
    rows = []
    for span in spans:
        row = span.as_dict()
        row["attrs"] = {key: value for key, value in row["attrs"].items()
                        if key != "telemetry"}
        rows.append(row)
    return rows
