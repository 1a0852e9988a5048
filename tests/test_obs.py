"""Tests of the unified observability layer (:mod:`repro.obs`).

Covers the acceptance properties of the subsystem:

* hierarchical span nesting, the disabled-tracer no-op fast path, and span
  re-parenting across :class:`ProcessPoolBackend` worker processes
  (including the timeout/retry path's ``on_start`` notifications),
* the metrics registry's snapshot agrees with the legacy stat records it
  absorbs (``SolverStats``, ``CacheStats``, degradation counts), and a
  campaign's retry counters read the same at one and two workers,
* the structured JSONL run log round-trips and schema-validates, with one
  ``corner_finish`` per corner and a fingerprint-stamped header,
* the Chrome trace-event (Perfetto) export passes its own schema check,
* per-run telemetry survives the save/load sidecar round trip.

All sweeps run on a deliberately tiny substrate mesh — observability does
not depend on mesh resolution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions
from repro.obs import (
    MetricsRegistry,
    RunLogRecorder,
    SpanRecord,
    TraceContext,
    collect_spans,
    read_run_log,
    runlog_path_for,
    runlog_to_chrome_trace,
    span_aggregates,
    spans_to_trace_events,
    trace_span,
    tracer,
    validate_run_log,
    validate_trace_events,
)
from repro.obs.logs import get_logger, verbosity_to_level
from repro.simulator.solver import SolverStats
from repro.studies import (
    Campaign,
    ExtractionCache,
    FaultPlan,
    FaultSpec,
    ParamSpace,
    ProcessPoolBackend,
    SerialBackend,
    SweepRunner,
)
from repro.studies.runner import SweepTask
from repro.substrate.extraction import SubstrateExtractionOptions

TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6))


@pytest.fixture
def traced():
    """Enabled, empty tracer; always disabled and drained afterwards."""
    tracer.enable()
    tracer.reset()
    yield tracer
    tracer.disable()
    tracer.reset()


@pytest.fixture(scope="module")
def obs_campaign():
    return Campaign(
        name="obs_smoke",
        space=ParamSpace({"vtune": (0.0, 0.75),
                          "noise_frequency": (1e6, 4e6)}),
        options=VcoExperimentOptions(vtune_values=(0.0,),
                                     noise_frequencies=(1e6, 4e6),
                                     flow=TINY_MESH))


# -- span tracer ----------------------------------------------------------------------


def test_trace_span_nesting_and_attrs(traced):
    with trace_span("outer", cell="vco") as outer:
        with trace_span("inner") as inner:
            inner.set(rows=3)
    outer_rec, = [s for s in tracer.spans() if s.name == "outer"]
    inner_rec, = [s for s in tracer.spans() if s.name == "inner"]
    assert outer_rec.parent_id is None
    assert inner_rec.parent_id == outer_rec.span_id
    assert dict(outer_rec.attrs) == {"cell": "vco"}
    assert dict(inner_rec.attrs) == {"rows": 3}
    assert outer_rec.duration >= inner_rec.duration >= 0.0


def test_exception_marks_span_and_propagates(traced):
    with pytest.raises(ValueError):
        with trace_span("doomed"):
            raise ValueError("boom")
    doomed, = tracer.spans()
    assert dict(doomed.attrs)["error"] == "ValueError"


def test_disabled_tracer_is_shared_noop():
    assert not tracer.enabled
    first = trace_span("hot.path", n=1)
    second = trace_span("hot.path", n=2)
    # One shared no-op object: nothing is allocated per call.
    assert first is second
    with first:
        pass
    assert tracer.spans() == ()


def test_collect_spans_carves_out_of_live_tracer(traced):
    context = TraceContext(trace_id=tracer.trace_id, parent_id="root-0")
    with trace_span("before"):
        pass
    with collect_spans(context) as sink:
        with trace_span("carved"):
            pass
    # The block's spans moved to the sink (no double counting) and were
    # re-parented under the context.
    assert [s.name for s in tracer.spans()] == ["before"]
    assert [s.name for s in sink] == ["carved"]
    assert sink[0].parent_id == "root-0"
    tracer.adopt(sink)
    assert [s.name for s in tracer.spans()] == ["before", "carved"]


def test_collect_spans_enables_in_fresh_worker():
    # A worker process starts with the tracer disabled; the context both
    # enables collection and parents the spans.
    assert not tracer.enabled
    context = TraceContext(trace_id="trace-test", parent_id="root-7")
    with collect_spans(context) as sink:
        assert tracer.enabled
        with trace_span("worker.span"):
            pass
    assert not tracer.enabled
    assert [s.name for s in sink] == ["worker.span"]
    assert sink[0].parent_id == "root-7"
    tracer.reset()


def test_span_record_dict_roundtrip():
    span = SpanRecord(span_id="1-2", parent_id="1-1", name="x.y",
                      start=123.5, duration=0.25, pid=42, thread="main",
                      attrs=(("k", 1),))
    assert SpanRecord.from_dict(span.as_dict()) == span


def test_span_aggregates_groups_by_name():
    spans = [SpanRecord(f"1-{i}", None, "solver.solve", 0.0, d, 1, "main")
             for i, d in enumerate((0.1, 0.3))]
    spans.append(SpanRecord("1-9", None, "flow.run", 0.0, 1.0, 1, "main"))
    table = span_aggregates(spans)
    assert table["solver.solve"]["count"] == 2
    assert table["solver.solve"]["total_seconds"] == pytest.approx(0.4)
    assert table["solver.solve"]["max_seconds"] == pytest.approx(0.3)
    assert table["flow.run"]["count"] == 1


# -- metrics registry -----------------------------------------------------------------


def test_registry_snapshot_schema_and_labels():
    reg = MetricsRegistry()
    reg.counter("solver.factorizations", backend="direct").add(3)
    reg.gauge("mesh.nodes").set(18816)
    reg.histogram("campaign.corner_seconds").observe(0.5)
    reg.histogram("campaign.corner_seconds").observe(1.5)
    snap = reg.snapshot()
    assert snap["counters"] == {"solver.factorizations{backend=direct}": 3}
    assert snap["gauges"] == {"mesh.nodes": 18816}
    hist = snap["histograms"]["campaign.corner_seconds"]
    assert hist["count"] == 2 and hist["sum"] == pytest.approx(2.0)
    assert hist["min"] == 0.5 and hist["max"] == 1.5
    assert hist["mean"] == pytest.approx(1.0)


def test_counters_reject_negative_increments():
    with pytest.raises(ValueError):
        MetricsRegistry().counter("x").add(-1)


def test_absorb_adapters_match_legacy_records():
    stats = SolverStats()
    stats.factorizations = 7
    stats.solves = 22
    stats.fallbacks = 5

    class _Cache:
        hits, misses, evictions, corrupted = 3, 1, 0, 0

    reg = MetricsRegistry()
    reg.absorb_solver_stats(stats)
    reg.absorb_cache_stats(_Cache())
    reg.absorb_degradations({"gmin_step": 4})
    counters = reg.snapshot()["counters"]
    assert counters["solver.factorizations"] == stats.factorizations
    assert counters["solver.solves"] == stats.solves
    assert counters["solver.fallbacks"] == stats.fallbacks
    assert counters["cache.hits"] == 3 and counters["cache.misses"] == 1
    assert counters["solver.degradations{kind=gmin_step}"] == 4


@pytest.mark.parametrize("workers", [1, 2])
def test_retried_corner_counts_one_retry(technology, obs_campaign, tmp_path,
                                         workers):
    # Corner 0 fails its first attempt; the scheduler's attempt counts land
    # in the campaign metrics once, whatever the worker count.
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=0, attempts=1),))
    backend = SerialBackend(retries=1) if workers == 1 \
        else ProcessPoolBackend(max_workers=workers, retries=1)
    result = SweepRunner(technology, backend=backend, cache=ExtractionCache(),
                         fault_plan=plan).run(obs_campaign)
    assert not result.failures
    counters = result.telemetry["metrics"]["counters"]
    assert counters["campaign.task_attempts"] == 3
    assert counters["campaign.retries"] == 1
    assert "campaign.pool_rebuilds" not in counters


# -- run log --------------------------------------------------------------------------


@dataclass(frozen=True)
class _FakeTask:
    index: int = 0
    variant_index: int = 0
    injected_power_dbm: float = -10.0
    vtune: float = 0.0

    def corner_label(self) -> str:
        return f"corner {self.index}"


@dataclass
class _FakeOutcome:
    records: tuple = ()
    seconds: float = 0.5
    degradations: tuple = ()


@dataclass
class _FakeResult:
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    wall_seconds: float = 1.0
    cache_hits: int = 0
    cache_misses: int = 0


def test_runlog_records_retry_and_validates(tmp_path):
    recorder = RunLogRecorder(tmp_path / "run.runlog.jsonl")
    recorder.campaign_started(campaign_name="obs", fingerprint="abc123",
                              total_corners=1, pending_corners=1)
    task = _FakeTask()
    recorder.corner_started(task, attempt=1)
    recorder.corner_started(task, attempt=2)      # retry path
    recorder.corner_finished(task, _FakeOutcome(degradations=(("gmin", 1),)))
    recorder.campaign_finished(_FakeResult())

    events = read_run_log(tmp_path / "run.runlog.jsonl")
    kinds = [e["event"] for e in events]
    assert kinds == ["campaign_start", "corner_start", "corner_retry",
                     "corner_finish", "corner_degradation", "campaign_finish"]
    assert events[0]["fingerprint"] == "abc123"
    assert events[2]["attempt"] == 2
    assert validate_run_log(events, expected_corners=1) == []


def test_validate_run_log_flags_schema_violations():
    assert validate_run_log([]) == ["run log is empty"]
    events = [
        {"event": "campaign_start", "seq": 0, "t": 1.0,
         "kind": "repro-campaign-runlog", "format": 1, "fingerprint": "f"},
        {"event": "corner_finish", "seq": 0, "t": 2.0},   # seq + no corner
    ]
    problems = validate_run_log(events, expected_corners=2)
    assert any("seq not increasing" in p for p in problems)
    assert any("without corner payload" in p for p in problems)
    assert any("expected 2 corner_finish" in p for p in problems)
    assert any("not campaign_finish" in p for p in problems)


def test_runlog_path_sits_next_to_result():
    assert str(runlog_path_for("out/fig8.npz")).endswith("out/fig8.runlog.jsonl")
    assert str(runlog_path_for("out/fig8")).endswith("out/fig8.runlog.jsonl")


# -- Chrome trace export --------------------------------------------------------------


def test_spans_to_trace_events_schema():
    spans = [
        SpanRecord("a-1", None, "campaign.run", 100.0, 2.0, 10, "MainThread"),
        SpanRecord("b-1", "a-1", "campaign.corner", 100.5, 1.0, 11, "MainThread"),
    ]
    events = spans_to_trace_events(spans)
    assert validate_trace_events({"traceEvents": events}) == []
    xs = [e for e in events if e["ph"] == "X"]
    metas = [e for e in events if e["ph"] == "M"]
    assert len(xs) == 2 and len(metas) == 2       # one thread_name per track
    root = next(e for e in xs if e["name"] == "campaign.run")
    corner = next(e for e in xs if e["name"] == "campaign.corner")
    assert root["ts"] == 0.0                       # relative to earliest span
    assert corner["ts"] == pytest.approx(0.5e6)    # microseconds
    assert corner["dur"] == pytest.approx(1.0e6)
    assert corner["args"]["parent_id"] == "a-1"
    assert root["pid"] == 10 and corner["pid"] == 11


def test_validate_trace_events_rejects_malformed():
    assert validate_trace_events([]) == ["trace payload is not a JSON object"]
    assert validate_trace_events({}) == ["payload has no traceEvents list"]
    problems = validate_trace_events(
        {"traceEvents": [{"ph": "X", "name": "x"}, {"ph": "?"}]})
    assert any("missing" in p for p in problems)
    assert any("unsupported phase" in p for p in problems)


# -- logging --------------------------------------------------------------------------


def test_loggers_live_under_the_repro_namespace():
    assert get_logger("repro.studies.store").name == "repro.studies.store"
    assert get_logger("studies.store").name == "repro.studies.store"
    assert get_logger(None).name == "repro"
    assert [verbosity_to_level(v) for v in (-1, 0, 1, 2)] == [40, 30, 20, 10]


# -- end-to-end: traced campaigns -----------------------------------------------------


def _expected_corner_count(campaign) -> int:
    powers, vtunes, _ = campaign.sim_grid()
    return len(campaign.variants()) * len(powers) * len(vtunes)


def test_serial_campaign_telemetry_runlog_and_trace(
        technology, obs_campaign, traced, tmp_path):
    corners = _expected_corner_count(obs_campaign)
    cache = ExtractionCache()
    runner = SweepRunner(technology, backend=SerialBackend(), cache=cache)
    recorder = RunLogRecorder(tmp_path / "obs.runlog.jsonl")
    result = runner.run(obs_campaign, observer=recorder)

    # The metrics snapshot agrees with the legacy stat records.
    counters = result.telemetry["metrics"]["counters"]
    assert counters["cache.misses"] == result.cache_misses == 1
    assert counters.get("cache.hits", 0) == result.cache_hits
    assert counters["campaign.task_attempts"] == corners
    assert counters["solver.factorizations"] > 0
    hist = result.telemetry["metrics"]["histograms"]["campaign.corner_seconds"]
    assert hist["count"] == corners

    # Span aggregates: one campaign root, one span per corner, solver spans.
    spans = result.telemetry["spans"]
    assert spans["campaign.run"]["count"] == 1
    assert spans["campaign.corner"]["count"] == corners
    assert spans["flow.run"]["count"] == 1
    assert spans["extract.kron"]["count"] == 1
    assert spans["solver.solve"]["count"] >= corners
    assert spans["sim.setup"]["count"] == corners

    # Telemetry survives the sidecar round trip.
    saved_npz, _meta = result.save(tmp_path / "obs.npz")
    assert type(result).load(saved_npz).telemetry == result.telemetry

    # The run log validates, is fingerprint-stamped, and exports to a
    # schema-clean Perfetto trace.
    events = read_run_log(tmp_path / "obs.runlog.jsonl")
    assert validate_run_log(events, expected_corners=corners) == []
    assert events[0]["fingerprint"] == obs_campaign.fingerprint()
    assert sum(e["event"] == "span" for e in events) >= corners
    trace_path = runlog_to_chrome_trace(tmp_path / "obs.runlog.jsonl")
    payload = json.loads(trace_path.read_text())
    assert validate_trace_events(payload) == []
    assert payload["otherData"]["fingerprint"] == obs_campaign.fingerprint()


def test_pool_worker_spans_reparent_under_campaign_root(
        technology, obs_campaign, traced):
    import os

    corners = _expected_corner_count(obs_campaign)
    runner = SweepRunner(technology,
                         backend=ProcessPoolBackend(max_workers=2),
                         cache=ExtractionCache())
    result = runner.run(obs_campaign)
    assert result.telemetry["spans"]["campaign.corner"]["count"] == corners

    spans = tracer.spans()
    root, = [s for s in spans if s.name == "campaign.run"]
    corner_spans = [s for s in spans if s.name == "campaign.corner"]
    assert len(corner_spans) == corners
    # Worker spans came home and re-parented under the campaign root...
    assert all(s.parent_id == root.span_id for s in corner_spans)
    # ...and really were recorded in other processes.
    assert root.pid == os.getpid()
    assert {s.pid for s in corner_spans}.isdisjoint({root.pid})
    # Nested worker spans hang off their corner, not the root.
    corner_ids = {s.span_id for s in corner_spans}
    setup_spans = [s for s in spans if s.name == "sim.setup"]
    assert len(setup_spans) == corners
    assert all(s.parent_id in corner_ids for s in setup_spans)


def test_sweep_task_fingerprint_ignores_trace_context(technology, obs_campaign):
    from dataclasses import replace as dc_replace

    from repro.studies.cache import fingerprint as content_fingerprint

    variant = obs_campaign.variants()[0]
    task = SweepTask(index=0, variant_index=0, knobs={},
                     technology=technology, spec=variant.spec,
                     options=obs_campaign.options, injected_power_dbm=-10.0,
                     vtune=0.0, noise_frequencies=(1e6,), flow=None,
                     first_point_index=0)
    traced_task = dc_replace(task, trace=TraceContext("trace-x", "parent-y"))
    assert content_fingerprint(task) == content_fingerprint(traced_task)


# -- retry path: on_start notifications ----------------------------------------------


@dataclass(frozen=True)
class _EchoTask:
    index: int

    def corner_label(self) -> str:
        return f"echo task {self.index}"


def _echo(task: _EchoTask) -> int:
    return task.index * 10


def test_pool_on_start_reports_every_attempt(tmp_path, run_tasks):
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("hang", task_index=0, attempts=1,
                                      hang_seconds=60.0),))
    backend = ProcessPoolBackend(max_workers=2, retries=1, task_timeout=1.0,
                                 backoff_base=0.01, backoff_seed=7)
    starts: list[tuple[int, int]] = []
    results = run_tasks(backend, plan.wrap(_echo),
                        [_EchoTask(0), _EchoTask(1)],
                        on_start=lambda item_id, attempt:
                        starts.append((int(item_id), attempt)))
    assert results == [0, 10]
    # The hung corner was started twice (attempt 1 timed out, attempt 2
    # succeeded); the healthy corner exactly once.
    assert (0, 1) in starts and (0, 2) in starts
    assert starts.count((1, 1)) == 1


def test_serial_on_start_counts_attempts(tmp_path, run_tasks):
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=1, attempts=2),))
    backend = SerialBackend(retries=2)
    starts: list[tuple[int, int]] = []
    results = run_tasks(backend, plan.wrap(_echo),
                        [_EchoTask(0), _EchoTask(1)],
                        on_start=lambda item_id, attempt:
                        starts.append((int(item_id), attempt)))
    assert results == [0, 10]
    assert starts == [(0, 1), (1, 1), (1, 2), (1, 3)]
