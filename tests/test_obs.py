"""Tests of the unified observability layer (:mod:`repro.obs`).

Covers the acceptance properties of the subsystem:

* hierarchical span nesting, the disabled-tracer no-op fast path, and the
  pool's timeout/retry path's ``on_start`` notifications,
* a campaign's ``telemetry["metrics"]`` keeps the schema perfbench, CI
  and ``show --timings`` read (counter keys, no gauges, the corner-time
  histogram), agrees with the stat records it is built from
  (``SolverStats``, cache hits/misses, degradation counts), and its retry
  counters read the same at one and two workers,
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
    RunLogRecorder,
    SpanRecord,
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


def _divider_grid(size):
    """A size x size resistor grid fed by a 1 V source."""
    from repro.netlist import Circuit

    circuit = Circuit("grid")
    circuit.add_voltage_source("V1", "n_0_0", "0", 1.0)
    for i in range(size):
        for j in range(size):
            node = f"n_{i}_{j}"
            circuit.add_resistor(f"Rg_{i}_{j}", node, "0", 1e3)
            if i + 1 < size:
                circuit.add_resistor(f"Rx_{i}_{j}", node, f"n_{i + 1}_{j}",
                                     100.0)
    return circuit


def test_dc_and_factorize_spans_name_strategy_and_kernel(traced):
    """``sim.dc`` carries the Newton iterations and winning strategy; every
    ``solver.factorize`` under it names its kernel and system size."""
    from repro.netlist import Circuit
    from repro.simulator import DcOptions, dc_operating_point
    from repro.simulator.solver import DENSE_MAX_SIZE
    from repro.technology import make_technology

    # Cross-coupled NMOS latch: too few iterations for cold plain Newton.
    latch = Circuit("latch")
    nmos = make_technology().mos_parameters("nmos_rf")
    latch.add_voltage_source("VDD", "vdd", "0", 1.8)
    latch.add_resistor("R1", "vdd", "a", 5e3)
    latch.add_resistor("R2", "vdd", "b", 5e3)
    latch.add_mosfet("M1", "a", "b", "0", "0", nmos, width=20e-6,
                     length=0.18e-6)
    latch.add_mosfet("M2", "b", "a", "0", "0", nmos, width=20e-6,
                     length=0.18e-6)
    cases = [(_divider_grid(2), DcOptions(), "newton", "lapack"),
             (latch, DcOptions(max_iterations=5, gmin_steps=10),
              "gmin-stepping", "lapack"),
             (_divider_grid(10), DcOptions(), "newton", "superlu")]
    for circuit, options, strategy, kernel in cases:
        tracer.reset()
        solution = dc_operating_point(circuit, options)
        size = solution.structure.size
        assert (size <= DENSE_MAX_SIZE) == (kernel == "lapack")
        dc, = [span for span in tracer.spans() if span.name == "sim.dc"]
        assert dict(dc.attrs) == {"size": size, "strategy": strategy,
                                  "iterations": solution.iterations,
                                  "corners": 1}
        factorizations = [span for span in tracer.spans()
                          if span.name == "solver.factorize"]
        assert len(factorizations) >= solution.iterations
        for span in factorizations:
            assert dict(span.attrs) == {"kernel": kernel, "n": size}
            assert span.parent_id == dc.span_id


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


# -- campaign metrics -----------------------------------------------------------------


def test_telemetry_counters_follow_the_stat_records(technology):
    # The counters are the run's deltas of the records they come from, with
    # zero values left out and degradations labelled by kind.
    runner = SweepRunner(technology, backend=SerialBackend())
    spent = SolverStats(factorizations=7, solves=22, fallbacks=5)
    metrics = runner._build_telemetry(
        spent=spent, cache_hits=3, cache_misses=0,
        degradations={"fallbacks": 5, "dc_gmin_steps": 0}, successes=[],
        attempts=[1, 2, 0], pool_rebuilds=0,
        substrate_reuses=0)["metrics"]
    assert metrics == {
        "counters": {"cache.hits": 3,
                     "campaign.retries": 1,
                     "campaign.task_attempts": 3,
                     "solver.degradations{kind=fallbacks}": 5,
                     "solver.factorizations": 7,
                     "solver.fallbacks": 5,
                     "solver.solves": 22},
        "gauges": {},
        "histograms": {}}
    assert list(metrics["counters"]) == sorted(metrics["counters"])


@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_metrics_schema(technology, obs_campaign, workers):
    # The exact schema perfbench's tracing, the CI parallel-smoke step,
    # ``show --timings`` and saved sidecars read, at one and two workers.
    backend = SerialBackend() if workers == 1 \
        else ProcessPoolBackend(max_workers=workers)
    result = SweepRunner(technology, backend=backend,
                         cache=ExtractionCache()).run(obs_campaign)
    metrics = result.telemetry["metrics"]
    corners = _expected_corner_count(obs_campaign)
    assert set(metrics) == {"counters", "gauges", "histograms"}
    assert set(metrics["counters"]) == {
        "cache.misses", "campaign.task_attempts", "solver.factorizations",
        "solver.solves"}
    assert metrics["counters"]["cache.misses"] == 1
    assert metrics["counters"]["campaign.task_attempts"] == corners
    assert metrics["gauges"] == {}
    assert set(metrics["histograms"]) == {"campaign.corner_seconds"}
    hist = metrics["histograms"]["campaign.corner_seconds"]
    assert set(hist) == {"count", "sum", "min", "max", "mean"}
    assert hist["count"] == corners
    assert 0.0 < hist["min"] <= hist["mean"] <= hist["max"] <= hist["sum"]
    assert hist["mean"] == pytest.approx(hist["sum"] / corners)


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
    points: int = 0
    seconds: float = 0.5
    degradations: tuple = ()


@dataclass
class _FakeResult:
    failures: list = field(default_factory=list)
    wall_seconds: float = 1.0
    cache_hits: int = 0
    cache_misses: int = 0

    def __len__(self) -> int:
        return 0

    def corners(self) -> frozenset:
        return frozenset()


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


def _expected_stack_count(campaign) -> int:
    """Corner stacks: the V_tune corners of one variant and power are
    analysed together."""
    powers, _, _ = campaign.sim_grid()
    return len(campaign.variants()) * len(powers)


def test_serial_campaign_telemetry_runlog_and_trace(
        technology, obs_campaign, traced, tmp_path):
    corners = _expected_corner_count(obs_campaign)
    stacks = _expected_stack_count(obs_campaign)
    assert stacks < corners
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
    assert spans["solver.solve"]["count"] >= stacks
    assert spans["sim.setup"]["count"] == stacks

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
    # The hung task was started twice (attempt 1 timed out, attempt 2
    # succeeded); the healthy task exactly once.
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
