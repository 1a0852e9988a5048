"""The unified work scheduler.

Covers the `repro.parallel` package end to end:

* the scheduler's flat dispatch: duplicate ids are rejected, and retries
  and failure records work on real worker processes;
* worker-count configuration: the ``REPRO_MAX_WORKERS`` environment
  override and the ``[execution] max_workers`` config key (the retired
  ``workers`` alias is an unknown key), and ``task_timeout``, which only
  the process pool accepts;
* the fingerprint seam: the default solver options keep their pinned
  identity;
* pool hygiene: a timeout recycle kills a stopped worker;
* numerical equivalence: a whole campaign on a 2-worker pool == serial,
  with its extractions in worker processes, every corner in the calling
  process and the same solver counters at any worker count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions, VcoImpactAnalysis
from repro.errors import AnalysisError, CornerFailure
from repro.parallel import (
    MAX_WORKERS_ENV,
    WorkItem,
    WorkScheduler,
    default_max_workers,
)
from repro.obs import tracer
from repro.simulator.linalg import SolverOptions
from repro.studies import (
    Campaign,
    DiskExtractionCache,
    ExtractionCache,
    FaultPlan,
    FaultSpec,
    ParamSpace,
    ProcessPoolBackend,
    SerialBackend,
    SweepRunner,
)
from repro.studies.cache import fingerprint
from repro.studies.runner import ExtractionTask
from repro.substrate.extraction import SubstrateExtractionOptions

TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6))


# -- picklable scheduler payloads ---------------------------------------------


@dataclass(frozen=True)
class _Job:
    value: int

    def corner_label(self) -> str:
        return f"job {self.value}"


def _double(job: _Job) -> int:
    return job.value * 2


def _boom(job: _Job) -> int:
    raise ValueError(f"boom {job.value}")


# -- scheduler: flat dispatch and failure records -----------------------------


def test_scheduler_rejects_duplicate_ids():
    items = [WorkItem(id="a", fn=_double, payload=_Job(1)),
             WorkItem(id="a", fn=_double, payload=_Job(2))]
    with pytest.raises(AnalysisError, match="duplicate work item id 'a'"):
        WorkScheduler(max_workers=1).run(items)


def test_scheduler_propagates_failures_across_processes():
    scheduler = WorkScheduler(max_workers=2, retries=1)
    items = [WorkItem(id="x", fn=_boom, payload=_Job(3)),
             WorkItem(id="ok", fn=_double, payload=_Job(4))]
    outcomes = scheduler.run(items, on_error="retry_then_skip")
    assert outcomes["ok"] == 8
    failure = outcomes["x"]
    assert isinstance(failure, CornerFailure) and failure.attempts == 2
    assert failure.error_type == "ValueError" and "boom 3" in failure.message
    assert scheduler.attempts == {"x": 2, "ok": 1}


# -- worker-count configuration -----------------------------------------------


def test_default_max_workers_env_override(monkeypatch):
    import os

    monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
    assert default_max_workers() == min(4, os.cpu_count() or 1)
    monkeypatch.setenv(MAX_WORKERS_ENV, "7")
    assert default_max_workers() == 7
    assert ProcessPoolBackend().max_workers == 7


@pytest.mark.parametrize("raw, match", [
    ("three", "positive integer"),
    ("0", ">= 1"),
    ("-2", ">= 1"),
])
def test_default_max_workers_rejects_invalid_env(monkeypatch, raw, match):
    monkeypatch.setenv(MAX_WORKERS_ENV, raw)
    with pytest.raises(AnalysisError, match=match):
        default_max_workers()


def test_execution_table_max_workers_key(tmp_path):
    from repro.studies.cli import load_campaign_config

    config = tmp_path / "campaign.toml"
    config.write_text(
        'name = "w"\n'
        "[axes]\nvtune = [0.0]\nnoise_frequency = [1e6]\n"
        '[execution]\nbackend = "process-pool"\nmax_workers = 3\n')
    execution = load_campaign_config(config).execution
    backend = execution.make_backend()
    assert isinstance(backend, ProcessPoolBackend)
    assert backend.max_workers == 3


def test_execution_settings_worker_alias_validation(tmp_path):
    # ``max_workers`` is the one pool-width key; the retired ``workers``
    # alias fails as an unknown [execution] key with the named config error.
    from repro.studies.cli import ExecutionSettings, load_campaign_config

    assert ExecutionSettings(max_workers=5).make_backend().max_workers == 1
    assert ExecutionSettings(backend="process-pool", max_workers=5
                             ).make_backend().max_workers == 5
    with pytest.raises(AnalysisError, match="must be >= 1"):
        ExecutionSettings(max_workers=0)
    # The scheduler itself takes integer counts only: a float width once
    # described itself as "process-pool[2.5]", a string died as TypeError.
    for make in (lambda: WorkScheduler(max_workers=2.5),
                 lambda: WorkScheduler(max_workers="2"),
                 lambda: WorkScheduler(max_workers=True),
                 lambda: WorkScheduler(max_workers=2, retries="1"),
                 lambda: WorkScheduler(max_workers=2, retries=1.0),
                 lambda: WorkScheduler(max_workers=2, retries=False),
                 lambda: SerialBackend(retries="1")):
        with pytest.raises(AnalysisError, match="must be an integer"):
            make()
    # Retired keys: the ``workers`` alias and the worker heartbeat bound.
    for key, value in (("workers", 2), ("heartbeat_seconds", 60.0)):
        with pytest.raises(TypeError, match=key):
            ExecutionSettings(**{key: value})
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({"name": "w", "axes": {"vtune": [0.0]},
                                      "execution": {key: value}}))
        with pytest.raises(AnalysisError,
                           match=rf"unknown key\(s\) \['{key}'\] in \[execution\]"):
            load_campaign_config(config)


def test_task_timeout_needs_the_process_pool(tmp_path, capsys):
    # Corners run inline and nothing runs on a pool with the serial
    # backend, so a task_timeout there would bound nothing: it is an error
    # from the config file and from --task-timeout alike.
    from repro.studies.cli import ExecutionSettings, load_campaign_config, main

    with pytest.raises(AnalysisError, match="task_timeout"):
        ExecutionSettings(task_timeout=5.0)
    # NaN would never trip and turn every wait into a busy spin; inf is
    # "never".
    for bad in (float("nan"), 0.0, -1.0):
        with pytest.raises(AnalysisError,
                           match="task_timeout must be positive"):
            WorkScheduler(max_workers=2, task_timeout=bad)
    scheduler = WorkScheduler(max_workers=2, task_timeout=float("inf"))
    items = [WorkItem(id=f"i{value}", fn=_double, payload=_Job(value))
             for value in range(3)]
    assert scheduler.run(items) == {"i0": 0, "i1": 2, "i2": 4}
    with pytest.raises(AnalysisError, match="backoff_base must be >= 0"):
        WorkScheduler(max_workers=2, backoff_base=float("nan"))
    assert ExecutionSettings(backend="process-pool", task_timeout=5.0
                             ).make_backend().task_timeout == 5.0
    config = tmp_path / "campaign.toml"
    config.write_text('name = "t"\n[axes]\nvtune = [0.0]\n'
                      "[execution]\ntask_timeout = 5.0\n")
    with pytest.raises(AnalysisError, match="task_timeout"):
        load_campaign_config(config)
    config.write_text('name = "t"\n[axes]\nvtune = [0.0]\n')
    assert main(["run", str(config), "--task-timeout", "5"]) == 2
    assert "task_timeout" in capsys.readouterr().err


# -- fingerprint seam ----------------------------------------------------------


def test_ac_mode_validation(tmp_path):
    # The per-frequency fan-out knobs are retired: old configs that set
    # them fail as unknown [solver] keys with a named config error.
    from repro.studies.cli import load_campaign_config

    for key, value in (("ac_workers", 2), ("ac_mode", "process")):
        with pytest.raises(TypeError, match=key):
            SolverOptions(**{key: value})
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"name": "old", "axes": {"vtune": [0.0]},
                                    "solver": {key: value}}))
        with pytest.raises(AnalysisError, match=f"unknown .*{key}"):
            load_campaign_config(path)


def test_default_solver_fingerprint_pinned():
    # The digest SolverOptions() had while it still carried two
    # fingerprint-excluded fan-out fields: removing them keeps every
    # extraction-cache key and campaign resume identity.
    assert fingerprint(SolverOptions()) == (
        "f3f348ad2778784770af766ffa551353674beeda3290f562c657fede65a6760c")


# -- stopped workers and pool-recycle hygiene ---------------------------------


@dataclass(frozen=True)
class _WedgeJob:
    """Scheduler payload the fault plan can target (matches on ``index``)."""

    index: int

    def corner_label(self) -> str:
        return f"wedge job {self.index}"


def _wedge_value(job: _WedgeJob) -> int:
    return job.index + 100


def test_scheduler_task_timeout_kills_a_stopped_worker(tmp_path):
    # A SIGSTOPped worker never errors, never completes and never breaks
    # the pool.  task_timeout is the one bound that catches it: the trip
    # SIGKILLs the stopped worker, recycles the pool and the retry
    # completes.
    plan = FaultPlan(state_dir=str(tmp_path / "stop-state"),
                     specs=(FaultSpec("stop", task_index=0, attempts=1),))
    scheduler = WorkScheduler(max_workers=2, retries=1, task_timeout=3.0,
                              backoff_base=0.01)
    items = [WorkItem(id=f"w{index}", fn=plan.wrap(_wedge_value),
                      payload=_WedgeJob(index))
             for index in range(4)]
    outcomes = scheduler.run(items)
    assert outcomes == {f"w{index}": index + 100 for index in range(4)}
    assert scheduler.attempts["w0"] == 2
    assert scheduler.pool_rebuilds >= 1


# -- batch refill and salvage (a fake pool whose futures finish at once) -----


class _InstantExecutor:
    """Runs each submission at once; ``script`` scripts its failures.

    ``script[(item value, attempt)]`` is ``"broken"`` (the future carries a
    ``BrokenProcessPool``), ``"error"`` (a ``ValueError``) or
    ``"submit-broken"`` (``submit`` itself raises ``BrokenProcessPool``).
    """

    def __init__(self, pool):
        self.pool = pool

    def submit(self, fn, payload):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        pool = self.pool
        attempt = pool.attempts[payload.value] = \
            pool.attempts.get(payload.value, 0) + 1
        action = pool.script.get((payload.value, attempt))
        pool.events.append(f"submit {payload.value}")
        if action == "submit-broken":
            raise BrokenProcessPool("pool broke at submit")
        future = Future()
        if action == "broken":
            future.set_exception(BrokenProcessPool("worker died"))
        elif action == "error":
            future.set_exception(ValueError("transient"))
        else:
            future.set_result(fn(payload))
        return future


class _InstantPool:
    def __init__(self, script):
        self.script = script
        self.attempts: dict[int, int] = {}
        self.events: list[str] = []
        self.recycles = 0

    @property
    def width(self) -> int:
        return 4

    def executor(self, n_workers):
        return _InstantExecutor(self)

    def recycle(self):
        self.recycles += 1


def _instant_scheduler(monkeypatch, script, n_items, max_workers, retries=0):
    """A scheduler on an :class:`_InstantPool` whose ``wait`` hands back
    each batch in submission order, so a failure's place in its batch is
    fixed by the item it scripts."""
    import repro.parallel.scheduler as scheduler_module

    def ordered_wait(pending, timeout=None, return_when=None):
        return list(pending), set()

    monkeypatch.setattr(scheduler_module, "wait", ordered_wait)
    scheduler = WorkScheduler(max_workers=max_workers, retries=retries,
                              backoff_base=0.0)
    pool = _InstantPool(script)
    scheduler._pool = pool
    items = [WorkItem(id=f"i{value}", fn=_double, payload=_Job(value))
             for value in range(n_items)]
    return scheduler, pool, items


def test_scheduler_refills_freed_slots_before_result_callbacks(monkeypatch):
    scheduler, pool, items = _instant_scheduler(monkeypatch, {}, n_items=4,
                                                max_workers=2)
    outcomes = scheduler.run(items, on_result=lambda item_id, value:
                             pool.events.append(f"result {item_id[1:]}"))
    assert outcomes == {f"i{value}": 2 * value for value in range(4)}
    # The first batch (0, 1) frees two slots; 2 and 3 are in flight before
    # the batch's callbacks (journal, run log) run, and never more than
    # two futures at once.
    assert pool.events == ["submit 0", "submit 1", "submit 2", "submit 3",
                           "result 0", "result 1", "result 2", "result 3"]


@pytest.mark.parametrize("bad", [0, 1, 2])
@pytest.mark.parametrize("failure", ["broken", "retry-submit-broken"])
def test_scheduler_settles_every_future_of_a_breaking_batch(monkeypatch, bad,
                                                            failure):
    # One batch of three finished futures; item ``bad`` (first, middle or
    # last in the batch) either carries a BrokenProcessPool or fails and
    # breaks the pool when its retry is submitted.  Every other future of
    # the batch must be settled exactly once, and ``bad`` must complete in
    # the next pool round.
    script = ({(bad, 1): "broken"} if failure == "broken"
              else {(bad, 1): "error", (bad, 2): "submit-broken"})
    scheduler, pool, items = _instant_scheduler(monkeypatch, script,
                                                n_items=3, max_workers=3,
                                                retries=2)
    settled: list[str] = []
    outcomes = scheduler.run(items, on_result=lambda item_id, value:
                             settled.append(item_id))
    assert outcomes == {f"i{value}": 2 * value for value in range(3)}
    assert sorted(settled) == ["i0", "i1", "i2"]
    assert scheduler.attempts[f"i{bad}"] == (2 if failure == "broken" else 3)
    assert scheduler.pool_rebuilds == 1 and pool.recycles == 1


# -- campaign-level equivalence on the pool -----------------------------------


def _layout_campaign() -> Campaign:
    """Two layout variants (two extractions) x one corner each."""
    return Campaign(
        name="parallel_equivalence",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "noise_frequency": (1e6, 4e6)}),
        options=VcoExperimentOptions(vtune_values=(0.0,),
                                     noise_frequencies=(1e6, 4e6),
                                     flow=TINY_MESH))


@dataclass(frozen=True)
class _PidStamped:
    """Picklable extraction wrapper: records the pid each extraction ran in."""

    fn: Any
    directory: str

    def __call__(self, task: ExtractionTask):
        Path(self.directory, f"{task.variant_index}-{os.getpid()}").touch()
        return self.fn(task)


class _PidStampingPool(ProcessPoolBackend):
    """A process pool that stamps the pid of every extraction it runs."""

    def __init__(self, directory: Path, **kwargs):
        super().__init__(**kwargs)
        self.directory = directory

    def run(self, items, **kwargs):
        items = [replace(item, fn=_PidStamped(item.fn, str(self.directory)))
                 if isinstance(item.payload, ExtractionTask) else item
                 for item in items]
        return super().run(items, **kwargs)


def _assert_columns_equal(result, expected) -> None:
    assert set(result.columns) == set(expected.columns)
    for name, column in expected.columns.items():
        np.testing.assert_array_equal(result.columns[name], column, name)


def test_graph_campaign_bit_identical_to_serial(technology, tmp_path):
    campaign = _layout_campaign()
    serial = SweepRunner(
        technology, cache=DiskExtractionCache(tmp_path / "serial"),
    ).run(campaign)

    # Cold cache: the leader's extraction, then the follower's, each a
    # batch of one on the pool; the corners then run here.
    pool_backend = ProcessPoolBackend(max_workers=2)
    cache = DiskExtractionCache(tmp_path / "graph")
    graph = SweepRunner(technology, backend=pool_backend,
                        cache=cache).run(campaign)
    assert not graph.failures
    assert graph.cache_misses == 2 and graph.cache_hits == 0
    _assert_columns_equal(graph, serial)

    # Re-run against the warm cache with a different worker count: every
    # extraction must hit (the worker count is not part of any key).
    warm = SweepRunner(technology, backend=ProcessPoolBackend(max_workers=3),
                       cache=cache).run(campaign)
    assert warm.cache_misses == 0 and warm.cache_hits == 2
    _assert_columns_equal(warm, serial)

    # Two distinct substrates, cold: two independent extractions, which
    # run in pool workers, while every corner runs in this process, its
    # span directly under the campaign root.
    campaign = Campaign(
        name="two_substrates",
        space=ParamSpace({"mesh_nx": (12, 14), "vtune": (0.0, 0.75),
                          "noise_frequency": (1e6, 4e6)}),
        options=VcoExperimentOptions(noise_frequencies=(1e6, 4e6),
                                     flow=TINY_MESH))
    serial = SweepRunner(
        technology, cache=DiskExtractionCache(tmp_path / "serial"),
    ).run(campaign)

    stamps = tmp_path / "pids"
    stamps.mkdir()
    tracer.reset()
    tracer.enable()
    try:
        pooled = SweepRunner(
            technology, backend=_PidStampingPool(stamps, max_workers=2),
            cache=DiskExtractionCache(tmp_path / "pool")).run(campaign)
        spans = tracer.spans()
    finally:
        tracer.disable()
        tracer.reset()
    assert not pooled.failures
    assert pooled.cache_misses == 2
    assert pooled.telemetry["metrics"]["counters"].get(
        "extraction.substrate_reuses", 0) == 0
    _assert_columns_equal(pooled, serial)

    extraction_pids = {int(path.name.split("-")[1])
                       for path in stamps.iterdir()}
    assert sorted(path.name.split("-")[0] for path in stamps.iterdir()) \
        == ["0", "1"]
    assert os.getpid() not in extraction_pids

    root, = [span for span in spans if span.name == "campaign.run"]
    corners = [span for span in spans if span.name == "campaign.corner"]
    assert len(corners) == 4
    assert {span.pid for span in corners} == {root.pid} == {os.getpid()}
    assert all(span.parent_id == root.span_id for span in corners)


def test_solver_counters_do_not_depend_on_the_worker_count(technology,
                                                           vco_analysis):
    """Each process solves its own reference operating point, uncounted:
    the campaign counts exactly the transfer solves and the corners' own
    Newton iterations, serially and on two workers alike."""
    flow = replace(vco_analysis.flow)   # no reference solved for it yet
    vtunes = (0.0, 0.4, 1.1, 1.5)
    frequencies = (1e6, 3e6, 9e6)
    campaign = vco_analysis.spur_campaign(vtunes, frequencies)
    cache = ExtractionCache()
    cache.seed(flow, options=vco_analysis.options.flow)
    counters = []
    for backend in (SerialBackend(), ProcessPoolBackend(max_workers=2)):
        sweep = SweepRunner(technology, backend=backend,
                            cache=cache).run(campaign)
        assert not sweep.failures
        counters.append(sweep.telemetry["metrics"]["counters"])
    serial, pooled = counters
    for name in ("solver.factorizations", "solver.solves"):
        assert serial.get(name, 0) == pooled.get(name, 0), name
    assert serial["solver.solves"] > 0

    analysis = VcoImpactAnalysis(technology, options=vco_analysis.options,
                                 flow_result=flow)
    iterations = 0
    for vtune in vtunes:
        corner, = analysis.analyze_corners([vtune], np.asarray(frequencies))
        iterations += corner.operating_point.iterations
    assert iterations <= 2 * len(vtunes)
    # Every corner is reached from its stack's base factorizations, which
    # count no work: one solve per point and no factorization.
    transfer_solves = len(vtunes) * len(frequencies)
    assert serial.get("solver.factorizations", 0) == 0
    assert serial["solver.solves"] == transfer_solves + iterations


def test_graph_campaign_reports_extraction_failure_per_corner(
        technology, tmp_path, monkeypatch):
    import repro.studies.runner as runner_module

    campaign = _layout_campaign()

    def sabotage(task):
        raise RuntimeError("substrate mesher exploded")

    monkeypatch.setattr(runner_module, "_execute_extraction", sabotage)
    # Single worker => the inline path; the monkeypatched module
    # global is visible because nothing needs to cross a process boundary.
    runner = SweepRunner(technology, backend=ProcessPoolBackend(max_workers=1),
                         cache=DiskExtractionCache(tmp_path / "cache"),
                         on_error="skip")
    result = runner.run(campaign)
    assert len(result.failures) == 2          # one per corner, none ran
    for failure in result.failures:
        assert failure.error_type == "RuntimeError"
        assert "extraction of variant" in failure.corner_label
        assert failure.variant_index >= 0
    assert not result.records
