"""The unified work scheduler and its shared-memory data plane.

Covers the `repro.parallel` package end to end:

* plan validation (duplicate ids, unknown deps, cycles) and the scheduler's
  dependency/priority dispatch, dependency-failure propagation and retries —
  inline and on real worker processes;
* the zero-copy arena / shipped-object plane, including the inline fallback;
* worker-count configuration: the ``REPRO_MAX_WORKERS`` environment
  override and the ``[execution] max_workers`` config key;
* the fingerprint seam: parallelism knobs (worker counts, flow transport)
  must never invalidate the extraction cache, and the default solver
  options keep their pinned identity;
* pool hygiene: a timeout recycle kills workers holding shipped flows and
  leaks no shared-memory segment;
* numerical equivalence: a whole campaign on the graph scheduler == serial.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np
import pytest

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions
from repro.errors import AnalysisError
from repro.parallel import (
    MAX_WORKERS_ENV,
    SharedArena,
    WorkItem,
    WorkScheduler,
    attach_arena,
    default_max_workers,
    load_object,
    ship_object,
    validate_plan,
)
from repro.parallel.plan import TaskFailure
from repro.parallel.shm import InlineArena, InlineObjectRef, ObjectRef, ObjectShipper
from repro.simulator.linalg import SolverOptions
from repro.studies import (
    Campaign,
    DiskExtractionCache,
    FaultPlan,
    FaultSpec,
    ParamSpace,
    ProcessPoolBackend,
    SweepRunner,
)
from repro.studies.cache import fingerprint
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


def _add_jobs(job: _Job) -> int:
    return job.value


# -- plan validation ----------------------------------------------------------


def test_validate_plan_returns_topological_order():
    items = [WorkItem(id="c", fn=_double, payload=_Job(3), deps=("a", "b")),
             WorkItem(id="a", fn=_double, payload=_Job(1)),
             WorkItem(id="b", fn=_double, payload=_Job(2), deps=("a",))]
    order = validate_plan(items)
    assert order.index("a") < order.index("b") < order.index("c")


def test_validate_plan_rejects_duplicate_ids():
    items = [WorkItem(id="a", fn=_double, payload=_Job(1)),
             WorkItem(id="a", fn=_double, payload=_Job(2))]
    with pytest.raises(AnalysisError, match="duplicate work item id"):
        validate_plan(items)


def test_validate_plan_rejects_unknown_dependency():
    with pytest.raises(AnalysisError, match="unknown item"):
        validate_plan([WorkItem(id="a", fn=_double, payload=_Job(1),
                                deps=("ghost",))])


def test_validate_plan_rejects_cycles():
    items = [WorkItem(id="a", fn=_double, payload=_Job(1), deps=("b",)),
             WorkItem(id="b", fn=_double, payload=_Job(2), deps=("a",))]
    with pytest.raises(AnalysisError, match="dependency cycle"):
        validate_plan(items)


# -- scheduler: dispatch, binding, failure propagation ------------------------


def test_scheduler_binds_dependency_results_inline():
    # Single worker => the in-process path; bind folds the dep's result in.
    started: list[str] = []
    scheduler = WorkScheduler(max_workers=1)
    items = [
        WorkItem(id="x", fn=_double, payload=_Job(21)),
        WorkItem(id="c", fn=_add_jobs, payload=_Job(0), deps=("x",),
                 priority=1,
                 bind=lambda payload, deps: replace(payload,
                                                    value=deps["x"] + 1)),
    ]
    outcomes = scheduler.run(items,
                             on_start=lambda i, a: started.append(i))
    assert outcomes == {"x": 42, "c": 43}
    assert started == ["x", "c"]
    assert scheduler.attempts == {"x": 1, "c": 1}


def test_scheduler_priority_orders_ready_items():
    order: list[str] = []
    scheduler = WorkScheduler(max_workers=1)
    items = [WorkItem(id="late", fn=_double, payload=_Job(1), priority=5),
             WorkItem(id="early", fn=_double, payload=_Job(2), priority=0),
             WorkItem(id="mid", fn=_double, payload=_Job(3), priority=2)]
    scheduler.run(items, on_start=lambda i, a: order.append(i))
    assert order == ["early", "mid", "late"]


def test_scheduler_dooms_dependents_with_root_failure():
    scheduler = WorkScheduler(max_workers=1)
    items = [WorkItem(id="x", fn=_boom, payload=_Job(7)),
             WorkItem(id="c1", fn=_double, payload=_Job(1), deps=("x",)),
             WorkItem(id="c2", fn=_double, payload=_Job(2), deps=("c1",))]
    outcomes = scheduler.run(items, on_error="skip")
    root = outcomes["x"]
    assert isinstance(root, TaskFailure)
    assert root.error_type == "ValueError" and "boom 7" in root.message
    # Dependents inherit the ROOT failure object verbatim, attempts unspent.
    assert outcomes["c1"] is root and outcomes["c2"] is root
    assert scheduler.attempts == {"x": 1, "c1": 0, "c2": 0}


def test_scheduler_runs_dag_on_worker_processes():
    scheduler = WorkScheduler(max_workers=2)
    items = [WorkItem(id=f"j{i}", fn=_double, payload=_Job(i))
             for i in range(5)]
    items.append(WorkItem(
        id="sum", fn=_add_jobs, payload=_Job(0),
        deps=tuple(f"j{i}" for i in range(5)),
        bind=lambda payload, deps: replace(payload,
                                           value=sum(deps.values()))))
    outcomes = scheduler.run(items)
    assert outcomes["sum"] == sum(2 * i for i in range(5))


def test_scheduler_propagates_failures_across_processes():
    scheduler = WorkScheduler(max_workers=2, retries=1)
    items = [WorkItem(id="x", fn=_boom, payload=_Job(3)),
             WorkItem(id="ok", fn=_double, payload=_Job(4)),
             WorkItem(id="c", fn=_double, payload=_Job(5), deps=("x",))]
    outcomes = scheduler.run(items, on_error="retry_then_skip")
    assert outcomes["ok"] == 8
    failure = outcomes["x"]
    assert isinstance(failure, TaskFailure) and failure.attempts == 2
    assert outcomes["c"] is failure
    assert scheduler.attempts["c"] == 0


# -- shared-memory data plane -------------------------------------------------


def test_arena_roundtrip_and_output_views():
    g = np.arange(6, dtype=float)
    out = np.zeros((2, 3), dtype=complex)
    arena = SharedArena.create({"g": g, "out": out})
    try:
        views = attach_arena(arena.handle)
        np.testing.assert_array_equal(views["g"], g)
        if arena.shared:
            # Writes through an attached view land in the parent's view.
            views["out"][1] = 1.0 + 2.0j
            np.testing.assert_array_equal(arena.view("out")[1],
                                          np.full(3, 1.0 + 2.0j))
        with pytest.raises(AnalysisError, match="no field named"):
            arena.view("missing")
    finally:
        arena.dispose()


def test_arena_inline_fallback(monkeypatch):
    import repro.parallel.shm as shm

    monkeypatch.setattr(shm, "_shared_memory", None)
    arena = SharedArena.create({"g": np.ones(3)})
    assert isinstance(arena, InlineArena) and not arena.shared
    views = attach_arena(arena.handle)
    np.testing.assert_array_equal(views["g"], np.ones(3))
    arena.dispose()


def test_ship_object_roundtrip_and_shipper_memoization():
    payload = {"flow": np.linspace(0.0, 1.0, 7), "label": "variant-0"}
    ref, arena = ship_object(payload)
    try:
        loaded = load_object(ref)
        assert loaded["label"] == "variant-0"
        np.testing.assert_array_equal(loaded["flow"], payload["flow"])
    finally:
        if arena is not None:
            arena.dispose()
    shipper = ObjectShipper()
    try:
        first = shipper.ref_for("key", payload)
        assert shipper.ref_for("key", payload) is first
    finally:
        shipper.close()


def test_inline_object_ref_roundtrip(monkeypatch):
    import repro.parallel.shm as shm

    monkeypatch.setattr(shm, "_shared_memory", None)
    ref, arena = ship_object([1, 2, 3])
    assert isinstance(ref, InlineObjectRef) and arena is None
    assert load_object(ref) == [1, 2, 3]


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


def test_execution_settings_worker_alias_validation():
    from repro.studies.cli import ExecutionSettings

    assert ExecutionSettings(workers=2, max_workers=2).effective_workers() == 2
    assert ExecutionSettings(max_workers=5).effective_workers() == 5
    with pytest.raises(AnalysisError, match="aliases"):
        ExecutionSettings(workers=2, max_workers=3)
    with pytest.raises(AnalysisError, match="must be >= 1"):
        ExecutionSettings(max_workers=0)


# -- fingerprint seam: parallelism never invalidates the cache ----------------


def test_sweep_task_fingerprint_ignores_flow_transport(technology):
    from repro.studies.runner import SweepTask

    campaign = _layout_campaign()
    variant = campaign.variants()[0]
    task = SweepTask(index=0, variant_index=0, knobs={},
                     technology=technology, spec=variant.spec,
                     options=campaign.options, injected_power_dbm=-10.0,
                     vtune=0.0, noise_frequencies=(1e6,), flow=None,
                     first_point_index=0)
    assert "flow_ref" in SweepTask.__fingerprint_exclude__
    shipped = replace(task, flow_ref=InlineObjectRef(payload=b"flow-bytes"))
    assert fingerprint(task) == fingerprint(shipped)


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


# -- worker heartbeats and pool-recycle hygiene -------------------------------


@dataclass(frozen=True)
class _WedgeJob:
    """Scheduler payload the fault plan can target (matches on ``index``)."""

    index: int

    def corner_label(self) -> str:
        return f"wedge job {self.index}"


def _wedge_value(job: _WedgeJob) -> int:
    return job.index + 100


def test_scheduler_heartbeat_detects_silently_wedged_worker(tmp_path):
    # A SIGSTOPped worker never errors, never completes and never breaks
    # the pool: only the heartbeat monitor can notice it before the
    # wall-clock task_timeout (set far too high to be the thing that saves
    # this test).  The trip SIGKILLs the frozen worker, recycles the pool
    # and the retry completes.
    plan = FaultPlan(state_dir=str(tmp_path / "stop-state"),
                     specs=(FaultSpec("stop", task_index=0, attempts=1),))
    scheduler = WorkScheduler(max_workers=2, retries=1, task_timeout=300.0,
                              heartbeat_timeout=1.0, backoff_base=0.01)
    items = [WorkItem(id=f"w{index}", fn=plan.wrap(_wedge_value),
                      payload=_WedgeJob(index))
             for index in range(4)]
    start = time.monotonic()
    outcomes = scheduler.run(items)
    elapsed = time.monotonic() - start
    assert outcomes == {f"w{index}": index + 100 for index in range(4)}
    assert scheduler.heartbeat_trips >= 1
    assert scheduler.attempts["w0"] == 2
    assert elapsed < 120.0                       # long before task_timeout


@dataclass(frozen=True)
class _FlowJob:
    """Scheduler payload carrying a shipped flow (the plan matches ``index``)."""

    index: int
    flow_ref: Any
    plan: FaultPlan

    def corner_label(self) -> str:
        return f"flow job {self.index}"


def _hold_flow(job: _FlowJob) -> int:
    """Map the shipped flow, then run the plan's faults while holding it."""
    flow = load_object(job.flow_ref)
    job.plan.inject(job)
    return job.index + len(flow.substrate.ports)


def test_timeout_recycle_with_shipped_flows_in_flight_leaks_no_shm(
        vco_flow, tmp_path):
    # A scheduler timeout trip SIGKILLs a worker that has mapped an
    # ObjectShipper-shipped flow; the retry completes, and once the
    # shipper closes no shared-memory segment is left behind.
    shm_root = Path("/dev/shm")
    if not shm_root.is_dir():
        pytest.skip("no /dev/shm on this platform")
    before = set(os.listdir(shm_root))

    # Job 0 hangs in its worker, after mapping the flow, until the
    # scheduler's timeout recycle kills it; its retry runs clean.
    plan = FaultPlan(state_dir=str(tmp_path / "hang-state"),
                     specs=(FaultSpec("hang", task_index=0, attempts=1,
                                      hang_seconds=120.0),))
    shipper = ObjectShipper()
    try:
        ref = shipper.ref_for("flow", vco_flow)
        if not isinstance(ref, ObjectRef):
            pytest.skip("shared memory unavailable")
        scheduler = WorkScheduler(max_workers=2, retries=1, task_timeout=3.0,
                                  backoff_base=0.01)
        # Two items so the scheduler takes the pool path (one runs inline).
        items = [WorkItem(id=item_id, fn=_hold_flow,
                          payload=_FlowJob(index, ref, plan))
                 for index, item_id in enumerate(("h", "q"))]
        run: dict = {}

        def drive() -> None:
            try:
                run["outcomes"] = scheduler.run(items)
            except Exception as exc:              # re-raised below
                run["error"] = exc

        thread = threading.Thread(target=drive)
        thread.start()
        # The hang's attempt marker is written after the worker mapped the
        # flow: from here on a worker holds the live segment.
        marker = Path(plan.state_dir) / "spec00.attempt0001"
        deadline = time.monotonic() + 60.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert marker.exists()
        assert ref.handle.name in os.listdir(shm_root)
        thread.join(timeout=300.0)
        assert not thread.is_alive()
    finally:
        shipper.close()
    if "error" in run:
        raise run["error"]

    ports = len(vco_flow.substrate.ports)
    assert run["outcomes"] == {"h": ports, "q": 1 + ports}
    assert scheduler.pool_rebuilds == 1
    assert scheduler.attempts == {"h": 2, "q": 1}
    leaked = {name for name in set(os.listdir(shm_root)) - before
              if name.startswith("psm_")}
    assert not leaked


# -- campaign-level equivalence on the graph scheduler ------------------------


def _layout_campaign() -> Campaign:
    """Two layout variants (two extractions) x one corner each."""
    return Campaign(
        name="parallel_equivalence",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "noise_frequency": (1e6, 4e6)}),
        options=VcoExperimentOptions(vtune_values=(0.0,),
                                     noise_frequencies=(1e6, 4e6),
                                     flow=TINY_MESH))


def test_graph_campaign_bit_identical_to_serial(technology, tmp_path):
    campaign = _layout_campaign()
    serial = SweepRunner(
        technology, cache=DiskExtractionCache(tmp_path / "serial"),
    ).run(campaign)

    # Cold cache: extractions run as plan items, corners depend on them and
    # receive the flow through shared memory.
    pool_backend = ProcessPoolBackend(max_workers=2)
    cache = DiskExtractionCache(tmp_path / "graph")
    graph = SweepRunner(technology, backend=pool_backend,
                        cache=cache).run(campaign)
    assert not graph.failures
    assert graph.cache_misses == 2 and graph.cache_hits == 0
    np.testing.assert_array_equal(graph.column("spur_power_dbm"),
                                  serial.column("spur_power_dbm"))

    # Re-run against the warm cache with a different worker count: every
    # extraction must hit (parallelism knobs are fingerprint-excluded).
    warm = SweepRunner(technology, backend=ProcessPoolBackend(max_workers=3),
                       cache=cache).run(campaign)
    assert warm.cache_misses == 0 and warm.cache_hits == 2
    np.testing.assert_array_equal(warm.column("spur_power_dbm"),
                                  serial.column("spur_power_dbm"))


def test_graph_campaign_reports_extraction_failure_per_corner(
        technology, tmp_path, monkeypatch):
    import repro.studies.runner as runner_module

    campaign = _layout_campaign()

    def sabotage(task):
        raise RuntimeError("substrate mesher exploded")

    monkeypatch.setattr(runner_module, "_execute_extraction", sabotage)
    # Single worker => the inline graph path; the monkeypatched module
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
