"""Fault-injection suite: the campaign engine under deliberate sabotage.

Drives every recovery path of the sweep engine with the deterministic
:class:`~repro.studies.faults.FaultPlan` harness instead of flaky real-world
failures:

* a hung task trips ``task_timeout``, its worker is killed, the task retried
  and the campaign completes with results identical to a healthy run;
* ``on_error="skip"`` / ``"retry_then_skip"`` yield partial results whose
  failed corners are structured records that ``show`` lists and ``resume``
  re-runs;
* a campaign killed outright (``os._exit`` mid-run, the moral equivalent of
  ``kill -9``) resumes from its crash journal with zero lost corners and a
  byte-identical NPZ;
* a DC corner that plain Newton cannot crack converges through the
  gmin/source-stepping continuation ladder with the degradation recorded;
* concurrent writers and pruners cannot corrupt the disk extraction cache.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions
from repro.errors import (
    AnalysisError,
    CampaignError,
    ConvergenceError,
    CornerFailure,
)
from repro.netlist.circuit import Circuit
from repro.simulator import solver as solver_module
from repro.simulator.dc import DcOptions, dc_operating_point
from repro.studies import (
    Campaign,
    CampaignJournal,
    CheckpointPolicy,
    DiskExtractionCache,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ParamSpace,
    ProcessPoolBackend,
    SerialBackend,
    SweepResult,
    SweepRunner,
    SweepTask,
    TaskFailure,
)
from repro.studies.cli import main
from repro.studies.runner import ExtractionTask
from repro.substrate.extraction import SubstrateExtractionOptions
from repro.technology import make_technology

TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6))


def make_ft_campaign() -> Campaign:
    """The 2-corner campaign of this suite (also built by the kill child)."""
    return Campaign(
        name="fault_tolerance",
        space=ParamSpace({"vtune": (0.0, 0.75),
                          "noise_frequency": (1e6, 4e6)}),
        options=VcoExperimentOptions(vtune_values=(0.0,),
                                     noise_frequencies=(1e6, 4e6),
                                     flow=TINY_MESH))


@pytest.fixture(scope="module")
def ft_campaign():
    return make_ft_campaign()


@pytest.fixture(scope="module")
def reference(technology, ft_campaign, tmp_path_factory):
    """One healthy run (plus its warm disk cache) to compare everything to."""
    cache_dir = tmp_path_factory.mktemp("ftcache")
    runner = SweepRunner(technology, cache=DiskExtractionCache(cache_dir))
    return runner.run(ft_campaign), cache_dir


# -- fault harness plumbing (cheap echo tasks, no simulation) -----------------


@dataclass(frozen=True)
class _EchoTask:
    index: int

    def corner_label(self) -> str:
        return f"echo task {self.index}"


def _echo(task: _EchoTask) -> int:
    return task.index * 10


def _interrupt(task: _EchoTask) -> int:
    raise KeyboardInterrupt


def test_fault_plan_counts_attempts_across_processes(tmp_path):
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=0, attempts=2),))
    wrapped = plan.wrap(_echo)
    # Re-pickling between attempts models fresh worker processes: the
    # attempt counter must live on disk, not in the plan object.
    for _ in range(2):
        wrapped = pickle.loads(pickle.dumps(wrapped))
        with pytest.raises(InjectedFault):
            wrapped(_EchoTask(0))
    assert wrapped(_EchoTask(0)) == 0          # third attempt passes
    assert wrapped(_EchoTask(1)) == 10         # other tasks never faulted
    assert plan.attempts_seen(0) == 3


def test_serial_backend_retries_through_injected_faults(tmp_path, run_tasks):
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=1, attempts=2),))
    backend = SerialBackend(retries=2)
    results = run_tasks(backend, plan.wrap(_echo), [_EchoTask(0), _EchoTask(1)])
    assert results == [0, 10]
    assert [backend.attempts["0"], backend.attempts["1"]] == [1, 3]


@pytest.mark.parametrize("workers", [1, 2])
def test_keyboard_interrupt_is_never_swallowed(tmp_path, workers, run_tasks):
    # Whatever the policy and retry budget, a Ctrl-C must stop the campaign
    # — on the serial path, the single-worker in-process path and the pool.
    backend = ProcessPoolBackend(max_workers=workers, retries=3) \
        if workers > 1 else SerialBackend(retries=3)
    with pytest.raises(KeyboardInterrupt):
        run_tasks(backend, _interrupt, [_EchoTask(0)], on_error="skip")


# -- timeouts and backoff ------------------------------------------------------


def _hang_plan(tmp_path, attempts: int) -> FaultPlan:
    return FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("hang", task_index=0, attempts=attempts,
                                      hang_seconds=60.0),))


def test_hung_task_trips_timeout_and_retry_completes(tmp_path, run_tasks):
    plan = _hang_plan(tmp_path, attempts=1)
    backend = ProcessPoolBackend(max_workers=2, retries=1, task_timeout=1.0,
                                 backoff_base=0.01, backoff_seed=7)
    start = time.monotonic()
    results = run_tasks(backend, plan.wrap(_echo), [_EchoTask(0), _EchoTask(1)])
    assert results == [0, 10]
    assert backend.attempts["0"] == 2          # first attempt hung
    assert backend.pool_rebuilds >= 1          # the hung pool was recycled
    assert time.monotonic() - start < 30.0     # detected, not waited out


def test_permanently_hung_task_aborts_with_timeout_failure(tmp_path,
                                                           run_tasks):
    plan = _hang_plan(tmp_path, attempts=5)
    backend = ProcessPoolBackend(max_workers=2, retries=0, task_timeout=1.0,
                                 backoff_base=0.01)
    with pytest.raises(CampaignError) as excinfo:
        run_tasks(backend, plan.wrap(_echo), [_EchoTask(0), _EchoTask(1)])
    [failure] = [f for f in excinfo.value.failures if f.timed_out]
    assert "echo task 0" in failure.label
    assert isinstance(excinfo.value, AnalysisError)   # hierarchy holds
    assert isinstance(excinfo.value.__cause__, TimeoutError)


def test_skip_policy_records_timeout_and_keeps_going(tmp_path, run_tasks):
    plan = _hang_plan(tmp_path, attempts=5)
    backend = ProcessPoolBackend(max_workers=2, retries=2, task_timeout=1.0,
                                 backoff_base=0.01)
    results = run_tasks(backend, plan.wrap(_echo),
                        [_EchoTask(0), _EchoTask(1), _EchoTask(2)],
                        on_error="skip")
    assert results[1:] == [10, 20]
    failure = results[0]
    assert isinstance(failure, TaskFailure) and failure.timed_out
    assert failure.attempts == 1               # skip = single attempt


def test_worker_killing_fault_breaks_pool_and_is_retried(tmp_path, run_tasks):
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("exit", task_index=0, attempts=1),))
    backend = ProcessPoolBackend(max_workers=2, retries=1, backoff_base=0.01)
    results = run_tasks(backend, plan.wrap(_echo), [_EchoTask(0), _EchoTask(1)])
    assert results == [0, 10]
    assert backend.attempts["0"] == 2
    assert backend.pool_rebuilds >= 1


# -- acceptance (a): a hung campaign corner completes identically -------------


def test_campaign_survives_hung_corner(technology, ft_campaign, reference):
    healthy, cache_dir = reference
    plan = FaultPlan(state_dir=str(cache_dir / "hang-state"),
                     specs=(FaultSpec("hang", task_index=0, attempts=1,
                                      hang_seconds=120.0),))
    backend = ProcessPoolBackend(max_workers=2, retries=1, task_timeout=8.0,
                                 backoff_base=0.01)
    runner = SweepRunner(technology, backend=backend,
                         cache=DiskExtractionCache(cache_dir),
                         fault_plan=plan)
    result = runner.run(ft_campaign)
    assert not result.failures
    assert backend.attempts["c0"] == 2
    counters = result.telemetry["metrics"]["counters"]
    assert counters["campaign.retries"] >= 1
    assert counters["campaign.pool_rebuilds"] >= 1
    np.testing.assert_array_equal(result.column("spur_power_dbm"),
                                  healthy.column("spur_power_dbm"))


# -- acceptance (b): skip policy -> partial result -> show -> resume ----------


def test_skip_policy_partial_result_show_and_resume(
        technology, ft_campaign, reference, tmp_path, capsys):
    healthy, cache_dir = reference
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=0, attempts=99,
                                      message="injected corner failure"),))
    runner = SweepRunner(technology, backend=SerialBackend(retries=1),
                         cache=DiskExtractionCache(cache_dir),
                         fault_plan=plan, on_error="retry_then_skip")
    partial = runner.run(ft_campaign)

    assert len(partial.records) == 2           # the healthy corner's points
    [failure] = partial.failures
    assert failure.error_type == "InjectedFault"
    assert failure.attempts == 2               # retry budget was spent first
    assert failure.vtune == 0.0 and failure.variant_index == 0
    assert not partial.complete
    [(variant, _power, vtune)] = partial.failed_corners()
    assert (variant, vtune) == (0, 0.0)

    npz_path, _meta = partial.save(tmp_path / "partial.npz")
    loaded = SweepResult.load(npz_path)
    assert [f.corner_label for f in loaded.failures] \
        == [failure.corner_label]

    # ``show`` surfaces the failed corner.
    assert main(["show", str(npz_path)]) == 0
    shown = capsys.readouterr().out
    assert "failures   : 1 corner(s) incomplete" in shown
    assert "InjectedFault" in shown

    # ``resume`` re-runs exactly the failed corner and completes the result.
    resumed = SweepRunner(technology,
                          cache=DiskExtractionCache(cache_dir)).run(
        ft_campaign, resume_from=loaded)
    assert resumed.complete and len(resumed.records) == 4
    np.testing.assert_array_equal(resumed.column("spur_power_dbm"),
                                  healthy.column("spur_power_dbm"))


def test_skip_policy_records_failed_extraction(technology, ft_campaign,
                                               tmp_path):
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=0, attempts=99),))

    class _FaultyExtractionBackend(SerialBackend):
        """Injects the plan into extraction tasks too (they carry no
        ``index`` attribute, so the campaign-level plan skips them)."""

        def run(self, items, **kwargs):
            def sabotage(fn):
                def sabotaged(task):
                    plan.inject(_EchoTask(0))
                    return fn(task)
                return sabotaged
            items = [replace(item, fn=sabotage(item.fn))
                     if isinstance(item.payload, ExtractionTask) else item
                     for item in items]
            return super().run(items, **kwargs)

    runner = SweepRunner(technology, backend=_FaultyExtractionBackend(),
                         on_error="skip")
    result = runner.run(ft_campaign)
    assert not result.records
    assert len(result.failures) == 2           # one per pending corner
    assert all(f.error_type == "InjectedFault" for f in result.failures)
    assert {f.vtune for f in result.failures} == {0.0, 0.75}
    # The partial result round-trips even with zero records.
    saved, _ = result.save(tmp_path / "empty.npz")
    assert len(SweepResult.load(saved).failures) == 2


def test_cli_exits_3_on_partial_result(tmp_path, monkeypatch, capsys):
    config = tmp_path / "c.json"
    config.write_text('{"name": "partial", "axes": {"vtune": [0.0]}}')

    failure = CornerFailure(corner_label="variant 0", error_type="BoomError",
                            message="injected", attempts=2,
                            variant_index=0, injected_power_dbm=-5.0,
                            vtune=0.0)

    class _StubRunner:
        def __init__(self, *args, **kwargs):
            pass

        def run(self, campaign, resume_from=None, checkpoint=None,
                observer=None):
            return SweepResult(campaign_name="partial", backend_name="stub",
                               axes={}, records=[], variants=[],
                               wall_seconds=0.0, cache_hits=0,
                               cache_misses=0, failures=[failure])

    monkeypatch.setattr("repro.studies.cli.SweepRunner", _StubRunner)
    assert main(["run", str(config)]) == 3
    out = capsys.readouterr().out
    assert "FAILED corners" in out and "BoomError" in out


# -- acceptance (c): kill -9 mid-campaign, resume from the journal ------------

_KILL_CHILD = """
import sys
sys.path[:0] = [sys.argv[4], sys.argv[5]]
from test_fault_tolerance import make_ft_campaign
from repro.studies import (CheckpointPolicy, DiskExtractionCache, FaultPlan,
                           FaultSpec, SweepRunner)
from repro.technology import make_technology

cache_dir, journal_dir, state_dir = sys.argv[1:4]
# Corner 0 completes and is journaled; the fault then kills this process
# without any cleanup - the moral equivalent of kill -9 mid-campaign.
plan = FaultPlan(state_dir=state_dir,
                 specs=(FaultSpec("exit", task_index=1, attempts=1,
                                  exit_code=137),))
runner = SweepRunner(make_technology(), cache=DiskExtractionCache(cache_dir),
                     fault_plan=plan)
runner.run(make_ft_campaign(),
           checkpoint=CheckpointPolicy(path=journal_dir, every_corners=1))
raise SystemExit("unreachable: the injected fault must kill the process")
"""


class _CountingSerialBackend(SerialBackend):
    """Counts the corner tasks handed to the scheduler."""

    def __init__(self):
        super().__init__()
        self.executed = 0

    def run(self, items, **kwargs):
        items = list(items)
        self.executed += sum(isinstance(item.payload, SweepTask)
                             for item in items)
        return super().run(items, **kwargs)


def test_killed_campaign_resumes_from_journal_bit_identically(
        technology, ft_campaign, reference, tmp_path):
    healthy, cache_dir = reference
    journal_dir = tmp_path / "run.journal"
    script = tmp_path / "kill_child.py"
    script.write_text(_KILL_CHILD)

    repo_src = str(Path(__file__).resolve().parent.parent / "src")
    tests_dir = str(Path(__file__).resolve().parent)
    proc = subprocess.run(
        [sys.executable, str(script), str(cache_dir), str(journal_dir),
         str(tmp_path / "fault-state"), repo_src, tests_dir],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 137, proc.stderr   # died mid-campaign, no trace

    # The journal holds exactly the corner that completed before the kill.
    recovered = CampaignJournal.recover(journal_dir,
                                        fingerprint=ft_campaign.fingerprint())
    assert len(recovered) == 2                   # 1 corner x 2 frequencies
    assert {r.vtune for r in recovered} == {0.0}

    # Resume recomputes only the lost corner...
    backend = _CountingSerialBackend()
    runner = SweepRunner(technology, backend=backend,
                         cache=DiskExtractionCache(cache_dir))
    resumed = runner.run(ft_campaign,
                         checkpoint=CheckpointPolicy(path=journal_dir,
                                                     every_corners=1))
    assert backend.executed == 1
    assert resumed.complete and len(resumed.records) == 4

    # ... and the saved arrays are byte-identical to an uninterrupted run.
    resumed_npz, _ = resumed.save(tmp_path / "resumed.npz")
    healthy_npz, _ = healthy.save(tmp_path / "healthy.npz")
    assert resumed_npz.read_bytes() == healthy_npz.read_bytes()


@dataclass(frozen=True)
class _JournalRec:
    """Stand-in PointRecord: the journal only needs pickling + point_index."""

    point_index: int
    vtune: float = 0.0
    variant_index: int = 0
    injected_power_dbm: float = -5.0


def test_journal_of_other_campaign_is_rejected(ft_campaign, tmp_path):
    journal = CampaignJournal(tmp_path / "j", campaign_name="someone_else",
                              fingerprint="deadbeef")
    journal.open()
    with pytest.raises(AnalysisError, match="fingerprint mismatch"):
        CampaignJournal.recover(tmp_path / "j",
                                fingerprint=ft_campaign.fingerprint())


def test_journal_append_recover_roundtrip_and_discard(tmp_path):
    journal = CampaignJournal(tmp_path / "j", campaign_name="c",
                              fingerprint="f" * 64)
    journal.open()
    assert CampaignJournal.recover(tmp_path / "missing",
                                   fingerprint=None) == []

    journal.append([_JournalRec(1), _JournalRec(0)])
    journal.append([_JournalRec(2), _JournalRec(1)])  # re-runs dedupe by point
    recovered = CampaignJournal.recover(tmp_path / "j",
                                        fingerprint="f" * 64)
    assert [r.point_index for r in recovered] == [0, 1, 2]
    journal.discard()
    assert not (tmp_path / "j").exists()
    assert CampaignJournal.recover(tmp_path / "j", fingerprint="f" * 64) == []


# -- acceptance (d): the numerical degradation ladder -------------------------


def _latch_circuit() -> Circuit:
    """Cross-coupled NMOS pair: plain Newton from zero needs ~7 iterations."""
    technology = make_technology()
    circuit = Circuit("latch")
    circuit.add_voltage_source("VDD", "vdd", "0", 1.8)
    circuit.add_resistor("R1", "vdd", "a", 5e3)
    circuit.add_resistor("R2", "vdd", "b", 5e3)
    parameters = technology.mos_parameters("nmos_rf")
    circuit.add_mosfet("M1", "a", "b", "0", "0", parameters,
                       width=20e-6, length=0.18e-6)
    circuit.add_mosfet("M2", "b", "a", "0", "0", parameters,
                       width=20e-6, length=0.18e-6)
    return circuit


def test_gmin_stepping_rescues_newton_and_counts_rungs():
    unconstrained = dc_operating_point(_latch_circuit())
    assert unconstrained.strategy == "newton"

    solver_module.stats.reset()
    # Too few iterations for a cold plain-Newton solve, but enough for each
    # warm-started continuation rung.
    solution = dc_operating_point(_latch_circuit(),
                                  DcOptions(max_iterations=5, gmin_steps=10))
    assert solution.strategy == "gmin-stepping"
    assert solver_module.stats.dc_gmin_steps == 10
    assert solver_module.stats.dc_source_steps == 0
    # The final rung solves the exact same system as plain Newton would.
    assert solution.voltage("a") == pytest.approx(
        unconstrained.voltage("a"), abs=1e-9)


def test_ladder_failure_reports_every_strategy():
    with pytest.raises(ConvergenceError,
                       match="gmin stepping .* source stepping"):
        dc_operating_point(_latch_circuit(),
                           DcOptions(max_iterations=2, gmin_steps=3,
                                     source_steps=4))


def test_campaign_records_solver_degradations(technology, ft_campaign,
                                              tmp_path, monkeypatch, caplog):
    # A healthy campaign reduces its substrate spectrally and reports no
    # degradation.  A spectral Kron reduction whose dense Cholesky fails
    # falls back to sparse LU: a degradation the runner must surface.
    import logging

    from repro.substrate import spectral

    options = replace(ft_campaign.options, flow=TINY_MESH)
    campaign = Campaign(name="degraded", space=ft_campaign.space,
                        options=options)
    healthy = SweepRunner(technology).run(campaign)
    assert healthy.complete
    assert healthy.solver_degradations == {}
    assert healthy.variants[0].flow.solver_stats.factorizations > 0

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("injected Cholesky failure")

    monkeypatch.setattr(spectral, "cho_factor", broken)
    with caplog.at_level(logging.WARNING, logger="repro"):
        result = SweepRunner(technology).run(campaign)
    assert any("spectral Kron reduction fell back" in record.getMessage()
               and "injected Cholesky failure" in record.getMessage()
               for record in caplog.records)
    assert result.complete
    assert result.solver_degradations == {"fallbacks": 1}
    for got, want in zip(result.records, healthy.records):
        assert got.spur.total_spur_power_dbm() == pytest.approx(
            want.spur.total_spur_power_dbm(), abs=1e-6)

    saved, _ = result.save(tmp_path / "degraded.npz")
    loaded = SweepResult.load(saved)
    assert loaded.solver_degradations == result.solver_degradations
    assert loaded.summary()["solver_degradations"] \
        == sum(result.solver_degradations.values())


# -- satellite: concurrent writers + maintenance lock on the disk cache -------


def _store_entries(cache_dir: str, worker: int) -> int:
    cache = DiskExtractionCache(cache_dir)
    for i in range(6):
        # Shared keys across workers on purpose: concurrent writers racing
        # on the same content-addressed entry must both land safely.
        key = f"{i:02d}" + "ab" * 31
        cache.store(key, {"worker": worker, "i": i})
    cache.prune(max_entries=4)
    return len(cache)


def test_concurrent_writers_and_prunes_never_corrupt(tmp_path):
    cache_dir = tmp_path / "shared-cache"
    DiskExtractionCache(cache_dir)             # create the directory once
    with ProcessPoolExecutor(max_workers=4) as pool:
        outcomes = list(pool.map(_store_entries, [str(cache_dir)] * 4,
                                 range(4)))
    assert all(size <= 6 for size in outcomes)
    # Every surviving entry must deserialize cleanly - a torn or mixed
    # write would trip the corruption warning here.
    survivor = DiskExtractionCache(cache_dir)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [survivor.lookup(key) for key in survivor.iter_keys()]
    assert values and all(v is not None for v in values)
    assert survivor.stats.corrupted == 0


def test_maintenance_lock_blocks_concurrent_prune(tmp_path):
    cache = DiskExtractionCache(tmp_path / "cache")
    cache.store("aa" * 32, {"payload": 1})
    with cache.maintenance_lock():
        other = DiskExtractionCache(tmp_path / "cache")
        with pytest.raises(AnalysisError, match="locked"):
            with other.maintenance_lock(timeout=0.2):
                pass
    # Lock released: maintenance works again.
    removed, _freed = cache.prune(max_entries=0)
    assert removed == 1


def test_stale_maintenance_lock_is_stolen(tmp_path, die_holding):
    # A process killed holding the lock leaves its lock file behind; the
    # kernel has already released the lock, so prune takes it at once.
    cache = DiskExtractionCache(tmp_path / "cache")
    cache.store("bb" * 32, {"payload": 1})
    lock = cache.cache_dir / ".lock"
    die_holding(cache.cache_dir, "maintenance")
    assert lock.exists()
    started = time.monotonic()
    removed, _freed = cache.prune(max_entries=0)
    assert time.monotonic() - started < 5.0
    assert removed == 1
    assert not lock.exists()


def test_corrupt_fault_is_detected_by_cache(tmp_path):
    from repro.studies.store import CacheCorruptionWarning

    cache = DiskExtractionCache(tmp_path / "cache")
    key = "cc" * 32
    cache.store(key, {"payload": 42})
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("corrupt", task_index=0, attempts=1,
                                      target=str(tmp_path / "cache")),))
    plan.inject(_EchoTask(0))
    fresh = DiskExtractionCache(tmp_path / "cache")
    with pytest.warns(CacheCorruptionWarning):
        assert fresh.lookup(key) is None       # detected, evicted, re-extract
    assert fresh.stats.corrupted == 1
