"""Tests of the persistence layer: disk cache, result round trip, resume.

Covers the acceptance invariants of the persistent campaign store:

* the :class:`DiskExtractionCache` warm-starts a *fresh process* (modelled by
  a fresh instance over the same directory): zero extractions, identical
  arrays,
* corrupted or version-mismatched entries never fail a campaign — they are
  discarded (with a warning for corruption) and the extraction re-runs,
* ``save -> load`` round trips are bit-identical (``worst_spur`` and every
  tidy column), not merely close,
* resume-after-kill completes only the missing corners and reproduces the
  uninterrupted result exactly,
* the scheduler records per-task attempts and names the failing
  corner when it gives up.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import shutil
import stat
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions, ground_resistance_study
from repro.errors import AnalysisError
from repro.layout.testchips import VcoLayoutSpec
from repro.studies import (
    Campaign,
    CampaignJournal,
    CacheCorruptionWarning,
    DiskExtractionCache,
    ParamSpace,
    ProcessPoolBackend,
    SerialBackend,
    SweepResult,
    SweepRunner,
    SweepTask,
)
from repro.studies.cli import main
from repro.studies.store import (
    DISK_FORMAT_VERSION,
    ORPHAN_TMP_SECONDS,
    extraction_code_fingerprint,
)
from repro.substrate.extraction import SubstrateExtractionOptions

TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6))


@pytest.fixture(scope="module")
def store_options():
    return VcoExperimentOptions(
        vtune_values=(0.0,),
        noise_frequencies=(1e6, 4e6),
        flow=TINY_MESH)


@pytest.fixture(scope="module")
def store_campaign(store_options):
    return Campaign(
        name="persist_vtune_x_fnoise",
        space=ParamSpace({"vtune": (0.0, 0.75),
                          "noise_frequency": (1e6, 4e6)}),
        options=store_options)


@pytest.fixture(scope="module")
def reference_result(technology, store_campaign, tmp_path_factory):
    """One uninterrupted run of the campaign via a disk cache."""
    cache_dir = tmp_path_factory.mktemp("refcache")
    runner = SweepRunner(technology, cache=DiskExtractionCache(cache_dir))
    return runner.run(store_campaign), cache_dir


# -- disk cache ---------------------------------------------------------------


def test_disk_cache_warm_starts_fresh_instances(technology, store_campaign,
                                                reference_result):
    cold, cache_dir = reference_result
    assert cold.cache_misses == 1

    # A fresh instance over the same directory models a new process / CI run.
    warm_cache = DiskExtractionCache(cache_dir)
    assert len(warm_cache) == 1
    warm = SweepRunner(technology, cache=warm_cache).run(store_campaign)
    assert warm.cache_misses == 0 and warm.cache_hits == 1
    np.testing.assert_array_equal(cold.column("spur_power_dbm"),
                                  warm.column("spur_power_dbm"))


def _count_calls(monkeypatch, module, name, calls: list) -> None:
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


def test_warm_runner_keeps_its_variant_keys(technology, store_campaign,
                                            tmp_path, monkeypatch):
    """A runner keys each variant once: a warm second run builds no layout
    cell and hashes none, yet still looks its flow up."""
    import repro.studies.cache as cache_module
    import repro.studies.params as params_module

    runner = SweepRunner(technology,
                         cache=DiskExtractionCache(tmp_path / "cache"))
    first = runner.run(store_campaign)
    calls: list[str] = []
    _count_calls(monkeypatch, params_module, "make_vco_testchip", calls)
    _count_calls(monkeypatch, cache_module, "extraction_key", calls)
    second = runner.run(store_campaign)
    assert calls == []
    assert (second.cache_hits, second.cache_misses) == (1, 0)
    assert [v.cache_key for v in second.variants] == \
        [v.cache_key for v in first.variants]
    for name, column in first.columns.items():
        assert second.columns[name].tobytes() == column.tobytes(), name


def test_entry_pruned_between_runs_is_extracted_again(
        technology, store_campaign, tmp_path, monkeypatch):
    import repro.studies.runner as runner_module

    runner = SweepRunner(technology,
                         cache=DiskExtractionCache(tmp_path / "cache"))
    first = runner.run(store_campaign)
    assert runner.cache.prune(max_entries=0)[0] == 1
    extractions: list[str] = []
    _count_calls(monkeypatch, runner_module, "run_extraction_flow",
                 extractions)
    second = runner.run(store_campaign)
    assert extractions == ["run_extraction_flow"]
    assert (second.cache_hits, second.cache_misses) == (0, 1)
    assert second.variants[0].cache_key == first.variants[0].cache_key
    assert first.variants[0].cache_key in runner.cache


def test_another_spec_gets_its_own_variant_key(technology, store_campaign,
                                               tmp_path):
    runner = SweepRunner(technology,
                         cache=DiskExtractionCache(tmp_path / "cache"))
    nominal = runner.run(store_campaign)
    widened_campaign = dataclasses.replace(
        store_campaign, base_spec=VcoLayoutSpec(ground_width_scale=2.0))
    widened = runner.run(widened_campaign)
    assert widened.cache_misses == 1
    key = widened.variants[0].cache_key
    assert key != nominal.variants[0].cache_key
    # The key a fresh runner computes for the widened layout.
    fresh = SweepRunner(technology,
                        cache=DiskExtractionCache(tmp_path / "cache"))
    assert fresh.run(widened_campaign).variants[0].cache_key == key


def test_disk_cache_tolerates_corrupted_entry(technology, store_campaign,
                                              tmp_path):
    cache_dir = tmp_path / "cache"
    runner = SweepRunner(technology, cache=DiskExtractionCache(cache_dir))
    first = runner.run(store_campaign)
    assert first.cache_misses == 1
    [entry] = list(DiskExtractionCache(cache_dir).iter_keys())
    entry_path = DiskExtractionCache(cache_dir).entry_path(entry)
    entry_path.write_bytes(b"not a pickle at all")

    fresh = DiskExtractionCache(cache_dir)
    with pytest.warns(CacheCorruptionWarning, match="corrupted"):
        again = SweepRunner(technology, cache=fresh).run(store_campaign)
    # The bad entry fell back to re-extraction and was healed on disk.
    assert again.cache_misses == 1
    assert fresh.stats.corrupted == 1
    np.testing.assert_array_equal(first.column("spur_power_dbm"),
                                  again.column("spur_power_dbm"))
    healed = DiskExtractionCache(cache_dir)
    assert len(healed) == 1
    assert healed.lookup(entry) is not None


def test_disk_cache_evicts_other_format_versions(technology, store_campaign,
                                                 tmp_path):
    cache_dir = tmp_path / "cache"
    cache = DiskExtractionCache(cache_dir)
    runner = SweepRunner(technology, cache=cache)
    runner.run(store_campaign)
    [key] = list(cache.iter_keys())
    path = cache.entry_path(key)
    with path.open("wb") as handle:
        pickle.dump({"format": DISK_FORMAT_VERSION + 1, "key": key,
                     "flow": None}, handle)

    fresh = DiskExtractionCache(cache_dir)
    assert fresh.lookup(key) is None          # silently evicted, no warning
    assert fresh.stats.evictions == 1
    assert fresh.stats.misses == 1
    assert not path.exists()


def test_disk_cache_evicts_entries_of_older_extraction_code(tmp_path):
    from repro.studies.store import build_envelope

    cache = DiskExtractionCache(tmp_path / "cache")
    key = "cd" * 32
    cache.store(key, "payload")
    path = cache.entry_path(key)
    # A validly checksummed envelope written by older extraction code: the
    # distinction matters — a *corrupted* code field fails the checksum and
    # is quarantined with a warning instead.
    with path.open("wb") as handle:
        pickle.dump(build_envelope(key, "stale-payload",
                                   code="sha-of-some-older-extraction-code"),
                    handle)

    fresh = DiskExtractionCache(tmp_path / "cache")
    assert fresh.lookup(key) is None         # silently evicted, no warning
    assert fresh.stats.evictions == 1
    assert not path.exists()
    assert len(extraction_code_fingerprint()) == 64


def test_disk_cache_evicts_entries_of_older_solver_code(
        technology, store_campaign, tmp_path, monkeypatch):
    """The Kron solve computes every cached admittance, so an edit to the
    linear-solver code changes the fingerprint, and an entry stamped with
    the other fingerprint is evicted and re-extracted."""
    import repro
    from repro.studies.store import build_envelope

    copy = tmp_path / "repro"
    shutil.copytree(Path(repro.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        monkeypatch.setattr(repro, "__file__", str(copy / "__init__.py"))
        for relative in ("simulator/solver.py",
                         "simulator/linalg.py"):
            extraction_code_fingerprint.cache_clear()
            before = extraction_code_fingerprint()
            with (copy / relative).open("a") as handle:
                handle.write("# edited\n")
            extraction_code_fingerprint.cache_clear()
            edited = extraction_code_fingerprint()
            assert edited != before, relative
    finally:
        monkeypatch.undo()
        extraction_code_fingerprint.cache_clear()
    assert extraction_code_fingerprint() != edited

    cache_dir = tmp_path / "cache"
    first = SweepRunner(technology,
                        cache=DiskExtractionCache(cache_dir)).run(store_campaign)
    [key] = list(DiskExtractionCache(cache_dir).iter_keys())
    path = DiskExtractionCache(cache_dir).entry_path(key)
    flow = DiskExtractionCache(cache_dir).lookup(key)
    with path.open("wb") as handle:
        pickle.dump(build_envelope(key, flow, code=edited), handle)

    fresh = DiskExtractionCache(cache_dir)
    again = SweepRunner(technology, cache=fresh).run(store_campaign)
    assert fresh.stats.evictions == 1
    assert again.cache_misses == 1          # re-extracted, not served stale
    np.testing.assert_array_equal(first.column("spur_power_dbm"),
                                  again.column("spur_power_dbm"))
    assert DiskExtractionCache(cache_dir).lookup(key) is not None


def test_disk_cache_store_skips_rewriting_existing_entries(tmp_path):
    cache = DiskExtractionCache(tmp_path / "cache")
    key = "ef" * 32
    cache.store(key, "payload")
    before = cache.entry_path(key).stat()
    cache.store(key, "payload")              # content-addressed: same bytes
    after = cache.entry_path(key).stat()
    assert (after.st_ino, after.st_size) == (before.st_ino, before.st_size)


def test_disk_cache_prune_and_describe(tmp_path):
    cache = DiskExtractionCache(tmp_path / "cache")
    for index in range(3):
        key = f"{index:02d}" + "ab" * 31
        cache.store(key, f"payload-{index}")
        os.utime(cache.entry_path(key), (1000.0 + index, 1000.0 + index))
    assert len(cache) == 3
    assert cache.disk_bytes() > 0

    removed, freed = cache.prune(max_entries=1)
    assert removed == 2 and freed > 0
    assert cache.stats.evictions == 2
    # The newest entry (highest mtime) survives.
    assert list(cache.iter_keys()) == ["02" + "ab" * 31]
    assert cache.lookup("02" + "ab" * 31) == "payload-2"

    report = cache.describe()
    assert report["entries"] == 1
    assert report["evictions"] == 2
    cache.clear()
    assert len(cache) == 0 and cache.stats.requests == 0


def test_disk_cache_seed_persists(technology, store_campaign, tmp_path,
                                  reference_result):
    cold, cache_dir = reference_result
    flow = DiskExtractionCache(cache_dir).lookup(
        next(iter(DiskExtractionCache(cache_dir).iter_keys())))
    seeded_dir = tmp_path / "seeded"
    DiskExtractionCache(seeded_dir).seed(flow, options=TINY_MESH)
    # A fresh instance sees the seeded entry on disk.
    warm = SweepRunner(technology,
                       cache=DiskExtractionCache(seeded_dir)).run(store_campaign)
    assert warm.cache_misses == 0 and warm.cache_hits == 1


# -- save / load round trip ---------------------------------------------------


def test_save_load_round_trip_is_bit_identical(store_campaign, tmp_path,
                                               reference_result):
    result, _ = reference_result
    npz_path, meta_path = result.save(tmp_path / "sweep.npz")
    assert npz_path.exists() and meta_path.exists()

    loaded = SweepResult.load(npz_path)
    assert len(loaded) == len(result)
    assert loaded.campaign_name == result.campaign_name
    assert loaded.axes == result.axes
    assert loaded.campaign_spec["fingerprint"] == store_campaign.fingerprint()

    # Bit-identical, not approximately equal.
    assert loaded.worst_spur().spur_power_dbm == result.worst_spur().spur_power_dbm
    for column in ("spur_power_dbm", "carrier_frequency", "carrier_amplitude",
                   "noise_frequency", "vtune", "injected_power_dbm"):
        np.testing.assert_array_equal(loaded.column(column),
                                      result.column(column))
    # The full spur decomposition survives too.
    for name in ("entry_names", "entry_h_sub", "entry_fm_voltage",
                 "entry_am_voltage", "entry_mechanism", "entry_present"):
        np.testing.assert_array_equal(loaded.columns[name],
                                      result.columns[name])
    assert loaded.rows() == result.rows()
    # Variants keep their identity but not the (cache-resident) flow.
    assert [v.cache_key for v in loaded.variants] == \
        [v.cache_key for v in result.variants]
    assert all(v.flow is None for v in loaded.variants)


def test_sidecar_git_sha_ignores_the_working_directory(
        tmp_path, monkeypatch, reference_result):
    # Saving from inside another git checkout must not record that
    # checkout's HEAD: the sha names the repro package's own checkout.
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    other = tmp_path / "other_repo"
    other.mkdir()

    def git(*args):
        return subprocess.run(["git", *args], cwd=other, check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("-c", "user.name=t", "-c", "user.email=t@example.com", "commit",
        "-q", "--allow-empty", "-m", "init")
    other_head = git("rev-parse", "HEAD")
    monkeypatch.chdir(other)
    result, _ = reference_result
    _npz_path, meta_path = result.save(other / "sweep.npz")
    assert json.loads(meta_path.read_text())["git_sha"] != other_head


def test_written_files_take_the_umask_default_mode(tmp_path,
                                                   reference_result):
    # Every file the program writes atomically gets the mode a plain
    # open() gives under the umask (0644 under 0022), never mkstemp's 0600.
    result, _ = reference_result
    previous = os.umask(0o022)
    try:
        npz_path, meta_path = result.save(tmp_path / "sweep.npz")
        journal = CampaignJournal(tmp_path / "sweep.journal",
                                  campaign_name="umask", fingerprint="f")
        journal.open()
        journal.close()
        cache = DiskExtractionCache(tmp_path / "cache")
        key = "cd" * 32
        cache.store(key, "payload")
    finally:
        os.umask(previous)
    for path in (npz_path, meta_path,
                 tmp_path / "sweep.journal" / "manifest.json",
                 cache.entry_path(key)):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path


def test_load_rejects_missing_and_mismatched_files(tmp_path, reference_result):
    result, _ = reference_result
    with pytest.raises(AnalysisError, match="no sweep result"):
        SweepResult.load(tmp_path / "nothing.npz")
    npz_path, meta_path = result.save(tmp_path / "orphan.npz")
    meta_path.unlink()
    with pytest.raises(AnalysisError, match="metadata sidecar"):
        SweepResult.load(npz_path)


def test_load_detects_torn_npz_sidecar_pair(tmp_path, reference_result):
    result, _ = reference_result
    npz_path, _meta_path = result.save(tmp_path / "torn.npz")
    # Overwrite the arrays with a different-size result, as if a second save
    # was killed after replacing the sidecar but before replacing the NPZ
    # (or vice versa).
    partial = result.subset(slice(0, 1))
    partial.save(tmp_path / "other.npz")
    (tmp_path / "other.npz").replace(npz_path)
    with pytest.raises(AnalysisError, match="torn by an interrupted save"):
        SweepResult.load(npz_path)


def test_load_detects_torn_pair_with_equal_record_counts(
        technology, store_options, tmp_path, reference_result):
    result, _ = reference_result
    npz_path, _meta_path = result.save(tmp_path / "torn.npz")
    # A same-shape campaign over different frequencies: same record count,
    # different array bytes — the checksum must still catch the mismatch.
    other_campaign = Campaign(
        name="persist_vtune_x_fnoise",
        space=ParamSpace({"vtune": (0.0, 0.75),
                          "noise_frequency": (2e6, 8e6)}),
        options=store_options)
    other = SweepRunner(technology).run(other_campaign)
    assert len(other) == len(result)
    other.save(tmp_path / "other.npz")
    (tmp_path / "other.npz").replace(npz_path)
    with pytest.raises(AnalysisError, match="torn by an interrupted save"):
        SweepResult.load(npz_path)


def test_orphaned_tmp_files_are_not_cache_entries(tmp_path):
    cache = DiskExtractionCache(tmp_path / "cache")
    key = "ab" * 32
    cache.store(key, "payload")
    # A killed write leaves a ".tmp-*" file next to the entry.
    bucket = cache.entry_path(key).parent
    (bucket / ".tmp-orphan.tmp").write_bytes(b"half-written")
    fresh = DiskExtractionCache(tmp_path / "cache")
    assert len(fresh) == 1
    assert list(fresh.iter_keys()) == [key]
    removed, _freed = fresh.prune(max_entries=1)
    assert removed == 0                      # the orphan is not prunable prey


def test_verify_lists_orphans_and_repair_deletes_only_old_ones(tmp_path,
                                                               capsys):
    cache = DiskExtractionCache(tmp_path / "cache")
    key = "ab" * 32
    cache.store(key, "payload")
    bucket = cache.entry_path(key).parent
    old = bucket / ".tmp-old.tmp"             # left by a killed publish
    live = bucket / ".tmp-live.tmp"           # a publish still in progress
    old.write_bytes(b"half-written")
    live.write_bytes(b"being written")
    aged = time.time() - ORPHAN_TMP_SECONDS - 60.0
    os.utime(old, (aged, aged))

    report = cache.verify()
    assert report["orphans"] == [".tmp-live.tmp", ".tmp-old.tmp"]
    assert (report["ok"], report["corrupt"], report["stale"]) == (1, [], [])
    assert old.exists()                       # audit only
    # Orphans are not corrupt entries: the exit code stays 0.
    assert main(["cache", "verify", "--cache-dir", str(cache.cache_dir)]) == 0
    assert "orphan  .tmp-old.tmp" in capsys.readouterr().out

    assert cache.verify(repair=True)["orphans_removed"] == 1
    assert not old.exists() and live.exists()
    assert cache.verify()["orphans"] == [".tmp-live.tmp"]
    assert list(cache.iter_keys()) == [key]


def test_merge_combines_partial_results(reference_result):
    full, _ = reference_result
    first = full.subset(slice(0, 2))
    second = full.subset(slice(2, None))
    merged = first.merge(second)
    assert [r.point_index for r in merged.records] == \
        [r.point_index for r in full.records]
    np.testing.assert_array_equal(merged.column("spur_power_dbm"),
                                  full.column("spur_power_dbm"))
    assert merged.wall_seconds == pytest.approx(2 * full.wall_seconds)


def test_merge_rejects_different_campaigns(technology, store_options,
                                           reference_result):
    full, _ = reference_result
    other_campaign = Campaign(
        name="other",
        space=ParamSpace({"vtune": (0.3,), "noise_frequency": (2e6,)}),
        options=store_options)
    other = SweepRunner(technology).run(other_campaign)
    with pytest.raises(AnalysisError, match="different campaigns|different axes"):
        full.merge(other)


# -- resume -------------------------------------------------------------------


class _CountingBackend(SerialBackend):
    """Serial backend that records how many corner tasks it was handed."""

    def __init__(self):
        super().__init__()
        self.executed = 0

    def run(self, items, **kwargs):
        items = list(items)
        self.executed += sum(isinstance(item.payload, SweepTask)
                             for item in items)
        return super().run(items, **kwargs)


def test_resume_after_kill_completes_only_missing_corners(
        technology, store_campaign, tmp_path, reference_result):
    full, cache_dir = reference_result

    # Simulate a campaign killed after its first corner (V_tune = 0.0): the
    # persisted result holds that corner's points only.
    partial = full.subset(full.column("vtune") == 0.0)
    partial.save(tmp_path / "partial.npz")
    stored = SweepResult.load(tmp_path / "partial.npz")
    assert len(stored) == 2

    backend = _CountingBackend()
    resumed = SweepRunner(technology, backend=backend,
                          cache=DiskExtractionCache(cache_dir)).run(
        store_campaign, resume_from=stored)
    # One corner was stored, one was pending: exactly one task executed.
    assert backend.executed == 1
    assert [r.point_index for r in resumed.records] == [0, 1, 2, 3]
    np.testing.assert_array_equal(resumed.column("spur_power_dbm"),
                                  full.column("spur_power_dbm"))
    np.testing.assert_array_equal(resumed.column("vtune"),
                                  full.column("vtune"))


def test_resume_with_complete_result_executes_nothing(
        technology, store_campaign, reference_result):
    full, cache_dir = reference_result
    backend = _CountingBackend()
    cache = DiskExtractionCache(cache_dir)
    resumed = SweepRunner(technology, backend=backend, cache=cache).run(
        store_campaign, resume_from=full)
    assert backend.executed == 0
    assert cache.stats.misses == 0         # fully-done variants never extract
    np.testing.assert_array_equal(resumed.column("spur_power_dbm"),
                                  full.column("spur_power_dbm"))


def test_resume_rejects_foreign_campaign(technology, store_options,
                                         reference_result):
    full, _ = reference_result
    other = Campaign(
        name="persist_vtune_x_fnoise",      # same name, different grid
        space=ParamSpace({"vtune": (0.0, 0.75),
                          "noise_frequency": (2e6, 8e6)}),
        options=store_options)
    with pytest.raises(AnalysisError, match="fingerprint"):
        SweepRunner(technology).run(other, resume_from=full)


def test_ground_resistance_study_warm_starts_from_a_disk_cache(
        technology, store_options, tmp_path):
    study = ground_resistance_study(
        technology, options=store_options, vtune=0.0,
        cache=DiskExtractionCache(tmp_path / "cache"))
    # A fresh instance on the same directory, as a later process would
    # open it: every variant is a disk hit, nothing re-extracts.
    warm = DiskExtractionCache(tmp_path / "cache")
    again = ground_resistance_study(technology, options=store_options,
                                    vtune=0.0, cache=warm)
    assert warm.stats.misses == 0 and warm.stats.hits == 2
    np.testing.assert_array_equal(study.nominal_dbm, again.nominal_dbm)
    np.testing.assert_array_equal(study.improved_dbm, again.improved_dbm)


# -- backend retry bookkeeping ------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _FlakyTask:
    """Picklable task that fails until a sentinel file exists."""

    sentinel: str
    value: int

    def corner_label(self) -> str:
        return f"flaky corner value={self.value}"


def _run_flaky(task: _FlakyTask) -> int:
    if not os.path.exists(task.sentinel):
        with open(task.sentinel, "w") as handle:
            handle.write("attempted")
        raise ValueError("transient worker failure")
    return task.value * 10


def test_single_worker_retries_and_counts_attempts(tmp_path, run_tasks):
    backend = ProcessPoolBackend(max_workers=1, retries=2)
    task = _FlakyTask(sentinel=str(tmp_path / "sentinel"), value=3)
    assert run_tasks(backend, _run_flaky, [task]) == [30]
    assert backend.attempts == {"0": 2}


def test_pool_retries_transient_failure(tmp_path, run_tasks):
    backend = ProcessPoolBackend(max_workers=2, retries=1)
    tasks = [_FlakyTask(sentinel=str(tmp_path / "a"), value=1),
             _FlakyTask(sentinel=str(tmp_path / "b"), value=2)]
    # Pre-create one sentinel: that task succeeds first try, the other
    # fails once and succeeds on the retry.
    with open(tasks[1].sentinel, "w") as handle:
        handle.write("ok")
    assert run_tasks(backend, _run_flaky, tasks) == [10, 20]
    assert backend.attempts["1"] == 1
    assert backend.attempts["0"] == 2


def _crash_worker(task: _FlakyTask) -> int:
    """Hard-kill the worker process on the first attempt (breaks the pool)."""
    if not os.path.exists(task.sentinel):
        with open(task.sentinel, "w") as handle:
            handle.write("crashing")
        os._exit(1)
    return task.value * 10


def test_pool_survives_crashed_worker(tmp_path, run_tasks):
    backend = ProcessPoolBackend(max_workers=2, retries=1)
    tasks = [_FlakyTask(sentinel=str(tmp_path / "crash"), value=1),
             _FlakyTask(sentinel=str(tmp_path / "fine"), value=2)]
    with open(tasks[1].sentinel, "w") as handle:
        handle.write("ok")
    # Task 0 kills its worker (breaking the executor mid-round); a fresh
    # pool must finish both tasks on the second attempt.
    assert run_tasks(backend, _crash_worker, tasks) == [10, 20]
    assert backend.attempts["0"] == 2


def test_pool_crash_with_no_retries_names_a_corner(tmp_path, run_tasks):
    backend = ProcessPoolBackend(max_workers=2, retries=0)
    tasks = [_FlakyTask(sentinel=str(tmp_path / "boom"), value=1),
             _FlakyTask(sentinel=str(tmp_path / "boom2"), value=2)]
    with pytest.raises(AnalysisError, match="flaky corner"):
        run_tasks(backend, _crash_worker, tasks)


def _always_fails(task: _FlakyTask) -> int:
    raise ValueError("permanent failure")


def test_exhausted_retries_name_the_corner(tmp_path, run_tasks):
    backend = ProcessPoolBackend(max_workers=1, retries=1)
    task = _FlakyTask(sentinel=str(tmp_path / "never"), value=7)
    with pytest.raises(AnalysisError,
                       match=r"after 2 attempt.*flaky corner value=7"):
        run_tasks(backend, _always_fails, [task])
    assert backend.attempts == {"0": 2}


def test_pool_exhausted_retries_raise(tmp_path, run_tasks):
    backend = ProcessPoolBackend(max_workers=2, retries=0)
    tasks = [_FlakyTask(sentinel=str(tmp_path / "x"), value=1),
             _FlakyTask(sentinel=str(tmp_path / "y"), value=2)]
    with pytest.raises(AnalysisError, match="flaky corner"):
        run_tasks(backend, _always_fails, tasks)