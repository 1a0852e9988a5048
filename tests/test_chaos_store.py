"""Chaos suite: the shared campaign store under crashes and concurrency.

Exercises the concurrent-safety layer of :class:`DiskExtractionCache` the
way hostile reality would:

* crash points (``REPRO_CRASH_POINTS``) kill a campaign child with
  ``os._exit`` between two filesystem syscalls — at every reachable
  (region, op) pair of :data:`~repro.studies.faults.CRASH_MATRIX` — and the
  cache must come back readable-or-quarantined with a byte-identical
  resume;
* four independent ``SweepRunner`` processes share one cache directory and
  must extract each variant exactly once (one marker file per physical
  extraction proves it);
* the kernel claim lock: it excludes while held, a holder killed with
  ``os._exit`` releases it at once, a waiter whose lock file was removed
  under it retries on the current file, and two threads racing
  ``extract_with_claim`` run the extractor once;
* corrupt entries are quarantined (never served, never fatal) and
  ``verify`` / ``repro-campaign cache verify`` audit and repair offline;
* the maintenance lock excludes two genuinely concurrent processes.
"""

from __future__ import annotations

import fcntl
import os
import pickle
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions
from repro.errors import AnalysisError
from repro.studies import (
    CacheCorruptionWarning,
    Campaign,
    CheckpointPolicy,
    DiskExtractionCache,
    ParamSpace,
    SweepRunner,
    arm_crash_points,
    crashpoint,
    disarm_crash_points,
    fault_region,
)
from repro.studies.cli import main
from repro.studies.faults import (
    CRASH_EXIT_CODE,
    CRASH_MATRIX,
    CRASH_OPS,
    CRASH_POINTS_ENV,
    current_fault_region,
    parse_crash_points,
)
from repro.studies.store import _exclusive_lock, build_envelope
from repro.substrate.extraction import SubstrateExtractionOptions

TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6))

KEY = "ab" + "0" * 62  # a well-formed (64-hex-ish) content key


def make_chaos_campaign() -> Campaign:
    """One corner, two frequencies — the smallest real campaign (also built
    by the subprocess children, which import this module by name)."""
    return Campaign(
        name="chaos_store",
        space=ParamSpace({"vtune": (0.0,),
                          "noise_frequency": (1e6, 4e6)}),
        options=VcoExperimentOptions(vtune_values=(0.0,),
                                     noise_frequencies=(1e6, 4e6),
                                     flow=TINY_MESH))


@pytest.fixture(scope="module")
def chaos_campaign():
    return make_chaos_campaign()


@pytest.fixture(scope="module")
def chaos_reference(technology, chaos_campaign, tmp_path_factory):
    """One healthy run and its saved NPZ to compare every recovery to."""
    cache_dir = tmp_path_factory.mktemp("chaos-ref-cache")
    runner = SweepRunner(technology, cache=DiskExtractionCache(cache_dir))
    result = runner.run(chaos_campaign)
    npz, _ = result.save(tmp_path_factory.mktemp("chaos-ref") / "ref.npz")
    return result, npz


def _child_env(crash_points: str | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env.pop(CRASH_POINTS_ENV, None)
    env.pop("REPRO_FSYNC", None)  # fsync crash points only exist when on
    if crash_points:
        env[CRASH_POINTS_ENV] = crash_points
    return env


_REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")
_TESTS_DIR = str(Path(__file__).resolve().parent)


# -- crash-point harness ------------------------------------------------------


def test_parse_crash_points_grammar():
    assert parse_crash_points("claimer:write:1, journal:rename:2") == {
        ("claimer", "write"): 1, ("journal", "rename"): 2}
    assert parse_crash_points("") == {}
    with pytest.raises(AnalysisError, match="expected tag:op:k"):
        parse_crash_points("claimer:write")
    with pytest.raises(AnalysisError, match="unknown crash-point op"):
        parse_crash_points("claimer:chmod:1")
    with pytest.raises(AnalysisError, match="not an integer"):
        parse_crash_points("claimer:write:soon")
    with pytest.raises(AnalysisError, match="hit >= 1"):
        parse_crash_points("claimer:write:0")


def test_crashpoint_is_inert_unless_region_and_op_match():
    # If any of these fired the whole pytest process would exit 137, so
    # merely surviving the calls is the assertion.
    disarm_crash_points()
    crashpoint("write")
    with fault_region("claimer"):
        crashpoint("write")
    try:
        arm_crash_points("claimer:rename:1,other:write:1")
        crashpoint("rename")                  # no region on the stack
        with fault_region("publisher"):
            crashpoint("rename")              # wrong region
        with fault_region("claimer"):
            crashpoint("write")               # right region, wrong op
            crashpoint("fsync")
        with fault_region("claimer"):
            with fault_region("inner"):
                assert current_fault_region() == "inner"
                crashpoint("rename")          # innermost tag wins: no match
    finally:
        disarm_crash_points()
    assert current_fault_region() is None


_CRASH_DEMO = """
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[2]]
from repro.studies import fault_region
from repro.studies.store import atomic_write

target = Path(sys.argv[1]) / "entry.bin"
with fault_region("demo"):
    atomic_write(target, lambda handle: handle.write(b"payload"))
print("survived")
"""


@pytest.mark.parametrize("op", CRASH_OPS)
def test_crashpoint_kills_the_process_at_the_kth_op(tmp_path, op):
    script = tmp_path / "demo.py"
    script.write_text(_CRASH_DEMO)
    target = tmp_path / "entry.bin"

    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path), _REPO_SRC],
        capture_output=True, text=True, timeout=120,
        env=_child_env(f"demo:{op}:1"))
    assert proc.returncode == CRASH_EXIT_CODE, proc.stderr
    # Killed before os.replace every time: the destination never appears.
    assert not target.exists()

    # Unarmed control: same code, clean exit, file lands.
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path), _REPO_SRC],
        capture_output=True, text=True, timeout=120, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert target.read_bytes() == b"payload"


# -- corruption quarantine and offline audit ----------------------------------


def test_corrupt_entry_is_quarantined_and_reextracted(tmp_path):
    writer = DiskExtractionCache(tmp_path / "cache")
    writer.store(KEY, "good-payload")
    entry = writer.entry_path(KEY)
    blob = bytearray(entry.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    entry.write_bytes(bytes(blob))

    reader = DiskExtractionCache(tmp_path / "cache")
    with pytest.warns(CacheCorruptionWarning):
        assert reader.lookup(KEY) is None
    assert reader.stats.corrupted == 1
    assert reader.stats.quarantined == 1
    assert not entry.exists()
    quarantined = list(reader.quarantine_dir.iterdir())
    assert len(quarantined) == 1
    assert quarantined[0].name.startswith(entry.name)

    # The slot is clean again: a re-store round-trips.
    reader.store(KEY, "fresh-payload")
    assert reader.lookup(KEY) == "fresh-payload"


def _seed_dirty_cache(cache_dir: Path) -> DiskExtractionCache:
    """One good entry, one torn entry, one valid entry from older code."""
    cache = DiskExtractionCache(cache_dir)
    cache.store(KEY, "good-payload")
    torn_key = "cd" + "1" * 62
    cache.store(torn_key, "torn-payload")
    torn = cache.entry_path(torn_key)
    torn.write_bytes(torn.read_bytes()[:-7])
    stale_key = "ef" + "2" * 62
    stale = cache.entry_path(stale_key)
    stale.parent.mkdir(parents=True, exist_ok=True)
    with stale.open("wb") as handle:
        pickle.dump(build_envelope(stale_key, "old-payload",
                                   code="sha-of-older-extraction-code"),
                    handle)
    return cache


def test_verify_classifies_without_touching_then_repairs(tmp_path):
    cache = _seed_dirty_cache(tmp_path / "cache")

    report = cache.verify()
    assert (report["checked"], report["ok"]) == (3, 1)
    assert [c["entry"] for c in report["corrupt"]] == [
        "cd" + "1" * 62 + ".flow.pkl"]
    assert report["stale"] == ["ef" + "2" * 62 + ".flow.pkl"]
    assert len(cache) == 3                      # audit-only: nothing moved
    assert report["quarantine_entries"] == 0

    repaired = cache.verify(repair=True)
    assert repaired["quarantine_entries"] == 1  # torn entry moved aside
    assert len(cache) == 1                      # stale entry evicted
    final = cache.verify()
    assert (final["ok"], final["corrupt"], final["stale"]) == (1, [], [])


def test_cli_cache_verify_reports_and_repairs(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    _seed_dirty_cache(cache_dir)

    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 3
    audit = capsys.readouterr().out
    assert "corrupt" in audit and "stale" in audit

    assert main(["cache", "verify", "--cache-dir", str(cache_dir),
                 "--repair"]) == 3
    capsys.readouterr()

    assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
    clean = capsys.readouterr().out
    assert "ok" in clean


# -- the kernel claim lock ----------------------------------------------------


def test_claim_is_exclusive_until_released(tmp_path):
    cache = DiskExtractionCache(tmp_path / "cache")
    lock = cache.lease_path(KEY)
    with _exclusive_lock(lock, "claim", timeout=0.0):
        assert lock.read_text() == (
            f"pid {os.getpid()} on {socket.gethostname()}")
        # A second open file description is a second claimant, even in the
        # same process: it must time out, naming the holder.
        with pytest.raises(AnalysisError,
                           match=f"claim is locked by pid {os.getpid()}"):
            with _exclusive_lock(lock, "claim", timeout=0.1, poll=0.02):
                pass
    assert not lock.exists()                     # released and removed
    with _exclusive_lock(lock, "claim", timeout=0.0):
        assert lock.exists()


def test_claim_retries_when_its_lock_file_is_removed_under_it(
        tmp_path, monkeypatch):
    lock = tmp_path / "x.lease"
    real_flock = fcntl.flock
    locked = []

    def flock_after_release(descriptor, operation):
        # The previous holder unlinks the file between this waiter's open
        # and its flock: the lock it then wins is on a dead inode.
        if not locked:
            lock.unlink()
        locked.append(os.fstat(descriptor).st_ino)
        return real_flock(descriptor, operation)

    lock.write_text("pid 1 on elsewhere")
    monkeypatch.setattr(fcntl, "flock", flock_after_release)
    with _exclusive_lock(lock, "claim", timeout=1.0):
        assert len(locked) == 2                  # retried on a fresh file
        assert os.stat(lock).st_ino == locked[-1]
        assert lock.read_text().startswith(f"pid {os.getpid()} ")
    assert not lock.exists()


def test_extract_with_claim_runs_the_extractor_exactly_once(tmp_path):
    holder = DiskExtractionCache(tmp_path / "cache")
    waiter = DiskExtractionCache(tmp_path / "cache")
    calls: list[str] = []
    results: dict[str, object] = {}

    def slow_extract():
        calls.append("holder")
        time.sleep(0.6)
        return "the-flow"

    def forbidden_extract():
        raise AssertionError("waiter must reuse the holder's publish")

    def hold():
        results["holder"] = holder.extract_with_claim(KEY, slow_extract)

    thread = threading.Thread(target=hold)
    thread.start()
    deadline = time.monotonic() + 5.0
    while not holder.lease_path(KEY).exists():   # wait until the claim is on disk
        assert time.monotonic() < deadline
        time.sleep(0.01)
    results["waiter"] = waiter.extract_with_claim(
        KEY, forbidden_extract, poll_seconds=0.05)
    thread.join(timeout=10.0)

    assert results == {"holder": "the-flow", "waiter": "the-flow"}
    assert calls == ["holder"]
    assert waiter.stats.lease_waits >= 1
    assert holder.stats.publishes == 1
    assert not holder.lease_path(KEY).exists()   # released


def test_extract_with_claim_takes_over_a_dead_holders_key(tmp_path,
                                                         die_holding):
    cache_dir = tmp_path / "cache"
    die_holding(cache_dir, "claim")
    survivor = DiskExtractionCache(cache_dir)
    orphan = survivor.lease_path(KEY)
    assert orphan.exists()                       # the dead holder's lock file

    calls: list[str] = []

    def extract():
        calls.append("survivor")
        return "recomputed"

    started = time.monotonic()
    flow = survivor.extract_with_claim(KEY, extract, wait_timeout=5.0)
    assert time.monotonic() - started < 5.0
    assert flow == "recomputed"
    assert calls == ["survivor"]                 # exactly once
    assert survivor.stats.leases_claimed == 1
    assert not orphan.exists()
    assert DiskExtractionCache(cache_dir).lookup(KEY) == "recomputed"


def test_extract_with_claim_times_out_on_a_live_holder(tmp_path):
    holder = DiskExtractionCache(tmp_path / "cache")
    waiter = DiskExtractionCache(tmp_path / "cache")
    with _exclusive_lock(holder.lease_path(KEY), "claim"):
        with pytest.raises(AnalysisError,
                           match=f"pid {os.getpid()}.*waiting for another "
                                 "process"):
            waiter.extract_with_claim(KEY, lambda: "never", wait_timeout=0.3,
                                      poll_seconds=0.05)


# -- maintenance lock across processes ----------------------------------------


def _hammer_maintenance_lock(cache_dir: str) -> int:
    """Child-process body: count mutual-exclusion violations under the lock."""
    cache = DiskExtractionCache(cache_dir)
    collisions = 0
    flag = Path(cache_dir) / "in-critical-section"
    for _ in range(5):
        with cache.maintenance_lock(timeout=60.0):
            try:
                descriptor = os.open(flag,
                                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                collisions += 1
                continue
            os.close(descriptor)
            time.sleep(0.02)
            os.unlink(flag)
    return collisions


def test_maintenance_lock_excludes_across_processes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    DiskExtractionCache(cache_dir)               # create the directory once
    with ProcessPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(_hammer_maintenance_lock, cache_dir)
                   for _ in range(2)]
        assert sum(f.result(timeout=120) for f in futures) == 0


# -- concurrent SweepRunner processes: exactly-once extraction ----------------


_RUNNER_CHILD = """
import os, sys, time, uuid
sys.path[:0] = [sys.argv[5], sys.argv[6]]
from test_chaos_store import make_chaos_campaign
import repro.studies.runner as runner_module
from repro.studies import DiskExtractionCache, SweepRunner
from repro.technology import make_technology

cache_dir, marker_dir, out_npz, gate = sys.argv[1:5]
real_extract = runner_module.run_extraction_flow

def counted_extract(cell, technology, options=None, **kwargs):
    # One O_EXCL marker per physical extraction: the parent counts them to
    # prove the four racing runners extracted the shared variant once.
    os.makedirs(marker_dir, exist_ok=True)
    marker = os.path.join(
        marker_dir, "extract-%d-%s" % (os.getpid(), uuid.uuid4().hex))
    descriptor = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    os.close(descriptor)
    return real_extract(cell, technology, options=options, **kwargs)

runner_module.run_extraction_flow = counted_extract
technology = make_technology()
while not os.path.exists(gate):   # start all four on the same instant
    time.sleep(0.01)
runner = SweepRunner(technology, cache=DiskExtractionCache(cache_dir))
result = runner.run(make_chaos_campaign())
npz, _ = result.save(out_npz)
print(npz)
"""


def test_four_runner_processes_share_one_cache_exactly_once(
        chaos_reference, tmp_path):
    _, reference_npz = chaos_reference
    cache_dir = tmp_path / "shared-cache"
    marker_dir = tmp_path / "markers"
    gate = tmp_path / "gate"
    script = tmp_path / "runner_child.py"
    script.write_text(_RUNNER_CHILD)

    children = [
        subprocess.Popen(
            [sys.executable, str(script), str(cache_dir), str(marker_dir),
             str(tmp_path / f"out-{index}.npz"), str(gate),
             _REPO_SRC, _TESTS_DIR],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_child_env())
        for index in range(4)
    ]
    gate.write_text("go")
    for child in children:
        _, stderr = child.communicate(timeout=600)
        assert child.returncode == 0, stderr

    # Exactly one physical extraction across the four processes.
    assert len(list(marker_dir.iterdir())) == 1
    # Every runner's merged result is bit-identical to the serial reference.
    for index in range(4):
        child_npz = tmp_path / f"out-{index}.npz"
        assert child_npz.read_bytes() == reference_npz.read_bytes()


# -- the chaos matrix: kill -9 at every injected point, resume bit-identical --


_CHAOS_CHILD = """
import sys
sys.path[:0] = [sys.argv[3], sys.argv[4]]
from test_chaos_store import make_chaos_campaign
from repro.studies import CheckpointPolicy, DiskExtractionCache, SweepRunner
from repro.technology import make_technology

cache_dir, journal_dir = sys.argv[1:3]
runner = SweepRunner(make_technology(), cache=DiskExtractionCache(cache_dir))
runner.run(make_chaos_campaign(),
           checkpoint=CheckpointPolicy(path=journal_dir, every_corners=1))
raise SystemExit("unreachable: the armed crash point must kill the process")
"""


@pytest.mark.parametrize(("tag", "op"), CRASH_MATRIX,
                         ids=[f"{op}-{tag}" for tag, op in CRASH_MATRIX])
def test_crash_matrix_cache_never_torn_and_resume_bit_identical(
        technology, chaos_campaign, chaos_reference, tmp_path, tag, op):
    _, reference_npz = chaos_reference
    cache_dir = tmp_path / "cache"
    journal_dir = tmp_path / "run.journal"
    script = tmp_path / "chaos_child.py"
    script.write_text(_CHAOS_CHILD)

    proc = subprocess.run(
        [sys.executable, str(script), str(cache_dir), str(journal_dir),
         _REPO_SRC, _TESTS_DIR],
        capture_output=True, text=True, timeout=600,
        env=_child_env(f"{tag}:{op}:1"))
    assert proc.returncode == CRASH_EXIT_CODE, (proc.stdout, proc.stderr)

    # Invariant 1: whatever instant the kill landed on, the cache is never
    # torn — every entry on disk is fully valid (or would be quarantined).
    audit = DiskExtractionCache(cache_dir).verify()
    assert audit["corrupt"] == []

    # Invariant 2: resume completes despite a claim file left by the dead
    # holder (whose lock died with it) and reproduces the healthy result
    # byte for byte.
    resumer = SweepRunner(technology, cache=DiskExtractionCache(cache_dir))
    resumed = resumer.run(
        chaos_campaign,
        checkpoint=CheckpointPolicy(path=journal_dir, every_corners=1))
    assert resumed.complete
    resumed_npz, _ = resumed.save(tmp_path / "resumed.npz")
    assert resumed_npz.read_bytes() == reference_npz.read_bytes()

    # Invariant 3: no duplicate publish ever landed — the entry is unique.
    entries = list((cache_dir / "objects").glob(f"*/*.flow.pkl"))
    assert len(entries) == 1
