"""Campaign-level result persistence: NPZ tidy arrays + JSON metadata.

A persisted :class:`~repro.studies.results.SweepResult` is two files:

* ``<stem>.npz`` — the result's point columns (axis coordinates, spur
  outcomes, and the full per-entry decomposition; schema in
  :mod:`repro.studies.columns`) stored as raw float64 / complex128 arrays,
  written and read as they are, so a save/load round trip is
  **bit-identical**: every column, and every spur power computed from one,
  reproduces the original exactly, not to within a tolerance;
* ``<stem>.meta.json`` — a human-readable sidecar recording the campaign
  spec (axes, base layout spec, options, content fingerprint), the git SHA
  and timestamp of the run, the backend, wall-clock timings and the cache
  traffic, plus the layout variants (knobs, spec, cache key).

The extracted :class:`~repro.core.flow.FlowResult` models are deliberately
*not* persisted here — they live in the
:class:`~repro.studies.store.DiskExtractionCache`, keyed by the very cache
keys the sidecar records.  A loaded result therefore carries
``variants[i].flow is None``; everything the summary queries
(:meth:`~repro.studies.results.SweepResult.worst_spur`,
:meth:`~repro.studies.results.SweepResult.spur_vs_frequency`, ...) need is in
the point columns themselves.

Partially-completed campaigns are resumed by loading the partial result and
passing it to :meth:`SweepRunner.run(campaign, resume_from=...)
<repro.studies.runner.SweepRunner.run>` (or ``repro-campaign resume`` on the
command line), which skips every corner the stored result already covers.
The runner reads the corners of a :class:`CampaignJournal` into the same
kind of prior result, so both sources resume through one path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import struct
import subprocess
import time
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import AnalysisError, CornerFailure
from ..layout.testchips import VcoLayoutSpec
from .columns import ordered
from .faults import crashpoint, fault_region
from .store import _fsync_enabled, atomic_write

if TYPE_CHECKING:
    from .columns import CornerBlock
    from .results import SweepResult

#: Version of the persisted result format (NPZ columns + sidecar schema).
RESULT_FORMAT_VERSION = 1

#: Version of the crash-recovery journal layout: format 3 appends CRC-framed
#: ``CornerBlock`` pickles to one log; format 2 wrote a segment file per flush.
JOURNAL_FORMAT_VERSION = 3


def result_paths(path: str | Path) -> tuple[Path, Path]:
    """Normalise a result path into its ``(.npz, .meta.json)`` pair."""
    path = Path(path)
    if path.name.endswith(".meta.json"):
        path = path.with_name(path.name[: -len(".meta.json")] + ".npz")
    elif path.suffix != ".npz":
        path = path.with_suffix(".npz")
    return path, path.with_name(path.name[: -len(".npz")] + ".meta.json")


def git_sha(cwd: str | Path | None = None) -> str | None:
    """HEAD commit of the enclosing git checkout, or ``None`` outside one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


# -- saving -------------------------------------------------------------------


def save_result(result: "SweepResult", path: str | Path) -> tuple[Path, Path]:
    """Persist ``result`` to ``<stem>.npz`` + ``<stem>.meta.json``.

    Returns the two paths written.  Each file is written atomically
    (temporary file + ``os.replace``), and the sidecar lands *before* the
    NPZ: a save killed between the two replaces leaves at worst a sidecar
    without arrays, which ``load`` reports as "no sweep result" and
    ``resume`` treats as a fresh start.  A torn pair from *overwriting* an
    older save is caught at load time: the sidecar records a checksum of
    the arrays (deterministic — identical data saves byte-identically), and
    ``load`` refuses a sidecar whose checksum does not match the NPZ.
    """
    npz_path, meta_path = result_paths(path)
    columns = ordered(result.columns)
    meta = _encode_meta(result)
    meta["arrays_sha256"] = _columns_checksum(columns)

    atomic_write(meta_path, lambda handle: handle.write(
        json.dumps(meta, indent=2) + "\n"), binary=False)
    atomic_write(npz_path, lambda handle: np.savez(handle, **columns))
    return npz_path, meta_path


def _columns_checksum(columns: dict[str, np.ndarray]) -> str:
    """Deterministic SHA-256 over the tidy arrays (names, dtypes, bytes).

    Stored in the sidecar and re-verified on load, so an interrupted
    overwrite can never silently pair one save's metadata with another
    save's arrays — even when both runs have the same number of records.
    """
    digest = hashlib.sha256()
    for name in sorted(columns):
        array = columns[name]
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _encode_meta(result: "SweepResult") -> dict:
    return {
        "format": RESULT_FORMAT_VERSION,
        "kind": "repro-sweep-result",
        "campaign_name": result.campaign_name,
        "backend_name": result.backend_name,
        "axes": {name: list(values) for name, values in result.axes.items()},
        "campaign": result.campaign_spec,
        "git_sha": git_sha(),
        "created_unix": time.time(),
        "n_records": len(result),
        "timings": {
            "wall_seconds": result.wall_seconds,
        },
        "cache": {
            "hits": result.cache_hits,
            "misses": result.cache_misses,
        },
        "variants": [
            {
                "index": variant.index,
                "knobs": variant.knobs,
                "spec": asdict(variant.spec),
                "cache_key": variant.cache_key,
                "from_cache": variant.from_cache,
            }
            for variant in result.variants
        ],
        # NaN coordinates (failures with no pinned corner) survive the round
        # trip: json emits the non-strict NaN token, which json.loads accepts.
        "failures": [asdict(failure) for failure in result.failures],
        "solver_degradations": dict(result.solver_degradations),
        # Per-run metrics snapshot + span aggregates (repro.obs schema);
        # None for runs made without the telemetry layer.
        "telemetry": result.telemetry,
    }


# -- loading ------------------------------------------------------------------


def load_result(path: str | Path) -> "SweepResult":
    """Load a persisted sweep result (``.npz`` plus its ``.meta.json``)."""
    from .results import SweepResult, VariantRecord

    npz_path, meta_path = result_paths(path)
    if not npz_path.exists():
        raise AnalysisError(f"no sweep result at {npz_path}")
    if not meta_path.exists():
        raise AnalysisError(f"sweep result {npz_path} has no metadata sidecar "
                            f"({meta_path.name} is missing)")
    try:
        meta = json.loads(meta_path.read_text())
    except (ValueError, OSError) as exc:
        raise AnalysisError(
            f"unreadable sweep-result metadata {meta_path}: {exc}") from exc
    if meta.get("kind") != "repro-sweep-result":
        raise AnalysisError(f"{meta_path} is not a sweep-result sidecar")
    if meta.get("format") != RESULT_FORMAT_VERSION:
        raise AnalysisError(
            f"sweep result {npz_path} uses on-disk format "
            f"{meta.get('format')!r}; this version reads "
            f"{RESULT_FORMAT_VERSION}")

    with np.load(npz_path, allow_pickle=False) as archive:
        columns = {name: archive[name] for name in archive.files}
    if meta.get("arrays_sha256") != _columns_checksum(columns):
        raise AnalysisError(
            f"sweep result {npz_path} is inconsistent with its sidecar "
            f"{meta_path.name} (array checksum mismatch): the pair was "
            "torn by an interrupted save — re-run or delete the result")

    variants = [
        VariantRecord(index=entry["index"],
                      knobs={k: float(v) for k, v in entry["knobs"].items()},
                      spec=VcoLayoutSpec(**entry["spec"]),
                      cache_key=entry["cache_key"],
                      flow=None,
                      from_cache=bool(entry["from_cache"]))
        for entry in meta.get("variants", [])
    ]
    failures = [CornerFailure(**entry) for entry in meta.get("failures", [])]
    return SweepResult(
        campaign_name=meta["campaign_name"],
        backend_name=meta["backend_name"],
        axes={name: tuple(values) for name, values in meta["axes"].items()},
        columns=columns,
        variants=variants,
        wall_seconds=float(meta["timings"]["wall_seconds"]),
        cache_hits=int(meta["cache"]["hits"]),
        cache_misses=int(meta["cache"]["misses"]),
        campaign_spec=meta.get("campaign"),
        failures=failures,
        solver_degradations={name: int(count) for name, count
                             in meta.get("solver_degradations", {}).items()},
        telemetry=meta.get("telemetry"))


# -- crash-safe checkpoint journal --------------------------------------------


def journal_path_for(result_path: str | Path) -> Path:
    """Default journal directory of a result path (``<stem>.journal/``)."""
    return result_paths(result_path)[0].with_suffix(".journal")


@dataclass(frozen=True)
class CheckpointPolicy:
    """When the runner flushes completed corners to the crash journal.

    A flush (one ``fdatasync``-ed journal frame) happens whenever
    ``every_corners`` corners have completed since the last one *or*
    ``every_seconds`` have elapsed — whichever comes first — plus once when
    the campaign ends (even by an abort), so a kill or power cut at any
    instant loses at most one interval of work.
    """

    path: str | Path                #: journal directory
    every_corners: int = 1          #: flush after this many completed corners
    every_seconds: float = 30.0     #: ... or after this much wall clock

    def __post_init__(self):
        if self.every_corners < 1:
            raise AnalysisError("checkpoint every_corners must be >= 1")
        # ``not > 0`` also rejects NaN, which would silently turn off the
        # time-based flush; ``inf`` means "by corner count only".
        if not self.every_seconds > 0:
            raise AnalysisError(
                "checkpoint every_seconds must be positive, got "
                f"{self.every_seconds}")


class CampaignJournal:
    """Append-only crash-recovery journal of completed sweep corners.

    A directory holding a ``manifest.json`` (campaign name and fingerprint,
    validated on recovery) and one ``corners.log`` of frames, each a ``<II``
    header (payload length, CRC-32) and a pickled tuple of
    :class:`~repro.studies.columns.CornerBlock` (point columns and solver
    counts).  Each :meth:`append` writes one frame and, unless
    ``REPRO_FSYNC=0``, ``fdatasync``-s it.  A kill mid-write leaves a torn
    last frame, which recovery stops at and :meth:`open` cuts off: the next
    run recovers every flushed corner and recomputes the rest.

    Recovered blocks are bit-identical to the originals, so a
    killed-and-resumed campaign saves the same NPZ arrays, byte for byte, as
    an uninterrupted one, and records the same solver degradations.
    """

    _MANIFEST = "manifest.json"
    _LOG = "corners.log"
    _FRAME = struct.Struct("<II")       # payload length, zlib.crc32(payload)

    def __init__(self, directory: str | Path, *, campaign_name: str,
                 fingerprint: str | None):
        self.directory = Path(directory)
        self.campaign_name = campaign_name
        self.fingerprint = fingerprint
        self._descriptor: int | None = None

    # -- writing -------------------------------------------------------------

    def open(self) -> None:
        """Open the log for appending, cut off its torn tail and write the
        manifest (idempotent)."""
        if self._descriptor is not None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        log = self.directory / self._LOG
        self._descriptor = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                                   0o644)
        os.ftruncate(self._descriptor, self._frames(log)[1])
        # Written after the log exists: the manifest's directory fsync also
        # persists the log's directory entry, once per open.
        manifest = {"kind": "repro-campaign-journal",
                    "format": JOURNAL_FORMAT_VERSION,
                    "campaign_name": self.campaign_name,
                    "fingerprint": self.fingerprint}
        atomic_write(self.directory / self._MANIFEST, lambda handle:
                     handle.write(json.dumps(manifest, indent=2) + "\n"),
                     binary=False)

    def append(self, blocks: "Sequence[CornerBlock]") -> None:
        """Durably append one batch of completed-corner blocks as one frame,
        inside the ``"journal"`` chaos region (crash points before the write
        and the ``fdatasync``)."""
        self.open()
        payload = pickle.dumps(tuple(blocks), protocol=4)
        frame = memoryview(self._FRAME.pack(len(payload), zlib.crc32(payload))
                           + payload)
        with fault_region("journal"):
            crashpoint("write")
            while frame:
                frame = frame[os.write(self._descriptor, frame):]
            if _fsync_enabled():
                crashpoint("fsync")
                os.fdatasync(self._descriptor)

    def close(self) -> None:
        """Release the log's descriptor (idempotent)."""
        if self._descriptor is not None:
            os.close(self._descriptor)
            self._descriptor = None

    def discard(self) -> None:
        """Delete the journal (after its corners landed in a saved result)."""
        self.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- recovery ------------------------------------------------------------

    @classmethod
    def _frames(cls, log: Path) -> tuple[list[memoryview], int]:
        """The payloads of the log's leading whole frames and the bytes they
        span: reading stops at the first short or bad-CRC frame."""
        data = memoryview(log.read_bytes() if log.exists() else b"")
        payloads, end = [], 0
        while end + cls._FRAME.size <= len(data):
            length, crc = cls._FRAME.unpack_from(data, end)
            start = end + cls._FRAME.size
            payload = data[start:start + length]
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            payloads.append(payload)
            end = start + length
        return payloads, end

    @classmethod
    def recover(cls, directory: str | Path, *,
                fingerprint: str | None) -> "list[CornerBlock]":
        """Load every journaled corner block, validating the campaign
        fingerprint.

        Returns the blocks in point order, ``[]`` when no journal exists.  A
        journal of a *different* campaign (fingerprint mismatch) or format
        raises instead of being silently mixed into the wrong result.
        """
        directory = Path(directory)
        manifest_path = directory / cls._MANIFEST
        if not manifest_path.exists():
            return []
        try:
            manifest = json.loads(manifest_path.read_text())
        except (ValueError, OSError) as exc:
            raise AnalysisError(
                f"unreadable campaign journal manifest {manifest_path}: "
                f"{exc}") from exc
        if manifest.get("kind") != "repro-campaign-journal":
            raise AnalysisError(f"{directory} is not a campaign journal")
        if manifest.get("format") != JOURNAL_FORMAT_VERSION:
            raise AnalysisError(
                f"campaign journal {directory} uses format "
                f"{manifest.get('format')!r}; this version reads "
                f"{JOURNAL_FORMAT_VERSION}")
        stored = manifest.get("fingerprint")
        if None not in (fingerprint, stored) and stored != fingerprint:
            raise AnalysisError(
                f"campaign journal {directory} belongs to campaign "
                f"{manifest.get('campaign_name')!r} (fingerprint mismatch); "
                "delete it or point the checkpoint elsewhere")
        blocks: dict[int, "CornerBlock"] = {}
        for payload in cls._frames(directory / cls._LOG)[0]:
            for block in pickle.loads(payload):      # re-runs dedupe cleanly
                blocks.setdefault(block.first_point, block)
        return [blocks[first] for first in sorted(blocks)]
