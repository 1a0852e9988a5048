"""Persistent, content-addressed extraction store (disk-backed cache).

:class:`DiskExtractionCache` is the on-disk sibling of the in-memory
:class:`~repro.studies.cache.ExtractionCache`: the same counted
``key``/``lookup``/``store``/``get_or_extract`` protocol, but every stored
:class:`~repro.core.flow.FlowResult` is also written to a cache directory so
campaigns warm-start *across processes and CI runs*.  The layout is

.. code-block:: text

    <cache_dir>/
        objects/<key[:2]>/<key>.flow.pkl     one envelope per extraction
        leases/<key[:2]>/<key>.lease         in-progress extraction claims
        leases/<key[:2]>/<key>.gen           monotonic fencing generation
        quarantine/                          corrupt entries moved aside

where ``key`` is the stable SHA-256 content hash of (layout cell, mesh spec,
technology) computed by :func:`~repro.studies.cache.extraction_key` — the
same hash whichever process computes it, which is what makes the directory
shareable between runs, machines and CI caches.

Robustness properties:

* **durable atomic writes** — entries are written to a temporary file in the
  same directory, fsync-ed, ``os.replace``-d into place, and the directory
  entry fsync-ed, so a killed process (or a power cut) never leaves a
  half-written or vanishing entry behind (``REPRO_FSYNC=0`` trades the
  power-cut guarantee for speed; the kill -9 guarantee stands regardless);
* **checksummed envelopes** — every entry records the SHA-256 of its pickled
  payload, verified on every read, so silent bit-rot is detected instead of
  deserialised;
* **versioned format** — every entry also records the on-disk format version
  *and* a fingerprint of the extraction-relevant source code; entries
  written by an incompatible store version or by older extraction code are
  silently discarded and re-extracted (counted as evictions), so a stale
  cache directory can never reproduce pre-fix numbers;
* **corruption quarantine** — an unreadable, truncated or checksum-failing
  entry produces a warning, is moved to ``<cache>/quarantine/`` for
  post-mortem, and the extraction simply re-runs (counted in
  ``stats.corrupted`` and ``stats.quarantined``); a corrupt cache can never
  fail a campaign.  ``verify()`` (CLI: ``repro-campaign cache verify``)
  audits every entry offline;
* **lease-based claiming** — ``claim``/``publish``/``release`` (used
  together via :meth:`DiskExtractionCache.extract_with_claim`) let N
  crash-prone processes share one directory and still extract each variant
  exactly once: ``O_CREAT | O_EXCL`` lease files carry the holder's
  pid/host/nonce and a monotonic fencing generation, the holder refreshes
  the lease mtime from a keepalive thread, waiters poll for the published
  entry, stale leases (dead holders) are stolen with a generation bump, and
  a revived zombie's late ``publish`` is rejected because its nonce no
  longer matches the lease on disk;
* **counters** — ``stats`` extends the in-memory cache's hit/miss counters
  with eviction, corruption, quarantine and lease counts, so tests and CI
  can assert warm-start *and* exactly-once behaviour.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import pickle
import socket
import tempfile
import threading
import time
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from ..core.flow import FlowResult, run_extraction_flow
from ..errors import AnalysisError
from ..obs import get_logger, trace_span
from .cache import CacheStats, ExtractionCache
from .faults import crashpoint, fault_region

logger = get_logger(__name__)

#: Version of the on-disk entry format.  Bump when the envelope layout or the
#: pickled payload becomes incompatible; older entries are then evicted and
#: re-extracted instead of being misread.  v2: the flow is pickled separately
#: into ``payload`` bytes with a ``sha256`` checksum over them.
DISK_FORMAT_VERSION = 2

#: Suffix of entry files under ``objects/``.
ENTRY_SUFFIX = ".flow.pkl"

#: Suffix of lease files under ``leases/``.
LEASE_SUFFIX = ".lease"

#: A lease whose mtime is older than this is presumed orphaned by a dead or
#: wedged holder and may be stolen (the holder's keepalive thread refreshes
#: the mtime far more often than this while it is alive).
DEFAULT_LEASE_STALE_SECONDS = 30.0

#: Source trees (relative to the ``repro`` package) whose code determines the
#: extraction output.  Their contents are hashed into every entry envelope, so
#: entries computed by *older extraction code* are evicted and re-extracted
#: instead of being served stale — the content key alone only covers the
#: extraction *inputs* (layout cell, mesh spec, technology).  The linear
#: solvers are listed too: the Kron solve computes every cached admittance.
_EXTRACTION_SOURCES = (
    "core/flow.py",
    "devices",
    "extraction",
    "interconnect",
    "layout",
    "netlist",
    "package",
    "simulator/linalg",
    "simulator/solver.py",
    "substrate",
    "technology",
)

# Per-process uniquifier for tombstone / quarantine file names.
_unique = itertools.count()


@functools.lru_cache(maxsize=1)
def _fsync_enabled() -> bool:
    """Whether durable writes actually fsync (``REPRO_FSYNC=0`` disables).

    Disabling trades the power-cut guarantee for speed — atomicity against
    ``kill -9`` (the rename discipline) is preserved either way.  Cached per
    process; tests toggling the variable call ``_fsync_enabled.cache_clear()``.
    """
    return os.environ.get("REPRO_FSYNC", "1").lower() not in (
        "0", "false", "off")


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives a power cut."""
    try:
        descriptor = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds: best effort
    try:
        os.fsync(descriptor)
    except OSError:
        pass
    finally:
        os.close(descriptor)


def atomic_write(path: Path, write: Callable, binary: bool = True,
                 durable: bool = True) -> None:
    """Write a file atomically: temp file in the same directory + replace.

    ``write`` receives the open temporary file handle.  A crash anywhere
    before the final ``os.replace`` leaves only a ``.tmp-*`` orphan, never a
    truncated file at ``path``.  With ``durable`` (the default) the
    temporary file is fsync-ed before the rename and the parent directory
    fsync-ed after it, so the entry also survives power loss; see
    :func:`_fsync_enabled`.  Shared by the cache store and the result
    persistence, so the cleanup subtleties live in one place.  The
    ``write``/``fsync``/``rename`` steps are chaos-instrumented
    (:func:`~repro.studies.faults.crashpoint`).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                                            suffix=".tmp")
    fsync = durable and _fsync_enabled()
    try:
        with os.fdopen(descriptor, "wb" if binary else "w") as handle:
            crashpoint("write")
            write(handle)
            if fsync:
                handle.flush()
                crashpoint("fsync")
                os.fsync(handle.fileno())
        crashpoint("rename")
        os.replace(tmp_name, path)
    except BaseException:
        os.unlink(tmp_name)
        raise
    if fsync:
        _fsync_dir(path.parent)


@functools.lru_cache(maxsize=1)
def extraction_code_fingerprint() -> str:
    """SHA-256 over the extraction-relevant sources of this installation."""
    import repro

    digest = hashlib.sha256()
    try:
        root = Path(repro.__file__).parent
        for relative in _EXTRACTION_SOURCES:
            path = root / relative
            files = [path] if path.is_file() else sorted(path.rglob("*.py"))
            for source in files:
                digest.update(str(source.relative_to(root)).encode())
                digest.update(source.read_bytes())
    except OSError:
        # Sourceless installation: fall back to a constant so caches still
        # work (entries then invalidate only via DISK_FORMAT_VERSION).
        return "unknown"
    return digest.hexdigest()


def _envelope_digest(format_version, key, code, payload: bytes) -> str:
    """Checksum covering the envelope's identity fields and payload bytes.

    Covering ``format``/``key``/``code`` too (not just the payload) lets the
    reader tell a *validly signed* entry from other extraction code (silent
    eviction) apart from a torn or bit-rotten one whose code field merely
    reads differently (quarantine + warning).
    """
    digest = hashlib.sha256()
    for part in (str(format_version), str(key), str(code)):
        digest.update(part.encode())
        digest.update(b"\x00")
    digest.update(payload)
    return digest.hexdigest()


def build_envelope(key: str, flow, code: str | None = None,
                   format_version: int | None = None,
                   generation: int | None = None) -> dict:
    """Assemble a checksummed on-disk entry envelope for ``flow``.

    ``code``/``format_version`` override the current fingerprints — that is
    for tests building entries "written by other code"; production writers
    use the defaults.
    """
    code = code if code is not None else extraction_code_fingerprint()
    format_version = (format_version if format_version is not None
                      else DISK_FORMAT_VERSION)
    payload = pickle.dumps(flow, protocol=pickle.HIGHEST_PROTOCOL)
    envelope = {
        "format": format_version,
        "key": key,
        "code": code,
        "sha256": _envelope_digest(format_version, key, code, payload),
        "payload": payload,
        "host": socket.gethostname(),
        "pid": os.getpid(),
    }
    if generation is not None:
        envelope["generation"] = generation
    return envelope


@dataclass
class DiskCacheStats(CacheStats):
    """Hit/miss counters plus the disk-specific robustness counters."""

    evictions: int = 0  #: entries removed by pruning or version mismatch
    corrupted: int = 0  #: unreadable entries discarded (then re-extracted)
    quarantined: int = 0  #: corrupt entries moved to ``quarantine/``
    leases_claimed: int = 0  #: extraction leases this process won
    leases_stolen: int = 0  #: stale leases of dead holders this process stole
    lease_waits: int = 0  #: extractions reused by waiting on another's lease
    publishes: int = 0  #: lease-fenced publishes accepted
    publishes_rejected: int = 0  #: zombie publishes fenced off (stolen lease)

    _DISK_COUNTERS = ("evictions", "corrupted", "quarantined",
                      "leases_claimed", "leases_stolen", "lease_waits",
                      "publishes", "publishes_rejected")

    def reset(self) -> None:
        super().reset()
        for name in self._DISK_COUNTERS:
            setattr(self, name, 0)


class CacheCorruptionWarning(UserWarning):
    """A cache entry could not be read and was quarantined."""


def _read_sentinel(path: Path) -> dict | None:
    """Best-effort read of a JSON sentinel (lease / lock) file.

    Returns ``None`` for a missing, empty or torn file — callers treat that
    as "holder state unknown" and fall back to mtime-based staleness.
    """
    try:
        text = path.read_text()
    except OSError:
        return None
    try:
        info = json.loads(text)
    except ValueError:
        return None
    return info if isinstance(info, dict) else None


def _sentinel_age(path: Path) -> float | None:
    """Seconds since the sentinel's last heartbeat (mtime); None if gone."""
    try:
        return time.time() - path.stat().st_mtime
    except OSError:
        return None


def _steal_sentinel(path: Path, stale_seconds: float) -> bool:
    """Atomically remove ``path`` iff it is genuinely stale.

    The naive steal — ``unlink()`` after observing a stale mtime — has a
    window: between the staleness check and the unlink another process can
    steal the sentinel *and recreate a fresh one*, which the unlink then
    destroys.  Stealing by ``os.replace`` to a uniquely-named tombstone is
    atomic (exactly one stealer wins; losers get ``FileNotFoundError``), and
    re-checking the tombstone's mtime *after* the rename closes the race:
    a fresh sentinel grabbed by mistake is re-linked back into place
    (without clobbering any newer claimant) instead of deleted.

    Returns ``True`` iff a stale sentinel was removed and the caller may
    race to create its own.
    """
    tombstone = path.parent / (
        f"{path.name}.steal-{os.getpid()}-{next(_unique)}")
    crashpoint("rename")
    try:
        os.replace(path, tombstone)
    except FileNotFoundError:
        return False  # another stealer (or the releasing holder) beat us
    age = _sentinel_age(tombstone)
    if age is not None and age > stale_seconds:
        tombstone.unlink(missing_ok=True)
        return True
    # We renamed a *fresh* sentinel out from under a live holder (our
    # staleness check raced another steal + recreate).  Put it back without
    # clobbering anything created in the meantime.
    try:
        os.link(tombstone, path)
    except OSError:
        pass  # a newer claimant already recreated the path: leave theirs
    tombstone.unlink(missing_ok=True)
    return False


def _release_sentinel(path: Path, nonce: str) -> bool:
    """Remove ``path`` iff its content still carries ``nonce`` (atomic).

    The same tombstone technique as :func:`_steal_sentinel`: rename first,
    then inspect, so a releaser can never unlink a successor's fresh
    sentinel after its own was stolen.
    """
    tombstone = path.parent / (
        f"{path.name}.release-{os.getpid()}-{next(_unique)}")
    try:
        os.replace(path, tombstone)
    except FileNotFoundError:
        return False  # stolen and released already
    info = _read_sentinel(tombstone)
    if info is not None and info.get("nonce") == nonce:
        tombstone.unlink(missing_ok=True)
        return True
    # Not ours (stolen while we raced): restore the rightful holder's file.
    try:
        os.link(tombstone, path)
    except OSError:
        pass
    tombstone.unlink(missing_ok=True)
    return False


@dataclass
class ExtractionLease:
    """A claimed, fenced right to extract one cache key.

    Obtained from :meth:`DiskExtractionCache.claim`; prove liveness with
    :meth:`refresh` (or the :meth:`keepalive` context manager, which runs a
    daemon thread), hand the result to :meth:`DiskExtractionCache.publish`,
    and always :meth:`release`.  ``generation`` is the monotonic fencing
    token: every successful claim of a key bumps it, so a publish guarded by
    a stolen (older-generation) lease is rejected.
    """

    key: str
    path: Path
    nonce: str
    generation: int
    stale_seconds: float = DEFAULT_LEASE_STALE_SECONDS
    _stop: threading.Event = field(default_factory=threading.Event,
                                   repr=False, compare=False)

    def is_current(self) -> bool:
        """Whether the lease file on disk is still ours (nonce match)."""
        info = _read_sentinel(self.path)
        return info is not None and info.get("nonce") == self.nonce

    def refresh(self) -> bool:
        """Heartbeat: bump the lease mtime iff the lease is still ours."""
        if not self.is_current():
            return False
        try:
            os.utime(self.path)
        except OSError:
            return False
        return True

    @contextlib.contextmanager
    def keepalive(self):
        """Refresh the lease from a daemon thread while the body runs."""
        interval = max(0.05, self.stale_seconds / 4.0)
        self._stop.clear()

        def beat() -> None:
            while not self._stop.wait(interval):
                if not self.refresh():
                    return  # stolen: stop heartbeating a stranger's lease

        thread = threading.Thread(target=beat, daemon=True,
                                  name=f"lease-keepalive-{self.key[:8]}")
        thread.start()
        try:
            yield self
        finally:
            self._stop.set()
            thread.join(timeout=2.0)

    def release(self) -> bool:
        """Remove the lease iff still ours; idempotent and steal-safe."""
        self._stop.set()
        return _release_sentinel(self.path, self.nonce)


class DiskExtractionCache(ExtractionCache):
    """Content-addressed :class:`FlowResult` store persisted under a directory.

    Drop-in replacement for :class:`ExtractionCache` anywhere the sweep engine
    accepts a cache (``SweepRunner(cache=...)``, ``spur_sweep(cache=...)``).
    Entries read from disk are memoised in memory, so repeated lookups within
    one process unpickle at most once.  Safe to share between concurrent,
    crash-prone processes: see the module docstring and
    :meth:`extract_with_claim`.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike[str],
        extractor: Callable[..., FlowResult] = run_extraction_flow,
        lease_stale_seconds: float = DEFAULT_LEASE_STALE_SECONDS,
    ):
        super().__init__(extractor)
        self.stats = DiskCacheStats()
        self.cache_dir = Path(cache_dir)
        self.objects_dir = self.cache_dir / "objects"
        self.leases_dir = self.cache_dir / "leases"
        self.quarantine_dir = self.cache_dir / "quarantine"
        self.lease_stale_seconds = float(lease_stale_seconds)
        self.objects_dir.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        """On-disk location of the entry for ``key``."""
        return self.objects_dir / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def lease_path(self, key: str) -> Path:
        """On-disk location of the extraction lease for ``key``."""
        return self.leases_dir / key[:2] / f"{key}{LEASE_SUFFIX}"

    def _generation_path(self, key: str) -> Path:
        return self.leases_dir / key[:2] / f"{key}.gen"

    def _entry_files(self) -> list[Path]:
        # Orphaned ".tmp-*" files from a killed write are not entries.
        return sorted(path for path in self.objects_dir.glob(f"*/*{ENTRY_SUFFIX}")
                      if not path.name.startswith("."))

    def iter_keys(self) -> Iterator[str]:
        """Keys of every entry currently on disk."""
        for path in self._entry_files():
            yield path.name[: -len(ENTRY_SUFFIX)]

    # -- sizing --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entry_files())

    def __contains__(self, key: str) -> bool:
        return key in self._entries or self.entry_path(key).exists()

    def disk_bytes(self) -> int:
        """Total size of all entry files in bytes."""
        return sum(path.stat().st_size for path in self._entry_files())

    # -- reads ---------------------------------------------------------------

    def lookup(self, key: str) -> FlowResult | None:
        """Counted lookup through the memory memo, then the disk store."""
        flow = self._entries.get(key)
        if flow is None:
            flow = self._read(key)
            if flow is not None:
                self._entries[key] = flow
        if flow is not None:
            self.stats.hits += 1
            self._touch(key)
        else:
            self.stats.misses += 1
        return flow

    def _touch(self, key: str) -> None:
        """Bump the entry's mtime so pruning approximates LRU, not FIFO."""
        try:
            os.utime(self.entry_path(key))
        except OSError:
            pass

    @staticmethod
    def _unpack(envelope, key: str | None = None) -> FlowResult:
        """Validate a current-format envelope and return its flow; raise if bad."""
        if not isinstance(envelope, dict) or "format" not in envelope:
            raise ValueError("not a cache envelope")
        if key is not None and envelope.get("key") != key:
            raise ValueError(
                f"envelope key {envelope.get('key')!r} does not match "
                f"file name")
        payload = envelope.get("payload")
        if not isinstance(payload, bytes):
            raise ValueError("envelope payload is not bytes")
        digest = _envelope_digest(envelope.get("format"),
                                  envelope.get("key"),
                                  envelope.get("code"), payload)
        if digest != envelope.get("sha256"):
            raise ValueError(
                f"envelope checksum mismatch (stored "
                f"{str(envelope.get('sha256'))[:12]}…, computed "
                f"{digest[:12]}…)")
        return pickle.loads(payload)

    @staticmethod
    def _foreign_format(envelope) -> bool:
        """Whether the envelope declares another on-disk format version."""
        return (isinstance(envelope, dict)
                and envelope.get("format") is not None
                and envelope.get("format") != DISK_FORMAT_VERSION)

    def _read(self, key: str) -> FlowResult | None:
        """Uncounted disk read; quarantines (and survives) bad entries."""
        path = self.entry_path(key)
        if not path.exists():
            return None
        try:
            with trace_span("cache.disk_read"), path.open("rb") as handle:
                envelope = pickle.load(handle)
            if self._foreign_format(envelope):
                # Written by another version of the store: its layout is
                # unknown to us, so evict silently and re-extract.
                path.unlink(missing_ok=True)
                self.stats.evictions += 1
                return None
            flow = self._unpack(envelope, key)
            if envelope.get("code") != extraction_code_fingerprint():
                # Validly checksummed, but written by different extraction
                # code: evict silently and re-extract.
                path.unlink(missing_ok=True)
                self.stats.evictions += 1
                return None
            return flow
        except Exception as exc:  # noqa: BLE001 - any bad entry => re-extract
            # Warn (visible to interactive callers and pytest) *and* log with
            # structured context (machine-readable alongside the run logs).
            destination = self._quarantine(path)
            where = (f"quarantined to {destination.name!r}" if destination
                     else "already removed")
            warnings.warn(
                f"discarding corrupted extraction-cache entry {path.name!r} "
                f"({type(exc).__name__}: {exc}; {where}); the extraction "
                f"will re-run",
                CacheCorruptionWarning,
                stacklevel=3,
            )
            logger.warning(
                "cache corruption: entry=%s error=%s message=%s action=%s",
                path.name,
                type(exc).__name__,
                exc,
                where,
            )
            self.stats.corrupted += 1
            return None

    def _quarantine(self, path: Path) -> Path | None:
        """Move a corrupt entry aside for post-mortem; atomic, never raises."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        destination = self.quarantine_dir / (
            f"{path.name}.{os.getpid()}-{next(_unique)}")
        try:
            os.replace(path, destination)
        except OSError:
            path.unlink(missing_ok=True)
            return None
        self.stats.quarantined += 1
        return destination

    # -- writes --------------------------------------------------------------

    def store(self, key: str, flow: FlowResult,
              generation: int | None = None) -> None:
        """Write-through install: memoise and atomically persist the entry.

        Keys are content-addressed, so an entry file that already exists
        holds the same payload — re-seeding a warm layout skips the pickle
        and rewrite entirely (a stale-code entry left behind by this
        shortcut is still caught and evicted by the next disk read).
        ``generation`` records the publishing lease's fencing token in the
        envelope (observability only; not part of validation).
        """
        self._entries[key] = flow
        path = self.entry_path(key)
        if path.exists():
            self._touch(key)
            return
        envelope = build_envelope(key, flow, generation=generation)
        with trace_span("cache.disk_write"), fault_region("publisher"):
            atomic_write(path, lambda handle: pickle.dump(
                envelope, handle, protocol=pickle.HIGHEST_PROTOCOL))

    # -- lease-based claiming ------------------------------------------------

    def claim(self, key: str) -> ExtractionLease | None:
        """Try to win the exclusive right to extract ``key``.

        Returns a fenced :class:`ExtractionLease` on success, or ``None``
        while another *live* holder's lease exists (callers wait and reuse
        the published entry — see :meth:`extract_with_claim`).  A stale
        lease (dead or wedged holder) is stolen on the way: the steal bumps
        the key's fencing generation, so the previous holder — even one that
        revives later — can no longer publish.
        """
        path = self.lease_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with fault_region("claimer"):
            while True:
                try:
                    descriptor = os.open(
                        path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    age = _sentinel_age(path)
                    if age is None:
                        continue  # holder just released: race for it again
                    if age <= self.lease_stale_seconds:
                        return None  # live holder: wait, don't duplicate
                    if _steal_sentinel(path, self.lease_stale_seconds):
                        self.stats.leases_stolen += 1
                        logger.warning(
                            "stole stale extraction lease: key=%s age=%.1fs",
                            key[:12], age)
                    continue
                # Lease file won.  Fence it: bump the persistent generation
                # (only ever written by the current holder, so it is
                # monotonic across lease lineages), then record our identity.
                nonce = uuid.uuid4().hex
                try:
                    generation = self._bump_generation(key)
                    token = json.dumps({
                        "key": key,
                        "pid": os.getpid(),
                        "host": socket.gethostname(),
                        "nonce": nonce,
                        "generation": generation,
                        "code": extraction_code_fingerprint(),
                        "created": time.time(),
                    }).encode()
                    crashpoint("write")
                    os.write(descriptor, token)
                    if _fsync_enabled():
                        crashpoint("fsync")
                        os.fsync(descriptor)
                finally:
                    os.close(descriptor)
                self.stats.leases_claimed += 1
                return ExtractionLease(
                    key=key, path=path, nonce=nonce, generation=generation,
                    stale_seconds=self.lease_stale_seconds)

    def _bump_generation(self, key: str) -> int:
        """Advance the key's fencing generation (holder-only, durable)."""
        path = self._generation_path(key)
        try:
            current = int(path.read_text())
        except (OSError, ValueError):
            current = 0
        generation = current + 1
        atomic_write(path, lambda handle: handle.write(str(generation)),
                     binary=False)
        return generation

    def publish(self, lease: ExtractionLease, flow: FlowResult) -> bool:
        """Install an extracted flow under the lease's fencing guard.

        Returns ``False`` — without writing — when the lease was stolen
        (this process stalled past the stale bound and a newer-generation
        holder took over): the classic revived-zombie write is fenced off.
        The flow is still memoised in-process (content addressing makes it
        numerically identical to whatever the new holder publishes).
        """
        if not lease.is_current():
            self.stats.publishes_rejected += 1
            logger.warning(
                "rejected zombie publish: key=%s generation=%d "
                "(lease stolen by a newer holder)",
                lease.key[:12], lease.generation)
            self._entries[lease.key] = flow
            return False
        self.store(lease.key, flow, generation=lease.generation)
        self.stats.publishes += 1
        return True

    def release(self, lease: ExtractionLease) -> bool:
        """Release a lease (idempotent; safe after a steal)."""
        return lease.release()

    def extract_with_claim(
        self,
        key: str,
        extract: Callable[[], FlowResult],
        wait_timeout: float | None = None,
        poll_seconds: float | None = None,
    ) -> FlowResult:
        """Exactly-once extraction across processes sharing this directory.

        The full claim protocol in one call: reuse a published entry if one
        exists; otherwise claim the key and extract under a keepalive
        heartbeat, publish, release; or — when another live process holds
        the claim — block, polling until its entry appears (then reuse it)
        or its lease goes stale or vanishes unpublished (then race to take
        over).  ``wait_timeout`` bounds the *total* time spent waiting on
        other holders (``AnalysisError`` past it); extraction time under our
        own claim is never bounded here.
        """
        poll = poll_seconds if poll_seconds is not None else max(
            0.05, min(0.5, self.lease_stale_seconds / 4.0))
        deadline = (time.monotonic() + wait_timeout
                    if wait_timeout is not None else None)
        while True:
            if key in self._entries or self.entry_path(key).exists():
                flow = self.lookup(key)
                if flow is not None:
                    return flow
                # Entry was corrupt (now quarantined): fall through, claim,
                # and re-extract.
            lease = self.claim(key)
            if lease is not None:
                try:
                    with trace_span("cache.extract_claimed", key=key[:12]), \
                            lease.keepalive():
                        flow = extract()
                    self.publish(lease, flow)
                finally:
                    lease.release()
                return flow
            # Someone else is extracting this key right now: wait for their
            # publish instead of duplicating the work.
            self.stats.lease_waits += 1
            lease_path = self.lease_path(key)
            while True:
                if self.entry_path(key).exists():
                    break  # published: reuse it
                age = _sentinel_age(lease_path)
                if age is None or age > self.lease_stale_seconds:
                    break  # released unpublished or gone stale: take over
                if deadline is not None and time.monotonic() > deadline:
                    raise AnalysisError(
                        f"timed out after {wait_timeout:.0f}s waiting for "
                        f"another process to extract cache key {key[:12]}… "
                        f"(lease {lease_path} still fresh); raise "
                        "wait_timeout or investigate the holder")
                time.sleep(poll)

    # -- maintenance ---------------------------------------------------------

    #: A maintenance lock older than this is presumed orphaned by a killed
    #: process and is stolen rather than waited on forever.
    _LOCK_STALE_SECONDS = 60.0

    @contextlib.contextmanager
    def maintenance_lock(self, timeout: float = 10.0):
        """Advisory ``.lock`` sentinel serialising destructive maintenance.

        ``prune`` and ``clear`` of *concurrent processes sharing one cache
        directory* acquire this before deleting entries, so two overlapping
        prunes cannot double-count evictions or race each other's directory
        scans.  It is advisory only: readers and writers (``lookup`` /
        ``store``) never take it — their atomic per-entry files already make
        them safe against a concurrent prune.  A lock left behind by a
        killed process goes stale after an age bound and is stolen via an
        atomic rename-to-tombstone (:func:`_steal_sentinel`), so a stealer
        can never delete the *fresh* lock a faster stealer just created;
        release uses the same discipline (:func:`_release_sentinel`), so a
        holder whose lock was stolen cannot delete its successor's.
        """
        lock = self.cache_dir / ".lock"
        nonce = uuid.uuid4().hex
        token = json.dumps({"pid": os.getpid(),
                            "host": socket.gethostname(),
                            "nonce": nonce}).encode()
        deadline = time.monotonic() + timeout
        while True:
            try:
                descriptor = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(descriptor, token)
                os.close(descriptor)
                break
            except FileExistsError:
                age = _sentinel_age(lock)
                if age is None:
                    continue  # holder just released it: retry at once
                if age > self._LOCK_STALE_SECONDS:
                    _steal_sentinel(lock, self._LOCK_STALE_SECONDS)
                    continue
                if time.monotonic() > deadline:
                    raise AnalysisError(
                        f"extraction cache {self.cache_dir} is locked by "
                        "another maintenance operation (.lock held "
                        f"{age:.0f}s); retry later or remove the lock "
                        "file if its owner is gone"
                    ) from None
                time.sleep(0.05)
        try:
            yield
        finally:
            _release_sentinel(lock, nonce)

    def clear(self) -> None:
        """Remove every entry (memory and disk) and reset the counters."""
        with self.maintenance_lock():
            for path in self._entry_files():
                path.unlink(missing_ok=True)
        self._entries.clear()
        self.stats.reset()

    def prune(
        self,
        max_entries: int | None = None,
        max_age_seconds: float | None = None,
    ) -> tuple[int, int]:
        """Evict old entries; returns ``(entries_removed, bytes_freed)``.

        ``max_entries`` keeps only the most recently touched entries;
        ``max_age_seconds`` drops entries older than the given age.  Both
        criteria may be combined; with neither, nothing is removed.  The
        scan-and-delete runs under :meth:`maintenance_lock`.
        """
        with self.maintenance_lock():
            return self._prune_locked(max_entries, max_age_seconds)

    def _prune_locked(
        self,
        max_entries: int | None,
        max_age_seconds: float | None,
    ) -> tuple[int, int]:
        stamped = []
        for path in self._entry_files():
            stat = path.stat()
            stamped.append((stat.st_mtime, stat.st_size, path))
        stamped.sort(key=lambda entry: entry[0], reverse=True)  # newest first
        doomed = []
        if max_age_seconds is not None:
            cutoff = time.time() - max_age_seconds
            doomed = [entry for entry in stamped if entry[0] < cutoff]
            stamped = [entry for entry in stamped if entry[0] >= cutoff]
        if max_entries is not None and max_entries >= 0:
            doomed.extend(stamped[max_entries:])
        freed = 0
        for _mtime, size, path in doomed:
            key = path.name[: -len(ENTRY_SUFFIX)]
            self._entries.pop(key, None)
            freed += size
            path.unlink(missing_ok=True)
            self.stats.evictions += 1
        return len(doomed), freed

    # -- offline audit -------------------------------------------------------

    def verify(self, repair: bool = False) -> dict:
        """Audit every on-disk entry without serving or memoising any.

        Checks each envelope's structure, key-vs-filename consistency and
        payload checksum, and classifies entries as ``ok``, ``corrupt``
        (unreadable / torn / checksum mismatch) or ``stale`` (other format
        version or extraction-code fingerprint).  With ``repair``, corrupt
        entries are quarantined and stale ones evicted, exactly as a live
        read would; without it, nothing on disk changes.  Returns the report
        the CLI's ``cache verify`` prints.
        """
        report: dict = {
            "cache_dir": str(self.cache_dir),
            "checked": 0, "ok": 0,
            "corrupt": [], "stale": [],
            "repaired": bool(repair),
            "quarantine_entries": sum(
                1 for path in self.quarantine_dir.glob("*")
                if path.is_file()) if self.quarantine_dir.is_dir() else 0,
        }
        for path in self._entry_files():
            key = path.name[: -len(ENTRY_SUFFIX)]
            report["checked"] += 1
            try:
                with path.open("rb") as handle:
                    envelope = pickle.load(handle)
                if self._foreign_format(envelope):
                    report["stale"].append(path.name)
                    if repair:
                        path.unlink(missing_ok=True)
                        self.stats.evictions += 1
                    continue
                self._unpack(envelope, key)
                if envelope.get("code") != extraction_code_fingerprint():
                    report["stale"].append(path.name)
                    if repair:
                        path.unlink(missing_ok=True)
                        self.stats.evictions += 1
                    continue
            except Exception as exc:  # noqa: BLE001 - classify, don't die
                report["corrupt"].append(
                    {"entry": path.name,
                     "error": f"{type(exc).__name__}: {exc}"})
                if repair:
                    self.stats.corrupted += 1
                    if self._quarantine(path):
                        report["quarantine_entries"] += 1
                continue
            report["ok"] += 1
        return report

    def describe(self) -> dict[str, int | str]:
        """Headline numbers for the CLI's ``cache stats`` report."""
        described = {
            "cache_dir": str(self.cache_dir),
            "entries": len(self),
            "disk_bytes": self.disk_bytes(),
            "format_version": DISK_FORMAT_VERSION,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
        }
        for name in DiskCacheStats._DISK_COUNTERS:
            described[name] = getattr(self.stats, name)
        return described
