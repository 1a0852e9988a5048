"""Persistent, content-addressed extraction store (disk-backed cache).

:class:`DiskExtractionCache` is the on-disk sibling of the in-memory
:class:`~repro.studies.cache.ExtractionCache`: the same counted
``key``/``lookup``/``store``/``get_or_extract`` protocol, but every stored
:class:`~repro.core.flow.FlowResult` is also written to a cache directory so
campaigns warm-start *across processes and CI runs*.  The layout is

.. code-block:: text

    <cache_dir>/
        .lock                                maintenance lock (prune, clear)
        objects/<key[:2]>/<key>.flow.pkl     one envelope per extraction
        leases/<key[:2]>/<key>.lease         in-progress extraction claims
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
  audits every entry offline and lists the ``.tmp-*`` orphans of killed
  writes; ``verify(repair=True)`` deletes the hour-old ones;
* **kernel-lock claiming** — :meth:`DiskExtractionCache.extract_with_claim`
  lets N crash-prone processes share one directory and still extract each
  variant exactly once.  The extracting process holds an exclusive
  ``fcntl.flock`` on the key's ``.lease`` file; the others poll for the
  lock, then find the published entry and reuse it.  The kernel drops a
  dead holder's lock the instant it dies, so there is no staleness bound,
  heartbeat or fencing token: a process that holds the lock is alive.  The
  same lock on ``<cache_dir>/.lock`` serialises ``prune`` and ``clear``.
  ``flock`` locks belong to the open file description, which ``fork``
  shares, so the campaign parent never holds a claim while a worker pool
  forks: pool workers claim in the worker, and the only inline extraction
  is the one-worker path, which starts no pool;
* **counters** — ``stats`` extends the in-memory cache's hit/miss counters
  with eviction, corruption, quarantine and claim counts, so tests and CI
  can assert warm-start *and* exactly-once behaviour.
"""

from __future__ import annotations

import contextlib
import fcntl
import functools
import hashlib
import itertools
import math
import os
import pickle
import socket
import tempfile
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from ..core.flow import FlowResult
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

#: Suffix of the claim lock files under ``leases/``.
LEASE_SUFFIX = ".lease"

#: Age in seconds past which ``verify(repair=True)`` deletes a ``.tmp-*``
#: file under ``objects/``.  A live publish renames its temporary file
#: within seconds of creating it, so an hour-old one is the orphan of a
#: killed write.
ORPHAN_TMP_SECONDS = 3600.0

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
    "simulator/linalg.py",
    "simulator/solver.py",
    "substrate",
    "technology",
)

# Per-process uniquifier for quarantine file names.
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


def _umask_file_mode() -> int:
    """``0o666`` under this process's umask: the mode ``open()`` creates.

    The umask can only be read by setting it, so it is set to a
    restrictive ``0o077`` for the instant of the probe.
    """
    umask = os.umask(0o077)
    os.umask(umask)
    return 0o666 & ~umask


def atomic_write(path: Path, write: Callable, binary: bool = True) -> None:
    """Write a file atomically: temp file in the same directory + replace.

    ``write`` receives the open temporary file handle.  A crash anywhere
    before the final ``os.replace`` leaves only a ``.tmp-*`` orphan, never a
    truncated file at ``path``.  The temporary file is fsync-ed before the
    rename and the parent directory fsync-ed after it, so the entry also
    survives power loss (unless :func:`_fsync_enabled` says otherwise).
    Shared by the cache store and the result persistence, so the cleanup
    subtleties live in one place.  The file
    gets the mode a plain ``open()`` would give it (``mkstemp`` alone
    leaves ``0o600``).  The ``write``/``fsync``/``rename`` steps are
    chaos-instrumented (:func:`~repro.studies.faults.crashpoint`).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-",
                                            suffix=".tmp")
    fsync = _fsync_enabled()
    try:
        with os.fdopen(descriptor, "wb" if binary else "w") as handle:
            os.fchmod(descriptor, _umask_file_mode())
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
                   format_version: int | None = None) -> dict:
    """Assemble a checksummed on-disk entry envelope for ``flow``.

    ``code``/``format_version`` override the current fingerprints — that is
    for tests building entries "written by other code"; production writers
    use the defaults.
    """
    code = code if code is not None else extraction_code_fingerprint()
    format_version = (format_version if format_version is not None
                      else DISK_FORMAT_VERSION)
    payload = pickle.dumps(flow, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "format": format_version,
        "key": key,
        "code": code,
        "sha256": _envelope_digest(format_version, key, code, payload),
        "payload": payload,
        "host": socket.gethostname(),
        "pid": os.getpid(),
    }


@dataclass
class DiskCacheStats(CacheStats):
    """Hit/miss counters plus the disk-specific robustness counters."""

    evictions: int = 0  #: entries removed by pruning or version mismatch
    corrupted: int = 0  #: unreadable entries discarded (then re-extracted)
    quarantined: int = 0  #: corrupt entries moved to ``quarantine/``
    leases_claimed: int = 0  #: extraction claims this process won
    lease_waits: int = 0  #: claims that found another's entry published
    publishes: int = 0  #: entries this process extracted and published

    _DISK_COUNTERS = ("evictions", "corrupted", "quarantined",
                      "leases_claimed", "lease_waits", "publishes")

    def reset(self) -> None:
        super().reset()
        for name in self._DISK_COUNTERS:
            setattr(self, name, 0)


class CacheCorruptionWarning(UserWarning):
    """A cache entry could not be read and was quarantined."""


def _lock_holder(path: Path) -> str:
    """Who holds the lock file at ``path``, as its holder recorded it."""
    try:
        holder = path.read_text().strip()
    except OSError:
        holder = ""
    return holder or "a process that has not recorded itself yet"


@contextlib.contextmanager
def _exclusive_lock(path: Path, what: str, timeout: float | None = None,
                    poll: float = 0.05):
    """Hold an exclusive ``flock`` on ``path`` for the body, then remove it.

    The one lock of the store: the per-key extraction claim and the
    cache-wide maintenance lock.  Waiters poll ``LOCK_NB`` every ``poll``
    seconds; past ``timeout`` (``None`` waits for ever) they raise an
    :class:`AnalysisError` that names ``what`` and its holder.  The kernel
    drops the lock of a holder that dies, so a lock file left behind by a
    crash is simply locked again by the next process.

    On exit the holder unlinks the file and only then closes it.  A waiter
    that opened the file before the unlink may win the lock on the
    now-unlinked inode, so after every win the descriptor's inode is
    compared with the one at ``path``; on a mismatch the waiter retries on
    the current file.  The holder records ``pid <pid> on <host>`` in the
    file (no fsync: the record is for error messages only).

    ``flock`` locks belong to the open file description, and a forked child
    shares it: never hold this lock across a ``fork``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        descriptor = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(descriptor)
            if deadline is not None and time.monotonic() > deadline:
                raise AnalysisError(
                    f"{what} is locked by {_lock_holder(path)}; timed out "
                    f"after {timeout:.1f}s waiting for another process to "
                    "release it") from None
            time.sleep(poll)
            continue
        try:
            if os.path.samestat(os.fstat(descriptor), os.stat(path)):
                break
        except FileNotFoundError:
            pass
        os.close(descriptor)  # released and unlinked under us: retry
    try:
        with fault_region("claimer"):
            os.ftruncate(descriptor, 0)
            crashpoint("write")
            os.write(descriptor,
                     f"pid {os.getpid()} on {socket.gethostname()}".encode())
        yield
    finally:
        path.unlink(missing_ok=True)
        os.close(descriptor)


class DiskExtractionCache(ExtractionCache):
    """Content-addressed :class:`FlowResult` store persisted under a directory.

    Drop-in replacement for :class:`ExtractionCache` anywhere the sweep engine
    accepts a cache (``SweepRunner(cache=...)``, ``spur_sweep(cache=...)``).
    Entries read from disk are memoised in memory, so repeated lookups within
    one process unpickle at most once.  Safe to share between concurrent,
    crash-prone processes: see the module docstring and
    :meth:`extract_with_claim`.
    """

    def __init__(self, cache_dir: str | os.PathLike[str]):
        super().__init__()
        self.stats = DiskCacheStats()
        self.cache_dir = Path(cache_dir)
        self.objects_dir = self.cache_dir / "objects"
        self.leases_dir = self.cache_dir / "leases"
        self.quarantine_dir = self.cache_dir / "quarantine"
        self.objects_dir.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def entry_path(self, key: str) -> Path:
        """On-disk location of the entry for ``key``."""
        return self.objects_dir / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def lease_path(self, key: str) -> Path:
        """On-disk location of the extraction claim lock for ``key``."""
        return self.leases_dir / key[:2] / f"{key}{LEASE_SUFFIX}"

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
    def _unpack(envelope, key: str) -> FlowResult:
        """Validate a current-format envelope and return its flow; raise if bad."""
        if not isinstance(envelope, dict) or "format" not in envelope:
            raise ValueError("not a cache envelope")
        if envelope.get("key") != key:
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

    def _classify(self, path: Path, key: str,
                  ) -> tuple[str, FlowResult | Exception | None]:
        """Read the entry at ``path``: ``("ok", flow)``, ``("stale", None)``
        or ``("corrupt", exc)``.

        An entry is stale when it declares another on-disk format version
        (its layout is unknown to us) or, validly checksummed, was written
        by different extraction code.  It is corrupt when it cannot be read
        at all, is torn, names another key or fails its payload checksum.
        """
        try:
            with trace_span("cache.disk_read"), path.open("rb") as handle:
                envelope = pickle.load(handle)
            if (isinstance(envelope, dict)
                    and envelope.get("format") is not None
                    and envelope.get("format") != DISK_FORMAT_VERSION):
                return "stale", None
            flow = self._unpack(envelope, key)
        except Exception as exc:  # noqa: BLE001 - any bad entry is corrupt
            return "corrupt", exc
        if envelope.get("code") != extraction_code_fingerprint():
            return "stale", None
        return "ok", flow

    def _evict(self, path: Path) -> None:
        """Delete an entry file and count the eviction."""
        path.unlink(missing_ok=True)
        self.stats.evictions += 1

    def _read(self, key: str) -> FlowResult | None:
        """Uncounted disk read; evicts stale and quarantines (and survives)
        corrupt entries, so the extraction re-runs."""
        path = self.entry_path(key)
        if not path.exists():
            return None
        status, found = self._classify(path, key)
        if status == "ok":
            return found
        if status == "stale":
            self._evict(path)
            return None
        exc = found
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

    def store(self, key: str, flow: FlowResult) -> None:
        """Write-through install: memoise and atomically persist the entry.

        Keys are content-addressed, so an entry file that already exists
        holds the same payload — re-seeding a warm layout skips the pickle
        and rewrite entirely (a stale-code entry left behind by this
        shortcut is still caught and evicted by the next disk read).
        """
        self._entries[key] = flow
        path = self.entry_path(key)
        if path.exists():
            self._touch(key)
            return
        envelope = build_envelope(key, flow)
        with trace_span("cache.disk_write"), fault_region("publisher"):
            atomic_write(path, lambda handle: pickle.dump(
                envelope, handle, protocol=pickle.HIGHEST_PROTOCOL))

    # -- claiming and maintenance -------------------------------------------

    def _published(self, key: str) -> FlowResult | None:
        """The published entry for ``key`` (counted lookup), if readable."""
        if key in self._entries or self.entry_path(key).exists():
            return self.lookup(key)
        return None

    def extract_with_claim(
        self,
        key: str,
        extract: Callable[[], FlowResult],
        wait_timeout: float | None = None,
        poll_seconds: float = 0.05,
    ) -> FlowResult:
        """Exactly-once extraction across processes sharing this directory.

        Reuse a published entry if one exists.  Otherwise take the key's
        claim lock (:func:`_exclusive_lock`), waiting while another process
        holds it, and look again: a holder that finished publishes before it
        releases, so a waiter reuses its entry.  Only a claimant that still
        finds nothing (or a corrupt entry, now quarantined) extracts,
        publishes through :func:`atomic_write` and releases.  A holder that
        dies releases the claim with its process, unpublished, and the next
        claimant extracts.  ``wait_timeout`` bounds the time spent waiting
        on other holders (``AnalysisError`` naming the holder past it);
        extraction time under our own claim is never bounded here.
        """
        flow = self._published(key)
        if flow is not None:
            return flow
        with _exclusive_lock(
                self.lease_path(key),
                f"extraction claim on cache key {key[:12]}…",
                timeout=wait_timeout, poll=poll_seconds):
            flow = self._published(key)
            if flow is not None:
                self.stats.lease_waits += 1
                return flow
            self.stats.leases_claimed += 1
            with trace_span("cache.extract_claimed", key=key[:12]):
                flow = extract()
            self.store(key, flow)
            self.stats.publishes += 1
        return flow

    def maintenance_lock(self, timeout: float = 10.0):
        """Exclusive lock on ``<cache_dir>/.lock`` for destructive maintenance.

        ``prune`` and ``clear`` of *concurrent processes sharing one cache
        directory* take it before deleting entries, so two overlapping
        prunes cannot double-count evictions or race each other's directory
        scans.  It is advisory only: readers and writers (``lookup`` /
        ``store``) never take it — their atomic per-entry files already make
        them safe against a concurrent prune.  It is the same kernel lock as
        the extraction claim (:func:`_exclusive_lock`), so a killed holder
        releases it at once.
        """
        return _exclusive_lock(
            self.cache_dir / ".lock",
            f"extraction cache {self.cache_dir} (maintenance)",
            timeout=timeout)

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
        criteria may be combined; with neither, nothing is removed.  A
        negative ``max_entries`` or a negative or non-finite
        ``max_age_seconds`` raises :class:`AnalysisError`.  The
        scan-and-delete runs under :meth:`maintenance_lock`.
        """
        if max_entries is not None and max_entries < 0:
            raise AnalysisError(
                f"cache prune needs max_entries >= 0, got {max_entries}")
        if max_age_seconds is not None and not (
                math.isfinite(max_age_seconds) and max_age_seconds >= 0):
            raise AnalysisError(
                "cache prune needs a finite max age >= 0, got "
                f"{max_age_seconds} s")
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
        if max_entries is not None:
            doomed.extend(stamped[max_entries:])
        freed = 0
        for _mtime, size, path in doomed:
            key = path.name[: -len(ENTRY_SUFFIX)]
            self._entries.pop(key, None)
            freed += size
            self._evict(path)
        return len(doomed), freed

    # -- offline audit -------------------------------------------------------

    def verify(self, repair: bool = False) -> dict:
        """Audit every on-disk entry without serving or memoising any.

        Checks each envelope's structure, key-vs-filename consistency and
        payload checksum, and classifies entries as ``ok``, ``corrupt``
        (unreadable / torn / checksum mismatch) or ``stale`` (other format
        version or extraction-code fingerprint).  ``.tmp-*`` files left
        under ``objects/`` by killed writes are listed as ``orphans``; they
        are not entries, so they are neither corrupt nor stale.  With
        ``repair`` the audit runs under :meth:`maintenance_lock`: corrupt
        entries are quarantined and stale ones evicted, exactly as a live
        read would, and orphans older than :data:`ORPHAN_TMP_SECONDS` are
        deleted (``orphans_removed``).  Without it, nothing on disk
        changes.  Returns the report the CLI's ``cache verify`` prints.
        """
        with self.maintenance_lock() if repair else contextlib.nullcontext():
            return self._audit(repair)

    def _audit(self, repair: bool) -> dict:
        report: dict = {
            "cache_dir": str(self.cache_dir),
            "checked": 0, "ok": 0,
            "corrupt": [], "stale": [], "orphans": [], "orphans_removed": 0,
            "repaired": bool(repair),
            "quarantine_entries": sum(
                1 for path in self.quarantine_dir.glob("*")
                if path.is_file()) if self.quarantine_dir.is_dir() else 0,
        }
        cutoff = time.time() - ORPHAN_TMP_SECONDS
        for path in sorted(self.objects_dir.glob("*/.tmp-*")):
            try:
                aged = path.stat().st_mtime < cutoff
            except FileNotFoundError:
                continue                      # a live publish renamed it
            report["orphans"].append(path.name)
            if repair and aged:
                path.unlink(missing_ok=True)
                report["orphans_removed"] += 1
        for path in self._entry_files():
            report["checked"] += 1
            status, found = self._classify(path,
                                           path.name[: -len(ENTRY_SUFFIX)])
            if status == "ok":
                report["ok"] += 1
            elif status == "stale":
                report["stale"].append(path.name)
                if repair:
                    self._evict(path)
            else:
                report["corrupt"].append(
                    {"entry": path.name,
                     "error": f"{type(found).__name__}: {found}"})
                if repair:
                    self.stats.corrupted += 1
                    if self._quarantine(path):
                        report["quarantine_entries"] += 1
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
