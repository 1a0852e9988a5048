"""The one persistent process pool every parallel consumer shares.

:class:`SharedProcessPool` is a single lazily-created, recyclable
executor, and the only process pool of the reproduction: the
:class:`~repro.parallel.scheduler.WorkScheduler` runs campaign DAGs on it
(extraction -> corner dependencies) whenever it has more than one worker; at
one worker it never starts the pool.  One pool's processes stay warm across
campaigns and benchmark repetitions instead of paying fork+import per
``run()``.

``REPRO_MAX_WORKERS`` (environment) overrides the historical
``min(4, os.cpu_count())`` default everywhere a worker count is defaulted:
:func:`default_max_workers` is the one place that decides.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor

from ..errors import AnalysisError

#: Environment variable overriding the default worker count.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def default_max_workers() -> int:
    """The default worker count: ``REPRO_MAX_WORKERS`` or ``min(4, cpus)``.

    The environment override exists for many-core hosts where the historical
    cap of four left the machine idle, and for CI containers that want an
    explicit, reproducible width.  Invalid values fail loudly — a silently
    ignored typo would masquerade as a performance regression.
    """
    raw = os.environ.get(MAX_WORKERS_ENV)
    if raw is not None and raw.strip():
        try:
            value = int(raw)
        except ValueError:
            raise AnalysisError(
                f"{MAX_WORKERS_ENV} must be a positive integer, "
                f"got {raw!r}") from None
        if value < 1:
            raise AnalysisError(
                f"{MAX_WORKERS_ENV} must be >= 1, got {value}")
        return value
    return min(4, os.cpu_count() or 1)


class SharedProcessPool:
    """A persistent, recyclable ``ProcessPoolExecutor``.

    ``executor(n)`` returns a pool with at least ``n`` workers, creating or
    growing it on demand; ``recycle()`` SIGKILLs the workers and forgets the
    executor (the next ``executor()`` call builds a fresh one) — that is the
    crash/timeout recovery path, where a graceful shutdown would block on a
    hung task exactly like the ``wait()`` the caller just rescued.

    The pool is *not* thread-safe; the scheduler drives it from the parent
    process's main thread, one round at a time, which is the only access
    pattern the sweep engine has.
    """

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._width = 0

    @property
    def width(self) -> int:
        """Workers of the live executor (0 when none has been created)."""
        return self._width if self._executor is not None else 0

    def executor(self, n_workers: int) -> ProcessPoolExecutor:
        if n_workers < 1:
            raise AnalysisError("a process pool needs at least one worker")
        if self._executor is not None and self._width < n_workers:
            # Growing: the old, narrower pool is idle between scheduler
            # rounds, so a graceful shutdown cannot block.
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        if self._executor is None:
            # Start the shared-memory resource tracker in THIS process before
            # any worker forks.  A worker forked without a live tracker would
            # lazily spawn its own on its first segment attach; that tracker
            # dies with the worker (e.g. a recycle's SIGKILL) and unlinks
            # every segment registered with it — yanking shared arenas out
            # from under the parent and the surviving workers.
            try:
                from multiprocessing import resource_tracker
                resource_tracker.ensure_running()
            except ImportError:                        # pragma: no cover
                pass
            self._executor = ProcessPoolExecutor(max_workers=n_workers)
            self._width = n_workers
        return self._executor

    def recycle(self) -> None:
        """Kill the workers and drop the executor (broken/hung pool path)."""
        executor, self._executor, self._width = self._executor, None, 0
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except (OSError, AttributeError):
                pass
        executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Graceful end-of-process teardown (atexit)."""
        executor, self._executor, self._width = self._executor, None, 0
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


_SHARED = SharedProcessPool()


def shared_pool() -> SharedProcessPool:
    """The process-wide pool instance (the "one process pool" of the title)."""
    return _SHARED


atexit.register(_SHARED.shutdown)
