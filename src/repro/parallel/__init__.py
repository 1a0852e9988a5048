"""Unified shared-memory work scheduling.

One process pool (:mod:`~repro.parallel.pool`), one task vocabulary
(:mod:`~repro.parallel.plan`), one dependency/priority-aware scheduler
(:mod:`~repro.parallel.scheduler`), one zero-copy data plane
(:mod:`~repro.parallel.shm`), and the process-level frequency fan-out built
on all four (:mod:`~repro.parallel.freq`).  Every campaign of the studies
layer runs as one :class:`WorkScheduler` plan (``SerialBackend`` and
``ProcessPoolBackend`` are its configuration names), and ``ac_mode =
"process"`` routes AC/transfer sweeps through :func:`run_frequency_blocks`,
so campaign corners, extractions and frequency shards share these workers.
"""

from .plan import (
    ON_ERROR_ABORT,
    ON_ERROR_POLICIES,
    ON_ERROR_RETRY_THEN_SKIP,
    ON_ERROR_SKIP,
    TaskFailure,
    WorkItem,
    validate_plan,
)
from .pool import (
    MAX_WORKERS_ENV,
    SharedProcessPool,
    default_max_workers,
    in_worker_process,
    shared_pool,
)
from .scheduler import WorkScheduler
from .shm import (
    ArenaHandle,
    InlineArena,
    ObjectShipper,
    SharedArena,
    attach_arena,
    load_object,
    ship_object,
)

__all__ = [
    "ArenaHandle",
    "InlineArena",
    "MAX_WORKERS_ENV",
    "ObjectShipper",
    "ON_ERROR_ABORT",
    "ON_ERROR_POLICIES",
    "ON_ERROR_RETRY_THEN_SKIP",
    "ON_ERROR_SKIP",
    "SharedArena",
    "SharedProcessPool",
    "TaskFailure",
    "WorkItem",
    "WorkScheduler",
    "attach_arena",
    "default_max_workers",
    "in_worker_process",
    "load_object",
    "shared_pool",
    "ship_object",
    "validate_plan",
]
