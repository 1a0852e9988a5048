"""Unified work scheduling.

One process pool (:mod:`~repro.parallel.pool`), one task vocabulary
(:mod:`~repro.parallel.plan`), one dependency/priority-aware scheduler
(:mod:`~repro.parallel.scheduler`) and ship-once objects
(:mod:`~repro.parallel.shm`).  Every campaign of the studies layer runs as
one :class:`WorkScheduler` plan (``SerialBackend`` and ``ProcessPoolBackend``
are its configuration names); each variant's extracted flow is pickled
into one shared-memory segment by :class:`ObjectShipper`, and its corner
tasks carry only a reference to it.
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
    shared_pool,
)
from .scheduler import WorkScheduler
from .shm import ObjectShipper, load_object, ship_object

__all__ = [
    "MAX_WORKERS_ENV",
    "ObjectShipper",
    "ON_ERROR_ABORT",
    "ON_ERROR_POLICIES",
    "ON_ERROR_RETRY_THEN_SKIP",
    "ON_ERROR_SKIP",
    "SharedProcessPool",
    "TaskFailure",
    "WorkItem",
    "WorkScheduler",
    "default_max_workers",
    "load_object",
    "shared_pool",
    "ship_object",
    "validate_plan",
]
