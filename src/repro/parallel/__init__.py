"""Unified work scheduling.

One process pool (:mod:`~repro.parallel.pool`), one task vocabulary
(:mod:`~repro.parallel.plan`) and one dependency-aware scheduler
(:mod:`~repro.parallel.scheduler`).  Every campaign of the studies layer runs
on one :class:`WorkScheduler` (``SerialBackend`` and ``ProcessPoolBackend``
are its configuration names): the pending extractions first, on the pool
when there are several and it has more than one worker, then every corner
inline in the campaign process.  Nothing but an extraction task and its
extracted flow crosses a process boundary.
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

__all__ = [
    "MAX_WORKERS_ENV",
    "ON_ERROR_ABORT",
    "ON_ERROR_POLICIES",
    "ON_ERROR_RETRY_THEN_SKIP",
    "ON_ERROR_SKIP",
    "SharedProcessPool",
    "TaskFailure",
    "WorkItem",
    "WorkScheduler",
    "default_max_workers",
    "shared_pool",
    "validate_plan",
]
