"""Unified work scheduling.

One process pool (:mod:`~repro.parallel.pool`), one work item and failure
policy vocabulary (:mod:`~repro.parallel.plan`) and one scheduler of flat
item lists (:mod:`~repro.parallel.scheduler`).  Every campaign of the
studies layer runs on one :class:`WorkScheduler` (``SerialBackend`` and
``ProcessPoolBackend`` are its configuration names): the pending extractions
first, as two batches (the leaders, then the followers that reuse a
leader's substrate), each on the pool when it has several items and the
scheduler more than one worker, then every corner inline in the campaign
process.  Nothing but an extraction task and its extracted flow crosses a
process boundary.
"""

from .plan import (
    ON_ERROR_ABORT,
    ON_ERROR_POLICIES,
    ON_ERROR_RETRY_THEN_SKIP,
    ON_ERROR_SKIP,
    TaskFailure,
    WorkItem,
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
]
