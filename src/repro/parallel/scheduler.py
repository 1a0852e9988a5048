"""The work scheduler: one flat list of items, one pool, one failure policy.

:class:`WorkScheduler` is the one execution path of every campaign.  It runs a
list of independent :class:`~repro.parallel.plan.WorkItem`\\ s in list order.
The sweep runner hands it, per campaign, its pending extractions as two
batches (leaders first, then the followers that reuse a leader's substrate),
which run on the :class:`~repro.parallel.pool.SharedProcessPool` when the
campaign has two or more and the scheduler more than one worker, and then
the corners, which always run inline in the calling process
(``run(..., inline=True)``).  ``ProcessPoolBackend`` in :mod:`repro.studies`
is this class under its configuration name, and ``SerialBackend`` is this
class pinned to one worker:

* **windowed dispatch** — at most ``n_workers`` futures are in flight, so
  ``task_timeout`` deadlines measure actual worker occupancy, not queue
  time.
* **fault tolerance** — per-item retries, broken-pool salvage (completed
  results survive a crash), jittered exponential rebuild backoff, and the
  ``abort`` / ``skip`` / ``retry_then_skip`` policies;
  ``KeyboardInterrupt`` / ``SystemExit`` always propagate.  The wall-clock
  ``task_timeout`` is the one hung-worker bound: a pooled task past it has
  its worker SIGKILLed (a stopped or wedged process included), the pool
  recycled and the task retried.

With a single worker, or ``inline=True``, the items execute
in-process in list order with the same retry semantics — no pool, no
pickling, and no timeout.
"""

from __future__ import annotations

import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from ..errors import AnalysisError, CampaignError, TaskTimeoutError
from ..obs import get_logger
from .plan import (
    ON_ERROR_ABORT,
    WorkItem,
    _check_policy,
    _effective_retries,
    _failure_record,
    _give_up,
    _task_label,
)
from .pool import default_max_workers, shared_pool

logger = get_logger(__name__)

#: upper bound (seconds) of the jittered pool-rebuild backoff delay
BACKOFF_MAX = 8.0


class _TimedOut(Exception):
    """Internal marker cause for a task abandoned by a timeout trip."""


class WorkScheduler:
    """Independent-item execution on one persistent pool.

    ``run(items, ...)`` returns ``{item id -> result | TaskFailure}``.  The
    per-item attempt counts of the most recent run live in ``attempts`` and
    the pool rebuilds (crash or timeout recoveries) in ``pool_rebuilds``;
    the sweep runner records them in its campaign metrics.  The default
    worker count honours ``REPRO_MAX_WORKERS`` via
    :func:`~repro.parallel.pool.default_max_workers`.
    """

    def __init__(self, max_workers: int | None = None, retries: int = 0,
                 task_timeout: float | None = None,
                 backoff_base: float = 0.25,
                 backoff_seed: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise AnalysisError("WorkScheduler needs at least one worker")
        if retries < 0:
            raise AnalysisError("retries must be >= 0")
        # ``not > 0`` also rejects NaN, whose deadlines would never trip
        # and would turn every wait into a busy spin; ``inf`` means never.
        if task_timeout is not None and not task_timeout > 0:
            raise AnalysisError(
                f"task_timeout must be positive (seconds), got {task_timeout}")
        if not backoff_base >= 0:           # NaN would crash time.sleep
            raise AnalysisError(
                f"backoff_base must be >= 0 (seconds), got {backoff_base}")
        self.max_workers = max_workers or default_max_workers()
        self.retries = retries
        # ``inf`` sets no deadline: an infinite wait() timeout overflows.
        self.task_timeout = None if task_timeout == float("inf") \
            else task_timeout
        self.backoff_base = backoff_base
        self._rng = random.Random(backoff_seed)
        self._pool = shared_pool()
        #: per-item attempt counts of the most recent :meth:`run`
        self.attempts: dict[str, int] = {}
        #: pool rebuilds (crash or timeout) during the most recent :meth:`run`
        self.pool_rebuilds: int = 0

    # -- backoff -------------------------------------------------------------

    def _backoff_sleep(self, rebuilds: int) -> None:
        """Jittered exponential delay before the ``rebuilds``-th fresh pool."""
        if self.backoff_base <= 0:
            return
        delay = min(BACKOFF_MAX,
                    self.backoff_base * (2.0 ** (rebuilds - 1)))
        # Full jitter in [delay/2, delay]: desynchronises concurrent
        # campaigns hammering one broken shared resource.
        time.sleep(delay * (0.5 + 0.5 * self._rng.random()))

    # -- execution -----------------------------------------------------------

    def run(self, items: Sequence[WorkItem], *,
            on_error: str = ON_ERROR_ABORT,
            on_result: Callable[[str, Any], None] | None = None,
            on_start: Callable[[str, int], None] | None = None,
            inline: bool = False) -> dict[str, Any]:
        """Execute independent items in list order; outcomes keyed by id.

        ``inline`` runs every item in this process whatever the worker
        count; the runner runs its corners that way, and the extraction of
        a campaign that has only one.  Otherwise a scheduler with more than
        one worker runs the items on the pool, even a single one.

        ``on_result(item_id, result)`` fires in the parent as each item
        *succeeds* (including results salvaged from a breaking pool);
        ``on_start(item_id, attempt)`` as each attempt is submitted
        (``attempt`` counts from 1).  Under the skip policies a failed
        item's slot holds its :class:`TaskFailure`.
        """
        policy = _check_policy(on_error)
        by_id: dict[str, WorkItem] = {}
        for item in items:
            if item.id in by_id:
                raise AnalysisError(f"duplicate work item id {item.id!r}")
            by_id[item.id] = item
        self.attempts = dict.fromkeys(by_id, 0)
        self.pool_rebuilds = 0
        if not by_id:
            return {}
        budget = _effective_retries(self.retries, policy)
        seq = {item_id: position for position, item_id in enumerate(by_id)}
        outcomes: dict[str, Any] = {}

        def notify(item_id: str) -> None:
            if on_result is not None:
                on_result(item_id, outcomes[item_id])

        if inline or self.max_workers == 1:
            self._run_inline(by_id, seq, budget, policy, outcomes, notify,
                             on_start)
            return outcomes

        n_workers = min(self.max_workers, len(by_id))
        ready = deque(by_id)
        resubmit: list[str] = []
        while ready or resubmit:
            unfinished, causes = self._pool_round(
                by_id, seq, ready, resubmit, n_workers, budget, policy,
                outcomes, notify, on_start)
            exhausted = [item_id for item_id in unfinished
                         if self.attempts[item_id] > budget]
            if exhausted:
                if policy == ON_ERROR_ABORT:
                    self._abort(by_id, exhausted, causes)
                for item_id in exhausted:
                    outcomes[item_id] = _failure_record(
                        seq[item_id], by_id[item_id].payload,
                        self.attempts[item_id], causes.get(item_id))
                unfinished = [item_id for item_id in unfinished
                              if self.attempts[item_id] <= budget]
            resubmit = unfinished
            if resubmit or (ready and self._pool.width == 0):
                self.pool_rebuilds += 1
                logger.warning(
                    "worker pool rebuild: rebuilds=%d unfinished_tasks=%d",
                    self.pool_rebuilds, len(resubmit))
                self._backoff_sleep(self.pool_rebuilds)
        return outcomes

    def _run_inline(self, by_id, seq, budget, policy, outcomes, notify,
                    on_start) -> None:
        """Single-worker path: run the items in this process, no pool.

        ``Exception`` consumes attempts, ``KeyboardInterrupt`` /
        ``SystemExit`` propagate immediately (a Ctrl-C must stop the
        campaign, not be recorded as a corner failure), the abort policy
        raises via ``_give_up`` with the original exception chained.
        """
        for item_id, item in by_id.items():
            while True:
                self.attempts[item_id] += 1
                if on_start is not None:
                    on_start(item_id, self.attempts[item_id])
                try:
                    outcomes[item_id] = item.fn(item.payload)
                except Exception as exc:
                    if self.attempts[item_id] <= budget:
                        logger.info(
                            "task retry: corner=%s attempt=%d/%d error=%s",
                            item.describe(), self.attempts[item_id],
                            budget + 1, type(exc).__name__)
                        continue
                    if policy == ON_ERROR_ABORT:
                        _give_up(item.payload, self.attempts[item_id], exc)
                    logger.warning(
                        "task exhausted: corner=%s attempts=%d error=%s "
                        "policy=%s", item.describe(), self.attempts[item_id],
                        type(exc).__name__, policy)
                    outcomes[item_id] = _failure_record(
                        seq[item_id], item.payload, self.attempts[item_id],
                        exc)
                    break
                notify(item_id)
                break

    def _abort(self, by_id, exhausted: list[str],
               causes: dict[str, BaseException]) -> None:
        """Abort policy: blame the right item and raise."""
        # Blame an item that failed on its own if there is one; the rest
        # merely shared a broken pool and may never have run, so they
        # are reported as unfinished rather than as the failure.
        blamed = next(
            (item_id for item_id in exhausted
             if causes.get(item_id) is not None
             and not isinstance(causes[item_id],
                                (BrokenProcessPool, _TimedOut))),
            None)
        if blamed is not None:
            _give_up(by_id[blamed].payload, self.attempts[blamed],
                     causes[blamed])
        first = exhausted[0]
        failures = tuple(
            _failure_record(index, by_id[item_id].payload,
                            self.attempts[item_id], causes.get(item_id))
            for index, item_id in enumerate(exhausted))
        raise CampaignError(
            f"worker pool broke {self.attempts[first]} time(s); "
            f"{len(exhausted)} task(s) exhausted their retries without "
            f"completing, including: {_task_label(by_id[first].payload)}",
            failures=failures) from causes.get(first)

    def _pool_round(self, by_id, seq, ready, resubmit, n_workers, budget,
                    policy, outcomes, notify, on_start,
                    ) -> tuple[list[str], dict[str, BaseException]]:
        """One pool lifetime; returns (unfinished item ids, their causes).

        Per-item failures are retried within the round; a broken pool or a
        timeout trip ends the round early with every not-yet-finished item
        listed as unfinished (their submitted attempts count as spent).  The
        pool itself persists across clean rounds and runs — only breakage
        recycles it.

        Each batch of finished futures has its outcomes recorded first, the
        freed slots are refilled, and only then do the batch's ``on_result``
        callbacks run (``notify``): the workers compute while the parent
        journals.  The callbacks run however the batch ends — a broken pool,
        a retry that cannot submit, an abort.
        """
        def settle_success(item_id: str, value: Any) -> None:
            outcomes[item_id] = value
            notify(item_id)

        pool = self._pool.executor(n_workers)
        pending: dict = {}
        deadlines: dict = {}
        submit_failed: list[str] = []

        def submit(item_id: str) -> None:
            item = by_id[item_id]
            self.attempts[item_id] += 1
            if on_start is not None:
                on_start(item_id, self.attempts[item_id])
            try:
                future = pool.submit(item.fn, item.payload)
            except BrokenProcessPool:
                # The attempt is spent but no future exists; remember the
                # item so the salvage path reschedules it.
                submit_failed.append(item_id)
                raise
            pending[future] = item_id
            if self.task_timeout is not None:
                deadlines[future] = time.monotonic() + self.task_timeout

        def fill() -> None:
            # Windowed dispatch: keep at most n_workers futures in flight so
            # timeout deadlines measure worker occupancy, not queue time.
            while len(pending) < n_workers and (resubmit or ready):
                submit(resubmit.pop(0) if resubmit else ready.popleft())

        try:
            fill()
            while pending:
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines.values())
                                  - time.monotonic())
                done, _ = wait(pending, timeout=timeout,
                               return_when=FIRST_COMPLETED)
                if not done:
                    hung = {future for future in pending
                            if deadlines.get(future, float("inf"))
                            <= time.monotonic() and not future.done()}
                    if hung:
                        return self._abandon_hung(hung, pending,
                                                  settle_success)
                    continue
                released: list[str] = []
                try:
                    for future in done:
                        item_id = pending.pop(future)
                        deadlines.pop(future, None)
                        exc = future.exception()
                        if exc is None:
                            outcomes[item_id] = future.result()
                            released.append(item_id)
                        elif isinstance(exc, (KeyboardInterrupt, SystemExit)):
                            # Never swallow or retry an interrupt, whatever
                            # the policy — mirror the in-process path exactly.
                            for other in pending:
                                other.cancel()
                            raise exc
                        elif isinstance(exc, BrokenProcessPool):
                            return self._drain_broken(item_id, exc, pending,
                                                      settle_success)
                        elif self.attempts[item_id] <= budget:
                            logger.info(
                                "task retry: corner=%s attempt=%d/%d "
                                "error=%s", by_id[item_id].describe(),
                                self.attempts[item_id] + 1, budget + 1,
                                type(exc).__name__)
                            submit(item_id)  # BrokenProcessPool -> except
                        elif policy == ON_ERROR_ABORT:
                            _give_up(by_id[item_id].payload,
                                     self.attempts[item_id], exc)
                        else:
                            outcomes[item_id] = _failure_record(
                                seq[item_id], by_id[item_id].payload,
                                self.attempts[item_id], exc)
                    fill()
                finally:
                    for item_id in released:
                        notify(item_id)
        except BrokenProcessPool as submit_exc:
            # pool.submit itself can raise when the executor broke between
            # futures; salvage exactly like a future-delivered breakage.
            first = submit_failed[0] if submit_failed else None
            return self._drain_broken(first, submit_exc, pending,
                                      settle_success)
        return [], {}

    def _abandon_hung(self, hung: set, pending: dict, settle_success,
                      ) -> tuple[list[str], dict[str, BaseException]]:
        """A worker exceeded ``task_timeout``: abandon it, recycle the pool.

        The hung futures' items get a :class:`~repro.errors.TaskTimeoutError`
        cause; every other unfinished item is rescheduled with a
        non-blaming cause, exactly like a pool crash.
        """
        logger.warning(
            "task timeout: hung_tasks=%d task_timeout=%ss action=%s",
            len(hung), self.task_timeout, "kill workers, recycle pool")
        timeout_exc = TaskTimeoutError(
            f"task exceeded task_timeout={self.task_timeout:g} s; its worker "
            "was killed and the pool recycled")
        queued = _TimedOut("pool recycled while this task was queued")
        return self._salvage(
            pending, settle_success,
            lambda future: timeout_exc if future in hung else queued)

    def _drain_broken(self, first_id: str | None, breakage: BaseException,
                      pending: dict, settle_success,
                      ) -> tuple[list[str], dict[str, BaseException]]:
        """The pool broke: reschedule ``first_id`` and every unfinished item.

        ``first_id`` is the item whose submission or future reported the
        breakage; the others take ``breakage`` as their cause unless they
        failed with their own exception.
        """
        unfinished, causes = self._salvage(pending, settle_success,
                                           lambda future: breakage)
        if first_id is None:
            return unfinished, causes
        return [first_id, *unfinished], {first_id: breakage, **causes}

    def _salvage(self, pending: dict, settle_success, cause_for,
                 ) -> tuple[list[str], dict[str, BaseException]]:
        """Settle what completed, list the rest, recycle the pool.

        An unfinished item that failed with its *own* exception keeps it as
        its cause (so an exhausted retry chains the real traceback); the
        rest take ``cause_for(future)``.  The recycle SIGKILLs the workers,
        so the shutdown never blocks on a hung or stopped task.
        """
        unfinished: list[str] = []
        causes: dict[str, BaseException] = {}
        for future, item_id in pending.items():
            # Read the outcome before any cancel(): a cancelled future's
            # exception() raises CancelledError instead of returning.  A
            # "hung" future that completed just after the deadline check is
            # simply salvaged — no work is thrown away over a race.
            if future.done() and not future.cancelled():
                exc = future.exception()
                if exc is None:
                    settle_success(item_id, future.result())
                    continue
            else:
                future.cancel()
                exc = None
            unfinished.append(item_id)
            causes[item_id] = exc if exc is not None and not isinstance(
                exc, BrokenProcessPool) else cause_for(future)
        self._pool.recycle()
        return unfinished, causes

    def describe(self) -> str:
        """Report label: ``serial`` at one worker, else ``process-pool[N,...]``."""
        knobs = []
        if self.retries:
            knobs.append(f"retries={self.retries}")
        if self.task_timeout is not None:
            knobs.append(f"timeout={self.task_timeout:g}s")
        if self.max_workers == 1:
            return f"serial[{','.join(knobs)}]" if knobs else "serial"
        return f"process-pool[{','.join([str(self.max_workers), *knobs])}]"
