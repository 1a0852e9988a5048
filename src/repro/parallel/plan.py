"""Work items, failure policies and retry bookkeeping of the scheduler.

A campaign runs flat lists of independent :class:`WorkItem`\\ s: its
extraction tasks, as two batches (leaders, then the followers that reuse a
leader's substrate), and its per-corner simulation tasks.  This is the
*one* definition of what a retry, a failure policy and an exhausted task
mean; :mod:`repro.studies` re-exports the public names.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import AnalysisError, CampaignError, CornerFailure, TaskTimeoutError

#: Campaign failure policies accepted by ``run(..., on_error=...)``.
ON_ERROR_ABORT = "abort"
ON_ERROR_SKIP = "skip"
ON_ERROR_RETRY_THEN_SKIP = "retry_then_skip"
ON_ERROR_POLICIES = (ON_ERROR_ABORT, ON_ERROR_SKIP, ON_ERROR_RETRY_THEN_SKIP)


def _task_label(task) -> str:
    """Identity of a task for failure messages.

    Runner tasks describe their own sweep corner via ``corner_label``; any
    other payload falls back to a truncated repr.
    """
    label = getattr(task, "corner_label", None)
    if callable(label):
        return label()
    text = repr(task)
    return text if len(text) <= 200 else text[:197] + "..."


def _check_policy(on_error: str) -> str:
    if on_error not in ON_ERROR_POLICIES:
        raise AnalysisError(
            f"unknown failure policy {on_error!r}; choose one of "
            f"{', '.join(ON_ERROR_POLICIES)}")
    return on_error


def _effective_retries(retries: int, policy: str) -> int:
    """Retry budget under a policy: ``skip`` means one attempt, no retries."""
    return 0 if policy == ON_ERROR_SKIP else retries


def _traceback_summary(exc: BaseException, limit: int = 4) -> str:
    """The last few frames of ``exc``'s traceback, newline-joined."""
    frames = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(frames[-limit:]) if frames else ""
    return tail.strip()[-2000:]


@dataclass(frozen=True)
class TaskFailure:
    """Structured outcome of a task that exhausted its attempts.

    Returned in the task's result slot when the failure policy is a skip
    variant; the runner converts these into
    :class:`~repro.errors.CornerFailure` records with corner coordinates.
    Work the runner never starts because an extraction failed — a follower
    extraction of a failed leader, a corner of a variant with no flow —
    holds that extraction's failure object verbatim, the root cause rather
    than a synthetic "dependency failed" wrapper.
    """

    index: int                  #: position in the submitted task list
    label: str                  #: ``corner_label()`` / repr of the task
    error_type: str             #: exception class name
    message: str                #: exception message (truncated)
    attempts: int               #: attempts spent
    timed_out: bool = False     #: failure was a ``task_timeout`` trip
    traceback_summary: str = ""

    def as_corner_failure(self, *, variant_index: int = -1,
                          injected_power_dbm: float = float("nan"),
                          vtune: float = float("nan")) -> CornerFailure:
        return CornerFailure(
            corner_label=self.label, error_type=self.error_type,
            message=self.message, attempts=self.attempts,
            timed_out=self.timed_out,
            traceback_summary=self.traceback_summary,
            variant_index=variant_index,
            injected_power_dbm=injected_power_dbm, vtune=vtune)


def _failure_record(index: int, task, attempts: int,
                    exc: BaseException | None) -> TaskFailure:
    if exc is None:
        return TaskFailure(index=index, label=_task_label(task),
                           error_type="Unknown",
                           message="task never completed (worker pool broke "
                                   "repeatedly)",
                           attempts=attempts)
    message = str(exc)
    return TaskFailure(
        index=index, label=_task_label(task),
        error_type=type(exc).__name__,
        message=message if len(message) <= 500 else message[:497] + "...",
        attempts=attempts,
        timed_out=isinstance(exc, (TaskTimeoutError, TimeoutError)),
        traceback_summary=_traceback_summary(exc))


def _give_up(task, attempts: int, exc: BaseException) -> None:
    """Abort-policy terminal: raise a CampaignError naming the corner."""
    failure = _failure_record(-1, task, attempts, exc)
    raise CampaignError(
        f"sweep task failed after {attempts} attempt(s): "
        f"{_task_label(task)}", failures=(failure,)) from exc


@dataclass(frozen=True)
class WorkItem:
    """One schedulable unit of a campaign.

    ``fn(payload)`` may run in a worker process (both must be picklable).
    Items of one :meth:`~repro.parallel.scheduler.WorkScheduler.run` are
    independent and dispatch in list order.
    """

    id: str
    fn: Callable[[Any], Any]
    payload: Any

    def describe(self) -> str:
        return _task_label(self.payload)
