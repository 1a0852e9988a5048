"""Work items, failure policies and retry bookkeeping of the scheduler.

A campaign flattens into a DAG of :class:`WorkItem`\\ s — extraction tasks
and per-corner simulation tasks.  This is the *one* definition of what a
retry, a failure policy and an exhausted task mean; :mod:`repro.studies`
re-exports the public names.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

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
    A work item that never ran because a dependency failed inherits the
    dependency's failure object verbatim — the root cause, not a synthetic
    "dependency failed" wrapper — which is exactly how extraction failures
    have always been reported against each affected corner.
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
    """One schedulable unit of a campaign DAG.

    ``fn(payload)`` runs in a worker process (both must be picklable).
    ``deps`` names items that must succeed first; ``bind(payload,
    dep_results)`` runs in the *parent* just before dispatch to fold the
    dependencies' results into the payload (e.g. inject a freshly extracted
    flow into a corner task) — it is the only non-picklable hook.
    ``priority`` orders dispatch among ready items (lower first, submission
    order breaking ties), which is what lets extractions drain ahead of the
    corners queuing behind them.
    """

    id: str
    fn: Callable[[Any], Any]
    payload: Any
    deps: tuple[str, ...] = ()
    priority: int = 0
    bind: Callable[[Any, dict[str, Any]], Any] | None = field(
        default=None, compare=False)
    label: str | None = None

    def describe(self) -> str:
        return self.label if self.label is not None \
            else _task_label(self.payload)


def validate_plan(items: Sequence[WorkItem]) -> list[str]:
    """Check ids are unique, deps known and the graph acyclic.

    Returns one valid topological order of the item ids (Kahn's algorithm);
    raises :class:`~repro.errors.AnalysisError` on a malformed plan.  The
    scheduler dispatches by readiness + priority, not by this order — the
    return value exists for callers that want a deterministic serial order.
    """
    by_id: dict[str, WorkItem] = {}
    for item in items:
        if item.id in by_id:
            raise AnalysisError(f"duplicate work item id {item.id!r}")
        by_id[item.id] = item
    missing = {item.id: 0 for item in items}
    dependents: dict[str, list[str]] = {item.id: [] for item in items}
    for item in items:
        for dep in item.deps:
            if dep not in by_id:
                raise AnalysisError(
                    f"work item {item.id!r} depends on unknown item {dep!r}")
            missing[item.id] += 1
            dependents[dep].append(item.id)
    order = [item_id for item_id, count in missing.items() if count == 0]
    cursor = 0
    while cursor < len(order):
        for child in dependents[order[cursor]]:
            missing[child] -= 1
            if missing[child] == 0:
                order.append(child)
        cursor += 1
    if len(order) != len(items):
        cyclic = sorted(item_id for item_id, count in missing.items()
                        if count > 0)
        raise AnalysisError(
            f"work plan has a dependency cycle involving: {', '.join(cyclic)}")
    return order


# ---------------------------------------------------------------------------
# Worker heartbeats
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeartbeatSpec:
    """Where and how often pool workers should stamp a liveness heartbeat.

    Shipped (pickled) to the workers inside :class:`HeartbeatedCall`; the
    scheduler watches the directory's ``hb-<pid>`` mtimes and treats a
    worker whose stamps stop as wedged — catching silent hangs (SIGSTOP, a
    GIL-holding C loop, a dead NFS mount) long before the wall-clock
    ``task_timeout`` ceiling.
    """

    directory: str
    interval: float

    def path_for(self, pid: int) -> Path:
        return Path(self.directory) / f"hb-{pid}"


# One stamper thread per worker process, keyed by heartbeat directory so a
# recycled scheduler (fresh temp dir) restarts stamping in reused workers.
_stampers: set[str] = set()
_stampers_lock = threading.Lock()


def _ensure_stamper(spec: HeartbeatSpec) -> None:
    """Start this process's heartbeat thread (idempotent, worker-side)."""
    with _stampers_lock:
        if spec.directory in _stampers:
            return
        _stampers.add(spec.directory)

    path = spec.path_for(os.getpid())
    try:
        # First stamp lands synchronously, before the task runs: a task that
        # wedges its worker instantly must still be visible to the monitor.
        path.parent.mkdir(parents=True, exist_ok=True)
        path.touch()
    except OSError:
        pass

    def beat() -> None:
        while True:
            time.sleep(spec.interval)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.touch()
            except OSError:
                pass  # directory vanished mid-run: keep trying, not crash

    thread = threading.Thread(target=beat, daemon=True,
                              name="worker-heartbeat")
    thread.start()


class HeartbeatedCall:
    """Picklable task wrapper: ensure the worker heartbeat, then run.

    Wrapping happens at submission time in the scheduler, so any payload
    callable (including :class:`~repro.studies.faults.FaultyCall` chains)
    gains liveness stamping without knowing about it.
    """

    def __init__(self, spec: HeartbeatSpec, fn):
        self.spec = spec
        self.fn = fn

    def __call__(self, payload):
        _ensure_stamper(self.spec)
        return self.fn(payload)
