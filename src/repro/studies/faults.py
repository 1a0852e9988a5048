"""Deterministic fault injection for campaign robustness tests.

A :class:`FaultPlan` wraps a task callable and makes chosen tasks
misbehave in controlled, reproducible ways: raise an exception, hang past
the scheduler's ``task_timeout``, kill their process outright (``os._exit``,
simulating an OOM-kill or segfault), or corrupt a cached object on disk
before running.  ``SweepRunner(fault_plan=...)`` wraps the corner tasks,
which run in the campaign process, so there an ``"exit"`` fault is a
``kill -9`` of the campaign itself; hangs, stops and worker deaths are
driven through pooled items (extractions, or the scheduler's own tests).
The fault-tolerance test suite drives every recovery path of the sweep
engine with these instead of relying on flaky real-world failures.

Determinism across *processes* is the hard part: a multi-worker scheduler
retries a faulted task in a fresh worker, so an in-memory attempt counter
would reset and the fault would fire forever.  The plan therefore counts attempts with
``O_CREAT | O_EXCL`` marker files in a shared ``state_dir`` — each execution
atomically claims the next attempt number, whichever process it runs in, so
"fail the first two attempts of task 3" means exactly that, every run.

Everything here is picklable (plain dataclasses plus a module-level wrapper
class), which is what lets a plan wrapped around pooled items ride into the
worker processes of a :class:`~repro.parallel.scheduler.WorkScheduler`.

Below the task-level faults sits a second, filesystem-level harness:
**crash points**.  The store and the journal bracket their critical
filesystem sequences in :func:`fault_region` tags and call
:func:`crashpoint` before each primitive operation (``"write"``,
``"fsync"``, ``"rename"``).  The ``"claimer"`` region is the extraction
claim: its holder writes its pid and host into the locked claim file (one
``write``, no fsync or rename).  The ``"publisher"`` region (a cache entry)
goes through :func:`~repro.studies.store.atomic_write` and reaches all
three operations; the ``"journal"`` region (one frame appended to the
journal log) reaches ``write`` and ``fsync``.  :data:`CRASH_MATRIX` lists
the reachable pairs.  Arming a spec
— via :func:`arm_crash_points` or the ``REPRO_CRASH_POINTS`` environment
variable, format ``tag:op:k[,tag:op:k...]`` — makes the process die with
``os._exit`` at the *k*-th matching operation, exactly the way ``kill -9``
lands between two syscalls.  Unarmed, a crash point is a no-op costing one
``None`` check.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..errors import AnalysisError

#: Supported fault kinds.
FAULT_RAISE = "raise"          #: the task raises :class:`InjectedFault`
FAULT_HANG = "hang"            #: the task sleeps far past any sane timeout
FAULT_EXIT = "exit"            #: the task's process dies via ``os._exit``
FAULT_CORRUPT = "corrupt"      #: a cached file is scribbled over, then run
FAULT_STOP = "stop"            #: the worker SIGSTOPs itself: alive but silent
FAULT_KINDS = (FAULT_RAISE, FAULT_HANG, FAULT_EXIT, FAULT_CORRUPT, FAULT_STOP)


class InjectedFault(RuntimeError):
    """The exception raised by a ``"raise"``-kind injected fault."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: which task, what kind, and for how many attempts.

    ``task_index`` matches the task payload's ``index`` attribute (the
    runner's :class:`~repro.studies.runner.SweepTask` ordering).  The fault
    fires on the first ``attempts`` executions of that task and lets later
    retries through — set ``attempts`` above the backend's retry budget to
    make the task fail permanently.
    """

    kind: str                   #: one of :data:`FAULT_KINDS`
    task_index: int             #: task to sabotage (payload ``.index``)
    attempts: int = 1           #: how many executions misbehave
    hang_seconds: float = 3600.0   #: sleep length of a ``"hang"`` fault
    exit_code: int = 137        #: status of an ``"exit"`` fault (SIGKILL-like)
    target: str = ""            #: directory whose cache a ``"corrupt"`` hits
    message: str = "injected fault"

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise AnalysisError(
                f"unknown fault kind {self.kind!r}; choose one of "
                f"{', '.join(FAULT_KINDS)}")
        if self.attempts < 1:
            raise AnalysisError("a fault must fire on at least one attempt")
        if self.kind == FAULT_CORRUPT and not self.target:
            raise AnalysisError("a corrupt fault needs a target directory")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of scripted faults sharing one state directory.

    ``state_dir`` holds the cross-process attempt markers; point it at a
    fresh temporary directory per test so runs never see each other's
    counters.  ``wrap(fn)`` returns a picklable callable that injects the
    plan's faults before delegating to ``fn`` — the runner installs it via
    ``SweepRunner(fault_plan=...)``.
    """

    state_dir: str
    specs: tuple[FaultSpec, ...] = ()

    def wrap(self, fn) -> "FaultyCall":
        return FaultyCall(self, fn)

    # -- cross-process attempt accounting ------------------------------------

    def claim_attempt(self, spec_index: int) -> int:
        """Atomically claim the next attempt number of a spec (1-based).

        ``O_CREAT | O_EXCL`` makes the claim race-free even when retries of
        the same task land in different worker processes simultaneously.
        """
        state = Path(self.state_dir)
        state.mkdir(parents=True, exist_ok=True)
        attempt = 1
        while True:
            marker = state / f"spec{spec_index:02d}.attempt{attempt:04d}"
            try:
                handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                attempt += 1
                continue
            os.close(handle)
            return attempt

    def attempts_seen(self, spec_index: int) -> int:
        """How many executions a spec has intercepted so far (any process)."""
        state = Path(self.state_dir)
        if not state.is_dir():
            return 0
        return sum(1 for entry in state.iterdir()
                   if entry.name.startswith(f"spec{spec_index:02d}.attempt"))

    # -- the faults themselves -----------------------------------------------

    def inject(self, task) -> None:
        """Fire every armed fault matching ``task`` (worker-side)."""
        index = getattr(task, "index", None)
        for spec_index, spec in enumerate(self.specs):
            if index != spec.task_index:
                continue
            if self.claim_attempt(spec_index) > spec.attempts:
                continue
            if spec.kind == FAULT_RAISE:
                raise InjectedFault(spec.message)
            if spec.kind == FAULT_HANG:
                time.sleep(spec.hang_seconds)
            elif spec.kind == FAULT_EXIT:
                # Die the way a segfault / OOM-kill does: no cleanup, no
                # exception propagation — the pool sees a vanished worker.
                os._exit(spec.exit_code)
            elif spec.kind == FAULT_CORRUPT:
                _corrupt_one_file(spec.target)
            elif spec.kind == FAULT_STOP:
                # Freeze the process the way a SIGSTOP / stuck NFS mount /
                # debugger attach does: the pid stays alive, futures never
                # resolve, and nothing raises.  The scheduler's task_timeout
                # notices, and the recycle's SIGKILL reaps a stopped process.
                os.kill(os.getpid(), signal.SIGSTOP)


def _corrupt_one_file(target: str) -> None:
    """Scribble over the first regular file under ``target`` (recursively).

    Deterministic (lexicographic order, dotfiles and lock sentinels skipped)
    and non-atomic on purpose: this models a torn or bit-rotten cache entry,
    which the disk cache must detect and treat as a miss rather than
    deserialize garbage.
    """
    root = Path(target)
    victims = sorted(
        path for path in root.rglob("*")
        if path.is_file() and not path.name.startswith(".")
        and not path.name.endswith(".lock"))
    if not victims:
        return
    victim = victims[0]
    size = victim.stat().st_size
    with victim.open("r+b") as handle:
        handle.seek(max(0, size // 2))
        handle.write(b"\x00CORRUPTED\x00")


class FaultyCall:
    """Picklable task-callable wrapper: inject the plan's faults, then run."""

    def __init__(self, plan: FaultPlan, fn):
        self.plan = plan
        self.fn = fn

    def __call__(self, task):
        self.plan.inject(task)
        return self.fn(task)


# ---------------------------------------------------------------------------
# Filesystem crash points
# ---------------------------------------------------------------------------

#: Environment variable carrying the armed crash-point spec.  Parsed at
#: import, so freshly spawned interpreters (and forked pool workers, which
#: inherit the parent's environment) arm themselves without cooperation.
CRASH_POINTS_ENV = "REPRO_CRASH_POINTS"

#: Exit status of a fired crash point — the same 137 a ``kill -9`` leaves.
CRASH_EXIT_CODE = 137

#: Operations a crash point can interrupt.
CRASH_OPS = ("write", "fsync", "rename")

#: The (region, op) pairs the store and journal reach: the chaos matrix.
#: Other tags are accepted when arming.
CRASH_MATRIX = (("claimer", "write"),
                *(("publisher", op) for op in CRASH_OPS),
                ("journal", "write"), ("journal", "fsync"))

# Armed spec: {(tag, op): k} meaning "die at the k-th (tag, op) hit", or
# None when nothing is armed (the common case — crashpoint() returns after
# a single attribute load).  Hit counters live beside it.
_CRASH_SPECS: dict[tuple[str, str], int] | None = None
_CRASH_HITS: dict[tuple[str, str], int] = {}
_CRASH_LOCK = threading.Lock()
_REGION = threading.local()


def parse_crash_points(text: str) -> dict[tuple[str, str], int]:
    """Parse ``"tag:op:k[,tag:op:k...]"`` into an armed-spec mapping."""
    specs: dict[tuple[str, str], int] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 3:
            raise AnalysisError(
                f"bad crash-point spec {chunk!r}; expected tag:op:k")
        tag, op, count = parts
        if op not in CRASH_OPS:
            raise AnalysisError(
                f"unknown crash-point op {op!r}; choose one of "
                f"{', '.join(CRASH_OPS)}")
        try:
            k = int(count)
        except ValueError:
            raise AnalysisError(
                f"crash-point count {count!r} is not an integer") from None
        if k < 1:
            raise AnalysisError("a crash point must fire on hit >= 1")
        specs[(tag, op)] = k
    return specs


def arm_crash_points(spec: str | None) -> None:
    """Arm (or, with ``None``/empty, disarm) crash points in this process."""
    global _CRASH_SPECS
    with _CRASH_LOCK:
        _CRASH_HITS.clear()
        _CRASH_SPECS = parse_crash_points(spec) if spec else None


def disarm_crash_points() -> None:
    """Disarm all crash points and forget hit counters."""
    arm_crash_points(None)


@contextlib.contextmanager
def fault_region(tag: str):
    """Tag the enclosed block's :func:`crashpoint` calls with ``tag``.

    Regions nest; the innermost tag wins.  Pure thread-local bookkeeping —
    safe (and free) in production code paths.
    """
    stack = getattr(_REGION, "stack", None)
    if stack is None:
        stack = _REGION.stack = []
    stack.append(tag)
    try:
        yield
    finally:
        stack.pop()


def current_fault_region() -> str | None:
    """The innermost active :func:`fault_region` tag, if any."""
    stack = getattr(_REGION, "stack", None)
    return stack[-1] if stack else None


def crashpoint(op: str) -> None:
    """Die via ``os._exit`` if an armed spec matches this (region, op) hit.

    Unarmed (the default) this is a no-op.  Armed, the k-th matching hit
    terminates the process with :data:`CRASH_EXIT_CODE` and no cleanup —
    deliberately indistinguishable from ``kill -9`` landing between two
    filesystem syscalls.
    """
    if _CRASH_SPECS is None:
        return
    tag = current_fault_region()
    if tag is None:
        return
    key = (tag, op)
    target = _CRASH_SPECS.get(key)
    if target is None:
        return
    with _CRASH_LOCK:
        _CRASH_HITS[key] = hits = _CRASH_HITS.get(key, 0) + 1
    if hits == target:
        os._exit(CRASH_EXIT_CODE)


# Arm from the environment at import time so subprocesses (chaos children,
# forked pool workers) participate without any in-band plumbing.
if os.environ.get(CRASH_POINTS_ENV):
    arm_crash_points(os.environ[CRASH_POINTS_ENV])
