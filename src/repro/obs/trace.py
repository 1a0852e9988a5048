"""Hierarchical span tracing with near-zero overhead when disabled.

The tracer is a process-global object holding a flat list of finished
:class:`SpanRecord`\\ s plus one *stack* of open spans per thread.  Code is
instrumented with :func:`trace_span`::

    with trace_span("extract.substrate", cell="vco_testchip"):
        ...

When tracing is disabled (the default), ``trace_span`` returns a shared
no-op context manager without allocating anything — the cost is one
attribute check per call, so hot paths (every ``LinearSolver.solve``) can
stay instrumented unconditionally.

Spans stay in the process that records them.  A campaign runs every
corner in the process that called it, so each ``campaign.corner`` span
nests directly under the ``campaign.run`` root span; an extraction that
runs in a pool worker leaves no span.  Span ids embed the producing pid.

Span starts use ``time.time()`` (wall-clock aligned) and durations
``time.perf_counter()`` (monotonic).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass

__all__ = [
    "SpanRecord",
    "Tracer",
    "tracer",
    "trace_span",
]


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (frozen; the run log stores it as a dict)."""

    span_id: str
    parent_id: str | None
    name: str
    start: float          # epoch seconds (time.time)
    duration: float       # seconds (perf_counter delta) — monotonic
    pid: int
    thread: str
    attrs: tuple[tuple[str, object], ...] = ()

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        return cls(span_id=data["span_id"], parent_id=data.get("parent_id"),
                   name=data["name"], start=float(data["start"]),
                   duration=float(data["duration"]), pid=int(data["pid"]),
                   thread=str(data.get("thread", "main")),
                   attrs=tuple(sorted(dict(data.get("attrs", {})).items())))


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "_t0_perf", "_t0_wall")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        tracer = self._tracer
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.span_id = tracer._new_id()
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        duration = time.perf_counter() - self._t0_perf
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:          # tolerate mismatched exits
            stack.remove(self)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer._record(SpanRecord(
            span_id=self.span_id, parent_id=self.parent_id, name=self.name,
            start=self._t0_wall, duration=duration, pid=os.getpid(),
            thread=threading.current_thread().name,
            attrs=tuple(sorted(self.attrs.items()))))
        return False

    def set(self, **attrs) -> None:
        """Attach attributes to an open span."""
        self.attrs.update(attrs)


class Tracer:
    """Process-global span collector.  Disabled by default."""

    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._local = threading.local()
        self._counter = itertools.count(1)

    # -- lifecycle -------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()

    def spans(self) -> tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._spans)

    def mark(self) -> int:
        """Bookmark in the span list, for :meth:`spans_since`."""
        with self._lock:
            return len(self._spans)

    def spans_since(self, mark: int) -> tuple[SpanRecord, ...]:
        """Spans recorded after a :meth:`mark` bookmark."""
        with self._lock:
            return tuple(self._spans[mark:])

    # -- span plumbing ---------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _new_id(self) -> str:
        return f"{os.getpid():x}-{next(self._counter):x}"

    def _record(self, span: SpanRecord) -> None:
        with self._lock:
            self._spans.append(span)


tracer = Tracer()


def trace_span(name: str, **attrs):
    """Open a span named ``name``; a shared no-op when tracing is disabled."""
    if not tracer.enabled:
        return _NULL_SPAN
    return _LiveSpan(tracer, name, attrs)


def span_aggregates(spans) -> dict[str, dict[str, float]]:
    """Group spans by name: {name: {count, total_seconds, max_seconds}}."""
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name,
                               {"count": 0, "total_seconds": 0.0,
                                "max_seconds": 0.0})
        row["count"] += 1
        row["total_seconds"] += span.duration
        row["max_seconds"] = max(row["max_seconds"], span.duration)
    for row in table.values():
        row["total_seconds"] = float(row["total_seconds"])
        row["max_seconds"] = float(row["max_seconds"])
    return table
