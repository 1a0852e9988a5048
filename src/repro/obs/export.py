"""Chrome trace-event (Perfetto) export of recorded spans and run logs.

The emitted file follows the Trace Event Format's "JSON object" flavour::

    {"traceEvents": [{"name": ..., "ph": "X", "ts": ..., "dur": ...,
                      "pid": ..., "tid": ..., "cat": ..., "args": {...}}],
     "displayTimeUnit": "ms",
     "otherData": {...}}

and loads directly in https://ui.perfetto.dev or ``chrome://tracing``.
Complete spans use phase ``"X"`` with microsecond ``ts``/``dur`` relative
to the earliest span, so multi-process campaign timelines line up on one
time axis with each worker pid in its own track.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .runlog import read_run_log
from .trace import SpanRecord

__all__ = [
    "spans_to_trace_events",
    "export_chrome_trace",
    "runlog_to_chrome_trace",
    "validate_trace_events",
]


def _tid_table(spans) -> dict[tuple[int, str], int]:
    """Stable numeric tid per (pid, thread-name) pair."""
    table: dict[tuple[int, str], int] = {}
    for span in spans:
        key = (span.pid, span.thread)
        if key not in table:
            table[key] = len([k for k in table if k[0] == span.pid]) + 1
    return table


def spans_to_trace_events(spans, *, origin: float | None = None) -> list[dict]:
    """Convert spans into complete-duration ("X") trace events."""
    spans = sorted(spans, key=lambda s: s.start)
    if origin is None:
        origin = spans[0].start if spans else 0.0
    tids = _tid_table(spans)
    events: list[dict] = []
    named: set[tuple[int, int]] = set()
    for span in spans:
        tid = tids[(span.pid, span.thread)]
        if (span.pid, tid) not in named:
            named.add((span.pid, tid))
            events.append({"name": "thread_name", "ph": "M", "pid": span.pid,
                           "tid": tid, "args": {"name": span.thread}})
        args = dict(span.attrs)
        args["span_id"] = span.span_id
        if span.parent_id:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": span.pid,
            "tid": tid,
            "args": args,
        })
    return events


def export_chrome_trace(spans, path: str | os.PathLike, *,
                        metadata: dict | None = None) -> Path:
    """Write spans as a Perfetto-loadable ``.trace.json`` file."""
    from ..studies.store import atomic_write

    path = Path(path)
    payload = {
        "traceEvents": spans_to_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    data = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(path, lambda handle: handle.write(data))
    return path


def runlog_to_chrome_trace(runlog_path: str | os.PathLike,
                           out_path: str | os.PathLike | None = None) -> Path:
    """Convert a JSONL run log into a ``.trace.json`` Chrome trace.

    Uses the ``span`` events the run logger dumps at campaign finish; the
    corner start/finish events are folded into the metadata so a log from a
    run without ``--trace`` still exports a (corner-granularity) trace.
    """
    runlog_path = Path(runlog_path)
    if out_path is None:
        stem = runlog_path.name
        if stem.endswith(".runlog.jsonl"):
            stem = stem[: -len(".runlog.jsonl")]
        out_path = runlog_path.parent / f"{stem}.trace.json"
    events = read_run_log(runlog_path)
    spans = [SpanRecord.from_dict(e["span"])
             for e in events if e.get("event") == "span" and "span" in e]
    if not spans:
        # Fall back to corner start/finish pairs as synthetic spans.
        spans = _corner_spans(events)
    header = events[0] if events else {}
    metadata = {
        "campaign": header.get("campaign", ""),
        "fingerprint": header.get("fingerprint", ""),
        "source": str(runlog_path),
    }
    return export_chrome_trace(spans, out_path, metadata=metadata)


def _corner_spans(events: list[dict]) -> list[SpanRecord]:
    spans: list[SpanRecord] = []
    starts: dict[object, dict] = {}
    for event in events:
        corner = event.get("corner")
        if corner is None:
            continue
        index = corner.get("index")
        if event.get("event") == "corner_start":
            starts[index] = event
        elif event.get("event") == "corner_finish" and index in starts:
            begin = starts.pop(index)
            spans.append(SpanRecord(
                span_id=f"corner-{index}", parent_id=None,
                name=f"corner[{corner.get('label', index)}]",
                start=float(begin["t"]),
                duration=max(0.0, float(event["t"]) - float(begin["t"])),
                pid=0, thread="corners",
                attrs=tuple(sorted(corner.items()))))
    return spans


_REQUIRED_X_FIELDS = ("name", "ph", "ts", "dur", "pid", "tid")


def validate_trace_events(payload: dict) -> list[str]:
    """Check a trace-JSON payload against the trace-event schema."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return ["trace payload is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload has no traceEvents list"]
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "B", "E", "M", "I", "C"):
            problems.append(f"event {index}: unsupported phase {phase!r}")
            continue
        if phase == "X":
            for field in _REQUIRED_X_FIELDS:
                if field not in event:
                    problems.append(f"event {index}: missing {field!r}")
            if event.get("dur", 0) < 0 or event.get("ts", 0) < 0:
                problems.append(f"event {index}: negative ts/dur")
    return problems
