"""Campaign-level observers: run-log recording and live progress.

The sweep runner accepts one :class:`CampaignObserver` and invokes its
hooks from the parent process as the campaign advances (corner starts and
retries come from the backend's ``on_start`` callback, finishes from
``on_result``).  :class:`CompositeObserver` fans the hooks out, so the CLI
can record a run log *and* render a progress line in one pass.

Observers are duck-typed against the runner's task/outcome/failure
objects; this module deliberately does not import :mod:`repro.studies`
(the studies package imports us).
"""

from __future__ import annotations

import sys
import time

from .runlog import RunLogWriter
from .trace import tracer

__all__ = [
    "CampaignObserver",
    "CompositeObserver",
    "RunLogRecorder",
    "ProgressReporter",
]


class CampaignObserver:
    """Base observer: every hook is a no-op.  Subclass what you need."""

    def campaign_started(self, *, campaign_name: str, fingerprint: str,
                         total_corners: int, pending_corners: int,
                         prior_corners: int = 0) -> None:
        pass

    def corner_started(self, task, attempt: int) -> None:
        pass

    def corner_finished(self, task, outcome) -> None:
        pass

    def corner_failed(self, failure) -> None:
        pass

    def campaign_finished(self, result) -> None:
        pass

    def close(self) -> None:
        pass


class CompositeObserver(CampaignObserver):
    """Fan every hook out to several observers, in order."""

    def __init__(self, *observers: CampaignObserver):
        self.observers = [obs for obs in observers if obs is not None]

    def campaign_started(self, **kwargs) -> None:
        for obs in self.observers:
            obs.campaign_started(**kwargs)

    def corner_started(self, task, attempt: int) -> None:
        for obs in self.observers:
            obs.corner_started(task, attempt)

    def corner_finished(self, task, outcome) -> None:
        for obs in self.observers:
            obs.corner_finished(task, outcome)

    def corner_failed(self, failure) -> None:
        for obs in self.observers:
            obs.corner_failed(failure)

    def campaign_finished(self, result) -> None:
        for obs in self.observers:
            obs.campaign_finished(result)

    def close(self) -> None:
        for obs in self.observers:
            obs.close()


def _task_corner(task) -> dict:
    return {
        "index": task.index,
        "variant": task.variant_index,
        "power_dbm": task.injected_power_dbm,
        "vtune": task.vtune,
        "label": task.corner_label(),
    }


def _failure_corner(failure) -> dict:
    return {
        "index": None,
        "variant": getattr(failure, "variant_index", -1),
        "power_dbm": getattr(failure, "injected_power_dbm", float("nan")),
        "vtune": getattr(failure, "vtune", float("nan")),
        "label": getattr(failure, "corner_label", ""),
    }


class RunLogRecorder(CampaignObserver):
    """Writes the structured JSONL run log for one campaign run.

    One event per corner start / finish / retry / timeout / degradation /
    failure, a fingerprint-stamped ``campaign_start`` header, the recorded
    spans (when tracing is enabled) and a ``campaign_finish`` summary
    trailer — everything ``repro-campaign trace export`` needs.
    """

    def __init__(self, path):
        self.path = path
        self._writer: RunLogWriter | None = None

    def campaign_started(self, *, campaign_name: str, fingerprint: str,
                         total_corners: int, pending_corners: int,
                         prior_corners: int = 0) -> None:
        # The writer's first line is the campaign_start header event; the
        # corner counts ride on it so readers know the expected shape.
        self._writer = RunLogWriter(self.path, campaign=campaign_name,
                                    fingerprint=fingerprint,
                                    total_corners=total_corners,
                                    pending_corners=pending_corners,
                                    prior_corners=prior_corners)

    def _ensure(self) -> RunLogWriter:
        if self._writer is None:
            raise RuntimeError("run log used before campaign_started")
        return self._writer

    def corner_started(self, task, attempt: int) -> None:
        writer = self._ensure()
        event = "corner_start" if attempt <= 1 else "corner_retry"
        writer.emit(event, corner=_task_corner(task), attempt=attempt)

    def corner_finished(self, task, outcome) -> None:
        writer = self._ensure()
        corner = _task_corner(task)
        writer.emit("corner_finish", corner=corner,
                    records=outcome.points,
                    seconds=getattr(outcome, "seconds", None))
        degradations = dict(getattr(outcome, "degradations", ()) or ())
        if degradations:
            writer.emit("corner_degradation", corner=corner,
                        degradations=degradations)

    def corner_failed(self, failure) -> None:
        writer = self._ensure()
        corner = _failure_corner(failure)
        if getattr(failure, "timed_out", False):
            writer.emit("corner_timeout", corner=corner,
                        attempts=getattr(failure, "attempts", None))
        writer.emit("corner_failure", corner=corner,
                    error_type=getattr(failure, "error_type", ""),
                    message=getattr(failure, "message", ""),
                    attempts=getattr(failure, "attempts", None),
                    timed_out=getattr(failure, "timed_out", False))

    def campaign_finished(self, result) -> None:
        writer = self._ensure()
        if tracer.enabled:
            for span in tracer.spans():
                writer.emit("span", span=span.as_dict())
        writer.emit(
            "campaign_finish",
            corners=len(result.corners()),
            points=len(result),
            failures=len(result.failures),
            wall_seconds=result.wall_seconds,
            cache_hits=result.cache_hits,
            cache_misses=result.cache_misses)
        self.close()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


class ProgressReporter(CampaignObserver):
    """Live single-line campaign progress (corners, rate, hit-rate, ETA)."""

    def __init__(self, stream=None, *, cache=None, min_interval: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        self.cache = cache
        self.min_interval = min_interval
        self._total = 0
        self._done = 0
        self._failed = 0
        self._t0 = 0.0
        self._last_render = 0.0
        self._width = 0

    def campaign_started(self, *, campaign_name: str, fingerprint: str,
                         total_corners: int, pending_corners: int,
                         prior_corners: int = 0) -> None:
        self._total = pending_corners
        self._done = 0
        self._failed = 0
        self._t0 = time.monotonic()
        self._last_render = 0.0
        self._render(force=True)

    def corner_finished(self, task, outcome) -> None:
        self._done += 1
        self._render()

    def corner_failed(self, failure) -> None:
        self._failed += 1
        self._render()

    def campaign_finished(self, result) -> None:
        self._render(force=True)
        if self._total:
            self.stream.write("\n")
            self.stream.flush()

    def _render(self, force: bool = False) -> None:
        if not self._total:
            return
        now = time.monotonic()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        elapsed = max(now - self._t0, 1e-9)
        settled = self._done + self._failed
        rate = settled / elapsed
        parts = [f"corners {settled}/{self._total}"]
        if self._failed:
            parts.append(f"{self._failed} failed")
        parts.append(f"{rate:.2f}/s")
        if self.cache is not None:
            stats = getattr(self.cache, "stats", None)
            requests = getattr(stats, "requests", 0) if stats else 0
            if requests:
                parts.append(f"cache {100.0 * stats.hits / requests:.0f}%")
        if 0 < settled < self._total and rate > 0:
            eta = (self._total - settled) / rate
            parts.append(f"ETA {_format_eta(eta)}")
        line = " · ".join(parts)
        pad = max(self._width - len(line), 0)
        self._width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()


def _format_eta(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    minutes, secs = divmod(seconds, 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"
