"""Unified observability layer: tracing, run logs and progress.

Three pieces, one import point:

* :mod:`repro.obs.trace` — hierarchical span tracer (:func:`trace_span`),
  ~ns no-op while disabled; every span of a campaign's corners is recorded
  in the campaign process.
* :mod:`repro.obs.runlog` — fingerprint-stamped JSONL run logs plus the
  Chrome trace-event (Perfetto) exporter in :mod:`repro.obs.export`.
* :mod:`repro.obs.campaign` — runner observers: structured run-log
  recording and the live progress line.

:func:`configure_logging` / :func:`get_logger` put the whole tree's
diagnostics under the ``repro.`` logger namespace.  Counters are not kept
here: solver work lives in ``repro.simulator.solver.stats`` and cache
traffic on the cache's ``stats``; a campaign's per-run deltas of them land
in ``SweepResult.telemetry["metrics"]`` (built by the sweep runner).
"""

from .campaign import (
    CampaignObserver,
    CompositeObserver,
    ProgressReporter,
    RunLogRecorder,
)
from .export import (
    export_chrome_trace,
    runlog_to_chrome_trace,
    spans_to_trace_events,
    validate_trace_events,
)
from .logs import ROOT_LOGGER_NAME, configure_logging, get_logger
from .runlog import (
    EVENT_KINDS,
    RUNLOG_FORMAT_VERSION,
    RunLogWriter,
    read_run_log,
    runlog_path_for,
    validate_run_log,
)
from .trace import (
    SpanRecord,
    Tracer,
    span_aggregates,
    trace_span,
    tracer,
)

__all__ = [
    "CampaignObserver",
    "CompositeObserver",
    "ProgressReporter",
    "RunLogRecorder",
    "export_chrome_trace",
    "runlog_to_chrome_trace",
    "spans_to_trace_events",
    "validate_trace_events",
    "ROOT_LOGGER_NAME",
    "configure_logging",
    "get_logger",
    "EVENT_KINDS",
    "RUNLOG_FORMAT_VERSION",
    "RunLogWriter",
    "read_run_log",
    "runlog_path_for",
    "validate_run_log",
    "SpanRecord",
    "Tracer",
    "span_aggregates",
    "trace_span",
    "tracer",
]
