"""One metrics registry unifying the repo's ad-hoc stat records.

Counters, gauges and histograms, each addressed by a name plus optional
labels::

    registry = MetricsRegistry()
    registry.counter("solver.factorizations", backend="multigrid").add(3)
    registry.histogram("campaign.corner_seconds").observe(0.42)
    registry.snapshot()

``snapshot()`` returns one plain-dict schema::

    {"counters":   {"solver.factorizations{backend=multigrid}": 3},
     "gauges":     {...},
     "histograms": {"campaign.corner_seconds":
                        {"count": 1, "sum": 0.42, "min": 0.42, "max": 0.42}}}

The legacy record types (``SolverStats``, ``CacheStats``,
``DiskCacheStats`` and the degradation ladder counts) stay as-is for
backward compatibility; the ``absorb_*`` adapters translate them into
registry counters so every layer reports through the same schema.  (The
campaign's retry counters are written into the registry directly.)
"""

from __future__ import annotations

import threading
from typing import Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
]


def _key(name: str, labels: Mapping[str, object]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount

    def inc(self) -> None:
        self.add(1)


class Gauge:
    """A value that can go up or down."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Streaming summary (count/sum/min/max) — enough for run reports."""

    __slots__ = ("count", "sum", "min", "max", "_lock")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    def as_dict(self) -> dict:
        return {"count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "mean": (self.sum / self.count) if self.count else None}


class MetricsRegistry:
    """Registry of named metrics with labels."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, **labels) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    def _get(self, table, factory, name, labels):
        key = _key(name, labels)
        with self._lock:
            metric = table.get(key)
            if metric is None:
                metric = table[key] = factory()
            return metric

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def snapshot(self) -> dict:
        """The one schema every stat source reports through."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(
                    self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(
                    self._gauges.items())},
                "histograms": {k: h.as_dict() for k, h in sorted(
                    self._histograms.items())},
            }

    # -- adapters for the legacy stat records ---------------------------------

    def absorb_solver_stats(self, stats, **labels) -> None:
        """Fold a :class:`repro.simulator.solver.SolverStats` in as counters."""
        for name in stats._COUNTERS:
            value = getattr(stats, name)
            if value:
                self.counter(f"solver.{name}", **labels).add(value)

    def absorb_cache_stats(self, stats, **labels) -> None:
        """Fold ``CacheStats`` (or its disk subclass) in as counters."""
        for name in ("hits", "misses", "evictions", "corrupted",
                     "quarantined", "leases_claimed", "leases_stolen",
                     "lease_waits", "publishes", "publishes_rejected"):
            value = getattr(stats, name, 0)
            if value:
                self.counter(f"cache.{name}", **labels).add(value)

    def absorb_degradations(self, degradations: Mapping[str, int]) -> None:
        """Fold the solver degradation-ladder counts in as counters."""
        for kind, count in (degradations or {}).items():
            if count:
                self.counter("solver.degradations", kind=kind).add(count)


registry = MetricsRegistry()
