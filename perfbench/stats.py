"""Percentiles of timing samples (numpy's default linear interpolation)."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The ``q``-th percentile with linear interpolation between ranks
    (numpy's default method)."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile outside [0, 100]")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)
