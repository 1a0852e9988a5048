"""The metrics the benchmark reports, with units and direction.

``BENCHMARK.json`` lists exactly these (``test_perfbench.py`` checks that the
two agree).  End-to-end metrics come from untraced runs; per-layer metrics
from the traced run (``--trace 1``).  Per-layer ``_s`` metrics are *self*
times — time in the named calls minus time in nested timed calls — summed
over every process, except ``substrate.kron_s`` and ``core.flow_s``, which
are inclusive.
"""

from __future__ import annotations

import re

#: (name, unit, better, bound): bound is the tolerated worsening, as a share
#: of the parent commit's median.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better)
PER_LAYER = (
    ("substrate.mesh_s", "s", "lower"),
    ("substrate.kron_s", "s", "lower"),
    ("substrate.schur_s", "s", "lower"),
    ("substrate.mesh_nodes", "count", "lower"),
    ("linalg.factorize_s", "s", "lower"),
    ("linalg.solve_s", "s", "lower"),
    ("linalg.factorizations", "count", "lower"),
    ("linalg.solves", "count", "lower"),
    ("linalg.mg_cycles", "count", "lower"),
    ("linalg.fallbacks", "count", "lower"),
    ("interconnect.extract_s", "s", "lower"),
    ("extraction.circuit_s", "s", "lower"),
    ("extraction.merge_s", "s", "lower"),
    ("core.flow_s", "s", "lower"),
    ("core.extractions", "count", "lower"),
    ("core.testbench_s", "s", "lower"),
    ("simulator.dc_s", "s", "lower"),
    ("simulator.newton_iters", "count", "lower"),
    ("simulator.transfer_s", "s", "lower"),
    ("vco.model_s", "s", "lower"),
    ("vco.spurs_s", "s", "lower"),
    ("studies.corners", "count", "higher"),
    ("studies.corner_p50_ms", "ms", "lower"),
    ("studies.corner_p90_ms", "ms", "lower"),
    ("studies.cache_hits", "count", "higher"),
    ("studies.cache_misses", "count", "lower"),
    ("studies.store_read_s", "s", "lower"),
    ("studies.journal_appends", "count", "lower"),
    ("studies.journal_s", "s", "lower"),
    ("studies.save_s", "s", "lower"),
    ("studies.overhead_s", "s", "lower"),
    ("parallel.tasks", "count", "lower"),
    ("parallel.retries", "count", "lower"),
    ("parallel.pool_start_s", "s", "lower"),
    ("parallel.worker_busy_frac", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("check.failed_frac", "ratio", "lower"),
    ("check.spur_dev_db", "dB", "lower"),
)

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name: str) -> bool:
    return _NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return _UNIT.fullmatch(unit) is not None


def units(table) -> dict[str, str]:
    return {row[0]: row[1] for row in table}
