"""Tidy result store of a sweep campaign.

A campaign's grid points live in :class:`SweepResult` as the column arrays
of :mod:`repro.studies.columns` (coordinates plus the spur analysis
outcome with its full per-entry decomposition).  :class:`PointRecord` is
one point's coordinates and spur power as Python scalars, built on demand.
The result answers the design-study questions the paper's figures ask from
the columns:

* :meth:`SweepResult.column` — one tidy column over all points (the figure
  studies mask ``spur_power_dbm`` by V_tune or variant),
* :meth:`SweepResult.spur_vs_frequency` — one spur-power-versus-noise-
  frequency curve per corner,
* :meth:`SweepResult.worst_spur` / :meth:`SweepResult.worst_per` — worst
  corner summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..core.flow import FlowResult
from ..errors import AnalysisError, CornerFailure
from ..layout.testchips import VcoLayoutSpec
from ..vco.spurs import entry_dbm, sideband_dbm, spur_power_dbm
from .columns import KNOB_PREFIX, concat_columns, corner_keys, n_points, take_rows
from .params import AXIS_INJECTED_POWER, AXIS_NOISE_FREQUENCY, AXIS_VTUNE


@dataclass(frozen=True)
class PointRecord:
    """One (variant, amplitude, V_tune, noise frequency) grid point, as the
    Python scalars of its result columns."""

    point_index: int
    variant_index: int
    knobs: dict[str, float]           #: layout/mesh axis values of the variant
    injected_power_dbm: float
    vtune: float
    noise_frequency: float
    spur_power_dbm: float             #: total spur power, both sidebands
    carrier_frequency: float
    carrier_amplitude: float


@dataclass(frozen=True)
class VariantRecord:
    """One extracted layout variant of a campaign.

    ``flow`` is ``None`` for results loaded from disk (the extracted models
    live in the extraction cache under ``cache_key``, not in the result file)
    and for variants that a resumed run did not need to re-extract.
    """

    index: int
    knobs: dict[str, float]
    spec: VcoLayoutSpec
    cache_key: str
    flow: FlowResult | None
    from_cache: bool                  #: True when the extraction was a cache hit


@dataclass
class SweepResult:
    """Aggregated outcome of one campaign run.

    ``columns`` holds every point in the NPZ column schema of
    :mod:`repro.studies.columns`; the queries read them directly.
    ``records`` reads them into :class:`PointRecord` rows on first use.
    """

    campaign_name: str
    backend_name: str
    axes: dict[str, tuple[float, ...]]    #: resolved axes incl. defaults
    columns: dict[str, np.ndarray]        #: the points, in point order
    variants: list[VariantRecord]
    wall_seconds: float
    cache_hits: int                       #: cache hits during this run
    cache_misses: int                     #: cache misses (= extractions) during this run
    #: JSON-serialisable campaign description (:meth:`Campaign.describe`),
    #: persisted in the metadata sidecar and used to validate resumes.
    campaign_spec: dict | None = None
    #: Corners that exhausted their attempts under a skip policy (empty for a
    #: complete run).  ``repro-campaign show`` lists these and ``resume``
    #: re-runs exactly these corners.
    failures: list[CornerFailure] = field(default_factory=list)
    #: Non-zero solver degradation counters summed over all tasks (gmin /
    #: source stepping rungs, spectral Kron -> sparse LU fallbacks); empty
    #: when every corner converged on the first-choice numerical path.
    solver_degradations: dict[str, int] = field(default_factory=dict)
    #: Per-run telemetry: ``{"counters", "gauges", "histograms"}`` metrics
    #: under ``"metrics"`` plus (when tracing was enabled) per-span-name
    #: aggregates under ``"spans"``.  ``None`` for results produced before
    #: the telemetry layer existed.
    telemetry: dict | None = None

    def __len__(self) -> int:
        return n_points(self.columns)

    @cached_property
    def records(self) -> list[PointRecord]:
        """Every point as a :class:`PointRecord`, in point order."""
        return self._records(slice(None))

    def point(self, row: int) -> PointRecord:
        """The point in row ``row`` as a :class:`PointRecord`."""
        return self._records([row])[0]

    def _records(self, rows) -> list[PointRecord]:
        """The points ``rows`` (a slice or an index list) selects."""
        knobs = {name[len(KNOB_PREFIX):]: column[rows].tolist()
                 for name, column in self.columns.items()
                 if name.startswith(KNOB_PREFIX)}
        # One tolist() per column: Python scalars, in PointRecord field order.
        values = [self.columns["point_index"][rows].tolist()] + [
            self.column(name)[rows].tolist() for name in (
                "variant", AXIS_INJECTED_POWER, AXIS_VTUNE,
                AXIS_NOISE_FREQUENCY, "spur_power_dbm", "carrier_frequency",
                "carrier_amplitude")]
        return [PointRecord(point, variant,
                            {name: column[row] for name, column in knobs.items()
                             if not math.isnan(column[row])},
                            *outcome)
                for row, (point, variant, *outcome) in enumerate(zip(*values))]

    def corners(self) -> frozenset[tuple[int, float, float]]:
        """The (variant, power, vtune) corners that have points."""
        return frozenset(corner_keys(self.columns))

    def subset(self, rows) -> "SweepResult":
        """This result restricted to the points ``rows`` selects (a boolean
        mask or an index array over the rows)."""
        return replace(self, columns=take_rows(self.columns, rows))

    @property
    def complete(self) -> bool:
        """True when no corner was skipped over a failure."""
        return not self.failures

    def failed_corners(self) -> frozenset[tuple[int, float, float]]:
        """(variant, power, vtune) coordinates of the recorded failures."""
        return frozenset((failure.variant_index, failure.injected_power_dbm,
                          failure.vtune) for failure in self.failures)

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> tuple:
        """Persist to ``<stem>.npz`` + ``<stem>.meta.json``; returns the paths.

        The columns are stored raw (float64 / complex128), so
        ``SweepResult.load(path)`` reconstructs records whose spur powers are
        bit-identical to the in-memory originals.
        """
        from .persist import save_result

        return save_result(self, path)

    @staticmethod
    def load(path) -> "SweepResult":
        """Load a result persisted by :meth:`save` (``flow``-less variants)."""
        from .persist import load_result

        return load_result(path)

    def merge(self, other: "SweepResult") -> "SweepResult":
        """Combine two partial runs of the *same* campaign into one result.

        Points are keyed by their deterministic grid ``point_index``; where
        both results cover a point, this result's point wins.  Wall-clock
        and cache counters are summed (cumulative cost of both runs).

        This is the API for stitching separately-saved partial results (e.g.
        corners computed on different machines), and the one point merger
        of :meth:`SweepRunner.run <repro.studies.runner.SweepRunner.run>`:
        a resumed run merges its fresh result with its prior work, whose
        cost it zeroes first, so it reports only the *fresh* run's wall
        clock and cache traffic.
        """
        mine = self.campaign_spec or {}
        theirs = other.campaign_spec or {}
        if mine.get("fingerprint") and theirs.get("fingerprint") \
                and mine["fingerprint"] != theirs["fingerprint"]:
            raise AnalysisError(
                "cannot merge sweep results of different campaigns "
                f"({self.campaign_name!r} vs {other.campaign_name!r}: "
                "campaign fingerprints differ)")
        if dict(self.axes) != dict(other.axes):
            raise AnalysisError(
                "cannot merge sweep results with different axes "
                f"({sorted(self.axes)} vs {sorted(other.axes)})")
        theirs_only = ~np.isin(other.columns["point_index"],
                               self.columns["point_index"])
        columns = concat_columns([self.columns,
                                  take_rows(other.columns, theirs_only)])
        variants: dict[int, VariantRecord] = {
            variant.index: variant for variant in other.variants}
        for variant in self.variants:
            if variant.flow is not None or variant.index not in variants:
                variants[variant.index] = variant
        # A corner one run failed but the other completed is no longer a
        # failure; among surviving failures, keyed corners dedupe (self wins).
        covered = set(corner_keys(columns))
        failures: list[CornerFailure] = []
        for failure in [*self.failures, *other.failures]:
            corner = (failure.variant_index, failure.injected_power_dbm,
                      failure.vtune)
            if corner in covered:
                continue
            covered.add(corner)
            failures.append(failure)
        degradations = dict(self.solver_degradations)
        for name, count in other.solver_degradations.items():
            degradations[name] = degradations.get(name, 0) + count
        return SweepResult(
            campaign_name=self.campaign_name,
            backend_name=self.backend_name,
            axes=self.axes,
            columns=columns,
            variants=[variants[index] for index in sorted(variants)],
            wall_seconds=self.wall_seconds + other.wall_seconds,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            campaign_spec=self.campaign_spec or other.campaign_spec,
            failures=failures,
            solver_degradations=degradations,
            telemetry=self.telemetry or other.telemetry)

    # -- tidy columns --------------------------------------------------------

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        stored = self.columns
        columns = {
            "variant": stored["variant_index"],
            AXIS_INJECTED_POWER: stored["injected_power_dbm"],
            AXIS_VTUNE: stored["vtune"],
            AXIS_NOISE_FREQUENCY: stored["noise_frequency"],
            "spur_power_dbm": spur_power_dbm(stored["lower_sideband_voltage"],
                                             stored["upper_sideband_voltage"]),
            "carrier_frequency": stored["carrier_frequency"],
            "carrier_amplitude": stored["carrier_amplitude"],
        }
        for name in self.axes:
            if name not in columns:          # layout / mesh axes
                columns[name] = stored.get(
                    KNOB_PREFIX + name, np.full(len(self), np.nan))
        return columns

    def column(self, name: str) -> np.ndarray:
        """Tidy column over all points (axis coordinate or outcome)."""
        try:
            return self._columns[name]
        except KeyError:
            raise AnalysisError(
                f"unknown sweep column {name!r}; available: "
                f"{sorted(self._columns)}") from None

    def rows(self) -> list[dict[str, float]]:
        """All points as flat dict rows (for tables / DataFrame adapters):
        each record's values plus its sideband and present entries' powers."""
        columns = self.columns
        outcome = {
            "lower_sideband_dbm": sideband_dbm(
                columns["lower_sideband_voltage"]),
            "upper_sideband_dbm": sideband_dbm(
                columns["upper_sideband_voltage"]),
            "fm_voltage": columns["fm_voltage"],
            "am_voltage": columns["am_voltage"],
        }
        outcome = {name: column.tolist() for name, column in outcome.items()}
        entry_keys = [f"entry:{name}_dbm"
                      for name in columns["entry_names"].tolist()]
        entry_power = entry_dbm(columns["entry_fm_voltage"],
                                columns["entry_am_voltage"]).tolist()
        present = columns["entry_present"].tolist()
        rows = []
        for point, record in enumerate(self.records):
            row = {"variant": float(record.variant_index), **record.knobs,
                   AXIS_NOISE_FREQUENCY: record.noise_frequency,
                   "carrier_frequency": record.carrier_frequency,
                   "carrier_amplitude": record.carrier_amplitude,
                   "spur_power_dbm": record.spur_power_dbm}
            row.update((name, values[point])
                       for name, values in outcome.items())
            row.update((key, power) for key, power, here in zip(
                entry_keys, entry_power[point], present[point]) if here)
            row[AXIS_INJECTED_POWER] = record.injected_power_dbm
            row[AXIS_VTUNE] = record.vtune
            rows.append(row)
        return rows

    # -- summary queries -----------------------------------------------------

    def _mask(self, **filters: float) -> np.ndarray:
        mask = np.ones(len(self), dtype=bool)
        for name, value in filters.items():
            column = self.column(name)
            mask &= np.isclose(column, value, rtol=1e-12, atol=0.0)
        return mask

    def spur_vs_frequency(self, **filters: float) -> tuple[np.ndarray, np.ndarray]:
        """Spur-power-versus-noise-frequency curve of one corner.

        Returns ``(frequencies, spur_power_dbm)`` sorted by frequency; the
        filters must pin every other axis down to a single curve.
        """
        mask = self._mask(**filters)
        if not mask.any():
            raise AnalysisError(f"no sweep points match {filters!r}")
        frequencies = self.column(AXIS_NOISE_FREQUENCY)[mask]
        power = self.column("spur_power_dbm")[mask]
        if len(np.unique(frequencies)) != len(frequencies):
            raise AnalysisError(
                f"filters {filters!r} leave more than one curve "
                "(duplicate noise frequencies)")
        order = np.argsort(frequencies)
        return frequencies[order], power[order]

    def worst_spur(self, **filters: float) -> PointRecord:
        """The grid point with the highest total spur power (worst corner)."""
        rows = np.flatnonzero(self._mask(**filters))
        if not rows.size:
            raise AnalysisError(f"no sweep points match {filters!r}")
        power = self.column("spur_power_dbm")[rows]
        return self.point(int(rows[np.argmax(power)]))

    def worst_per(self, axis: str) -> dict[float, PointRecord]:
        """Worst grid point for each value of ``axis`` (worst spur per corner)."""
        if axis not in self.axes and axis != "variant":
            raise AnalysisError(f"unknown sweep axis {axis!r}")
        power = self.column("spur_power_dbm").tolist()
        worst: dict[float, int] = {}
        for row, value in enumerate(self.column(axis).tolist()):
            value = float(value)
            if value not in worst or power[row] > power[worst[value]]:
                worst[value] = row
        return {value: self.point(row) for value, row in worst.items()}

    def summary(self) -> dict[str, float | int | str]:
        """Headline numbers for logging / benchmark records."""
        summary: dict[str, float | int | str] = {
            "campaign": self.campaign_name,
            "backend": self.backend_name,
            "points": len(self),
            "variants": len(self.variants),
            "extractions": self.cache_misses,
            "cache_hits": self.cache_hits,
            "wall_seconds": round(self.wall_seconds, 4),
        }
        if (self.campaign_spec or {}).get("fingerprint"):
            summary["fingerprint"] = self.campaign_spec["fingerprint"]
        if len(self):   # a fully-failed skip-policy run has no points
            summary["worst_spur_dbm"] = round(
                float(self.column("spur_power_dbm").max()), 2)
        if self.failures:
            summary["failed_corners"] = len(self.failures)
        if self.solver_degradations:
            summary["solver_degradations"] = sum(
                self.solver_degradations.values())
        return summary
