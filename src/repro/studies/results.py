"""Tidy result store of a sweep campaign.

Every grid point of a campaign produces one :class:`PointRecord` (the point's
coordinates plus the spur analysis outcome, including the full
:class:`~repro.vco.spurs.SpurResult`).  :class:`SweepResult` aggregates the
records into tidy column arrays and answers the design-study questions the
paper's figures ask:

* :meth:`SweepResult.spur_vs_frequency` — one spur-power-versus-noise-
  frequency curve per corner (Figure 8 / Figure 10 raw material),
* :meth:`SweepResult.worst_spur` / :meth:`SweepResult.worst_per` — worst
  corner summaries,
* :meth:`SweepResult.to_vco_sweep_result` — conversion into the classic
  :class:`~repro.core.results.VcoSpurSweepResult` (with reference lines and
  :mod:`repro.analysis.compare` error metrics) so the Figure-8 benchmark and
  examples keep their interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..analysis.compare import compare_curves, reference_slope_line
from ..core.flow import FlowResult
from ..data import measurements
from ..errors import AnalysisError, CornerFailure
from ..layout.testchips import VcoLayoutSpec
from ..vco.spurs import SpurResult
from .params import AXIS_INJECTED_POWER, AXIS_NOISE_FREQUENCY, AXIS_VTUNE


@dataclass(frozen=True)
class PointRecord:
    """One (variant, amplitude, V_tune, noise frequency) grid point."""

    point_index: int
    variant_index: int
    knobs: dict[str, float]           #: layout/mesh axis values of the variant
    injected_power_dbm: float
    vtune: float
    noise_frequency: float
    spur: SpurResult

    @property
    def spur_power_dbm(self) -> float:
        return self.spur.total_spur_power_dbm()

    @property
    def carrier_frequency(self) -> float:
        return self.spur.carrier_frequency

    @property
    def carrier_amplitude(self) -> float:
        return self.spur.carrier_amplitude

    def row(self) -> dict[str, float]:
        """Flat tidy row (axis coordinates plus outcome columns)."""
        row: dict[str, float] = {"variant": float(self.variant_index)}
        row.update(self.knobs)
        row.update(self.spur.record())
        row[AXIS_INJECTED_POWER] = self.injected_power_dbm
        row[AXIS_VTUNE] = self.vtune
        return row


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
    """Aggregated outcome of one campaign run."""

    campaign_name: str
    backend_name: str
    axes: dict[str, tuple[float, ...]]    #: resolved axes incl. defaults
    records: list[PointRecord]
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
    #: Per-run telemetry: a ``repro.obs`` ``MetricsRegistry.snapshot()``
    #: under ``"metrics"`` plus (when tracing was enabled) per-span-name
    #: aggregates under ``"spans"``.  ``None`` for results produced before
    #: the telemetry layer existed.
    telemetry: dict | None = None

    def __len__(self) -> int:
        return len(self.records)

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

        The float columns are stored raw (float64 / complex128), so
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

        Records are keyed by their deterministic grid ``point_index``; where
        both results cover a point, this result's record wins.  Wall-clock
        and cache counters are summed (cumulative cost of both runs).

        This is the API for stitching separately-saved partial results (e.g.
        corners computed on different machines).  Note that
        :meth:`SweepRunner.run(resume_from=...)
        <repro.studies.runner.SweepRunner.run>` merges records itself and
        reports only the *fresh* run's wall clock and cache traffic.
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
        by_point = {record.point_index: record for record in other.records}
        by_point.update({record.point_index: record for record in self.records})
        variants: dict[int, VariantRecord] = {
            variant.index: variant for variant in other.variants}
        for variant in self.variants:
            if variant.flow is not None or variant.index not in variants:
                variants[variant.index] = variant
        # A corner one run failed but the other completed is no longer a
        # failure; among surviving failures, keyed corners dedupe (self wins).
        merged_records = [by_point[index] for index in sorted(by_point)]
        covered = {(r.variant_index, r.injected_power_dbm, r.vtune)
                   for r in merged_records}
        failures: list[CornerFailure] = []
        seen_corners: set[tuple[int, float, float]] = set()
        for failure in [*self.failures, *other.failures]:
            corner = (failure.variant_index, failure.injected_power_dbm,
                      failure.vtune)
            if corner in covered or corner in seen_corners:
                continue
            seen_corners.add(corner)
            failures.append(failure)
        degradations = dict(self.solver_degradations)
        for name, count in other.solver_degradations.items():
            degradations[name] = degradations.get(name, 0) + count
        return SweepResult(
            campaign_name=self.campaign_name,
            backend_name=self.backend_name,
            axes=self.axes,
            records=merged_records,
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
        columns = {
            "variant": np.array([r.variant_index for r in self.records]),
            AXIS_INJECTED_POWER: np.array(
                [r.injected_power_dbm for r in self.records]),
            AXIS_VTUNE: np.array([r.vtune for r in self.records]),
            AXIS_NOISE_FREQUENCY: np.array(
                [r.noise_frequency for r in self.records]),
            "spur_power_dbm": np.array(
                [r.spur_power_dbm for r in self.records]),
            "carrier_frequency": np.array(
                [r.carrier_frequency for r in self.records]),
            "carrier_amplitude": np.array(
                [r.carrier_amplitude for r in self.records]),
        }
        for name in self.axes:
            if name not in columns:          # layout / mesh axes
                columns[name] = np.array(
                    [r.knobs.get(name, np.nan) for r in self.records])
        return columns

    def column(self, name: str) -> np.ndarray:
        """Tidy column over all records (axis coordinate or outcome)."""
        try:
            return self._columns[name]
        except KeyError:
            raise AnalysisError(
                f"unknown sweep column {name!r}; available: "
                f"{sorted(self._columns)}") from None

    def rows(self) -> list[dict[str, float]]:
        """All records as flat dict rows (for tables / DataFrame adapters)."""
        return [record.row() for record in self.records]

    # -- selection -----------------------------------------------------------

    def _mask(self, **filters: float) -> np.ndarray:
        mask = np.ones(len(self.records), dtype=bool)
        for name, value in filters.items():
            column = self.column(name)
            mask &= np.isclose(column, value, rtol=1e-12, atol=0.0)
        return mask

    def select(self, **filters: float) -> list[PointRecord]:
        """Records matching the given axis values (e.g. ``vtune=0.0``)."""
        mask = self._mask(**filters)
        return [record for record, keep in zip(self.records, mask) if keep]

    # -- summary queries -----------------------------------------------------

    def spur_vs_frequency(self, **filters: float) -> tuple[np.ndarray, np.ndarray]:
        """Spur-power-versus-noise-frequency curve of one corner.

        Returns ``(frequencies, spur_power_dbm)`` sorted by frequency; the
        filters must pin every other axis down to a single curve.
        """
        selected = self.select(**filters)
        if not selected:
            raise AnalysisError(f"no sweep points match {filters!r}")
        frequencies = np.array([r.noise_frequency for r in selected])
        power = np.array([r.spur_power_dbm for r in selected])
        if len(np.unique(frequencies)) != len(frequencies):
            raise AnalysisError(
                f"filters {filters!r} leave more than one curve "
                "(duplicate noise frequencies)")
        order = np.argsort(frequencies)
        return frequencies[order], power[order]

    def worst_spur(self, **filters: float) -> PointRecord:
        """The grid point with the highest total spur power (worst corner)."""
        selected = self.select(**filters) if filters else self.records
        if not selected:
            raise AnalysisError(f"no sweep points match {filters!r}")
        return max(selected, key=lambda record: record.spur_power_dbm)

    @staticmethod
    def _axis_value(record: PointRecord, axis: str) -> float:
        if axis == "variant":
            return float(record.variant_index)
        if axis == AXIS_VTUNE:
            return record.vtune
        if axis == AXIS_NOISE_FREQUENCY:
            return record.noise_frequency
        if axis == AXIS_INJECTED_POWER:
            return record.injected_power_dbm
        return record.knobs[axis]

    def worst_per(self, axis: str) -> dict[float, PointRecord]:
        """Worst grid point for each value of ``axis`` (worst spur per corner)."""
        if axis not in self.axes and axis != "variant":
            raise AnalysisError(f"unknown sweep axis {axis!r}")
        worst: dict[float, PointRecord] = {}
        for record in self.records:
            value = self._axis_value(record, axis)
            if value not in worst \
                    or record.spur_power_dbm > worst[value].spur_power_dbm:
                worst[value] = record
        return worst

    # -- bridge into the classic figure results ------------------------------

    def to_vco_sweep_result(
            self,
            reference_slope_db_per_decade: float =
            measurements.FIG8_SLOPE_DB_PER_DECADE):
        """Convert a (V_tune x noise frequency) campaign into the Figure-8
        :class:`~repro.core.results.VcoSpurSweepResult`.

        Requires a single layout variant and injected power; the reference
        curve per V_tune is the ideal slope line anchored at the first
        simulated point, exactly as the classic ``spur_sweep`` built it.
        """
        from ..core.results import SpurSweepPoint, VcoSpurSweepResult

        if len(self.variants) != 1:
            raise AnalysisError(
                "to_vco_sweep_result needs a single-layout campaign "
                f"(got {len(self.variants)} variants)")
        if len(self.axes[AXIS_INJECTED_POWER]) != 1:
            raise AnalysisError(
                "to_vco_sweep_result needs a single injected power")

        frequencies = np.asarray(self.axes[AXIS_NOISE_FREQUENCY], dtype=float)
        vtune_values = tuple(self.axes[AXIS_VTUNE])
        spur_power: dict[float, np.ndarray] = {}
        reference: dict[float, np.ndarray] = {}
        comparisons = {}
        carrier_frequencies = {}
        carrier_amplitudes = {}
        points: list[SpurSweepPoint] = []
        for vtune in vtune_values:
            selected = self.select(vtune=vtune)
            power = np.array([r.spur_power_dbm for r in selected])
            spur_power[vtune] = power
            ref = reference_slope_line(frequencies, float(power[0]),
                                       reference_slope_db_per_decade)
            reference[vtune] = ref
            comparisons[vtune] = compare_curves(frequencies, ref,
                                                frequencies, power,
                                                log_axis=True)
            carrier_frequencies[vtune] = selected[0].carrier_frequency
            carrier_amplitudes[vtune] = selected[0].carrier_amplitude
            points.extend(SpurSweepPoint(vtune=vtune,
                                         noise_frequency=r.noise_frequency,
                                         spur=r.spur)
                          for r in selected)
        return VcoSpurSweepResult(
            noise_frequencies=frequencies,
            vtune_values=vtune_values,
            spur_power_dbm=spur_power,
            reference_dbm=reference,
            comparisons=comparisons,
            carrier_frequencies=carrier_frequencies,
            carrier_amplitudes=carrier_amplitudes,
            points=points)

    def summary(self) -> dict[str, float | int | str]:
        """Headline numbers for logging / benchmark records."""
        summary: dict[str, float | int | str] = {
            "campaign": self.campaign_name,
            "backend": self.backend_name,
            "points": len(self.records),
            "variants": len(self.variants),
            "extractions": self.cache_misses,
            "cache_hits": self.cache_hits,
            "wall_seconds": round(self.wall_seconds, 4),
        }
        if (self.campaign_spec or {}).get("fingerprint"):
            summary["fingerprint"] = self.campaign_spec["fingerprint"]
        if self.records:   # a fully-failed skip-policy run has no points
            summary["worst_spur_dbm"] = round(
                self.worst_spur().spur_power_dbm, 2)
        if self.failures:
            summary["failed_corners"] = len(self.failures)
        if self.solver_degradations:
            summary["solver_degradations"] = sum(
                self.solver_degradations.values())
        return summary
