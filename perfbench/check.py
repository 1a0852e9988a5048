"""Correctness checks of benchmark outputs against the committed reference.

A *corner* is one (layout variant, V_tune) spur analysis over a run's noise
frequencies — the unit of work the campaign engine schedules.  A corner
counts as failed when

* any of its spur levels deviates from the committed direct-LU reference by
  more than :data:`SPUR_TOL_DB`,
* its variant's Kron admittance matrix deviates from the reference by more
  than :data:`ADMITTANCE_RTOL` (relative to the largest reference entry),
* its spur-vs-frequency curve breaks the Figure-8 invariant (strictly
  decreasing, slope -20 +/- 4 dB/decade), or
* the run's Figure-10 study breaks the figure test's tolerances (all of the
  run's corners fail then).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Grid, fnoise_lattice, vtune_lattice

SPUR_TOL_DB = 0.01
ADMITTANCE_RTOL = 1e-9
FIG8_SLOPE_DB_PER_DECADE = -20.0
FIG8_SLOPE_TOL = 4.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Corner:
    """Spur levels of one (variant, V_tune) corner, by lattice index."""

    variant: int
    vtune_index: int
    fnoise_index: tuple[int, ...]
    levels_dbm: tuple[float, ...]


@dataclass
class Tally:
    """Running count of checked corners, failures and the worst deviation."""

    attempted: int = 0
    failed: int = 0
    max_dev_db: float = 0.0

    def add(self, ok: bool, deviation_db: float) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        if not math.isfinite(deviation_db):
            deviation_db = math.inf
        self.max_dev_db = max(self.max_dev_db, deviation_db)

    @property
    def failed_frac(self) -> float:
        return failed_frac(self.failed, self.attempted)


def failed_frac(failed: int, attempted: int) -> float:
    """Failed share of attempted corners (an empty run counts as all failed)."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def load_reference(path: Path = REFERENCE_PATH,
                   perturb_db: float = 0.0) -> dict:
    """The committed reference; ``perturb_db`` shifts every spur level.

    Spur tables come back as ``{mesh: float array [variant, vtune, fnoise]}``
    and admittances as ``{mesh: float array [variant, port, port]}``.  The
    lattices stored beside them must equal :mod:`perfbench.grid`'s, or the
    index-based lookup would silently compare different points.
    """
    data = json.loads(Path(path).read_text())
    if (not np.array_equal(data["vtune_lattice"], vtune_lattice())
            or not np.array_equal(data["fnoise_lattice"], fnoise_lattice())):
        raise ValueError(f"{path}: lattices differ from perfbench.grid")
    return {
        "spur_dbm": {mesh: np.asarray(entry["spur_dbm"]) + perturb_db
                     for mesh, entry in data["meshes"].items()},
        "admittance": {mesh: np.asarray(entry["admittance"])
                       for mesh, entry in data["meshes"].items()},
        "ground_width_scales": {mesh: tuple(entry["ground_width_scales"])
                                for mesh, entry in data["meshes"].items()},
    }


def slope_db_per_decade(frequencies, levels_dbm) -> float:
    """Least-squares slope of a spur curve in dB per decade of frequency."""
    return float(np.polyfit(np.log10(frequencies), levels_dbm, 1)[0])


def fig8_ok(frequencies, levels_dbm) -> bool:
    """Figure-8 invariant: strictly decreasing at -20 +/- 4 dB/decade."""
    levels = np.asarray(levels_dbm, dtype=float)
    if not np.all(np.isfinite(levels)) or np.any(np.diff(levels) >= 0):
        return False
    slope = slope_db_per_decade(frequencies, levels)
    return abs(slope - FIG8_SLOPE_DB_PER_DECADE) <= FIG8_SLOPE_TOL


def fig10_ok(nominal_dbm, improved_dbm, nominal_ohm: float,
             improved_ohm: float, reduction_db: float,
             ideal_db: float) -> bool:
    """Figure-10 invariant, with the tolerances of the figure test."""
    return bool(
        math.isclose(improved_ohm, nominal_ohm / 2.0, rel_tol=1e-6)
        and np.all(np.asarray(nominal_dbm) > np.asarray(improved_dbm))
        and 2.0 < reduction_db <= ideal_db + 0.5
        and abs(ideal_db - 6.02) <= 0.1)


def admittance_deviation(admittance, reference) -> float:
    """Largest entry-wise deviation relative to the largest reference entry."""
    admittance = np.asarray(admittance, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if admittance.shape != reference.shape:
        return math.inf
    return float(np.max(np.abs(admittance - reference))
                 / np.max(np.abs(reference)))


def corner_deviation(corner: Corner, table: np.ndarray) -> float:
    """Largest |spur - reference| of a corner in dB (inf if uncheckable)."""
    indices = (corner.variant, corner.vtune_index) + corner.fnoise_index
    if min(indices, default=-1) < 0 or corner.variant >= table.shape[0]:
        return math.inf
    expected = table[corner.variant, corner.vtune_index,
                     list(corner.fnoise_index)]
    observed = np.asarray(corner.levels_dbm, dtype=float)
    if observed.shape != expected.shape or not np.all(np.isfinite(observed)):
        return math.inf
    return float(np.max(np.abs(observed - expected)))


def check_corners(tally: Tally, corners, grid: Grid, n_variants: int,
                  table: np.ndarray, admittance_ok: dict[int, bool],
                  study_ok: bool = True) -> None:
    """Fold one run's corners into ``tally``.

    Every (variant, V_tune) corner of ``grid`` is attempted: one missing from
    ``corners``, or covering other frequencies than the grid's, fails.
    ``admittance_ok`` maps each variant to its Kron-admittance verdict;
    ``study_ok`` is the run-wide Figure-10 verdict (True where none applies).
    """
    frequencies = fnoise_lattice()
    found = {(corner.variant, corner.vtune_index): corner
             for corner in corners}
    for variant in range(n_variants):
        for vtune_index in grid.vtune_index:
            corner = found.get((variant, vtune_index))
            if corner is None or corner.fnoise_index != grid.fnoise_index:
                tally.add(False, math.inf)
                continue
            deviation = corner_deviation(corner, table)
            ok = (study_ok
                  and admittance_ok.get(variant, False)
                  and deviation <= SPUR_TOL_DB
                  and fig8_ok(frequencies[list(corner.fnoise_index)],
                              corner.levels_dbm))
            tally.add(ok, deviation)


def corners_from_records(records, vtune_index: dict[float, int],
                         fnoise_index: dict[float, int]) -> list[Corner]:
    """Group campaign point records into corners (lattice-indexed).

    ``records`` are :class:`repro.studies.PointRecord`-like objects; points
    whose coordinates are not lattice values cannot be checked and make the
    corner fail through an out-of-range index.
    """
    grouped: dict[tuple[int, float], list] = {}
    for record in records:
        grouped.setdefault((record.variant_index, record.vtune), []).append(
            record)
    corners = []
    for (variant, vtune), points in sorted(grouped.items()):
        points.sort(key=lambda record: record.noise_frequency)
        corners.append(Corner(
            variant=variant,
            vtune_index=vtune_index.get(vtune, -1),
            fnoise_index=tuple(fnoise_index.get(p.noise_frequency, -1)
                               for p in points),
            levels_dbm=tuple(p.spur_power_dbm for p in points)))
    return corners
