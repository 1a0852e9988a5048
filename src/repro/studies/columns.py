"""The columnar form of campaign points: one schema from corner to NPZ.

A campaign's points live in a dict of named arrays, the same columns the
saved ``.npz`` holds (one row per grid point, ``entry_*`` arrays of shape
(points, entries)):

* ``point_index``, ``variant_index`` (int64), ``injected_power_dbm``,
  ``vtune``, ``noise_frequency`` (float64) — the point's coordinates,
* ``entry_names`` — the entry axis of the ``entry_*`` arrays,
* the :data:`SPUR_FLOAT_FIELDS` of the point's row of its corner's
  :class:`~repro.vco.spurs.SpurSweep`,
* ``knob__<name>`` — layout/mesh knob values (NaN where a point lacks one),
* ``entry_h_sub`` (complex128), ``entry_k_hz_per_volt``,
  ``entry_g_am_per_volt``, ``entry_fm_voltage``, ``entry_am_voltage``,
  ``entry_present`` (bool) and ``entry_mechanism`` (str).

A stack of corners' :class:`~repro.vco.spurs.SpurSweep` becomes these
columns in one pass (:func:`stack_columns`; a lone corner is a stack of
one), and each corner takes its rows of them as its own
:class:`CornerBlock` as it finishes; blocks go into the crash journal and,
concatenated (:func:`concat_columns`), into the saved NPZ without any
per-point object in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..vco.spurs import SpurSweep

#: Prefix of layout/mesh knob columns.
KNOB_PREFIX = "knob__"

#: Scalar float columns per point (``SpurSweep`` attribute == column name).
SPUR_FLOAT_FIELDS = (
    "carrier_frequency",
    "carrier_amplitude",
    "noise_amplitude",
    "fm_voltage",
    "am_voltage",
    "lower_sideband_voltage",
    "upper_sideband_voltage",
)

_COORDINATES = ("point_index", "variant_index", "injected_power_dbm",
                "vtune", "noise_frequency")
_ENTRY_FLOATS = ("entry_h_sub", "entry_k_hz_per_volt", "entry_g_am_per_volt",
                 "entry_fm_voltage", "entry_am_voltage")


@dataclass(frozen=True)
class CornerBlock:
    """One corner's points as columns, plus the solver work it spent.

    ``solver_counts`` holds the corner's non-zero solver counters, so a
    journal that replays the block also replays its degradations.
    """

    columns: dict[str, np.ndarray]
    solver_counts: tuple[tuple[str, int], ...] = ()

    @property
    def first_point(self) -> int:
        return int(self.columns["point_index"][0])


def ordered(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``columns`` in the archive order (knob columns sorted by name)."""
    knobs = sorted(name for name in columns if name.startswith(KNOB_PREFIX))
    names = [*_COORDINATES, "entry_names", *SPUR_FLOAT_FIELDS, *knobs,
             *_ENTRY_FLOATS, "entry_present", "entry_mechanism"]
    return {name: columns[name] for name in names}


def empty_columns() -> dict[str, np.ndarray]:
    """The columns of a result without points."""
    columns = {name: np.zeros(0, dtype=np.int64 if name.endswith("_index")
                              else np.float64) for name in _COORDINATES}
    columns["entry_names"] = np.array([], dtype=str)
    columns.update((name, np.zeros(0)) for name in SPUR_FLOAT_FIELDS)
    columns["entry_h_sub"] = np.zeros((0, 0), dtype=np.complex128)
    columns.update((name, np.zeros((0, 0))) for name in _ENTRY_FLOATS[1:])
    columns["entry_present"] = np.zeros((0, 0), dtype=bool)
    columns["entry_mechanism"] = np.full((0, 0), "", dtype="U1")
    return ordered(columns)


def stack_columns(sweep: SpurSweep, *, first_point_indices,
                  variant_index: int, knobs: dict[str, float],
                  injected_power_dbm: float, vtunes,
                  ) -> dict[str, np.ndarray]:
    """The columns of a stack of corners, straight from its sweep's arrays.

    ``sweep`` is the stack's :class:`~repro.vco.spurs.SpurSweep`, with a
    leading corner axis (a sweep with scalar carrier values is a stack of
    one); ``vtunes`` and ``first_point_indices`` hold one value per corner.
    The rows run corner by corner, so corner ``c`` of ``n`` points is rows
    ``c * n`` to ``(c + 1) * n``, with the bits it has alone.
    """
    n = len(sweep)
    corners = len(vtunes)
    stacked = np.ndim(sweep.carrier_frequency) > 0
    shape = (corners * n, len(sweep.entry_names))

    def per_point(array) -> np.ndarray:
        """A ``(corners, points, ...)`` field as ``(corners * points, ...)``."""
        array = np.asarray(array) if stacked else np.asarray(array)[None]
        return np.ascontiguousarray(array.reshape((-1,) + array.shape[2:]))

    def per_corner(values) -> np.ndarray:
        """One value per corner, repeated over the corner's points."""
        return np.repeat(np.asarray(values, dtype=np.float64).reshape(
            corners), n)

    def per_entry(values) -> np.ndarray:
        """An ``(entries,)`` field per corner, repeated over its points."""
        values = np.asarray(values, dtype=np.float64).reshape(corners, 1, -1)
        return np.repeat(values, n, axis=1).reshape(shape)

    first = np.asarray(first_point_indices, dtype=np.int64).reshape(corners)
    columns = {
        "point_index": (first[:, None]
                        + np.arange(n, dtype=np.int64)).reshape(-1),
        "variant_index": np.full(shape[0], variant_index, dtype=np.int64),
        "injected_power_dbm": np.full(shape[0], injected_power_dbm,
                                      dtype=np.float64),
        "vtune": per_corner(vtunes),
        "noise_frequency": np.tile(np.asarray(sweep.noise_frequency,
                                              dtype=np.float64), corners),
        "entry_names": np.array(sweep.entry_names, dtype=str),
        "carrier_frequency": per_corner(sweep.carrier_frequency),
        "carrier_amplitude": per_corner(sweep.carrier_amplitude),
        "noise_amplitude": np.full(shape[0], sweep.noise_amplitude,
                                   dtype=np.float64),
        "fm_voltage": per_point(sweep.fm_voltage),
        "am_voltage": per_point(sweep.am_voltage),
        "lower_sideband_voltage": per_point(sweep.lower_sideband_voltage),
        "upper_sideband_voltage": per_point(sweep.upper_sideband_voltage),
        "entry_h_sub": per_point(sweep.h_sub).astype(np.complex128,
                                                     copy=False),
        "entry_k_hz_per_volt": per_entry(sweep.entry_k_hz_per_volt),
        "entry_g_am_per_volt": per_entry(sweep.entry_g_am_per_volt),
        "entry_fm_voltage": per_point(sweep.per_entry_fm_voltage),
        "entry_am_voltage": per_point(sweep.per_entry_am_voltage),
        "entry_present": np.ones(shape, dtype=bool),
        "entry_mechanism": np.broadcast_to(
            np.array(sweep.entry_mechanism, dtype=str), shape).copy(),
    }
    for name, value in knobs.items():
        columns[KNOB_PREFIX + name] = np.full(shape[0], value,
                                              dtype=np.float64)
    return ordered(columns)


def n_points(columns: dict[str, np.ndarray]) -> int:
    return len(columns["point_index"])


def take_rows(columns: dict[str, np.ndarray], rows) -> dict[str, np.ndarray]:
    """The points ``rows`` (a boolean mask or an index array) select."""
    taken = {name: array if name == "entry_names" else array[rows]
             for name, array in columns.items()}
    return taken if n_points(taken) else empty_columns()


def corner_keys(columns: dict[str, np.ndarray]
                ) -> list[tuple[int, float, float]]:
    """The (variant, injected power, V_tune) corner of every point."""
    return list(zip(columns["variant_index"].tolist(),
                    columns["injected_power_dbm"].tolist(),
                    columns["vtune"].tolist()))


def concat_columns(parts: list[dict[str, np.ndarray]]
                   ) -> dict[str, np.ndarray]:
    """One column set holding every point of ``parts``, in point order.

    The entry axis is the union of the parts' entries, in the order in
    which they first appear along the points; an entry a point lacks reads
    ``entry_present == False`` with zero values and an empty mechanism.
    Knob columns are the union of the parts' knobs (NaN where a point lacks
    one).  Callers pass parts with disjoint point indices.
    """
    parts = [part for part in parts if n_points(part)]
    if not parts:
        return empty_columns()
    if len(parts) == 1:
        return ordered(parts[0])
    names = [name for part in parts for name in part["entry_names"].tolist()]
    entry_names = list(dict.fromkeys(names))
    knobs = sorted({name for part in parts for name in part
                    if name.startswith(KNOB_PREFIX)})
    same_entries = all(part["entry_names"].tolist() == entry_names
                       for part in parts)
    columns: dict[str, np.ndarray] = {}
    for name in (*_COORDINATES, *SPUR_FLOAT_FIELDS):
        columns[name] = np.concatenate([part[name] for part in parts])
    for name in knobs:
        columns[name] = np.concatenate([
            part[name] if name in part else np.full(n_points(part), np.nan)
            for part in parts])
    for name in (*_ENTRY_FLOATS, "entry_present", "entry_mechanism"):
        arrays = [part[name] for part in parts]
        if not same_entries:
            arrays = [_widen(part, array, entry_names)
                      for part, array in zip(parts, arrays)]
        columns[name] = np.concatenate(arrays)
    columns["entry_names"] = np.array(entry_names, dtype=str)
    order = np.argsort(columns["point_index"], kind="stable")
    if np.any(order != np.arange(order.size)):
        columns = take_rows(columns, order)
    if not same_entries:
        columns = _first_seen_entries(columns)
    return ordered(columns)


def _widen(part: dict[str, np.ndarray], array: np.ndarray,
           entry_names: list[str]) -> np.ndarray:
    """``array`` of ``part`` on the ``entry_names`` axis (absent entries
    zero, ``False`` or empty)."""
    wide = np.zeros((array.shape[0], len(entry_names)), dtype=array.dtype)
    position = {name: col for col, name in enumerate(entry_names)}
    wide[:, [position[name] for name in part["entry_names"].tolist()]] = array
    return wide


def _first_seen_entries(columns: dict[str, np.ndarray]
                        ) -> dict[str, np.ndarray]:
    """Order the entry axis by each entry's first present point."""
    present = columns["entry_present"]
    seen = present.any(axis=0)
    first = np.where(seen, present.argmax(axis=0), present.shape[0])
    order = np.lexsort((np.arange(present.shape[1]), first))[:seen.sum()]
    columns = dict(columns)
    columns["entry_names"] = columns["entry_names"][order]
    for name in (*_ENTRY_FLOATS, "entry_present", "entry_mechanism"):
        columns[name] = columns[name][:, order]
    return columns
