"""Campaign points as columns, from ``compute_spurs`` to the saved NPZ.

Oracles for the columnar result path:

* every row of a :class:`~repro.vco.spurs.SpurSweep` equals the one-point
  ``compute_spurs`` sweep at its frequency, bit for bit;
* a campaign's records, rows and saved NPZ arrays (and sidecar checksum)
  equal those of a reference encoder kept here, which reads the sweeps the
  campaign computed one point and one entry at a time (multi-variant, a
  knob axis, one skipped corner);
* corners with different entry sets concatenate to the reference
  encoder's entry union, in any order;
* the campaign and the figure paths build no per-point object, and one
  noise entry per entry per corner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import vco_experiment
from repro.core.flow import FlowOptions
from repro.core.vco_experiment import (
    VcoExperimentOptions,
    ground_resistance_study,
)
from repro.studies import (
    Campaign,
    FaultPlan,
    FaultSpec,
    ParamSpace,
    SweepResult,
    SweepRunner,
)
from repro.studies.cli import main as campaign_cli
from repro.studies.columns import concat_columns, stack_columns
from repro.studies.persist import _columns_checksum
from repro.studies.results import PointRecord
from repro.substrate.extraction import SubstrateExtractionOptions
from repro.vco.sensitivity import entries_at_frequency
from repro.vco.spurs import NoiseEntry, SpurSweep, compute_spurs

TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6))
FREQUENCIES = (1e6, 4e6, 9e6)


def _campaign() -> Campaign:
    return Campaign(
        name="columnar",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "vtune": (0.0, 0.75),
                          "noise_frequency": FREQUENCIES}),
        options=VcoExperimentOptions(noise_frequencies=FREQUENCIES,
                                     flow=TINY_MESH))


def _bits(value):
    """``value`` with every float spelled exactly (bit-for-bit compare)."""
    if isinstance(value, np.ndarray):
        return _bits(value.tolist())
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if hasattr(value, "__dataclass_fields__"):
        return {name: (type(getattr(value, name)).__name__,
                       _bits(getattr(value, name)))
                for name in value.__dataclass_fields__}
    return value


#: The (points, ...) arrays of a SpurSweep; its other fields are per corner.
_POINT_ARRAYS = ("noise_frequency", "h_sub", "per_entry_fm_voltage",
                 "per_entry_am_voltage", "fm_voltage", "am_voltage",
                 "lower_sideband_voltage", "upper_sideband_voltage")


def _sweep_row(sweep: SpurSweep, point: int) -> dict:
    """Row ``point`` of ``sweep``: its arrays, corner fields and powers."""
    row = {name: _bits(getattr(sweep, name)[point])
           for name in _POINT_ARRAYS}
    row.update((name, _bits(getattr(sweep, name)))
               for name in sweep.__dataclass_fields__
               if name not in _POINT_ARRAYS)
    row["total_dbm"] = _bits(sweep.total_spur_power_dbm()[point])
    for side in ("upper", "lower"):
        row[side] = _bits(sweep.sideband_power_dbm(side)[point])
    for name in sweep.entry_names:
        row[name] = _bits(sweep.entry_power_dbm(name)[point])
    return row


# -- the sweep object ----------------------------------------------------------


@pytest.mark.parametrize("vtune", [0.0, 0.75])
def test_sweep_points_equal_the_scalar_evaluation(vco_analysis, vtune):
    frequencies = np.asarray(vco_analysis.options.noise_frequencies)
    sweep, vco, catalog, transfer = vco_analysis.analyze(vtune, frequencies)
    assert isinstance(sweep, SpurSweep)
    assert len(sweep) == frequencies.size
    for point, frequency in enumerate(frequencies):
        entries = entries_at_frequency(catalog, transfer, float(frequency))
        single = compute_spurs(entries, vco.oscillation_frequency(vtune),
                               vco.amplitude(vtune),
                               vco_analysis._noise.amplitude,
                               float(frequency))
        assert isinstance(single, SpurSweep) and len(single) == 1
        assert _sweep_row(sweep, point) == _sweep_row(single, 0)


# -- the campaign path ---------------------------------------------------------


@pytest.fixture(scope="module")
def skipped_run(technology, tmp_path_factory):
    """A 2-variant campaign whose corner 1 fails and is skipped, with the
    sweeps its corners computed (in corner order).  Each corner stack is
    one ``compute_spurs`` call; the stack of the skipped corner computes
    it too."""
    sweeps: list[SpurSweep] = []
    original = vco_experiment.compute_spurs

    def capture(*args, **kwargs):
        sweep = original(*args, **kwargs)
        sweeps.extend(sweep.corner(index)
                      for index in range(len(sweep.carrier_frequency)))
        return sweep

    plan = FaultPlan(state_dir=str(tmp_path_factory.mktemp("faults")),
                     specs=(FaultSpec("raise", task_index=1, attempts=99),))
    mp = pytest.MonkeyPatch()
    mp.setattr(vco_experiment, "compute_spurs", capture)
    try:
        result = SweepRunner(technology, fault_plan=plan,
                             on_error="skip").run(_campaign())
    finally:
        mp.undo()
    return result, sweeps


@dataclass(frozen=True)
class _Point:
    """One grid point: its coordinates and its row of a computed sweep."""

    point_index: int
    variant_index: int
    knobs: dict
    injected_power_dbm: float
    vtune: float
    noise_frequency: float
    sweep: SpurSweep
    offset: int


def _reference_points(campaign: Campaign, sweeps: list[SpurSweep],
                      skipped: int) -> list[_Point]:
    """The campaign's points in point order, each on its corner's sweep."""
    powers, vtunes, frequencies = campaign.sim_grid()
    corners = [(variant, power, vtune) for variant in campaign.variants()
               for power in powers for vtune in vtunes]
    points = []
    computed = iter(sweeps)
    for position, (variant, power, vtune) in enumerate(corners):
        sweep = next(computed)
        if position == skipped:
            continue
        points.extend(
            _Point(point_index=position * len(frequencies) + offset,
                   variant_index=variant.index, knobs=dict(variant.knobs),
                   injected_power_dbm=power, vtune=vtune,
                   noise_frequency=float(frequency), sweep=sweep,
                   offset=offset)
            for offset, frequency in enumerate(frequencies))
    return points


def _reference_record(point: _Point) -> PointRecord:
    return PointRecord(
        point_index=point.point_index, variant_index=point.variant_index,
        knobs=point.knobs, injected_power_dbm=point.injected_power_dbm,
        vtune=point.vtune, noise_frequency=point.noise_frequency,
        spur_power_dbm=float(point.sweep.total_spur_power_dbm()[point.offset]),
        carrier_frequency=point.sweep.carrier_frequency,
        carrier_amplitude=point.sweep.carrier_amplitude)


def _reference_row(point: _Point) -> dict[str, float]:
    """The tidy row of ``point``: coordinates, knobs, outcome, entries."""
    sweep, offset = point.sweep, point.offset
    row = {"variant": float(point.variant_index), **point.knobs,
           "noise_frequency": point.noise_frequency,
           "carrier_frequency": sweep.carrier_frequency,
           "carrier_amplitude": sweep.carrier_amplitude,
           "spur_power_dbm": float(sweep.total_spur_power_dbm()[offset]),
           "lower_sideband_dbm": float(sweep.sideband_power_dbm("lower")[offset]),
           "upper_sideband_dbm": float(sweep.sideband_power_dbm("upper")[offset]),
           "fm_voltage": float(sweep.fm_voltage[offset]),
           "am_voltage": float(sweep.am_voltage[offset])}
    for name in sweep.entry_names:
        row[f"entry:{name}_dbm"] = float(sweep.entry_power_dbm(name)[offset])
    row["injected_power_dbm"] = point.injected_power_dbm
    row["vtune"] = point.vtune
    return row


def _reference_encode(points: list[_Point]) -> dict[str, np.ndarray]:
    """The NPZ columns of ``points``, encoded one point and one entry at a
    time from their sweeps."""
    n = len(points)
    knob_names = sorted({name for point in points for name in point.knobs})
    entry_names: list[str] = []
    for point in points:
        for name in point.sweep.entry_names:
            if name not in entry_names:
                entry_names.append(name)
    e = len(entry_names)
    entry_index = {name: i for i, name in enumerate(entry_names)}
    columns: dict[str, np.ndarray] = {
        "point_index": np.array([p.point_index for p in points],
                                dtype=np.int64),
        "variant_index": np.array([p.variant_index for p in points],
                                  dtype=np.int64),
        "injected_power_dbm": np.array([p.injected_power_dbm for p in points],
                                       dtype=np.float64),
        "vtune": np.array([p.vtune for p in points], dtype=np.float64),
        "noise_frequency": np.array([p.noise_frequency for p in points],
                                    dtype=np.float64),
        "entry_names": np.array(entry_names, dtype=str),
    }
    for field_name in ("carrier_frequency", "carrier_amplitude",
                       "noise_amplitude"):
        columns[field_name] = np.array(
            [getattr(p.sweep, field_name) for p in points], dtype=np.float64)
    for field_name in ("fm_voltage", "am_voltage", "lower_sideband_voltage",
                       "upper_sideband_voltage"):
        columns[field_name] = np.array(
            [getattr(p.sweep, field_name)[p.offset].item() for p in points],
            dtype=np.float64)
    for name in knob_names:
        columns["knob__" + name] = np.array(
            [p.knobs.get(name, np.nan) for p in points], dtype=np.float64)
    h_sub = np.zeros((n, e), dtype=np.complex128)
    k_hz = np.zeros((n, e), dtype=np.float64)
    g_am = np.zeros((n, e), dtype=np.float64)
    fm_v = np.zeros((n, e), dtype=np.float64)
    am_v = np.zeros((n, e), dtype=np.float64)
    present = np.zeros((n, e), dtype=bool)
    mechanism_rows = [[""] * e for _ in range(n)]
    for row, point in enumerate(points):
        sweep, offset = point.sweep, point.offset
        for entry, name in enumerate(sweep.entry_names):
            col = entry_index[name]
            present[row, col] = True
            h_sub[row, col] = sweep.h_sub[offset, entry].item()
            k_hz[row, col] = sweep.entry_k_hz_per_volt[entry].item()
            g_am[row, col] = sweep.entry_g_am_per_volt[entry].item()
            mechanism_rows[row][col] = sweep.entry_mechanism[entry]
            fm_v[row, col] = sweep.per_entry_fm_voltage[offset, entry].item()
            am_v[row, col] = sweep.per_entry_am_voltage[offset, entry].item()
    mechanism = (np.array(mechanism_rows, dtype=str) if n and e
                 else np.full((n, e), "", dtype="U1"))
    columns.update(entry_h_sub=h_sub, entry_k_hz_per_volt=k_hz,
                   entry_g_am_per_volt=g_am, entry_fm_voltage=fm_v,
                   entry_am_voltage=am_v, entry_present=present,
                   entry_mechanism=mechanism)
    return columns


def test_decoded_records_equal_the_computed_sweeps_bit_for_bit(
        skipped_run, tmp_path):
    result, sweeps = skipped_run
    # The skipped corner's stack analysed it too: 4 corner sweeps.
    assert len(result.failures) == 1 and len(sweeps) == 4
    points = _reference_points(_campaign(), sweeps, skipped=1)
    reference = [_reference_record(point) for point in points]
    assert len(result) == len(reference) == 9
    assert _bits(result.records) == _bits(reference)
    reference_rows = [_reference_row(point) for point in points]
    assert _bits(result.rows()) == _bits(reference_rows)
    assert [list(row) for row in result.rows()] == \
        [list(row) for row in reference_rows]            # key order too
    loaded = SweepResult.load(result.save(tmp_path / "r.npz")[0])
    assert _bits(loaded.records) == _bits(reference)
    assert _bits(loaded.rows()) == _bits(result.rows())
    # Single-point reads and the column queries agree with the records.
    worst = max(reference, key=lambda record: record.spur_power_dbm)
    assert _bits(result.worst_spur()) == _bits(worst)
    assert _bits(loaded.worst_spur()) == _bits(worst)
    assert result.column("spur_power_dbm").tolist() == \
        [record.spur_power_dbm for record in reference]
    worst_at = max((record for record in reference if record.vtune == 0.75),
                   key=lambda record: record.spur_power_dbm)
    assert _bits(result.worst_per("vtune")[0.75]) == _bits(worst_at)


def test_saved_arrays_equal_the_per_record_reference_encoder(skipped_run,
                                                             tmp_path):
    result, sweeps = skipped_run
    expected = _reference_encode(
        _reference_points(_campaign(), sweeps, skipped=1))
    npz_path, meta_path = result.save(tmp_path / "columnar.npz")
    with np.load(npz_path, allow_pickle=False) as archive:
        assert archive.files == list(expected)
        for name, want in expected.items():
            got = archive[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
    meta = json.loads(meta_path.read_text())
    assert meta["arrays_sha256"] == _columns_checksum(expected)
    assert meta["n_records"] == 9


def test_run_and_save_build_no_point_objects(technology, vco_analysis,
                                             monkeypatch, tmp_path, capsys):
    built: list[str] = []
    original_init = PointRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        original_init(self, *args, **kwargs)
    monkeypatch.setattr(PointRecord, "__init__", counting_init)
    # A NoiseEntry is a named tuple: it is built by __new__ alone.
    original_new = NoiseEntry.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(cls.__name__)
        return original_new(cls, *args, **kwargs)
    monkeypatch.setattr(NoiseEntry, "__new__", counting_new)

    def entries_built(stacks: int, entries: int) -> None:
        """No point record, and one noise entry per entry per corner stack
        (the corners of one variant and power, analysed together)."""
        assert built == ["NoiseEntry"] * (stacks * entries)
        built.clear()

    result = SweepRunner(technology).run(_campaign())
    npz_path, _meta = result.save(tmp_path / "r.npz")
    n_entries = len(result.columns["entry_names"])
    entries_built(stacks=2, entries=n_entries)
    assert len(result) == 12

    options = vco_analysis.options
    n_entries = len(vco_analysis.analyze(0.0)[0].entry_names)
    built.clear()
    vco_analysis.spur_sweep()
    assert len(options.vtune_values) > 1
    entries_built(stacks=1, entries=n_entries)
    vco_analysis.contributions()
    entries_built(stacks=1, entries=n_entries)
    ground_resistance_study(technology, options=_campaign().options)
    entries_built(stacks=2, entries=n_entries)

    assert campaign_cli(["show", str(npz_path)]) == 0
    assert "worst spur" in capsys.readouterr().out
    assert built == []

    assert len(result.records) == 12          # read on request only
    assert built == ["PointRecord"] * 12


def _synthetic_corner(names: list[str], first_point: int, vtune: float):
    """One corner of entries ``names`` as columns and as reference points."""
    frequencies = np.array([1e6, 2e6])
    entries = [NoiseEntry(name=name,
                          h_sub=np.array([0.01 + 0.002j * k, 0.004 - 0.001j])
                          * (k + 1),
                          k_hz_per_volt=1e6 * (k + 1),
                          g_am_per_volt=0.01 * k,
                          mechanism="capacitive" if name == "var"
                          else "resistive")
               for k, name in enumerate(names)]
    sweep = compute_spurs(entries, 3e9, 1.0, 0.1, frequencies)
    knobs = {"ground_width_scale": 1.0}
    columns = stack_columns(sweep, first_point_indices=[first_point],
                            variant_index=0, knobs=knobs,
                            injected_power_dbm=-5.0, vtunes=[vtune])
    points = [_Point(point_index=first_point + offset, variant_index=0,
                     knobs=dict(knobs), injected_power_dbm=-5.0, vtune=vtune,
                     noise_frequency=float(frequency), sweep=sweep,
                     offset=offset)
              for offset, frequency in enumerate(frequencies)]
    return columns, points
def test_corners_with_different_entries_concatenate_like_the_reference():
    first, first_points = _synthetic_corner(["g", "n1", "ind"], 0, 0.0)
    second, second_points = _synthetic_corner(["g", "var", "n1"], 2, 0.5)
    expected = _reference_encode(first_points + second_points)
    partial = {"campaign_name": "c", "backend_name": "b", "axes": {},
               "variants": [], "wall_seconds": 0.0, "cache_hits": 0,
               "cache_misses": 0}
    merged = SweepResult(columns=second, **partial).merge(
        SweepResult(columns=first, **partial))
    for columns in (concat_columns([first, second]),
                    concat_columns([second, first]), merged.columns):
        assert list(columns) == list(expected)
        for name, want in expected.items():
            got = columns[name]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
