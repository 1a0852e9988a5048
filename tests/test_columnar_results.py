"""Campaign points as columns, from ``compute_spurs`` to the saved NPZ.

Oracles for the columnar result path:

* every point of a :class:`~repro.vco.spurs.SpurSweep` equals the scalar
  ``compute_spurs`` evaluation at its frequency;
* a campaign's decoded records equal the sweeps it computed, and its saved
  NPZ arrays and sidecar checksum equal those of a per-record reference
  encoder kept here (multi-variant, a knob axis, one skipped corner);
* corners with different entry sets concatenate to the reference
  encoder's entry union, in any order;
* running and saving a campaign builds no per-point object.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import vco_experiment
from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions
from repro.studies import (
    Campaign,
    FaultPlan,
    FaultSpec,
    ParamSpace,
    SweepResult,
    SweepRunner,
)
from repro.studies.columns import concat_columns, corner_columns
from repro.studies.persist import _columns_checksum
from repro.studies.results import PointRecord
from repro.substrate.extraction import SubstrateExtractionOptions
from repro.vco.sensitivity import entries_at_frequency
from repro.vco.spurs import NoiseEntry, SpurResult, SpurSweep, compute_spurs

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
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if isinstance(value, (SpurResult, PointRecord)) or hasattr(
            value, "__dataclass_fields__"):
        return {name: (type(getattr(value, name)).__name__,
                       _bits(getattr(value, name)))
                for name in value.__dataclass_fields__}
    return value


# -- the sweep object ----------------------------------------------------------


@pytest.mark.parametrize("vtune", [0.0, 0.75])
def test_sweep_points_equal_the_scalar_evaluation(vco_analysis, vtune):
    frequencies = np.asarray(vco_analysis.options.noise_frequencies)
    sweep, vco, catalog, transfer = vco_analysis.analyze(vtune, frequencies)
    assert isinstance(sweep, SpurSweep)
    assert len(sweep) == frequencies.size
    assert len(list(sweep)) == frequencies.size
    for point, frequency in enumerate(frequencies):
        entries = entries_at_frequency(catalog, transfer, float(frequency))
        single = compute_spurs(entries, vco.oscillation_frequency(vtune),
                               vco.amplitude(vtune),
                               vco_analysis._noise.amplitude,
                               float(frequency))
        assert isinstance(single, SpurResult)
        assert sweep[point].record() == single.record()
        assert sweep[point - frequencies.size].record() == single.record()
    with pytest.raises(IndexError):
        sweep[frequencies.size]


# -- the campaign path ---------------------------------------------------------


@pytest.fixture(scope="module")
def skipped_run(technology, tmp_path_factory):
    """A 2-variant campaign whose corner 1 fails and is skipped, with the
    sweeps its corners computed (in task order)."""
    sweeps: list[SpurSweep] = []
    original = vco_experiment.compute_spurs

    def capture(*args, **kwargs):
        sweep = original(*args, **kwargs)
        sweeps.append(sweep)
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


def _reference_records(campaign: Campaign, sweeps: list[SpurSweep],
                       skipped: int) -> list[PointRecord]:
    """Point records built per point, as the runner built them before."""
    powers, vtunes, frequencies = campaign.sim_grid()
    corners = [(variant, power, vtune) for variant in campaign.variants()
               for power in powers for vtune in vtunes]
    records = []
    computed = iter(sweeps)
    for position, (variant, power, vtune) in enumerate(corners):
        if position == skipped:
            continue
        sweep = next(computed)
        for offset, frequency in enumerate(frequencies):
            records.append(PointRecord(
                point_index=position * len(frequencies) + offset,
                variant_index=variant.index, knobs=dict(variant.knobs),
                injected_power_dbm=power, vtune=vtune,
                noise_frequency=float(frequency), spur=sweep[offset]))
    return records


def _reference_encode(records: list[PointRecord]) -> dict[str, np.ndarray]:
    """The NPZ columns of ``records``, encoded one record at a time."""
    n = len(records)
    knob_names = sorted({name for record in records for name in record.knobs})
    entry_names: list[str] = []
    for record in records:
        for entry in record.spur.entries:
            if entry.name not in entry_names:
                entry_names.append(entry.name)
    e = len(entry_names)
    entry_index = {name: i for i, name in enumerate(entry_names)}
    columns: dict[str, np.ndarray] = {
        "point_index": np.array([r.point_index for r in records],
                                dtype=np.int64),
        "variant_index": np.array([r.variant_index for r in records],
                                  dtype=np.int64),
        "injected_power_dbm": np.array([r.injected_power_dbm for r in records],
                                       dtype=np.float64),
        "vtune": np.array([r.vtune for r in records], dtype=np.float64),
        "noise_frequency": np.array([r.noise_frequency for r in records],
                                    dtype=np.float64),
        "entry_names": np.array(entry_names, dtype=str),
    }
    for field_name in ("carrier_frequency", "carrier_amplitude",
                       "noise_amplitude", "fm_voltage", "am_voltage",
                       "lower_sideband_voltage", "upper_sideband_voltage"):
        columns[field_name] = np.array(
            [getattr(r.spur, field_name) for r in records], dtype=np.float64)
    for name in knob_names:
        columns["knob__" + name] = np.array(
            [r.knobs.get(name, np.nan) for r in records], dtype=np.float64)
    h_sub = np.zeros((n, e), dtype=np.complex128)
    k_hz = np.zeros((n, e), dtype=np.float64)
    g_am = np.zeros((n, e), dtype=np.float64)
    fm_v = np.zeros((n, e), dtype=np.float64)
    am_v = np.zeros((n, e), dtype=np.float64)
    present = np.zeros((n, e), dtype=bool)
    mechanism_rows = [[""] * e for _ in range(n)]
    for row, record in enumerate(records):
        for entry in record.spur.entries:
            col = entry_index[entry.name]
            present[row, col] = True
            h_sub[row, col] = entry.h_sub
            k_hz[row, col] = entry.k_hz_per_volt
            g_am[row, col] = entry.g_am_per_volt
            mechanism_rows[row][col] = entry.mechanism
            fm_v[row, col] = record.spur.per_entry_fm_voltage.get(entry.name,
                                                                  0.0)
            am_v[row, col] = record.spur.per_entry_am_voltage.get(entry.name,
                                                                  0.0)
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
    assert len(result.failures) == 1 and len(sweeps) == 3
    reference = _reference_records(_campaign(), sweeps, skipped=1)
    assert len(result) == len(reference) == 9
    assert _bits(result.records) == _bits(reference)
    loaded = SweepResult.load(result.save(tmp_path / "r.npz")[0])
    assert _bits(loaded.records) == _bits(reference)
    # Single-point decodes and the column queries agree with the records.
    worst = max(reference, key=lambda record: record.spur_power_dbm)
    assert _bits(result.worst_spur()) == _bits(worst)
    assert _bits(loaded.worst_spur()) == _bits(worst)
    assert result.column("spur_power_dbm").tolist() == \
        [record.spur_power_dbm for record in reference]
    assert _bits(result.select(vtune=0.75)) == \
        _bits([record for record in reference if record.vtune == 0.75])


def test_saved_arrays_equal_the_per_record_reference_encoder(skipped_run,
                                                             tmp_path):
    result, sweeps = skipped_run
    expected = _reference_encode(
        _reference_records(_campaign(), sweeps, skipped=1))
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


def test_run_and_save_build_no_point_objects(technology, monkeypatch,
                                             tmp_path):
    built: list[str] = []
    for cls in (SpurResult, PointRecord):
        original = cls.__init__

        def counting(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    result = SweepRunner(technology).run(_campaign())
    result.save(tmp_path / "r.npz")
    assert built == []
    assert len(result) == 12
    assert len(result.records) == 12          # decoded on request only
    assert built.count("PointRecord") == 12


def _synthetic_corner(names: list[str], first_point: int, vtune: float):
    """One corner of entries ``names`` as columns and as reference records."""
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
    columns = corner_columns(sweep, first_point_index=first_point,
                             variant_index=0, knobs=knobs,
                             injected_power_dbm=-5.0, vtune=vtune)
    records = [PointRecord(point_index=first_point + offset, variant_index=0,
                           knobs=dict(knobs), injected_power_dbm=-5.0,
                           vtune=vtune, noise_frequency=float(frequency),
                           spur=sweep[offset])
               for offset, frequency in enumerate(frequencies)]
    return columns, records


def test_corners_with_different_entries_concatenate_like_the_reference():
    first, first_records = _synthetic_corner(["g", "n1", "ind"], 0, 0.0)
    second, second_records = _synthetic_corner(["g", "var", "n1"], 2, 0.5)
    expected = _reference_encode(first_records + second_records)
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
