"""The work a V_tune stack's corners share is done once per stack.

Every corner of a stack starts DC Newton from one reference point, so the
first iteration evaluates the devices once, on floats, and factorizes one
Jacobian for all corners.  The campaign runner builds a stack's result
columns in one pass from its stacked spur sweep; each corner's block must
equal, byte for byte, the columns the corner's own sweep gives alone (the
per-corner builder below is the oracle).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import vco_experiment
from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions, VcoImpactAnalysis
from repro.devices import MosfetModel
from repro.netlist.devices import MosfetElement
from repro.simulator import dc_operating_point, solver
from repro.studies import Campaign, ParamSpace, SweepRunner
from repro.studies.columns import (
    KNOB_PREFIX,
    concat_columns,
    ordered,
    stack_columns,
)
from repro.studies.faults import FaultPlan, FaultSpec
from repro.substrate.extraction import SubstrateExtractionOptions
from repro.vco.spurs import NoiseEntry, compute_spurs

#: 32 V_tune corners over the perfbench range, 0 V included.
STACK = np.linspace(0.0, 1.5, 32)


def test_first_newton_iteration_of_a_32_corner_stack_is_shared(
        vco_analysis, monkeypatch):
    """Iteration 1 evaluates every MOSFET once, on Python floats, and
    factorizes one Jacobian; each corner still counts its own solves."""
    circuit = vco_analysis.build_testbench(0.0)
    mosfets = [element for element in circuit
               if isinstance(element, MosfetElement)]
    assert len(mosfets) == 5
    # The testbench's compiled stamps, as the analysis passes them: their
    # stamp pattern is recorded with the reference point, not per stack.
    _template, linear = vco_experiment._compiled_testbench(
        vco_analysis.flow, vco_analysis.options)
    start = vco_analysis.reference_point()
    calls = []
    evaluate = MosfetModel.evaluate

    def recording(self, vgs, vds, vbs):
        calls.append((self, np.ndim(vgs), np.size(vgs)))
        return evaluate(self, vgs, vds, vbs)

    factorizations = []
    factorization = solver.Factorization.__init__

    def counting(self, matrix, *args, **kwargs):
        factorizations.append(matrix.shape)
        return factorization(self, matrix, *args, **kwargs)

    monkeypatch.setattr(MosfetModel, "evaluate", recording)
    monkeypatch.setattr(solver.Factorization, "__init__", counting)
    before = solver.stats.snapshot()
    stack = dc_operating_point(circuit, linear=linear, initial=start,
                               sources={"VTUNE_SRC": STACK})
    spent = solver.stats.since(before)

    size = stack.structure.size
    assert factorizations == [(size, size)]
    first = calls[:len(mosfets)]
    assert {model for model, _, _ in first} \
        == {element.model for element in mosfets}
    assert all(ndim == 0 for _, ndim, _ in first)
    # Iteration 2 on, the corners still iterating go as one stack.
    assert all(ndim == 1 and 1 < count < STACK.size
               for _, ndim, count in calls[len(mosfets):])
    assert set(stack.strategies) == {"newton"}
    assert (spent.factorizations, spent.solves) == (0, stack.iterations)
    assert [work.solves for work in stack.work] \
        == list(stack.corner_iterations)


def _corner_columns(sweep, *, first_point_index, variant_index, knobs,
                    injected_power_dbm, vtune):
    """One corner's columns, built from its own sweep (the oracle)."""
    n = len(sweep)
    shape = (n, len(sweep.entry_names))
    columns = {
        "point_index": np.arange(first_point_index, first_point_index + n,
                                 dtype=np.int64),
        "variant_index": np.full(n, variant_index, dtype=np.int64),
        "injected_power_dbm": np.full(n, injected_power_dbm,
                                      dtype=np.float64),
        "vtune": np.full(n, vtune, dtype=np.float64),
        "noise_frequency": np.asarray(sweep.noise_frequency,
                                      dtype=np.float64),
        "entry_names": np.array(sweep.entry_names, dtype=str),
        "carrier_frequency": np.full(n, sweep.carrier_frequency,
                                     dtype=np.float64),
        "carrier_amplitude": np.full(n, sweep.carrier_amplitude,
                                     dtype=np.float64),
        "noise_amplitude": np.full(n, sweep.noise_amplitude,
                                   dtype=np.float64),
        "fm_voltage": sweep.fm_voltage,
        "am_voltage": sweep.am_voltage,
        "lower_sideband_voltage": sweep.lower_sideband_voltage,
        "upper_sideband_voltage": sweep.upper_sideband_voltage,
        "entry_h_sub": np.ascontiguousarray(sweep.h_sub,
                                            dtype=np.complex128),
        "entry_k_hz_per_volt": np.broadcast_to(
            sweep.entry_k_hz_per_volt, shape).copy(),
        "entry_g_am_per_volt": np.broadcast_to(
            sweep.entry_g_am_per_volt, shape).copy(),
        "entry_fm_voltage": np.ascontiguousarray(sweep.per_entry_fm_voltage),
        "entry_am_voltage": np.ascontiguousarray(sweep.per_entry_am_voltage),
        "entry_present": np.ones(shape, dtype=bool),
        "entry_mechanism": np.broadcast_to(
            np.array(sweep.entry_mechanism, dtype=str), shape).copy(),
    }
    for name, value in knobs.items():
        columns[KNOB_PREFIX + name] = np.full(n, value, dtype=np.float64)
    return ordered(columns)


def _assert_same_bytes(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, array in want.items():
        assert (got[name].dtype, got[name].shape) \
            == (array.dtype, array.shape), name
        assert got[name].tobytes() == array.tobytes(), name


@pytest.mark.parametrize("corners", [1, 3])
def test_stack_columns_equal_each_corner_built_alone(corners):
    frequencies = np.array([1e6, 2e6, 5e6])
    scale = np.linspace(1.0, 2.0, corners)
    stacked = corners > 1
    entries = [NoiseEntry(
        name=name,
        h_sub=np.outer(scale, [0.01 + 0.002j * k, 0.004 - 0.001j, 0.02j])
        * (k + 1) if stacked else np.array([0.01 + 0.002j * k,
                                            0.004 - 0.001j, 0.02j]) * (k + 1),
        k_hz_per_volt=1e6 * (k + 1) * (scale if stacked else 1.0),
        g_am_per_volt=0.01 * k * (scale if stacked else 1.0),
        mechanism="capacitive" if name == "var" else "resistive")
        for k, name in enumerate(["g", "var", "n1"])]
    carrier = 3e9 * scale if stacked else 3e9
    amplitude = 0.8 * scale if stacked else 0.8
    sweep = compute_spurs(entries, carrier, amplitude, 0.1, frequencies)
    vtunes = [0.25 * corner for corner in range(corners)]
    first_points = [7 + 6 * corner for corner in range(corners)]
    knobs = {"ground_width_scale": 2.0, "mesh_nx": 16.0}
    columns = stack_columns(sweep, first_point_indices=first_points,
                            variant_index=1, knobs=knobs,
                            injected_power_dbm=-5.0, vtunes=vtunes)
    alone = [_corner_columns(sweep.corner(corner),
                             first_point_index=first_points[corner],
                             variant_index=1, knobs=knobs,
                             injected_power_dbm=-5.0, vtune=vtunes[corner])
             for corner in range(corners)]
    _assert_same_bytes(columns, concat_columns(alone))


_TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6))


def _campaign(vtunes) -> Campaign:
    return Campaign(
        name="stack_columns",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "vtune": tuple(vtunes),
                          "noise_frequency": (1e6, 4e6)}),
        options=VcoExperimentOptions(noise_frequencies=(1e6, 4e6),
                                     flow=_TINY_MESH))


def _oracle(technology, campaign: Campaign, result, skip=()) -> dict:
    """Every corner of ``campaign`` analysed alone and built by the
    per-corner oracle, in point order, without the corners ``skip``."""
    powers, vtunes, frequencies = campaign.sim_grid()
    parts, point = [], 0
    for variant, record in zip(campaign.variants(), result.variants):
        for power in powers:
            options = replace(campaign.options, injected_power_dbm=power,
                              flow=variant.flow_options)
            analysis = VcoImpactAnalysis(technology, spec=variant.spec,
                                         options=options,
                                         flow_result=record.flow)
            for vtune in vtunes:
                if (variant.index, vtune) not in skip:
                    corner, = analysis.analyze_corners([vtune], frequencies)
                    parts.append(_corner_columns(
                        corner.sweep, first_point_index=point,
                        variant_index=variant.index, knobs=variant.knobs,
                        injected_power_dbm=power, vtune=vtune))
                point += len(frequencies)
    return concat_columns(parts)


@pytest.mark.parametrize("vtunes", [(0.0, 0.5, 1.0, 1.5), (0.75,)])
def test_campaign_blocks_equal_each_corner_built_alone(technology, vtunes):
    """With knob columns, for stacks of four and of one."""
    campaign = _campaign(vtunes)
    result = SweepRunner(technology).run(campaign)
    assert result.columns[KNOB_PREFIX + "ground_width_scale"].size
    _assert_same_bytes(result.columns, _oracle(technology, campaign, result))


def test_blocks_of_a_stack_with_a_faulted_corner_equal_each_corner_alone(
        technology, tmp_path):
    campaign = _campaign((0.0, 0.5, 1.0, 1.5))
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=5, attempts=99),))
    result = SweepRunner(technology, fault_plan=plan,
                         on_error="skip").run(campaign)
    assert [(failure.variant_index, failure.vtune)
            for failure in result.failures] == [(1, 0.5)]
    _assert_same_bytes(result.columns,
                       _oracle(technology, campaign, result, skip={(1, 0.5)}))
