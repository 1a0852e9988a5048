"""The compiled VCO testbench: one per flow, every V_tune corner solved
against it.

The compiled path (shared impact-netlist elements, fresh sources, the
flow's :class:`~repro.simulator.mna.LinearStamps`) must give the operating
points and transfers of a from-scratch solve, and must never modify the
extracted flow it was compiled from.  Its reference operating point, the
start of every corner's DC Newton, must change the Newton path and not
the answer, count no solver work, and fall back to the zero start when it
does not converge.
"""

from __future__ import annotations

import copy
import gc
import logging
from dataclasses import replace

import numpy as np
import pytest

from repro.core import vco_experiment
from repro.core.flow import run_extraction_flow
from repro.core.vco_experiment import VcoImpactAnalysis
from repro.errors import AnalysisError, ConvergenceError, SimulationError
from repro.layout.testchips import VcoLayoutSpec, make_vco_testchip
from repro.netlist.elements import VoltageSource
from repro.simulator import dc_operating_point, transfer_function
from repro.simulator.mna import LinearStamps
from repro.simulator.solver import SolverStats
from repro.simulator.solver import stats as solver_stats


@pytest.fixture(scope="module")
def variant_analyses(technology, vco_analysis, vco_flow):
    """Analyses of the Fig-10 nominal and 2x-wide ground variants."""
    spec = VcoLayoutSpec(ground_width_scale=2.0)
    widened = run_extraction_flow(make_vco_testchip(spec), technology,
                                  options=vco_analysis.options.flow)
    return [VcoImpactAnalysis(technology, options=vco_analysis.options,
                              flow_result=vco_flow),
            VcoImpactAnalysis(technology, spec=spec,
                              options=vco_analysis.options,
                              flow_result=widened)]


def _relative(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _spur_values(sweep) -> dict[str, list[float]]:
    """A sweep's outcome per point: carrier, spur voltages and every power."""
    values = {name: np.broadcast_to(getattr(sweep, name), len(sweep)).tolist()
              for name in ("noise_frequency", "carrier_frequency",
                           "carrier_amplitude", "fm_voltage", "am_voltage")}
    values["spur_power_dbm"] = sweep.total_spur_power_dbm().tolist()
    for side in ("lower", "upper"):
        values[f"{side}_sideband_dbm"] = sweep.sideband_power_dbm(side).tolist()
    for name in sweep.entry_names:
        values[f"entry:{name}_dbm"] = sweep.entry_power_dbm(name).tolist()
    return values


@pytest.mark.parametrize("variant", [0, 1])
@pytest.mark.parametrize("vtune", [0.0, 0.75, 1.5])
def test_compiled_corner_matches_a_from_scratch_solve(variant_analyses,
                                                      variant, vtune):
    analysis = variant_analyses[variant]
    corner, = analysis.analyze_corners([vtune])
    transfer, compiled = corner.transfer, corner.operating_point

    scratch = copy.deepcopy(analysis.build_testbench(vtune))
    reference = dc_operating_point(scratch, solver=analysis.solver,
                                   initial=analysis.reference_point())
    assert compiled.iterations == reference.iterations
    assert compiled.strategy == reference.strategy
    assert _relative(compiled.vector, reference.vector) <= 1e-12

    reference_tf = transfer_function(scratch, "VSUB_SRC", transfer.nodes(),
                                     transfer.frequencies,
                                     operating_point=reference,
                                     solver=analysis.solver)
    for node in transfer.nodes():
        assert _relative(transfer.transfers[node],
                         reference_tf.transfers[node]) <= 1e-12


@pytest.mark.parametrize("variant", [0, 1])
def test_warm_started_corners_match_a_cold_start(variant_analyses, variant,
                                                monkeypatch):
    """The reference start changes the Newton path, not the answer."""
    analysis = variant_analyses[variant]
    vtunes = (0.0, 0.1875, 0.5625, 0.75, 1.5)
    warm = {}
    for corner in analysis.analyze_corners(vtunes):
        warm[corner.vtune] = (corner.sweep, corner.transfer,
                              corner.operating_point)
    monkeypatch.setattr(VcoImpactAnalysis, "reference_point",
                        lambda self: None)
    for vtune in vtunes:
        cold_corner, = analysis.analyze_corners([vtune])
        cold_spurs, cold_transfer = cold_corner.sweep, cold_corner.transfer
        cold = cold_corner.operating_point
        spurs, transfer, point = warm[vtune]
        assert point.strategy == cold.strategy == "newton"
        assert point.iterations <= 2 < cold.iterations
        assert _relative(point.vector, cold.vector) <= 1e-10
        for node in transfer.nodes():
            assert _relative(transfer.transfers[node],
                             cold_transfer.transfers[node]) <= 1e-10
        got, want = _spur_values(spurs), _spur_values(cold_spurs)
        assert got.keys() == want.keys()
        for key in got:
            if key.endswith("_dbm"):
                assert got[key] == pytest.approx(want[key], abs=1e-6)


def test_a_reference_that_fails_leaves_the_zero_start(vco_flow, vco_analysis,
                                                      monkeypatch, caplog):
    flow = replace(vco_flow)            # no reference cached for it yet
    analysis = VcoImpactAnalysis(vco_analysis.technology,
                                 options=vco_analysis.options,
                                 flow_result=flow)
    solve = vco_experiment.dc_operating_point
    calls = []

    def reference_fails(circuit, **kwargs):
        calls.append(kwargs.get("initial"))
        if len(calls) == 1:             # the reference solve
            raise ConvergenceError("injected non-convergence")
        return solve(circuit, **kwargs)

    monkeypatch.setattr(vco_experiment, "dc_operating_point",
                        reference_fails)
    vtunes = (0.0, 1.5)
    with caplog.at_level(logging.WARNING, logger="repro.core.vco_experiment"):
        corners = {vtune: analysis.analyze_corners([vtune])[0]
                   for vtune in vtunes}
        assert analysis.reference_point() is None
    warnings = [record for record in caplog.records
                if "DC reference operating point" in record.getMessage()]
    assert len(warnings) == 1
    assert "injected non-convergence" in warnings[0].getMessage()
    assert len(calls) == 1 + len(vtunes)
    assert all(initial is None for initial in calls[1:])

    # Today's path: plain Newton from zero on the compiled testbench.
    monkeypatch.setattr(vco_experiment, "dc_operating_point", solve)
    _circuit, linear = vco_experiment._compiled_testbench(flow,
                                                          analysis.options)
    zero_start = VcoImpactAnalysis(vco_analysis.technology,
                                   options=vco_analysis.options,
                                   flow_result=flow)
    monkeypatch.setattr(VcoImpactAnalysis, "reference_point",
                        lambda self: None)
    for vtune in vtunes:
        got = corners[vtune].operating_point
        want = dc_operating_point(analysis.build_testbench(vtune),
                                  solver=analysis.solver, linear=linear)
        assert np.array_equal(got.vector, want.vector)
        assert (got.iterations, got.strategy) == (want.iterations,
                                                  want.strategy)
        assert (_spur_values(corners[vtune].sweep)
                == _spur_values(zero_start.analyze(vtune)[0]))


def test_the_reference_counts_no_solver_work(vco_flow, vco_analysis):
    flow = replace(vco_flow)
    analysis = VcoImpactAnalysis(vco_analysis.technology,
                                 options=vco_analysis.options,
                                 flow_result=flow)
    before = solver_stats.snapshot()
    reference = analysis.reference_point()
    assert solver_stats.since(before).as_dict() == SolverStats().as_dict()
    assert reference is not None and not reference.flags.writeable
    assert analysis.reference_point() is reference
    # Another supply voltage is another DC input, so another reference.
    biased = VcoImpactAnalysis(
        vco_analysis.technology, flow_result=flow,
        options=replace(vco_analysis.options, supply_voltage=1.6))
    assert biased.reference_point() is not reference
    assert analysis.reference_point() is reference


def test_corner_circuits_share_the_netlist_and_own_their_sources(
        vco_analysis):
    first = vco_analysis.build_testbench(0.0)
    second = vco_analysis.build_testbench(1.5)
    assert list(first.elements) == list(second.elements)
    for name, element in first.elements.items():
        if isinstance(element, VoltageSource):
            assert second[name] is not element
        else:
            assert second[name] is element
    assert first["VTUNE_SRC"].value.dc == 0.0
    assert second["VTUNE_SRC"].value.dc == 1.5
    impact = vco_analysis.flow.impact.circuit
    assert all(first[name] is element
               for name, element in impact.elements.items())


def test_stamps_of_another_variant_raise_a_named_error(variant_analyses):
    nominal, widened = variant_analyses
    _circuit, linear = vco_experiment._compiled_testbench(nominal.flow,
                                                          nominal.options)
    with pytest.raises(SimulationError,
                       match="linear stamps do not match circuit"):
        dc_operating_point(widened.build_testbench(0.0), linear=linear)
    with pytest.raises(SimulationError,
                       match="linear stamps do not match circuit"):
        dc_operating_point(nominal.build_testbench(0.0),
                           linear=LinearStamps.of(widened.build_testbench(0.0)))


def test_campaign_leaves_the_flow_netlist_untouched(vco_analysis):
    impact = vco_analysis.flow.impact.circuit

    def snapshot():
        return {name: (element, dict(vars(element)))
                for name, element in impact.elements.items()}

    before = snapshot()
    vco_analysis.spur_sweep(vtune_values=(0.0, 1.5),
                            noise_frequencies=np.asarray([1e6, 5e6]))
    after = snapshot()
    assert after.keys() == before.keys()
    for name, (element, fields) in before.items():
        assert after[name][0] is element
        assert after[name][1] == fields


def test_compiled_testbench_dies_with_its_flow(vco_flow, vco_analysis):
    flow = replace(vco_flow)            # a distinct flow object
    key = id(flow)
    compiled = vco_experiment._compiled_testbench(flow, vco_analysis.options)
    assert vco_experiment._compiled_testbench(
        flow, vco_analysis.options) is compiled
    other_shape = replace(vco_analysis.options, output_load=75.0)
    assert vco_experiment._compiled_testbench(
        flow, other_shape) is not compiled
    assert key in vco_experiment._COMPILED_TESTBENCHES
    del flow
    gc.collect()
    assert key not in vco_experiment._COMPILED_TESTBENCHES


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_noise_frequency_is_named_before_setup(vco_analysis, bad,
                                                          monkeypatch):
    solved = []
    monkeypatch.setattr(vco_experiment, "dc_operating_point",
                        lambda *args, **kwargs: solved.append(kwargs))
    before = solver_stats.snapshot()
    with pytest.raises(AnalysisError,
                       match=f"noise frequency {float(bad)!r} is not finite"):
        vco_analysis.analyze(0.3125, np.array([1e6, bad]))
    assert solved == []
    assert solver_stats.since(before).as_dict() == SolverStats().as_dict()
