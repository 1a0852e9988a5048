"""Corner stacks: the V_tune corners of one variant analysed at once.

:meth:`~repro.core.vco_experiment.VcoImpactAnalysis.analyze_corners` solves
a stack of corners in one DC Newton, one transfer solve and one spur
evaluation.  A corner's results must not depend on its stack: the oracle
here is the corner analysed alone, compared bit for bit.  A corner that
plain Newton misses climbs the ladder on its own, and a corner whose task
fails in a campaign fails alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions, VcoImpactAnalysis
from repro.errors import AnalysisError
from repro.netlist import Circuit
from repro.simulator import DcOptions, dc_operating_point
from repro.simulator.solver import stats
from repro.studies import Campaign, ExtractionCache, ParamSpace, SweepRunner
from repro.studies.faults import FaultPlan, FaultSpec
from repro.substrate.extraction import SubstrateExtractionOptions
from repro.technology import make_technology

#: The perfbench V_tune lattice, and 32 of its values (a perfbench stack)
#: including 0, 0.75 and 1.5 V.
LATTICE = np.linspace(0.0, 1.5, 49)
STACK = np.concatenate([LATTICE[::2], LATTICE[1:14:2]])

_SWEEP_FIELDS = ("noise_frequency", "carrier_frequency", "carrier_amplitude",
                 "entry_k_hz_per_volt", "entry_g_am_per_volt", "h_sub",
                 "per_entry_fm_voltage", "per_entry_am_voltage",
                 "fm_voltage", "am_voltage", "lower_sideband_voltage",
                 "upper_sideband_voltage")


def _corner_bits(corner) -> dict:
    """Everything a corner analysis returns, as exact bits."""
    bits = {name: np.asarray(getattr(corner.sweep, name)).tobytes()
            for name in _SWEEP_FIELDS}
    point = corner.operating_point
    bits["dc"] = (point.vector.tobytes(), point.iterations, point.strategy)
    bits["transfer"] = {node: h.tobytes()
                        for node, h in corner.transfer.transfers.items()}
    bits["catalog"] = [(entry.name, np.float64(entry.k_hz_per_volt).hex(),
                        np.float64(entry.g_am_per_volt).hex())
                       for entry in corner.catalog.entries]
    bits["carrier"] = np.float64(
        corner.vco.oscillation_frequency(corner.vtune)).hex()
    bits["work"] = corner.solver_counts.as_dict()
    return bits


@pytest.fixture(scope="module")
def lattice_stack(vco_analysis):
    return vco_analysis.analyze_corners(STACK)


@pytest.mark.parametrize("vtune", [0.0, 0.75, 1.5])
def test_a_corner_alone_equals_its_row_of_a_32_corner_stack(
        vco_analysis, lattice_stack, vtune):
    assert STACK.size == len(lattice_stack) == 32
    row = int(np.flatnonzero(STACK == vtune)[0])
    alone, = vco_analysis.analyze_corners([vtune])
    assert lattice_stack[row].vtune == alone.vtune == vtune
    assert _corner_bits(alone) == _corner_bits(lattice_stack[row])
    # analyze() is the stack of one.
    sweep, _vco, _catalog, transfer = vco_analysis.analyze(vtune)
    assert sweep.fm_voltage.tobytes() == alone.sweep.fm_voltage.tobytes()
    assert transfer.transfers.keys() == alone.transfer.transfers.keys()


def test_each_corner_carries_its_own_solver_work(vco_analysis,
                                                 lattice_stack):
    """Every corner is reached from the stack's base factorizations, which
    count no work: one solve per noise frequency and no factorization."""
    points = len(vco_analysis.options.noise_frequencies)
    for corner in lattice_stack:
        counts = corner.solver_counts
        assert counts.factorizations == 0
        assert counts.fallbacks == 0
        assert counts.solves == points + corner.operating_point.iterations
        assert corner.operating_point.strategy == "newton"


def test_analyze_corners_needs_a_stack(vco_analysis):
    with pytest.raises(AnalysisError, match="at least one V_tune"):
        vco_analysis.analyze_corners([])


def _latch() -> Circuit:
    """A cross-coupled NMOS latch: plain Newton from zero needs more than
    five iterations at a 1.8 V supply, but not at 0 or 0.2 V."""
    latch = Circuit("latch")
    nmos = make_technology().mos_parameters("nmos_rf")
    latch.add_voltage_source("VDD", "vdd", "0", 1.8)
    latch.add_resistor("R1", "vdd", "a", 5e3)
    latch.add_resistor("R2", "vdd", "b", 5e3)
    latch.add_mosfet("M1", "a", "b", "0", "0", nmos, width=20e-6,
                     length=0.18e-6)
    latch.add_mosfet("M2", "b", "a", "0", "0", nmos, width=20e-6,
                     length=0.18e-6)
    return latch


def test_a_corner_off_plain_newton_climbs_the_ladder_alone():
    latch = _latch()
    options = DcOptions(max_iterations=5, gmin_steps=10)
    supplies = [0.0, 1.8, 0.2]
    before = stats.snapshot()
    stack = dc_operating_point(latch, options, sources={"VDD": supplies})
    spent = stats.since(before)
    assert stack.strategies == ("newton", "gmin-stepping", "newton")
    assert [work.dc_gmin_steps for work in stack.work] == [0, 10, 0]
    assert spent.dc_gmin_steps == 10
    assert sum(work.solves for work in stack.work) == spent.solves
    for index, supply in enumerate(supplies):
        alone = dc_operating_point(latch, options, sources={"VDD": [supply]})
        assert stack.vectors[index].tobytes() == alone.vectors[0].tobytes()
        assert stack.corner_iterations[index] == alone.corner_iterations[0]
        assert stack.work[index] == alone.work[0]
        copy = dc_operating_point(latch.with_sources({"VDD": supply}),
                                  options)
        assert copy.vector.tobytes() == alone.vectors[0].tobytes()
        assert copy.strategy == stack.strategies[index]


_TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=12, ny=12, n_z_per_layer=2, lateral_margin=60e-6))


@pytest.fixture(scope="module")
def four_corner_campaign():
    return Campaign(
        name="corner_stack",
        space=ParamSpace({"vtune": (0.0, 0.5, 1.0, 1.5),
                          "noise_frequency": (1e6, 4e6)}),
        options=VcoExperimentOptions(noise_frequencies=(1e6, 4e6),
                                     flow=_TINY_MESH))


@pytest.mark.parametrize("faulted", [0, 2])
def test_a_faulted_corner_of_a_four_corner_stack_fails_alone(
        technology, four_corner_campaign, tmp_path, faulted):
    cache = ExtractionCache()
    healthy = SweepRunner(technology, cache=cache).run(four_corner_campaign)
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=faulted,
                                      attempts=99),))
    result = SweepRunner(technology, cache=cache, fault_plan=plan,
                         on_error="skip").run(four_corner_campaign)
    vtune = four_corner_campaign.sim_grid()[1][faulted]
    assert [failure.vtune for failure in result.failures] == [vtune]
    keep = healthy.column("vtune") != vtune
    assert len(result) == int(keep.sum()) == 6
    for name, column in healthy.columns.items():
        if name != "entry_names":
            column = column[keep]
        assert result.columns[name].tobytes() == column.tobytes(), name
    counters = result.telemetry["metrics"]["counters"]
    # The three healthy corners are reached from their stack's base: no
    # factorization (a zero counter is left out of the telemetry).
    assert counters.get("solver.factorizations", 0) == 0


def test_a_stack_that_raises_falls_back_to_its_corners_one_by_one(
        technology, four_corner_campaign, monkeypatch):
    """A corner whose analysis raises inside its stack fails alone: the
    stack is analysed again corner by corner, and its stack-mates keep the
    bits they get in the healthy stack."""
    cache = ExtractionCache()
    healthy = SweepRunner(technology, cache=cache).run(four_corner_campaign)
    real = VcoImpactAnalysis.analyze_corners
    stacks = []

    def breaks_at_one_volt(self, vtunes, *args, **kwargs):
        stacks.append(list(vtunes))
        if 1.0 in list(vtunes):
            raise AnalysisError("injected corner failure")
        return real(self, vtunes, *args, **kwargs)

    monkeypatch.setattr(VcoImpactAnalysis, "analyze_corners",
                        breaks_at_one_volt)
    result = SweepRunner(technology, cache=cache,
                         on_error="skip").run(four_corner_campaign)
    assert stacks == [[0.0, 0.5, 1.0, 1.5], [0.0], [0.5], [1.0], [1.5]]
    assert [failure.vtune for failure in result.failures] == [1.0]
    assert "injected corner failure" in result.failures[0].message
    keep = healthy.column("vtune") != 1.0
    for name, column in healthy.columns.items():
        if name != "entry_names":
            column = column[keep]
        assert result.columns[name].tobytes() == column.tobytes(), name
