"""Tests of the design-study sweep engine (:mod:`repro.studies`).

Covers the acceptance properties of the subsystem:

* the extraction cache is content-addressed (structurally identical cells
  share an entry), counts hits/misses and invalidates on layout or mesh
  changes,
* a layout-invariant sweep extracts exactly once, warm re-runs extract zero
  times, and layout sweeps re-extract only the changed variants,
* layout variants that change only interconnect share one substrate
  extraction (one Kron reduction) on every execution path, and a failed
  leader extraction fails its followers' corners,
* the process-pool backend produces numerically identical results to the
  serial backend (<= 1e-12),
* the tidy result store answers the summary queries the figures need.

All sweeps here run on a deliberately tiny substrate mesh — the engine's
behaviour does not depend on mesh resolution.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import repro.core.flow as flow_module
import repro.substrate.extraction as substrate_module
from repro.core.flow import FlowOptions, run_extraction_flow
from repro.core.vco_experiment import (
    VcoExperimentOptions,
    VcoImpactAnalysis,
    ground_resistance_study,
)
from repro.errors import AnalysisError, CampaignError
from repro.layout.testchips import VcoLayoutSpec, make_vco_testchip
from repro.parallel import shared_pool
from repro.simulator import solver as solver_module
from repro.simulator.solver import SolverStats
from repro.studies import (
    Campaign,
    DiskExtractionCache,
    ExtractionCache,
    FaultPlan,
    FaultSpec,
    ParamSpace,
    ProcessPoolBackend,
    SerialBackend,
    SweepRunner,
    fingerprint,
)
from repro.studies.runner import ExtractionTask
from repro.substrate.extraction import SubstrateExtractionOptions


TINY_MESH = FlowOptions(substrate=SubstrateExtractionOptions(
    nx=16, ny=16, n_z_per_layer=2, lateral_margin=60e-6))


@pytest.fixture(scope="module")
def sweep_options():
    return VcoExperimentOptions(
        vtune_values=(0.0, 0.75),
        noise_frequencies=(1e6, 4e6, 12e6),
        flow=TINY_MESH)


@pytest.fixture(scope="module")
def campaign(sweep_options):
    return Campaign(
        name="vtune_x_fnoise",
        space=ParamSpace({"vtune": (0.0, 0.75),
                          "noise_frequency": (1e6, 4e6, 12e6)}),
        options=sweep_options)


# -- parameter space ------------------------------------------------------------------


def test_param_space_grid_shape_and_order():
    space = ParamSpace({"vtune": (0.0, 1.5), "noise_frequency": (1e6, 2e6, 4e6)})
    assert space.shape == (2, 3)
    assert space.size == len(space) == 6
    points = list(space.grid())
    # Last axis varies fastest.
    assert points[0] == {"vtune": 0.0, "noise_frequency": 1e6}
    assert points[1] == {"vtune": 0.0, "noise_frequency": 2e6}
    assert points[3] == {"vtune": 1.5, "noise_frequency": 1e6}


def test_param_space_rejects_unknown_and_empty_axes():
    with pytest.raises(AnalysisError):
        ParamSpace({"not_an_axis": (1.0,)})
    with pytest.raises(AnalysisError):
        ParamSpace({"vtune": ()})


def test_campaign_resolves_layout_and_mesh_variants(sweep_options):
    campaign = Campaign(
        name="variants",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "mesh_nx": (12, 16),
                          "vtune": (0.0,)}),
        options=sweep_options)
    variants = campaign.variants()
    assert len(variants) == 4
    assert variants[0].knobs == {"ground_width_scale": 1.0, "mesh_nx": 12}
    assert variants[0].spec.ground_width_scale == 1.0
    assert variants[0].flow_options.substrate.nx == 12
    assert variants[3].spec.ground_width_scale == 2.0
    assert variants[3].flow_options.substrate.nx == 16
    # Simulation axes fall back to the options where not swept.
    powers, vtunes, frequencies = campaign.sim_grid()
    assert powers == (sweep_options.injected_power_dbm,)
    assert vtunes == (0.0,)
    assert frequencies == sweep_options.noise_frequencies
    assert campaign.n_points == 4 * 1 * 1 * 3


# -- extraction cache -----------------------------------------------------------------


def test_fingerprint_is_content_addressed():
    spec = VcoLayoutSpec()
    assert fingerprint(make_vco_testchip(spec)) == \
        fingerprint(make_vco_testchip(VcoLayoutSpec()))
    widened = replace(spec, ground_width_scale=2.0)
    assert fingerprint(make_vco_testchip(spec)) != \
        fingerprint(make_vco_testchip(widened))
    with pytest.raises(AnalysisError):
        fingerprint(object())


def test_cache_counts_hits_misses_and_invalidates(technology):
    cache = ExtractionCache()
    cell = make_vco_testchip()
    flow = cache.get_or_extract(cell, technology, TINY_MESH)
    assert (cache.hits, cache.misses) == (0, 1)
    # A structurally identical, separately built cell hits the same entry.
    again = cache.get_or_extract(make_vco_testchip(), technology, TINY_MESH)
    assert again is flow
    assert (cache.hits, cache.misses) == (1, 1)
    # A different mesh spec invalidates.
    finer = FlowOptions(substrate=replace(TINY_MESH.substrate, nx=20))
    cache.get_or_extract(cell, technology, finer)
    assert (cache.hits, cache.misses) == (1, 2)
    # A different layout invalidates.
    widened = make_vco_testchip(VcoLayoutSpec(ground_width_scale=2.0))
    cache.get_or_extract(widened, technology, TINY_MESH)
    assert (cache.hits, cache.misses) == (1, 3)
    assert len(cache) == 3
    cache.clear()
    assert len(cache) == 0 and cache.stats.requests == 0


def test_layout_invariant_sweep_extracts_exactly_once(technology, campaign):
    runner = SweepRunner(technology, cache=ExtractionCache())
    cold = runner.run(campaign)
    assert cold.cache_misses == 1 and cold.cache_hits == 0
    warm = runner.run(campaign)
    # Warm cache: the single layout variant is never re-extracted.
    assert warm.cache_misses == 0 and warm.cache_hits == 1
    assert len(runner.cache) == 1
    np.testing.assert_array_equal(cold.column("spur_power_dbm"),
                                  warm.column("spur_power_dbm"))


def test_layout_sweep_reextracts_only_changed_variants(technology, sweep_options):
    cache = ExtractionCache()
    runner = SweepRunner(technology, cache=cache)
    nominal_only = Campaign(
        name="nominal",
        space=ParamSpace({"vtune": (0.0,), "noise_frequency": (1e6,)}),
        options=sweep_options)
    runner.run(nominal_only)
    assert cache.misses == 1

    widths = Campaign(
        name="widths",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "vtune": (0.0,), "noise_frequency": (1e6,)}),
        options=sweep_options)
    sweep = runner.run(widths)
    # Only the widened layout is new; the nominal one is a content hit.
    assert sweep.cache_misses == 1 and sweep.cache_hits == 1
    assert sweep.variants[0].from_cache is True
    assert sweep.variants[1].from_cache is False
    assert sweep.variants[0].cache_key != sweep.variants[1].cache_key


# -- backend equivalence --------------------------------------------------------------


def test_process_pool_matches_serial(technology, campaign):
    cache = ExtractionCache()
    serial = SweepRunner(technology, backend=SerialBackend(),
                         cache=cache).run(campaign)
    sharded = SweepRunner(technology, backend=ProcessPoolBackend(max_workers=2),
                          cache=cache).run(campaign)
    assert len(serial) == len(sharded) == 6
    assert [r.point_index for r in serial.records] == \
        [r.point_index for r in sharded.records]
    for column in ("spur_power_dbm", "carrier_frequency", "carrier_amplitude",
                   "noise_frequency", "vtune"):
        assert np.max(np.abs(serial.column(column)
                             - sharded.column(column))) <= 1e-12
    # The sharded run reused the serial run's extraction.
    assert sharded.cache_misses == 0


def _solver_counters(result) -> dict[str, int]:
    counters = result.telemetry["metrics"]["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("solver.") and "{" not in name}


def test_solver_counters_match_across_worker_counts(technology,
                                                    sweep_options):
    # Cold layout study: the extractions and the corners both solve.
    campaign = Campaign(
        name="counted",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "vtune": (0.0, 0.75), "noise_frequency": (1e6,)}),
        options=sweep_options)
    before = solver_module.stats.as_dict()
    serial = SweepRunner(technology, backend=SerialBackend(),
                         cache=ExtractionCache()).run(campaign)
    after = solver_module.stats.as_dict()
    # What the serial run really spent in this process.
    spent = {f"solver.{name}": after[name] - before[name]
             for name in SolverStats._COUNTERS if after[name] != before[name]}
    pooled = SweepRunner(technology, backend=ProcessPoolBackend(max_workers=2),
                         cache=ExtractionCache()).run(campaign)
    assert spent["solver.factorizations"] > 0 and spent["solver.solves"] > 0
    assert _solver_counters(serial) == spent
    assert _solver_counters(pooled) == spent
    np.testing.assert_array_equal(pooled.column("spur_power_dbm"),
                                  serial.column("spur_power_dbm"))


def test_serial_campaign_never_starts_the_process_pool(technology,
                                                       sweep_options):
    cache = ExtractionCache()
    SweepRunner(technology, cache=cache).run(
        _widths_campaign(sweep_options, scales=(1.0,)))
    shared_pool().shutdown()
    # One cached variant, one cache miss: extraction and corners run inline.
    result = SweepRunner(technology, backend=SerialBackend(),
                         cache=cache).run(_widths_campaign(sweep_options))
    assert result.cache_hits == 1 and result.cache_misses == 1
    assert result.backend_name == "serial"
    assert shared_pool().width == 0


def test_spur_sweep_backend_equivalence(technology, sweep_options):
    analysis = VcoImpactAnalysis(technology, options=sweep_options)
    cache = ExtractionCache()
    serial = analysis.spur_sweep(cache=cache)
    sharded = analysis.spur_sweep(backend=ProcessPoolBackend(max_workers=2),
                                  cache=cache)
    # The seeded cache means neither run extracts anything.
    assert cache.misses == 0
    for vtune in serial.vtune_values:
        assert np.max(np.abs(serial.spur_power_dbm[vtune]
                             - sharded.spur_power_dbm[vtune])) <= 1e-12


# -- result store ---------------------------------------------------------------------


def test_sweep_result_queries(technology, campaign):
    sweep = SweepRunner(technology).run(campaign)

    frequencies, power = sweep.spur_vs_frequency(vtune=0.0)
    np.testing.assert_allclose(frequencies, (1e6, 4e6, 12e6))
    assert np.all(np.diff(power) < 0)          # spur falls with frequency

    worst = sweep.worst_spur()
    assert worst.noise_frequency == pytest.approx(1e6)
    per_vtune = sweep.worst_per("vtune")
    assert set(per_vtune) == {0.0, 0.75}
    assert all(record.noise_frequency == pytest.approx(1e6)
               for record in per_vtune.values())

    rows = sweep.rows()
    assert len(rows) == 6
    assert {"vtune", "noise_frequency", "spur_power_dbm",
            "injected_power_dbm"} <= set(rows[0])

    with pytest.raises(AnalysisError):
        sweep.column("no_such_column")
    with pytest.raises(AnalysisError):
        sweep.spur_vs_frequency(vtune=99.0)
    with pytest.raises(AnalysisError):
        sweep.spur_vs_frequency()              # two curves left


def test_spur_sweep_reads_the_campaign_columns(technology, sweep_options,
                                               campaign):
    """Fig. 8 is the campaign's spur-power column masked by V_tune, in point
    (= frequency axis) order, with each corner's carrier."""
    sweep = SweepRunner(technology).run(campaign)
    analysis = VcoImpactAnalysis(technology, options=sweep_options)
    figure = analysis.spur_sweep()
    assert figure.vtune_values == (0.0, 0.75)
    np.testing.assert_allclose(figure.noise_frequencies, (1e6, 4e6, 12e6))
    for vtune in figure.vtune_values:
        frequencies, power = sweep.spur_vs_frequency(vtune=vtune)
        np.testing.assert_array_equal(figure.spur_power_dbm[vtune], power)
        # Reference line is anchored at the first simulated point.
        assert figure.reference_dbm[vtune][0] == pytest.approx(power[0])
        worst = sweep.worst_spur(vtune=vtune)
        assert figure.carrier_frequencies[vtune] == worst.carrier_frequency
        assert figure.carrier_amplitudes[vtune] == worst.carrier_amplitude
    # A descending frequency axis stays in point order, not re-sorted.
    descending = analysis.spur_sweep(noise_frequencies=(12e6, 4e6, 1e6))
    np.testing.assert_array_equal(descending.noise_frequencies,
                                  (12e6, 4e6, 1e6))
    for vtune in figure.vtune_values:
        np.testing.assert_array_equal(descending.spur_power_dbm[vtune],
                                      figure.spur_power_dbm[vtune][::-1])


def test_ground_resistance_study_shares_cache(technology, sweep_options):
    cache = ExtractionCache()
    study = ground_resistance_study(technology, options=sweep_options,
                                    width_scale=2.0, vtune=0.0, cache=cache)
    assert cache.misses == 2                   # nominal + widened layout
    assert study.improved_ground_resistance == pytest.approx(
        study.nominal_ground_resistance / 2.0, rel=1e-6)
    again = ground_resistance_study(technology, options=sweep_options,
                                    width_scale=2.0, vtune=0.0, cache=cache)
    assert cache.misses == 2                   # warm cache: zero re-extractions
    np.testing.assert_array_equal(study.nominal_dbm, again.nominal_dbm)


# -- substrate reuse across interconnect-only variants --------------------------------


def _count_calls(monkeypatch, module, name) -> list[int]:
    """Wrap ``module.name`` so each call bumps the returned counter."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _widths_campaign(sweep_options, scales=(1.0, 2.0)) -> Campaign:
    return Campaign(
        name="widths",
        space=ParamSpace({"ground_width_scale": scales,
                          "vtune": (0.0,), "noise_frequency": (1e6, 4e6)}),
        options=sweep_options)


def _independent_flows(technology, sweep_options):
    return [run_extraction_flow(
        make_vco_testchip(VcoLayoutSpec(ground_width_scale=scale)),
        technology, options=sweep_options.flow) for scale in (1.0, 2.0)]


def test_fig10_study_runs_one_kron_reduction(technology, sweep_options,
                                             monkeypatch, caplog):
    independent = _independent_flows(technology, sweep_options)
    seeded = ExtractionCache()
    for flow in independent:
        seeded.seed(flow, options=sweep_options.flow)
    reference = ground_resistance_study(technology, options=sweep_options,
                                        cache=seeded)
    assert seeded.misses == 0

    extractions = _count_calls(monkeypatch, flow_module, "extract_substrate")
    cache = ExtractionCache()
    with caplog.at_level("INFO", logger="repro.studies.runner"):
        study = ground_resistance_study(technology, options=sweep_options,
                                        cache=cache)
    assert extractions[0] == 1
    assert cache.misses == 2
    for scale, flow in zip((1.0, 2.0), independent):
        cell = make_vco_testchip(VcoLayoutSpec(ground_width_scale=scale))
        cached = cache.lookup(cache.key(cell, technology, sweep_options.flow))
        np.testing.assert_array_equal(cached.substrate.macromodel.admittance,
                                      flow.substrate.macromodel.admittance)
    np.testing.assert_array_equal(study.nominal_dbm, reference.nominal_dbm)
    np.testing.assert_array_equal(study.improved_dbm, reference.improved_dbm)
    reuse_lines = [record.getMessage() for record in caplog.records
                   if "substrate reuse" in record.getMessage()]
    assert reuse_lines == ["substrate reuse: variant=1 leader_variant=0 "
                           "leader_source=extraction"]


def test_follower_flow_reports_no_substrate_work(technology, sweep_options):
    sweep = SweepRunner(technology).run(_widths_campaign(sweep_options))
    leader, follower = (record.flow for record in sweep.variants)
    assert follower.substrate is leader.substrate
    assert leader.timings.kron_reduction > 0.0
    assert leader.solver_stats.factorizations >= 1
    assert follower.timings.substrate_extraction == 0.0
    assert follower.timings.mesh_assembly == 0.0
    assert follower.timings.kron_reduction == 0.0
    assert follower.solver_stats.factorizations == 0
    counters = sweep.telemetry["metrics"]["counters"]
    assert counters["extraction.substrate_reuses"] == 1
    assert counters["cache.misses"] == 2


def test_fresh_caches_stay_cold(technology, sweep_options, monkeypatch):
    reductions = _count_calls(monkeypatch, substrate_module, "kron_reduce")
    for _ in range(2):
        ground_resistance_study(technology, options=sweep_options,
                                cache=ExtractionCache())
    assert reductions[0] == 2                  # no memo outlives a run


def test_follower_of_cache_hit_runs_no_kron_reduction(technology,
                                                      sweep_options,
                                                      monkeypatch):
    runner = SweepRunner(technology, cache=ExtractionCache())
    runner.run(_widths_campaign(sweep_options, scales=(1.0,)))
    reductions = _count_calls(monkeypatch, substrate_module, "kron_reduce")
    sweep = runner.run(_widths_campaign(sweep_options, scales=(1.0, 1.5)))
    assert reductions[0] == 0
    assert sweep.cache_hits == 1 and sweep.cache_misses == 1
    assert sweep.variants[1].flow.substrate \
        is sweep.variants[0].flow.substrate
    counters = sweep.telemetry["metrics"]["counters"]
    assert counters["extraction.substrate_reuses"] == 1


def test_substrate_reuse_graph_paths_match_serial(technology, sweep_options,
                                                  tmp_path):
    campaign = _widths_campaign(sweep_options)
    serial = SweepRunner(technology, cache=ExtractionCache()).run(campaign)
    for backend in (ProcessPoolBackend(max_workers=1),
                    ProcessPoolBackend(max_workers=2)):
        cache_dir = tmp_path / f"w{backend.max_workers}"
        graph = SweepRunner(technology, backend=backend,
                            cache=DiskExtractionCache(cache_dir)).run(campaign)
        assert not graph.failures and graph.cache_misses == 2
        np.testing.assert_array_equal(graph.column("spur_power_dbm"),
                                      serial.column("spur_power_dbm"))
        follower = graph.variants[1].flow
        assert follower.timings.kron_reduction == 0.0
        assert follower.solver_stats.factorizations == 0
        np.testing.assert_array_equal(
            follower.substrate.macromodel.admittance,
            serial.variants[1].flow.substrate.macromodel.admittance)
        assert graph.telemetry["metrics"]["counters"][
            "extraction.substrate_reuses"] == 1
        # Both variants were stored under their own keys.
        again = SweepRunner(technology, backend=backend,
                            cache=DiskExtractionCache(cache_dir)).run(campaign)
        assert again.cache_misses == 0 and again.cache_hits == 2
        np.testing.assert_array_equal(again.column("spur_power_dbm"),
                                      serial.column("spur_power_dbm"))


class _SabotagedExtraction:
    """Fires the plan's faults at extractions, matched by variant index."""

    def __init__(self, plan: FaultPlan, fn):
        self.plan = plan
        self.fn = fn

    def __call__(self, task):
        self.plan.inject(SimpleNamespace(index=task.variant_index))
        return self.fn(task)


class _FailLeader(ProcessPoolBackend):
    """A scheduler with the plan injected into extraction items."""

    def __init__(self, plan: FaultPlan, max_workers: int):
        super().__init__(max_workers=max_workers)
        self.plan = plan

    def run(self, items, **kwargs):
        items = [replace(item, fn=_SabotagedExtraction(self.plan, item.fn))
                 if isinstance(item.payload, ExtractionTask) else item
                 for item in items]
        return super().run(items, **kwargs)


def _FailLeaderSerial(plan: FaultPlan) -> _FailLeader:
    """The sabotaged scheduler at one worker: the plan runs inline."""
    return _FailLeader(plan, max_workers=1)


def _FailLeaderGraph(plan: FaultPlan) -> _FailLeader:
    """The sabotaged scheduler at two workers: the plan runs on the pool."""
    return _FailLeader(plan, max_workers=2)


@pytest.mark.parametrize("backend_cls", [_FailLeaderSerial, _FailLeaderGraph])
@pytest.mark.parametrize("policy", ["skip", "retry_then_skip"])
def test_failed_leader_fails_its_followers_corners(technology, sweep_options,
                                                   tmp_path, backend_cls,
                                                   policy):
    campaign = _widths_campaign(sweep_options)
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=0, attempts=99),))
    runner = SweepRunner(technology, backend=backend_cls(plan),
                         cache=ExtractionCache(), on_error=policy)
    partial = runner.run(campaign)
    assert not partial.records
    assert len(partial.failures) == 2          # one corner per variant
    assert {f.variant_index for f in partial.failures} == {0, 1}
    for failure in partial.failures:
        assert failure.error_type == "InjectedFault"
        assert failure.corner_label.startswith("extraction of variant 0")

    resumed = SweepRunner(technology, cache=runner.cache).run(
        campaign, resume_from=partial)
    assert resumed.complete and len(resumed.records) == 4
    healthy = SweepRunner(technology).run(campaign)
    np.testing.assert_array_equal(resumed.column("spur_power_dbm"),
                                  healthy.column("spur_power_dbm"))


@pytest.mark.parametrize("backend_cls", [_FailLeaderSerial, _FailLeaderGraph])
def test_failed_leader_aborts_naming_the_leader(technology, sweep_options,
                                                tmp_path, backend_cls):
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=0, attempts=99),))
    runner = SweepRunner(technology, backend=backend_cls(plan),
                         cache=ExtractionCache())
    with pytest.raises(CampaignError, match="extraction of variant 0"):
        runner.run(_widths_campaign(sweep_options))


def _two_group_campaign(sweep_options) -> Campaign:
    """Two substrates x two ground widths: variants 0 and 1 lead (mesh 16
    and 14), 2 and 3 follow them (the widened ground of each mesh)."""
    return Campaign(
        name="two_groups",
        space=ParamSpace({"ground_width_scale": (1.0, 2.0),
                          "mesh_nx": (16, 14), "vtune": (0.0,),
                          "noise_frequency": (1e6, 4e6)}),
        options=sweep_options)


def test_two_leader_groups_match_serial_and_fail_apart(technology,
                                                       sweep_options,
                                                       tmp_path):
    campaign = _two_group_campaign(sweep_options)
    serial = SweepRunner(technology, cache=ExtractionCache()).run(campaign)
    pooled = SweepRunner(technology,
                         backend=ProcessPoolBackend(max_workers=2),
                         cache=DiskExtractionCache(tmp_path / "cold"),
                         ).run(campaign)
    for sweep in (serial, pooled):
        assert not sweep.failures and sweep.cache_misses == 4
        assert sweep.telemetry["metrics"]["counters"][
            "extraction.substrate_reuses"] == 2
        for name, column in serial.columns.items():
            np.testing.assert_array_equal(sweep.columns[name], column, name)
        for follower, leader in ((2, 0), (3, 1)):
            flow = sweep.variants[follower].flow
            assert flow.timings.kron_reduction == 0.0
            np.testing.assert_array_equal(
                flow.substrate.macromodel.admittance,
                sweep.variants[leader].flow.substrate.macromodel.admittance)
    for follower, leader in ((2, 0), (3, 1)):
        assert serial.variants[follower].flow.substrate \
            is serial.variants[leader].flow.substrate

    # Only leader 0 fails: its group's corners carry its error, the other
    # group completes bit-identical to the healthy run.
    plan = FaultPlan(state_dir=str(tmp_path / "state"),
                     specs=(FaultSpec("raise", task_index=0, attempts=99),))
    partial = SweepRunner(technology, backend=_FailLeaderGraph(plan),
                          cache=ExtractionCache(), on_error="skip",
                          ).run(campaign)
    assert sorted(f.variant_index for f in partial.failures) == [0, 2]
    for failure in partial.failures:
        assert failure.error_type == "InjectedFault"
        assert failure.corner_label.startswith("extraction of variant 0")
    other_group = serial.subset(np.isin(serial.column("variant"), (1, 3)))
    for name, column in other_group.columns.items():
        np.testing.assert_array_equal(partial.columns[name], column, name)
