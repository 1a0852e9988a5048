"""Ablations called out in DESIGN.md.

* Substrate-mesh resolution versus the extracted ground transfer: the
  macromodel must converge (the ground-entry transfer should change by much
  less than it changes when the physical ground resistance changes).
* Ground-interconnect width sweep: generalisation of Figure 10 — the spur
  level falls monotonically as the ground wires get wider.
"""

import numpy as np

from repro.core.flow import FlowOptions
from repro.core.vco_experiment import VcoExperimentOptions, VcoImpactAnalysis
from repro.layout.testchips import NET_GROUND_PAD, NET_GROUND_RING, VcoLayoutSpec
from repro.substrate import SubstrateExtractionOptions

from _report import print_table


def _ground_transfer(technology, spec, nx):
    options = VcoExperimentOptions(
        vtune_values=(0.0,), noise_frequencies=(1e6,),
        flow=FlowOptions(substrate=SubstrateExtractionOptions(
            nx=nx, ny=nx, lateral_margin=60e-6)))
    analysis = VcoImpactAnalysis(technology, spec=spec, options=options)
    sweep, _vco, _catalog, _tf = analysis.analyze(0.0, np.array([1e6]))
    entry = sweep.entry_names.index("ground interconnect")
    return abs(sweep.h_sub[0, entry].item()), analysis


def test_ablation_mesh_resolution(benchmark, technology):
    spec = VcoLayoutSpec()
    transfers = {}
    for nx in (40, 56):
        transfers[nx], _ = _ground_transfer(technology, spec, nx)

    def finest():
        return _ground_transfer(technology, spec, 64)[0]

    transfers[64] = benchmark.pedantic(finest, rounds=1, iterations=1)

    rows = [{"mesh_nx": nx, "H_ground": h,
             "H_ground_db": 20 * np.log10(h)} for nx, h in transfers.items()]
    print_table("Ablation: substrate mesh resolution vs ground-entry transfer",
                rows)
    values = np.array(list(transfers.values()))
    # The ground-entry transfer is mesh-converged to within ~6 dB while the
    # physical ground-resistance knob (Figure 10) moves it by design.
    assert values.max() / values.min() < 2.0


def test_ablation_ground_width_sweep(benchmark, technology):
    """Generalised Figure 10: spur level falls monotonically with wire width."""
    levels = []
    resistances = []
    scales = (1.0, 2.0, 4.0)

    def analyse_scale(scale):
        spec = VcoLayoutSpec(ground_width_scale=scale)
        options = VcoExperimentOptions(
            vtune_values=(0.0,), noise_frequencies=(1e6,),
            flow=FlowOptions(substrate=SubstrateExtractionOptions(
                nx=40, ny=40, lateral_margin=60e-6)))
        analysis = VcoImpactAnalysis(technology, spec=spec, options=options)
        sweep, _vco, _catalog, _tf = analysis.analyze(0.0, np.array([1e6]))
        resistance = analysis.flow.interconnect.resistance_between(
            NET_GROUND_RING, NET_GROUND_PAD)
        return sweep.total_spur_power_dbm()[0].item(), resistance

    first_level, first_resistance = benchmark.pedantic(
        lambda: analyse_scale(scales[0]), rounds=1, iterations=1)
    levels.append(first_level)
    resistances.append(first_resistance)
    for scale in scales[1:]:
        level, resistance = analyse_scale(scale)
        levels.append(level)
        resistances.append(resistance)

    rows = [{"width_scale": s, "ground_resistance_ohm": r, "spur_dbm": l}
            for s, r, l in zip(scales, resistances, levels)]
    print_table("Ablation: ground-wire width sweep (1 MHz tone, V_tune = 0 V)",
                rows)
    assert resistances[0] > resistances[1] > resistances[2]
    assert levels[0] > levels[1] > levels[2]
