"""Shared fixtures.

Extraction flows are expensive (seconds each), so the integration fixtures are
session-scoped and use a deliberately coarse substrate mesh: the unit and
integration tests check behaviour and invariants, while the benchmarks use the
calibrated default resolution to regenerate the paper's figures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flow import FlowOptions, run_extraction_flow
from repro.core.nmos import NmosExperimentOptions, run_nmos_experiment
from repro.core.vco_experiment import VcoExperimentOptions, VcoImpactAnalysis
from repro.layout.testchips import (
    make_nmos_measurement_structure,
    make_vco_testchip,
)
from repro.parallel import WorkItem
from repro.substrate.extraction import SubstrateExtractionOptions
from repro.technology import make_technology


def _run_in_task_order(scheduler, fn, tasks, **kwargs):
    """``scheduler.run`` over a flat task list, outcomes in task order.

    Task ``i`` becomes the dependency-free work item ``str(i)``, so its
    attempt count reads ``scheduler.attempts[str(i)]``.
    """
    items = [WorkItem(id=str(index), fn=fn, payload=task)
             for index, task in enumerate(tasks)]
    outcomes = scheduler.run(items, **kwargs)
    return [outcomes[str(index)] for index in range(len(tasks))]


@pytest.fixture(scope="session")
def run_tasks():
    """Run ``fn`` over a flat task list on a scheduler (see above)."""
    return _run_in_task_order


@pytest.fixture(scope="session")
def technology():
    return make_technology()


@pytest.fixture(scope="session")
def coarse_flow_options():
    """Coarse-mesh flow options used to keep integration tests fast."""
    return FlowOptions(substrate=SubstrateExtractionOptions(
        nx=20, ny=20, n_z_per_layer=2, lateral_margin=80e-6))


@pytest.fixture(scope="session")
def nmos_cell():
    return make_nmos_measurement_structure()


@pytest.fixture(scope="session")
def vco_cell():
    return make_vco_testchip()


@pytest.fixture(scope="session")
def nmos_flow(technology, nmos_cell, coarse_flow_options):
    return run_extraction_flow(nmos_cell, technology, options=coarse_flow_options)


@pytest.fixture(scope="session")
def vco_flow(technology, vco_cell, coarse_flow_options):
    return run_extraction_flow(vco_cell, technology, options=coarse_flow_options)


@pytest.fixture(scope="session")
def nmos_result(technology, coarse_flow_options):
    options = NmosExperimentOptions(bias_points=(0.5, 1.05, 1.6),
                                    flow=coarse_flow_options)
    return run_nmos_experiment(technology, options=options)


@pytest.fixture(scope="session")
def vco_analysis(technology, coarse_flow_options):
    options = VcoExperimentOptions(
        vtune_values=(0.0, 0.75),
        noise_frequencies=tuple(float(f) for f in
                                np.logspace(np.log10(3e5), np.log10(15e6), 5)),
        flow=coarse_flow_options)
    return VcoImpactAnalysis(technology, options=options)
