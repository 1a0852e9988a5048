"""Shared fixtures.

Extraction flows are expensive (seconds each), so the integration fixtures are
session-scoped and use a deliberately coarse substrate mesh: the unit and
integration tests check behaviour and invariants, while the benchmarks use the
calibrated default resolution to regenerate the paper's figures.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


_DEAD_HOLDER = """
import os, sys
from repro.studies import DiskExtractionCache

cache_dir, which = sys.argv[1:3]
cache = DiskExtractionCache(cache_dir)

def die():
    # Killed while holding the lock: no cleanup of any kind runs.
    open(os.path.join(cache_dir, "died-holding-it"), "w").close()
    os._exit(137)

if which == "claim":
    cache.extract_with_claim("ab" + "0" * 62, die)
else:
    with cache.maintenance_lock():
        die()
"""


def _die_holding(cache_dir: Path, which: str) -> None:
    """Run a child that takes a store lock and dies with ``os._exit``.

    ``which`` is ``"claim"`` (the extraction claim of the key ``"ab" +
    "0" * 62``) or ``"maintenance"`` (the cache-wide maintenance lock).
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("REPRO_CRASH_POINTS", None)
    proc = subprocess.run(
        [sys.executable, "-c", _DEAD_HOLDER, str(cache_dir), which],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 137, proc.stderr
    assert (Path(cache_dir) / "died-holding-it").exists()


@pytest.fixture(scope="session")
def die_holding():
    """Kill a child process while it holds a store lock (see above)."""
    return _die_holding


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
