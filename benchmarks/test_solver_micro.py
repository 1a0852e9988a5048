"""Solver-core micro-benchmarks: stamping, transient stepping, AC sweeping.

These time three solver hot paths on a 24x24 resistor grid (577 unknowns),
independently of the full extraction flow:

* MNA stamping of the grid (COO triplet accumulation and the CSR build),
* the linear transient step loop (one cached LU factorization + per-step
  triangular solves),
* a 64-point small-signal transfer sweep from the corner source to every
  node (shared G/C sparsity pattern, per-point ``.data`` assembly).

577 unknowns is far above the dense cutoff
(:data:`repro.simulator.solver.DENSE_MAX_SIZE`), so every system here is
assembled sparse and factorized by SuperLU; the dense LAPACK kernel that
solves the small impact netlists is timed end to end by the perfbench
``sweep_warm_56`` workload instead.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_solver_micro.py -s``.
"""

import time

import numpy as np

from repro.netlist import Circuit, SourceValue
from repro.simulator import (
    dc_operating_point,
    transfer_functions,
    transient_analysis,
)
from repro.simulator.mna import MnaStructure, stamp_linear_elements
from repro.simulator.solver import stats

from _report import print_table

#: Lateral size of the resistor-grid benchmark circuit (nodes = SIZE**2).
GRID_SIZE = 24


def _grid_circuit(size: int = GRID_SIZE) -> Circuit:
    """A size x size resistor grid with a source in one corner — a stand-in
    for the merged impact netlist's substrate resistor network."""
    circuit = Circuit("grid")
    circuit.add_voltage_source(
        "V1", "n_0_0", "0",
        SourceValue(dc=1.0, waveform=lambda t: 1.0))
    for i in range(size):
        for j in range(size):
            node = f"n_{i}_{j}"
            if i + 1 < size:
                circuit.add_resistor(f"Rx_{i}_{j}", node, f"n_{i + 1}_{j}", 100.0)
            if j + 1 < size:
                circuit.add_resistor(f"Ry_{i}_{j}", node, f"n_{i}_{j + 1}", 100.0)
            circuit.add_capacitor(f"C_{i}_{j}", node, "0", 1e-13)
    circuit.add_resistor("Rgnd", f"n_{size - 1}_{size - 1}", "0", 100.0)
    return circuit


def run_solver_micro_stages() -> dict[str, float]:
    """Time the three solver hot paths once on the grid circuit.

    Shared by the pytest report below and ``run_bench.py``'s snapshot so the
    two records cannot drift apart.  Returns stage -> wall-clock seconds plus
    the system size under ``unknowns``.
    """
    circuit = _grid_circuit()
    structure = MnaStructure.from_circuit(circuit)

    start = time.perf_counter()
    stamp_linear_elements(circuit, structure).conductance_system()
    stamp_seconds = time.perf_counter() - start

    operating_point = dc_operating_point(circuit)
    start = time.perf_counter()
    transient_analysis(circuit, t_stop=4e-7, timestep=1e-9,
                       operating_point=operating_point)
    transient_seconds = time.perf_counter() - start

    start = time.perf_counter()
    transfer_functions(circuit, ["V1"], circuit.nodes(), np.logspace(4, 9, 64))
    ac_seconds = time.perf_counter() - start

    return {
        "unknowns": structure.size,
        "stamping_seconds": stamp_seconds,
        "transient_400_steps_seconds": transient_seconds,
        "ac_sweep_64_points_seconds": ac_seconds,
    }


def test_stamping_micro_benchmark(benchmark):
    circuit = _grid_circuit()
    structure = MnaStructure.from_circuit(circuit)

    def stamp():
        stamper = stamp_linear_elements(circuit, structure)
        return stamper.conductance_system()

    matrix = benchmark(stamp)
    assert matrix.nnz > 0


def test_transient_micro_benchmark(benchmark):
    circuit = _grid_circuit()
    operating_point = dc_operating_point(circuit)
    n_steps = 400

    def run():
        stats.reset()
        return transient_analysis(circuit, t_stop=n_steps * 1e-9,
                                  timestep=1e-9,
                                  operating_point=operating_point)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert stats.factorizations == 1          # cached LU across all steps
    assert len(result.times) == n_steps + 1


def test_ac_sweep_micro_benchmark(benchmark):
    circuit = _grid_circuit()
    frequencies = np.logspace(4, 9, 64)
    nodes = circuit.nodes()

    def run():
        return transfer_functions(circuit, ["V1"], nodes, frequencies)["V1"]

    transfer = benchmark.pedantic(run, rounds=3, iterations=1)
    assert transfer.nodes() == nodes
    assert transfer.transfers[nodes[0]].shape == frequencies.shape


def test_solver_micro_report():
    """One-shot wall-clock table of the three micro-benchmarks."""
    stages = run_solver_micro_stages()
    print_table(
        f"Solver micro-benchmarks ({GRID_SIZE}x{GRID_SIZE} grid, "
        f"{stages['unknowns']} unknowns)",
        [
            {"stage": "stamping + CSR build",
             "seconds": stages["stamping_seconds"]},
            {"stage": "transient (400 steps)",
             "seconds": stages["transient_400_steps_seconds"]},
            {"stage": "AC sweep (64 points)",
             "seconds": stages["ac_sweep_64_points_seconds"]},
        ])
    assert stages["stamping_seconds"] < 5.0
    assert stages["transient_400_steps_seconds"] < 30.0
    assert stages["ac_sweep_64_points_seconds"] < 30.0
