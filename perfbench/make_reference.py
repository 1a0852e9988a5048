"""Regenerate ``perfbench/reference.json``: the direct-LU reference.

    python3 perfbench/make_reference.py

For both meshes the workloads use (56x56 and 96x96) and both ground-width
variants, it records the Kron admittance matrix and the total spur level at
every point of the V_tune x f_noise lattice (:mod:`perfbench.grid`), all
computed with ``SolverOptions(backend="direct")``.  It refuses to write a
reference on which the figure invariants the benchmark checks do not hold
for *every* seeded grid: each lattice curve must fall strictly, every
segment slope must lie within -20 +/- 4 dB/decade (so any subset's
least-squares slope does too), and at 96x96 every per-point Figure-10
reduction over the cold workload's V_tune range must lie inside the figure
test's window (so any mean does too).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from repro.simulator.linalg import SolverOptions  # noqa: E402
from repro.studies import (  # noqa: E402
    Campaign, ExtractionCache, ParamSpace, SerialBackend, SweepRunner)
from repro.technology import make_technology  # noqa: E402

from perfbench.check import (  # noqa: E402
    FIG8_SLOPE_DB_PER_DECADE, FIG8_SLOPE_TOL, REFERENCE_PATH)
from perfbench.grid import fnoise_lattice, vtune_lattice  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    FIG10_VTUNE_INDEX, GROUND_WIDTH_SCALES, experiment_options,
    extract_variants)

MESHES = (56, 96)


def lattice_table(mesh: int) -> tuple[np.ndarray, list]:
    """Spur levels [variant, vtune, fnoise] and the variants' flows."""
    technology = make_technology()
    options = experiment_options(mesh, solver=SolverOptions(backend="direct"))
    flows = extract_variants(technology, options)
    cache = ExtractionCache()
    for flow in flows:
        cache.seed(flow, options=options.flow)
    vtunes, frequencies = vtune_lattice(), fnoise_lattice()
    campaign = Campaign(
        name=f"reference_{mesh}",
        space=ParamSpace({"ground_width_scale": GROUND_WIDTH_SCALES,
                          "vtune": tuple(float(v) for v in vtunes),
                          "noise_frequency": tuple(float(f)
                                                   for f in frequencies)}),
        options=options)
    result = SweepRunner(technology, backend=SerialBackend(),
                         cache=cache).run(campaign)
    if result.failures or result.cache_misses:
        raise SystemExit(f"reference campaign at {mesh}x{mesh} incomplete")
    table = np.full((len(GROUND_WIDTH_SCALES), vtunes.size, frequencies.size),
                    np.nan)
    v_index = {float(v): i for i, v in enumerate(vtunes)}
    f_index = {float(f): i for i, f in enumerate(frequencies)}
    for record in result.records:
        table[record.variant_index, v_index[record.vtune],
              f_index[record.noise_frequency]] = record.spur_power_dbm
    if not np.all(np.isfinite(table)):
        raise SystemExit(f"reference table at {mesh}x{mesh} has holes")
    return table, flows


def check_invariants(mesh: int, table: np.ndarray, flows) -> None:
    decades = np.diff(np.log10(fnoise_lattice()))
    slopes = np.diff(table, axis=2) / decades
    low = FIG8_SLOPE_DB_PER_DECADE - FIG8_SLOPE_TOL
    high = FIG8_SLOPE_DB_PER_DECADE + FIG8_SLOPE_TOL
    print(f"{mesh}x{mesh}: segment slopes {slopes.min():.2f} .. "
          f"{slopes.max():.2f} dB/dec")
    if not (np.all(slopes < 0) and slopes.min() >= low
            and slopes.max() <= high):
        raise SystemExit(f"Figure-8 invariant fails on the {mesh}x{mesh} "
                         "lattice; narrow the lattice before committing")
    if mesh == 96:
        from repro.layout.testchips import NET_GROUND_PAD, NET_GROUND_RING

        ohms = [flow.interconnect.resistance_between(NET_GROUND_RING,
                                                     NET_GROUND_PAD)
                for flow in flows]
        ideal = 20.0 * np.log10(ohms[0] / ohms[1])
        reduction = (table[0] - table[1])[list(FIG10_VTUNE_INDEX)]
        print(f"96x96: per-point reduction {reduction.min():.2f} .. "
              f"{reduction.max():.2f} dB over the cold workload's V_tune "
              f"range (ideal {ideal:.2f} dB)")
        if not (reduction.min() > 2.0 and reduction.max() <= ideal + 0.5):
            raise SystemExit("Figure-10 invariant fails on the 96x96 lattice")


def main() -> None:
    meshes = {}
    for mesh in MESHES:
        table, flows = lattice_table(mesh)
        check_invariants(mesh, table, flows)
        meshes[str(mesh)] = {
            "ground_width_scales": list(GROUND_WIDTH_SCALES),
            "ports": list(flows[0].substrate.macromodel.ports),
            "admittance": [flow.substrate.macromodel.admittance.tolist()
                           for flow in flows],
            "spur_dbm": np.round(table, 6).tolist(),
        }
    payload = {
        "generator": "perfbench/make_reference.py",
        "solver_backend": "direct",
        "vtune_lattice": vtune_lattice().tolist(),
        "fnoise_lattice": fnoise_lattice().tolist(),
        "meshes": meshes,
    }
    REFERENCE_PATH.write_text(json.dumps(payload, separators=(",", ":"))
                              + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
