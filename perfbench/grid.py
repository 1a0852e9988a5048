"""Seeded sweep grids drawn from fixed V_tune / noise-frequency lattices.

Every workload sweeps a subset of two fixed lattices spanning the paper's
ranges (V_tune 0-1.5 V, f_noise 100 kHz-15 MHz).  The seed only chooses
*which* lattice points a run uses, so the committed direct-LU reference
(``reference.json``, one spur level per lattice point) covers every seed,
while different seeds still exercise different grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VTUNE_RANGE = (0.0, 1.5)            #: volts
FNOISE_RANGE = (100e3, 15e6)        #: hertz
LATTICE_SIZE = 49


def vtune_lattice() -> np.ndarray:
    """Linearly spaced tuning voltages over :data:`VTUNE_RANGE`."""
    return np.linspace(*VTUNE_RANGE, LATTICE_SIZE)


def fnoise_lattice() -> np.ndarray:
    """Log-spaced noise frequencies over :data:`FNOISE_RANGE`."""
    low, high = np.log10(FNOISE_RANGE[0]), np.log10(FNOISE_RANGE[1])
    return np.logspace(low, high, LATTICE_SIZE)


@dataclass(frozen=True)
class Grid:
    """Sorted lattice indices of one run's V_tune and f_noise axes."""

    vtune_index: tuple[int, ...]
    fnoise_index: tuple[int, ...]

    @property
    def vtunes(self) -> tuple[float, ...]:
        lattice = vtune_lattice()
        return tuple(float(lattice[i]) for i in self.vtune_index)

    @property
    def frequencies(self) -> tuple[float, ...]:
        lattice = fnoise_lattice()
        return tuple(float(lattice[i]) for i in self.fnoise_index)


def seeded_grid(seed: int, n_vtune: int, n_fnoise: int,
                vtune_candidates=range(LATTICE_SIZE)) -> Grid:
    """Choose ``n_vtune`` x ``n_fnoise`` distinct lattice points from ``seed``.

    ``vtune_candidates`` restricts the V_tune draw to those lattice indices.
    """
    candidates = np.asarray(vtune_candidates, dtype=int)
    if not (1 <= n_vtune <= candidates.size and 2 <= n_fnoise <= LATTICE_SIZE):
        raise ValueError("grid size outside the lattice")
    rng = np.random.default_rng(seed)
    vtune = np.sort(rng.choice(candidates, size=n_vtune, replace=False))
    fnoise = np.sort(rng.choice(LATTICE_SIZE, size=n_fnoise, replace=False))
    return Grid(tuple(int(i) for i in vtune), tuple(int(i) for i in fnoise))
