"""Host-speed calibration of timed sections.

Shared benchmark hosts change speed by tens of percent within seconds when
neighbouring tenants load the same cores (process CPU time swings with the
wall clock, so CPU time is no escape): raw wall times of one workload taken
a minute apart differ more than any bound worth enforcing.  Every timed
section is therefore bracketed by samples of a fixed calibration kernel —
sparse LU of a small 2-D Laplacian plus an interpreter-bound dict loop,
numpy/scipy only, never ``repro`` — and scaled by
``(NOMINAL_KERNEL_S / median(kernel samples around it)) ** sensitivity``.
``sensitivity`` is how strongly a workload's wall time follows the kernel's
(the log-log slope measured across contended and quiet periods): ~1 for
interpreter-bound work, ~0.5 for large sparse factorizations and for the
2-worker pool.  Reported times are thus seconds at the calibration host's
idle speed (factor ~1 there), and no change to ``src/`` can move the kernel.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: Median kernel seconds on the idle calibration host (2.1 GHz Xeon, 2 vCPU).
NOMINAL_KERNEL_S = 0.010
#: Kernel samples taken before and after each timed section.
SAMPLES = 6


class Calibrator:
    """Times sections of work bracketed by calibration kernel samples."""

    def __init__(self, n: int = 60):
        line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self._matrix = (sp.kron(eye, line) + sp.kron(line, eye)).tocsc()
        self._rhs = np.ones(n * n)

    def kernel(self) -> float:
        start = time.perf_counter()
        spla.splu(self._matrix).solve(self._rhs)
        table: dict[int, float] = {}
        for i in range(20000):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        return time.perf_counter() - start

    def timed(self, fn, sensitivity: float, after=None):
        """Run ``fn()``; returns ``(result, raw seconds, normalized seconds)``.

        ``after()`` runs untimed before the closing kernel samples (it must
        stop what ``fn`` left running, e.g. forked workers whose shared pages
        would slow the samples down with copy-on-write faults).
        """
        samples = [self.kernel() for _ in range(SAMPLES)]
        start = time.perf_counter()
        try:
            result = fn()
            seconds = time.perf_counter() - start
        finally:
            if after is not None:
                after()
        samples += [self.kernel() for _ in range(SAMPLES)]
        factor = NOMINAL_KERNEL_S / statistics.median(samples)
        return result, seconds, seconds * factor ** sensitivity
