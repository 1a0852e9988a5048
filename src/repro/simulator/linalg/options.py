"""Declarative configuration of the pluggable linear-solver layer.

:class:`SolverOptions` is the one object that travels from campaign configs
(the ``[solver]`` TOML table) down through :class:`~repro.core.flow.FlowOptions`
into every analysis: it picks the backend, an optional gmin override and the
per-frequency AC fan-out, and — because it is a plain frozen dataclass of
primitives — participates in the studies extraction-cache key and the
persisted result sidecars without any extra plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import SimulationError

#: Direct sparse LU (SuperLU) — the reference backend, always correct.
BACKEND_DIRECT = "direct"
#: Geometric multigrid on the structured (nx, ny, nz) substrate grid for the
#: Kron reduction's SPD mesh block, falling back to a direct SPD
#: factorization if it fails; every other system is solved by direct LU.
BACKEND_MULTIGRID = "multigrid"

BACKENDS = (BACKEND_DIRECT, BACKEND_MULTIGRID)

#: How ``ac_workers`` shards the frequency points of one AC sweep:
#: "thread" fans out over worker threads inside the calling process (the
#: historical behaviour, zero setup cost), "process" ships frequency blocks
#: to the shared worker-process pool through shared memory (sidesteps the
#: GIL on the pure-python assembly; falls back to threads inside a pool
#: worker, where nesting executors is forbidden).
AC_MODES = ("thread", "process")


@dataclass(frozen=True)
class SolverOptions:
    """Backend choice and AC fan-out of the linear-solver layer.

    The defaults reproduce the historical behaviour exactly: direct LU
    everywhere, serial AC sweeps, analysis-supplied gmin.

    ``ac_workers`` and ``ac_mode`` are pure parallelism knobs with no
    influence on results — the fan-out is bit-identical to the serial sweep
    by construction — so they are excluded from content fingerprints
    (extraction-cache keys, campaign resume identity) via
    ``__fingerprint_exclude__``.  Every future scheduler knob must join this
    tuple: parallelism must never invalidate the extraction cache.
    """

    __fingerprint_exclude__ = ("ac_workers", "ac_mode")

    #: one of :data:`BACKENDS`
    backend: str = BACKEND_DIRECT
    #: overrides the per-analysis gmin regularisation when set (siemens)
    gmin: float | None = None
    #: workers sharding the frequency points of one AC sweep
    ac_workers: int = 1
    #: executor of the AC fan-out, one of :data:`AC_MODES`
    ac_mode: str = "thread"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise SimulationError(
                f"unknown solver backend {self.backend!r}; "
                f"choose one of {', '.join(BACKENDS)}")
        if self.gmin is not None and self.gmin < 0.0:
            raise SimulationError("solver gmin must be >= 0")
        if self.ac_workers < 1:
            raise SimulationError("ac_workers must be >= 1")
        if self.ac_mode not in AC_MODES:
            raise SimulationError(
                f"unknown ac_mode {self.ac_mode!r}; "
                f"choose one of {', '.join(AC_MODES)}")

    def effective_gmin(self, analysis_default: float) -> float:
        """The gmin to use: this object's override, or the analysis default."""
        return analysis_default if self.gmin is None else self.gmin
