"""Declarative configuration of the pluggable linear-solver layer.

:class:`SolverOptions` is the one object that travels from campaign configs
(the ``[solver]`` TOML table) down through :class:`~repro.core.flow.FlowOptions`
into every analysis: it picks the backend and an optional gmin override,
and — because it is a plain frozen dataclass of primitives — participates in
the studies extraction-cache key and the persisted result sidecars without
any extra plumbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...errors import SimulationError

#: Direct sparse LU (SuperLU) — the reference backend, always correct.
BACKEND_DIRECT = "direct"

BACKENDS = (BACKEND_DIRECT,)


@dataclass(frozen=True)
class SolverOptions:
    """Backend choice and gmin override of the linear-solver layer.

    The defaults reproduce the historical behaviour exactly: direct LU
    everywhere, analysis-supplied gmin.
    """

    #: one of :data:`BACKENDS`
    backend: str = BACKEND_DIRECT
    #: overrides the per-analysis gmin regularisation when set (siemens)
    gmin: float | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise SimulationError(
                f"unknown solver backend {self.backend!r}; "
                f"choose one of {', '.join(BACKENDS)}")
        if self.gmin is not None and not (math.isfinite(self.gmin)
                                          and self.gmin >= 0.0):
            raise SimulationError(
                f"solver gmin must be finite and >= 0, got {self.gmin!r}")

    def effective_gmin(self, analysis_default: float) -> float:
        """The gmin to use: this object's override, or the analysis default."""
        return analysis_default if self.gmin is None else self.gmin
