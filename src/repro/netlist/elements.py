"""Linear netlist elements and independent sources.

Each element carries its connectivity (node names), its value and knows how to
stamp its *topology* into an MNA system through the
:class:`~repro.netlist.stamping.Stamper` interface.  Source *values* depend on
the analysis (DC level, transient waveform), so a source's
:class:`SourceValue` exposes ``dc``, ``value_at(t)`` and ``sample(times)``
for the analyses to query, and a source's stamp carries none of it (a
voltage source stamps its branch incidence, a current source nothing);
small-signal transfers drive a source with a unit value and read none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import NetlistError
from .stamping import GROUND, Stamper


@dataclass
class Element:
    """Base class for all netlist elements."""

    name: str

    def nodes(self) -> tuple[str, ...]:
        """Names of the nodes this element connects to."""
        raise NotImplementedError

    def branches(self) -> tuple[str, ...]:
        """Extra MNA branch unknowns required by this element."""
        return ()

    def stamp(self, stamper: Stamper) -> None:
        """Stamp the element's linear, analysis-independent contributions."""
        raise NotImplementedError

    @property
    def is_nonlinear(self) -> bool:
        return False


@dataclass
class TwoTerminal(Element):
    """An element with exactly two terminals."""

    node_p: str = GROUND
    node_n: str = GROUND

    def nodes(self) -> tuple[str, ...]:
        return (self.node_p, self.node_n)


@dataclass
class Resistor(TwoTerminal):
    """Linear resistor; ``resistance`` in ohms must be positive."""

    resistance: float = 1.0

    def __post_init__(self) -> None:
        if self.resistance <= 0 or not math.isfinite(self.resistance):
            raise NetlistError(f"resistor {self.name}: invalid value {self.resistance}")

    @property
    def conductance(self) -> float:
        return 1.0 / self.resistance

    def stamp(self, stamper: Stamper) -> None:
        stamper.conductance(self.node_p, self.node_n, self.conductance)


@dataclass
class Capacitor(TwoTerminal):
    """Linear capacitor; ``capacitance`` in farads must be non-negative."""

    capacitance: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance < 0 or not math.isfinite(self.capacitance):
            raise NetlistError(f"capacitor {self.name}: invalid value {self.capacitance}")

    def stamp(self, stamper: Stamper) -> None:
        if self.capacitance > 0:
            stamper.capacitance(self.node_p, self.node_n, self.capacitance)


@dataclass
class Inductor(TwoTerminal):
    """Linear inductor; adds one branch-current unknown to the MNA system."""

    inductance: float = 1e-9

    def __post_init__(self) -> None:
        if self.inductance <= 0 or not math.isfinite(self.inductance):
            raise NetlistError(f"inductor {self.name}: invalid value {self.inductance}")

    def branches(self) -> tuple[str, ...]:
        return (self.name,)

    def stamp(self, stamper: Stamper) -> None:
        stamper.branch_inductor(self.name, self.node_p, self.node_n, self.inductance)


@dataclass
class VoltageControlledCurrentSource(Element):
    """Transconductance ``gm``: current ``gm*(v_cp - v_cn)`` from node_p to node_n."""

    node_p: str = GROUND
    node_n: str = GROUND
    ctrl_p: str = GROUND
    ctrl_n: str = GROUND
    gm: float = 0.0

    def nodes(self) -> tuple[str, ...]:
        return (self.node_p, self.node_n, self.ctrl_p, self.ctrl_n)

    def stamp(self, stamper: Stamper) -> None:
        stamper.vccs(self.node_p, self.node_n, self.ctrl_p, self.ctrl_n, self.gm)


@dataclass
class VoltageControlledVoltageSource(Element):
    """Ideal voltage gain element ``v(node_p)-v(node_n) = gain*(v_cp - v_cn)``."""

    node_p: str = GROUND
    node_n: str = GROUND
    ctrl_p: str = GROUND
    ctrl_n: str = GROUND
    gain: float = 1.0

    def nodes(self) -> tuple[str, ...]:
        return (self.node_p, self.node_n, self.ctrl_p, self.ctrl_n)

    def branches(self) -> tuple[str, ...]:
        return (self.name,)

    def stamp(self, stamper: Stamper) -> None:
        stamper.branch_vcvs(self.name, self.node_p, self.node_n,
                            self.ctrl_p, self.ctrl_n, self.gain)


Waveform = Callable[[float], float]


def vectorized_waveform(waveform: Waveform) -> Waveform:
    """Mark ``waveform`` as safe to evaluate on a whole time grid at once.

    :meth:`SourceValue.sample` only calls a waveform with an array when it
    carries this marker; unmarked callables are always evaluated one time
    point at a time, preserving per-step semantics for stateful waveforms
    (noise generators, playback iterators) that a probing array call would
    corrupt.
    """
    waveform.supports_time_grid = True      # type: ignore[attr-defined]
    return waveform


@dataclass
class SourceValue:
    """Analysis-dependent value of an independent source.

    ``dc`` is used by the operating-point analysis and ``waveform`` (a
    callable of time, seconds) drives transient analysis.  When no waveform is
    given the source holds its DC value during transient.  Small-signal
    transfers are unit-drive, so no small-signal value is kept.
    """

    dc: float = 0.0
    waveform: Waveform | None = None

    def value_at(self, time: float) -> float:
        if self.waveform is not None:
            return self.waveform(time)
        return self.dc

    def sample(self, times) -> np.ndarray:
        """Waveform samples over a whole time grid, shape ``times.shape``.

        Waveforms marked with :func:`vectorized_waveform` are evaluated in a
        single array call; every other callable is evaluated one time point
        at a time — never probed with an array — so stateful waveforms keep
        exact per-step semantics.  Either way the result is one dense array
        per source, which the transient analysis scatters into the RHS rows
        the source touches.
        """
        times = np.asarray(times, dtype=float)
        if self.waveform is None:
            return np.full(times.shape, self.dc)
        if getattr(self.waveform, "supports_time_grid", False):
            # The waveform gets a copy: one that mutates its argument in
            # place must not corrupt the caller's (shared) time grid.
            samples = np.asarray(self.waveform(times.copy()), dtype=float)
            if samples.shape != times.shape:
                raise NetlistError(
                    "vectorized waveform returned shape "
                    f"{samples.shape} for a {times.shape} time grid")
            return samples
        samples = np.array([float(self.waveform(float(t)))
                            for t in np.atleast_1d(times)])
        return samples.reshape(times.shape)

    @classmethod
    def sine(cls, amplitude: float, frequency: float, dc_offset: float = 0.0,
             phase_deg: float = 0.0) -> "SourceValue":
        """A sinusoidal source usable in DC (offset) and transient."""
        phase = math.radians(phase_deg)

        @vectorized_waveform
        def waveform(t):
            # np.sin keeps this waveform valid for scalars and whole time
            # grids alike, so transient sampling stays vectorized.
            return dc_offset + amplitude * np.sin(2.0 * math.pi * frequency * t + phase)

        return cls(dc=dc_offset, waveform=waveform)


@dataclass
class VoltageSource(TwoTerminal):
    """Independent voltage source (DC / AC / transient)."""

    value: SourceValue = field(default_factory=SourceValue)

    def branches(self) -> tuple[str, ...]:
        return (self.name,)

    def stamp(self, stamper: Stamper) -> None:
        # Only the branch incidence: analyses build the RHS entry for this
        # branch with the value they need (DC level, unit drive, v(t)).
        stamper.branch_voltage_source(self.name, self.node_p, self.node_n)


@dataclass
class CurrentSource(TwoTerminal):
    """Independent current source; positive current flows node_p -> node_n."""

    value: SourceValue = field(default_factory=SourceValue)

    def stamp(self, stamper: Stamper) -> None:
        # Nothing reaches G or C; analyses build the RHS from the value.
        pass
