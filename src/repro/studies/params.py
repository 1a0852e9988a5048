"""Declarative parameter spaces and sweep campaigns.

A design study in the paper's sense (Figures 8-10) is a grid of independent
spur analyses: spur power evaluated over noise frequency, tuning voltage,
aggressor amplitude and layout variants (ground-grid width, mesh density).
This module describes such a study *declaratively*:

* :class:`ParamSpace` — named axes and their values, expanded into a full
  cartesian grid.
* :class:`Campaign` — a parameter space bound to the VCO test chip
  (a base :class:`~repro.layout.testchips.VcoLayoutSpec` and experiment
  options), resolved into layout *variants* (points that require their own
  extraction) times simulation points (points that reuse the same extracted
  model).

Axis names fall into three groups:

* simulation axes — ``noise_frequency`` [Hz], ``vtune`` [V] and
  ``injected_power_dbm`` [dBm]; these never invalidate the extraction,
* layout axes — any field of :class:`~repro.layout.testchips.VcoLayoutSpec`
  (``ground_width_scale``, ``nmos_width``, ...); each distinct combination is
  a new layout variant with its own extraction,
* mesh axes — ``mesh_nx``, ``mesh_ny``, ``mesh_n_z_per_layer``,
  ``mesh_max_depth`` and ``mesh_lateral_margin``, mapped onto
  :class:`~repro.substrate.extraction.SubstrateExtractionOptions`; these also
  re-extract, since the substrate macromodel depends on the mesh.

Axes that are not listed fall back to the campaign's experiment options
(``vtune_values``, ``noise_frequencies``, ``injected_power_dbm``), so a
campaign is "options plus the axes you want to sweep".
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from ..core.flow import FlowOptions
from ..errors import AnalysisError, finite_numbers
from ..layout.cell import Cell
from ..layout.testchips import VcoLayoutSpec, make_vco_testchip
from ..substrate.extraction import SubstrateExtractionOptions

if TYPE_CHECKING:
    from ..core.vco_experiment import VcoExperimentOptions

#: Reserved simulation-axis names (never invalidate the extraction).
AXIS_NOISE_FREQUENCY = "noise_frequency"
AXIS_VTUNE = "vtune"
AXIS_INJECTED_POWER = "injected_power_dbm"
SIM_AXES = (AXIS_NOISE_FREQUENCY, AXIS_VTUNE, AXIS_INJECTED_POWER)

#: Mesh-axis names and the SubstrateExtractionOptions field each one drives.
MESH_AXES: dict[str, str] = {
    "mesh_nx": "nx",
    "mesh_ny": "ny",
    "mesh_n_z_per_layer": "n_z_per_layer",
    "mesh_max_depth": "max_depth",
    "mesh_lateral_margin": "lateral_margin",
}


def _layout_axis_names() -> tuple[str, ...]:
    return tuple(f.name for f in fields(VcoLayoutSpec))


def _integer_axis_names() -> frozenset[str]:
    """The axes whose field takes an integer: the mesh counts
    (``mesh_nx``, ``mesh_ny``, ``mesh_n_z_per_layer``) and the integer
    layout fields (``fingers``, ...)."""
    def integer(field) -> bool:
        return field.type in (int, "int")

    substrate = {f.name: f for f in fields(SubstrateExtractionOptions)}
    return frozenset(
        {axis for axis, name in MESH_AXES.items() if integer(substrate[name])}
        | {f.name for f in fields(VcoLayoutSpec) if integer(f)})


@dataclass(frozen=True)
class ParamSpace:
    """Named sweep axes expanded into a cartesian grid.

    ``axes`` maps an axis name to the tuple of values it takes; insertion
    order is the nesting order of the grid (last axis varies fastest).
    Every value must be a finite number (a bool is not one), and an
    integer on the axes whose field takes one (the mesh counts and the
    integer layout fields).
    """

    axes: Mapping[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        known = set(SIM_AXES) | set(MESH_AXES) | set(_layout_axis_names())
        integer_axes = _integer_axis_names()
        normalized: dict[str, tuple[float, ...]] = {}
        for name, values in self.axes.items():
            if name not in known:
                raise AnalysisError(
                    f"unknown sweep axis {name!r}; simulation axes are "
                    f"{sorted(SIM_AXES)}, mesh axes {sorted(MESH_AXES)}, "
                    f"layout axes are the VcoLayoutSpec fields")
            values = finite_numbers(f"sweep axis {name!r}", tuple(values))
            if not values:
                raise AnalysisError(f"sweep axis {name!r} has no values")
            if name in integer_axes:
                for value in values:
                    if not isinstance(value, numbers.Integral):
                        raise AnalysisError(
                            f"sweep axis {name!r}: every value must be an "
                            f"integer, got {value!r}")
            normalized[name] = values
        object.__setattr__(self, "axes", normalized)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(values) for values in self.axes.values())

    @property
    def size(self) -> int:
        size = 1
        for n in self.shape:
            size *= n
        return size

    def __len__(self) -> int:
        return self.size

    def grid(self) -> Iterator[dict[str, float]]:
        """All grid points as ``{axis: value}`` dicts, last axis fastest."""
        names = self.names
        for combo in itertools.product(*self.axes.values()):
            yield dict(zip(names, combo))

    def subspace(self, names: Sequence[str]) -> "ParamSpace":
        """The axes of ``names`` that are present, in this space's order."""
        return ParamSpace({name: values for name, values in self.axes.items()
                           if name in names})


@dataclass(frozen=True)
class LayoutVariant:
    """One layout/mesh combination of a campaign (one extraction)."""

    index: int
    knobs: dict[str, float]          #: layout + mesh axis values of this variant
    spec: VcoLayoutSpec
    flow_options: FlowOptions


@dataclass(frozen=True)
class Campaign:
    """A declarative sweep campaign over one test-chip family.

    The campaign binds a :class:`ParamSpace` to a base layout spec and the
    experiment options; :meth:`variants` resolves the layout/mesh axes into
    concrete extraction targets while :meth:`sim_grid` resolves the
    simulation axes (falling back to the options for axes not swept).
    """

    name: str
    space: ParamSpace
    base_spec: VcoLayoutSpec = field(default_factory=VcoLayoutSpec)
    #: experiment options supplying defaults for axes that are not swept
    options: "VcoExperimentOptions | None" = None

    def __post_init__(self) -> None:
        if self.options is None:
            from ..core.vco_experiment import VcoExperimentOptions

            object.__setattr__(self, "options", VcoExperimentOptions())

    # -- axis classification -------------------------------------------------

    def layout_axes(self) -> ParamSpace:
        return self.space.subspace(_layout_axis_names())

    def mesh_axes(self) -> ParamSpace:
        return self.space.subspace(tuple(MESH_AXES))

    # -- resolution ----------------------------------------------------------

    def variants(self) -> list[LayoutVariant]:
        """All layout/mesh combinations, each needing its own extraction."""
        layout = self.layout_axes()
        mesh = self.mesh_axes()
        variants: list[LayoutVariant] = []
        for layout_knobs in layout.grid() if layout.axes else [{}]:
            for mesh_knobs in mesh.grid() if mesh.axes else [{}]:
                spec = replace(self.base_spec, **layout_knobs) \
                    if layout_knobs else self.base_spec
                substrate = self.options.flow.substrate
                if mesh_knobs:
                    substrate = replace(substrate, **{
                        MESH_AXES[name]: value
                        for name, value in mesh_knobs.items()})
                flow_options = replace(self.options.flow, substrate=substrate)
                variants.append(LayoutVariant(
                    index=len(variants),
                    knobs={**layout_knobs, **mesh_knobs},
                    spec=spec, flow_options=flow_options))
        return variants

    def build_cell(self, variant: LayoutVariant) -> Cell:
        return make_vco_testchip(variant.spec)

    def sim_grid(self) -> tuple[tuple[float, ...], tuple[float, ...],
                                tuple[float, ...]]:
        """Resolved ``(injected powers, vtune values, noise frequencies)``."""
        powers = self.space.axes.get(
            AXIS_INJECTED_POWER, (self.options.injected_power_dbm,))
        vtunes = self.space.axes.get(AXIS_VTUNE, self.options.vtune_values)
        frequencies = self.space.axes.get(
            AXIS_NOISE_FREQUENCY, self.options.noise_frequencies)
        return tuple(powers), tuple(vtunes), tuple(frequencies)

    def resolved_axes(self) -> dict[str, tuple[float, ...]]:
        """All axes with their values, including option-supplied defaults."""
        powers, vtunes, frequencies = self.sim_grid()
        axes: dict[str, tuple[float, ...]] = {}
        axes.update(self.layout_axes().axes)
        axes.update(self.mesh_axes().axes)
        axes[AXIS_INJECTED_POWER] = powers
        axes[AXIS_VTUNE] = vtunes
        axes[AXIS_NOISE_FREQUENCY] = frequencies
        return axes

    @property
    def n_points(self) -> int:
        """Total number of (variant x power x vtune x frequency) grid points."""
        powers, vtunes, frequencies = self.sim_grid()
        n_variants = max(len(self.layout_axes()), 1) * max(len(self.mesh_axes()), 1)
        return n_variants * len(powers) * len(vtunes) * len(frequencies)

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the campaign's grid, layout and options.

        Two campaigns with the same axes, base spec and experiment options
        fingerprint identically whichever process built them; persisted
        results record it so a ``resume`` can refuse to mix campaigns.
        """
        from .cache import fingerprint as content_fingerprint

        return content_fingerprint(self.name, dict(self.space.axes),
                                   self.base_spec, self.options)

    def describe(self) -> dict:
        """JSON-serialisable description persisted alongside sweep results."""
        options = self.options
        return {
            "name": self.name,
            "fingerprint": self.fingerprint(),
            "axes": {name: list(values)
                     for name, values in self.space.axes.items()},
            "resolved_axes": {name: list(values)
                              for name, values in self.resolved_axes().items()},
            "base_spec": asdict(self.base_spec),
            "options": {
                "vtune_values": list(options.vtune_values),
                "noise_frequencies": list(options.noise_frequencies),
                "injected_power_dbm": options.injected_power_dbm,
                "source_impedance": options.source_impedance,
                "supply_voltage": options.supply_voltage,
                "tail_bias_voltage": options.tail_bias_voltage,
                "output_load": options.output_load,
                "substrate_mesh": asdict(options.flow.substrate),
                "solver": asdict(options.flow.solver),
            },
            "n_points": self.n_points,
        }
