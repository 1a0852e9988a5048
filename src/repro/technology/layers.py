"""Layer definitions for the synthetic process technology.

A :class:`Layer` is a named drawing layer used by the layout model.  Layers
carry a ``purpose`` so the extractors can decide how to treat shapes on them:
metal wires become interconnect resistance/capacitance, diffusion and well
shapes become substrate ports, contacts/vias become vertical resistances, and
so on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import TechnologyError


class LayerPurpose(enum.Enum):
    """What the extraction flow should do with shapes drawn on a layer."""

    METAL = "metal"              #: routed interconnect (has sheet resistance)
    VIA = "via"                  #: vertical connection between two metal layers
    CONTACT = "contact"          #: metal-1 to diffusion / poly contact
    POLY = "poly"                #: polysilicon gate material
    DIFFUSION = "diffusion"      #: active area (source / drain)
    NWELL = "nwell"              #: n-well (PMOS bulk, varactor body)
    PWELL = "pwell"              #: p-well (explicit twin-well process)
    SUBSTRATE_TAP = "substrate_tap"  #: p+ tap connecting metal to bulk
    NPLUS = "nplus"              #: n+ implant
    PPLUS = "pplus"              #: p+ implant
    PAD = "pad"                  #: bond pad opening
    MARKER = "marker"            #: non-physical marker (device recognition)


@dataclass(frozen=True)
class Layer:
    """A single mask layer of the technology.

    Parameters
    ----------
    name:
        Unique layer name, e.g. ``"M1"`` or ``"NWELL"``.
    purpose:
        How extraction treats shapes on the layer.
    gds_number:
        Numeric identifier (kept for familiarity with GDS streams; unused by
        the extractors themselves).
    sheet_resistance:
        Sheet resistance in ohm/square for conducting layers (metal, poly,
        diffusion).  ``None`` for non-conducting layers.
    thickness:
        Physical layer thickness in metres (used for capacitance extraction).
    height_above_substrate:
        Height of the bottom of the layer above the silicon surface in metres.
        ``None`` for layers inside the silicon (wells, diffusion).
    """

    name: str
    purpose: LayerPurpose
    gds_number: int = 0
    sheet_resistance: float | None = None
    thickness: float | None = None
    height_above_substrate: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise TechnologyError("layer name must be non-empty")
        if self.sheet_resistance is not None and self.sheet_resistance <= 0:
            raise TechnologyError(
                f"layer {self.name}: sheet resistance must be positive, "
                f"got {self.sheet_resistance}")
        if self.thickness is not None and self.thickness <= 0:
            raise TechnologyError(
                f"layer {self.name}: thickness must be positive")

    @property
    def is_conductor(self) -> bool:
        """True if shapes on this layer carry current laterally."""
        return self.sheet_resistance is not None

    @property
    def is_metal(self) -> bool:
        return self.purpose is LayerPurpose.METAL


@dataclass(frozen=True)
class ViaDefinition:
    """Electrical description of a via or contact cut.

    Parameters
    ----------
    layer:
        The via/contact drawing layer.
    bottom / top:
        Names of the layers connected by the cut.
    resistance_per_cut:
        Resistance of a single cut in ohms.
    cut_size:
        Side length of a single square cut in metres.
    cut_pitch:
        Centre-to-centre spacing of cuts in an array, in metres.
    """

    layer: str
    bottom: str
    top: str
    resistance_per_cut: float
    cut_size: float
    cut_pitch: float

    def __post_init__(self) -> None:
        if self.resistance_per_cut <= 0:
            raise TechnologyError(
                f"via {self.layer}: resistance per cut must be positive")
        if self.cut_size <= 0 or self.cut_pitch <= 0:
            raise TechnologyError(
                f"via {self.layer}: cut size and pitch must be positive")
        if self.cut_pitch < self.cut_size:
            raise TechnologyError(
                f"via {self.layer}: cut pitch smaller than cut size")

    def cuts_in_area(self, width: float, height: float) -> int:
        """Number of cuts that fit in a ``width`` x ``height`` rectangle."""
        if width <= 0 or height <= 0:
            return 0
        # Small relative tolerance so e.g. 10 pitches of 0.56 um in a 5.6 um
        # opening are not rounded down to 9 by floating-point noise.
        nx = max(1, int(width / self.cut_pitch + 1e-9))
        ny = max(1, int(height / self.cut_pitch + 1e-9))
        return nx * ny

    def resistance_for_area(self, width: float, height: float) -> float:
        """Effective resistance of a via array filling the given rectangle."""
        cuts = self.cuts_in_area(width, height)
        if cuts == 0:
            raise TechnologyError("via array has zero cuts")
        return self.resistance_per_cut / cuts


@dataclass
class LayerStack:
    """Ordered collection of layers plus the via definitions between them."""

    layers: dict[str, Layer] = field(default_factory=dict)
    vias: dict[str, ViaDefinition] = field(default_factory=dict)

    def add_layer(self, layer: Layer) -> Layer:
        if layer.name in self.layers:
            raise TechnologyError(f"duplicate layer {layer.name!r}")
        self.layers[layer.name] = layer
        return layer

    def add_via(self, via: ViaDefinition) -> ViaDefinition:
        if via.layer in self.vias:
            raise TechnologyError(f"duplicate via definition {via.layer!r}")
        for end in (via.bottom, via.top):
            if end not in self.layers:
                raise TechnologyError(
                    f"via {via.layer} references unknown layer {end!r}")
        self.vias[via.layer] = via
        return via

    def __contains__(self, name: str) -> bool:
        return name in self.layers

    def __getitem__(self, name: str) -> Layer:
        try:
            return self.layers[name]
        except KeyError:
            raise TechnologyError(f"unknown layer {name!r}") from None

    def metal_layers(self) -> list[Layer]:
        """Metal layers ordered from lowest to highest above the substrate."""
        metals = [layer for layer in self.layers.values() if layer.is_metal]
        return sorted(metals, key=lambda layer: layer.height_above_substrate or 0.0)

    def via_between(self, lower: str, upper: str) -> ViaDefinition:
        """Find the via definition connecting two conducting layers."""
        for via in self.vias.values():
            if {via.bottom, via.top} == {lower, upper}:
                return via
        raise TechnologyError(f"no via between {lower!r} and {upper!r}")
