"""LC-tank VCO modelling: tuning, sensitivities and substrate-noise spurs."""

from .lctank import LcTankVco, VcoDesign
from .sensitivity import (
    ENTRY_GROUND,
    ENTRY_INDUCTOR,
    ENTRY_NMOS,
    ENTRY_PMOS_WELL,
    ENTRY_VARACTOR_WELL,
    EntryModel,
    VcoEntryCatalog,
    build_entry_catalog,
    entries_at_frequency,
    junction_capacitance_sensitivity,
)
from .spurs import (
    NoiseEntry,
    SpurSweep,
    compute_spurs,
    synthesize_output_waveform,
)

__all__ = [
    "ENTRY_GROUND",
    "ENTRY_INDUCTOR",
    "ENTRY_NMOS",
    "ENTRY_PMOS_WELL",
    "ENTRY_VARACTOR_WELL",
    "EntryModel",
    "LcTankVco",
    "NoiseEntry",
    "SpurSweep",
    "VcoDesign",
    "VcoEntryCatalog",
    "build_entry_catalog",
    "compute_spurs",
    "entries_at_frequency",
    "junction_capacitance_sensitivity",
    "synthesize_output_waveform",
]
