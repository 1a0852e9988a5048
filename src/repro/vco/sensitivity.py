"""Per-entry sensitivity extraction for the VCO spur analysis.

The spur equations need, for every substrate-noise entry ``i``:

* ``h_sub,i(f)`` — the transfer from the injected substrate tone to the entry,
  obtained from an AC analysis of the assembled impact netlist,
* ``K_i`` — the oscillator frequency sensitivity of the entry, from the
  analytical :class:`~repro.vco.lctank.LcTankVco` model,
* ``G_AM,i`` — the AM gain of the entry.

This module turns a solved :class:`~repro.simulator.transfer.TransferFunction`
plus the VCO model into the list of :class:`~repro.vco.spurs.NoiseEntry`
objects per analysed noise frequency.  A stack of corners goes through in
one pass: a catalogue built from a stacked VCO model holds each entry's
``K_i`` and ``G_AM,i`` as arrays along the corner axis, and a stacked
transfer gives each entry's ``h_sub`` with that leading axis.

Entry inventory (paper Section 5):

* the non-ideal on-chip **ground interconnect** (resistive coupling),
* the **NMOS back-gates** of the cross-coupled pair and the tail device
  (resistive coupling),
* the **inductor** (capacitive coupling through the coil oxide capacitance),
* the **PMOS n-well** and the **varactor n-well** (capacitive coupling through
  the well junction capacitance).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import AnalysisError
from ..simulator.transfer import TransferFunction
from .lctank import LcTankVco
from .spurs import NoiseEntry

#: Canonical entry names used in reports and figures.
ENTRY_GROUND = "ground interconnect"
ENTRY_NMOS = "NMOS back-gate"
ENTRY_INDUCTOR = "inductor"
ENTRY_PMOS_WELL = "PMOS n-well"
ENTRY_VARACTOR_WELL = "varactor n-well"


@dataclass(frozen=True)
class EntryModel:
    """Static description of one noise entry (frequency-independent part)."""

    name: str
    k_hz_per_volt: float                  #: or (corners,) for a stack
    g_am_per_volt: float                  #: or (corners,) for a stack
    mechanism: str
    #: node whose AC voltage is the entry's h_sub (resistive entries)
    observe_node: str | None = None
    #: node whose voltage must be subtracted (e.g. the device source)
    reference_node: str | None = None
    #: for capacitive entries: substrate-side port node, coupling capacitance
    #: and the effective impedance of the victim node at the noise frequency
    port_node: str | None = None
    coupling_capacitance: float = 0.0
    victim_impedance: float = 0.0


@dataclass
class VcoEntryCatalog:
    """All noise entries of the VCO plus the nodes an AC analysis must observe."""

    entries: list[EntryModel] = field(default_factory=list)

    def observation_nodes(self) -> list[str]:
        nodes: list[str] = []
        for entry in self.entries:
            for node in (entry.observe_node, entry.reference_node, entry.port_node):
                if node is not None and node not in nodes:
                    nodes.append(node)
        return nodes

    def names(self) -> list[str]:
        return [entry.name for entry in self.entries]

    def corner(self, index: int) -> "VcoEntryCatalog":
        """The catalogue of corner ``index`` of a stacked catalogue."""
        def scalar(value):
            return float(value[index]) if np.ndim(value) else value

        return VcoEntryCatalog([
            replace(entry, k_hz_per_volt=scalar(entry.k_hz_per_volt),
                    g_am_per_volt=scalar(entry.g_am_per_volt))
            for entry in self.entries])


def build_entry_catalog(vco: LcTankVco, vtune: float, *,
                        ground_node: str,
                        nmos_backgate_nodes: dict[str, str],
                        nmos_source_nodes: dict[str, str],
                        nmos_junction_sensitivity: dict[str, float],
                        inductor_port_node: str | None = None,
                        inductor_capacitance: float = 120e-15,
                        pmos_well_port_node: str | None = None,
                        pmos_well_capacitance: float = 0.0,
                        varactor_well_port_node: str | None = None,
                        varactor_well_capacitance: float = 0.0,
                        tank_common_mode_impedance: float = 1000.0,
                        supply_impedance: float = 10.0,
                        tune_impedance: float = 50.0) -> VcoEntryCatalog:
    """Assemble the entry catalogue of the paper's VCO at one tuning voltage.

    ``nmos_backgate_nodes`` maps device names to their bulk (back-gate) nodes,
    ``nmos_source_nodes`` to their source nodes and
    ``nmos_junction_sensitivity`` to the dC/dV (F/V) with which their junction
    capacitance loads the tank.
    """
    catalog = VcoEntryCatalog()

    # -- ground interconnect: resistive, the paper's dominant entry ------------
    catalog.entries.append(EntryModel(
        name=ENTRY_GROUND,
        k_hz_per_volt=vco.ground_frequency_sensitivity(vtune),
        g_am_per_volt=vco.ground_am_gain(vtune),
        mechanism="resistive",
        observe_node=ground_node))

    # -- NMOS back-gates: resistive, one entry per device -----------------------
    for device, bulk_node in nmos_backgate_nodes.items():
        sensitivity = nmos_junction_sensitivity.get(device, 0.0)
        catalog.entries.append(EntryModel(
            name=f"{ENTRY_NMOS} ({device})",
            k_hz_per_volt=vco.backgate_frequency_sensitivity(vtune, sensitivity),
            g_am_per_volt=0.0,
            mechanism="resistive",
            observe_node=bulk_node,
            reference_node=nmos_source_nodes.get(device)))

    # -- inductor: capacitive through the coil oxide capacitance -----------------
    if inductor_port_node is not None:
        catalog.entries.append(EntryModel(
            name=ENTRY_INDUCTOR,
            k_hz_per_volt=vco.tank_node_frequency_sensitivity(vtune),
            g_am_per_volt=0.0,
            mechanism="capacitive",
            port_node=inductor_port_node,
            coupling_capacitance=inductor_capacitance,
            victim_impedance=tank_common_mode_impedance))

    # -- PMOS n-well: capacitive, victim is the stiff supply --------------------
    if pmos_well_port_node is not None:
        pmos_sensitivity = sum(nmos_junction_sensitivity.values()) * 0.3
        catalog.entries.append(EntryModel(
            name=ENTRY_PMOS_WELL,
            k_hz_per_volt=vco.backgate_frequency_sensitivity(vtune, pmos_sensitivity),
            g_am_per_volt=0.0,
            mechanism="capacitive",
            port_node=pmos_well_port_node,
            coupling_capacitance=pmos_well_capacitance,
            victim_impedance=supply_impedance))

    # -- varactor n-well: capacitive, victim is the stiff tuning input ------------
    if varactor_well_port_node is not None:
        catalog.entries.append(EntryModel(
            name=ENTRY_VARACTOR_WELL,
            k_hz_per_volt=vco.tuning_node_frequency_sensitivity(vtune),
            g_am_per_volt=0.0,
            mechanism="capacitive",
            port_node=varactor_well_port_node,
            coupling_capacitance=varactor_well_capacitance,
            victim_impedance=tune_impedance))

    return catalog


def entries_at_frequency(catalog: VcoEntryCatalog, transfer: TransferFunction,
                         noise_frequency: float | np.ndarray,
                         index: int | np.ndarray | None = None
                         ) -> list[NoiseEntry]:
    """Evaluate every catalogue entry's ``h_sub`` at one noise frequency, or
    along a sweep.

    Resistive entries read the node voltage (minus the reference node when
    given) straight from the AC transfer.  Capacitive entries take the voltage
    of the substrate-side port node and multiply by the coupling admittance
    times the victim impedance — the voltage actually induced on the victim.
    ``noise_frequency`` must be a swept point of ``transfer``; a caller that
    already knows its position in the sweep passes it as ``index``.  Given
    a 1-D array of swept points (and optionally their positions), each
    entry's ``h_sub`` is the array of its values there: the whole
    (entries x frequencies) evaluation at once, as :func:`compute_spurs`
    takes it for a sweep.  A stacked ``transfer`` (and catalogue) gives
    every ``h_sub`` a leading corner axis.
    """
    frequencies = np.asarray(noise_frequency, dtype=float)
    if np.any(frequencies <= 0):
        raise AnalysisError("noise frequency must be positive")
    if index is None:
        index = (transfer.index_of(float(frequencies)) if frequencies.ndim == 0
                 else np.array([transfer.index_of(float(f))
                                for f in frequencies], dtype=np.intp))
    transfers = transfer.transfers
    entries: list[NoiseEntry] = []
    omega = 2.0 * np.pi * frequencies
    for model in catalog.entries:
        if model.observe_node is not None:
            h = transfers[model.observe_node][..., index]
            if model.reference_node is not None:
                h = h - transfers[model.reference_node][..., index]
        elif model.port_node is not None:
            h = transfers[model.port_node][..., index] * (
                1j * omega * model.coupling_capacitance
                * model.victim_impedance)
        else:
            raise AnalysisError(f"entry {model.name!r} has no observable node")
        entries.append(NoiseEntry(
            name=model.name,
            h_sub=complex(h) if np.ndim(h) == 0 else h,
            k_hz_per_volt=model.k_hz_per_volt,
            g_am_per_volt=model.g_am_per_volt,
            mechanism=model.mechanism))
    return entries


def junction_capacitance_sensitivity(model, vgs: float, vds: float, vbs: float,
                                     delta: float = 1e-3) -> float:
    """Numerical dC/dV of a MOSFET's drain+source junction capacitance (F/V).

    ``model`` is a :class:`~repro.devices.mosfet.MosfetModel`.  The derivative
    is taken with respect to the bulk voltage, which is what a substrate /
    ground bounce modulates.  Only the two junction capacitances are
    evaluated (:meth:`~repro.devices.mosfet.MosfetModel.junction_capacitances`),
    to the bits a full evaluation gives them.
    """
    cdb_plus, csb_plus = model.junction_capacitances(vgs, vds, vbs + delta)
    cdb_minus, csb_minus = model.junction_capacitances(vgs, vds, vbs - delta)
    return abs((cdb_plus + csb_plus) - (cdb_minus + csb_minus)) / (2.0 * delta)
