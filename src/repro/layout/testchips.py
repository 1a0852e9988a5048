"""Layouts of the paper's two test structures.

* :func:`make_nmos_measurement_structure` — the one-transistor validation
  vehicle of Section 3 / Figure 4: four RF NMOS devices in parallel, a local
  substrate-contact ring around them ("MOS GR"), an outer guard ring ("GR"),
  a dedicated substrate-injection contact ("SUB") and the ground interconnect
  whose series resistance nearly doubles the back-gate voltage division.

* :func:`make_vco_testchip` — the 3 GHz LC-tank VCO of Sections 4-6 /
  Figures 5-6: NMOS/PMOS cross-coupled pair, on-chip differential inductor,
  accumulation-mode NMOS varactor, tail current source, non-ideal on-chip
  ground net (VGND), supply (VDD), tuning input (VTUNE), output pads and the
  substrate injection pad (SUB).

Node naming convention: pins carry *node* names.  A physical net that the
extraction should split resistively is drawn with distinct node names at the
two ends of its routing (e.g. ``VGND_RING`` at the local ground ring and
``VGND_PAD`` at the bond pad); the interconnect extractor then places the
extracted wire resistance between those nodes.  The generators take a
``ground_width_scale`` knob so the Figure-10 experiment (ground interconnect
lines widened by a factor of two) re-uses exactly the same layout code.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import check_fields
from .cell import Cell
from .geometry import Rect
from .primitives import (
    MosfetLayoutSpec,
    draw_bond_pad,
    draw_mosfet,
    draw_spiral_inductor,
    draw_substrate_contact_ring,
    draw_substrate_injection_contact,
    draw_substrate_tap_strip,
    draw_varactor,
    draw_wire,
)

#: Node names shared between the test-chip layouts and the analysis code.
NET_SUB = "SUB"                #: substrate noise-injection contact
NET_GROUND_RING = "VGND_RING"  #: on-chip analog ground at the local ring
NET_GROUND_PAD = "VGND_PAD"    #: analog ground at the bond pad / outer ring
NET_SUPPLY = "VDD"
NET_OUT = "OUT"
NET_TUNE = "VTUNE"
NET_GATE = "VGATE"
NET_TANK_P = "TANKP"
NET_TANK_N = "TANKN"
NET_TAIL = "VTAIL"
NET_BIAS = "VBIAS"             #: tail current-source gate bias

# Backwards-compatible aliases used by analysis code.
NET_GROUND = NET_GROUND_RING
NET_OFFCHIP_GROUND = NET_GROUND_PAD


def backgate_node(device_name: str) -> str:
    """Node name of the local back-gate (bulk) of an NMOS device."""
    return f"BGATE_{device_name}"


@dataclass(frozen=True)
class NmosStructureSpec:
    """Parameters of the NMOS measurement structure layout."""

    fingers_per_device: int = 10
    width_per_finger: float = 5e-6
    length: float = 0.18e-6
    n_parallel: int = 4
    ground_wire_length: float = 600e-6
    ground_wire_width: float = 4e-6
    ground_width_scale: float = 1.0
    injection_distance: float = 150e-6


@dataclass(frozen=True)
class VcoLayoutSpec:
    """Parameters of the VCO test-chip layout."""

    nmos_width: float = 60e-6
    pmos_width: float = 120e-6
    length: float = 0.18e-6
    fingers: int = 8
    tank_inductance: float = 2.0e-9
    inductor_resistance: float = 4.0
    inductor_substrate_cap: float = 120e-15
    varactor_cmin: float = 0.6e-12
    varactor_cmax: float = 1.8e-12
    #: C-V transition voltage and steepness of the accumulation-mode varactor;
    #: chosen so the 0-1.5 V tuning range of the paper's VCO spans the steep
    #: part of the curve (the tank common-mode sits around 1.1 V).
    varactor_v_half: float = 0.6
    varactor_slope: float = 2.0
    ground_wire_length: float = 800e-6
    ground_wire_width: float = 4e-6
    ground_width_scale: float = 1.0
    injection_distance: float = 120e-6

    def __post_init__(self) -> None:
        check_fields(self, "[layout]")


def make_nmos_measurement_structure(
        spec: NmosStructureSpec | None = None) -> Cell:
    """Build the Section-3 NMOS measurement structure layout.

    The four RF NMOS devices sit side by side inside the local ground ring
    (MOS GR, node ``VGND_RING``).  The ring reaches the ground bond pad
    (node ``VGND_PAD``, shared with the outer guard ring) only through a long
    metal-1 wire whose resistance is the quantity the paper identifies as
    nearly doubling the substrate-to-back-gate voltage division.
    """
    spec = spec or NmosStructureSpec()
    cell = Cell(name="nmos_measurement_structure")

    # --- transistors -------------------------------------------------------
    device_pitch = spec.fingers_per_device * (spec.length + 0.5e-6) + 8e-6
    for index in range(spec.n_parallel):
        name = f"MN{index}"
        mos_spec = MosfetLayoutSpec(
            name=name,
            model="nmos_rf",
            device_type="nmos",
            width_per_finger=spec.width_per_finger,
            length=spec.length,
            fingers=spec.fingers_per_device,
        )
        draw_mosfet(cell, mos_spec, origin=(index * device_pitch, 0.0),
                    terminals={"d": NET_OUT, "g": NET_GATE,
                               "s": NET_GROUND_RING, "b": backgate_node(name)})

    mos_region = Rect(-5e-6, -5e-6,
                      spec.n_parallel * device_pitch + 5e-6,
                      spec.width_per_finger + 5e-6)

    # --- local NMOS ground ring (MOS GR) ------------------------------------
    draw_substrate_contact_ring(cell, NET_GROUND_RING, mos_region,
                                ring_width=2e-6, name="mos_ground_ring")

    # --- ground interconnect to the ground bond pad --------------------------
    # This metal-1 wire is the resistance the paper highlights: it sits
    # between the local ground ring (where substrate noise enters resistively)
    # and the off-chip ground reference at the pad.
    ground_width = spec.ground_wire_width * spec.ground_width_scale
    ring_exit = (mos_region.x1 + 2e-6, mos_region.center.y)
    pad_center = (ring_exit[0] + spec.ground_wire_length, ring_exit[1])
    draw_wire(cell, "M1", [ring_exit, pad_center], width=ground_width,
              net="VGND", nodes=(NET_GROUND_RING, NET_GROUND_PAD))
    draw_bond_pad(cell, NET_GROUND_PAD, pad_center)

    # --- outer guard ring (GR), tied to the pad-side ground -------------------
    outer_region = mos_region.expanded(60e-6)
    draw_substrate_contact_ring(cell, NET_GROUND_PAD, outer_region,
                                ring_width=4e-6, name="outer_guard_ring")

    # --- substrate injection contact (SUB) -----------------------------------
    injection_center = (mos_region.x0 - spec.injection_distance,
                        mos_region.center.y)
    draw_substrate_injection_contact(cell, NET_SUB, injection_center)
    draw_bond_pad(cell, NET_SUB,
                  (injection_center[0] - 60e-6, injection_center[1]))

    # --- signal pads ----------------------------------------------------------
    top_y = outer_region.y1 + 80e-6
    draw_bond_pad(cell, NET_OUT, (mos_region.center.x, top_y))
    draw_wire(cell, "M2", [(mos_region.x1, mos_region.center.y),
                           (mos_region.x1, top_y),
                           (mos_region.center.x, top_y)],
              width=2e-6, net=NET_OUT)
    draw_bond_pad(cell, NET_GATE, (mos_region.center.x - 150e-6, top_y))
    draw_wire(cell, "M2", [(mos_region.center.x, mos_region.y1),
                           (mos_region.center.x - 150e-6, mos_region.y1),
                           (mos_region.center.x - 150e-6, top_y)],
              width=2e-6, net=NET_GATE)

    cell.validate()
    return cell


def make_vco_testchip(spec: VcoLayoutSpec | None = None) -> Cell:
    """Build the Section-4 LC-tank VCO test-chip layout.

    The circuit follows Figure 5 of the paper: an NMOS and a PMOS
    cross-coupled pair share a differential LC tank made of an on-chip
    inductor and an accumulation-mode NMOS varactor pair.  The NMOS tail
    returns to the on-chip ground node ``VGND_RING``, which reaches the ground
    bond pad ``VGND_PAD`` only through a long, resistive metal wire — the
    dominant substrate-noise entry identified by the paper.
    """
    spec = spec or VcoLayoutSpec()
    cell = Cell(name="vco_testchip")

    core_origin_y = 0.0
    finger_width_nmos = spec.nmos_width / spec.fingers
    finger_width_pmos = spec.pmos_width / spec.fingers

    # --- cross-coupled NMOS pair --------------------------------------------
    nmos_specs = [
        ("MN_left", NET_TANK_P, NET_TANK_N),
        ("MN_right", NET_TANK_N, NET_TANK_P),
    ]
    for index, (name, drain, gate) in enumerate(nmos_specs):
        mos_spec = MosfetLayoutSpec(
            name=name, model="nmos_rf", device_type="nmos",
            width_per_finger=finger_width_nmos, length=spec.length,
            fingers=spec.fingers)
        draw_mosfet(cell, mos_spec, origin=(index * 60e-6, core_origin_y),
                    terminals={"d": drain, "g": gate,
                               "s": NET_TAIL, "b": backgate_node(name)})

    # --- cross-coupled PMOS pair (in n-well, well tied to VDD) ---------------
    pmos_specs = [
        ("MP_left", NET_TANK_P, NET_TANK_N),
        ("MP_right", NET_TANK_N, NET_TANK_P),
    ]
    for index, (name, drain, gate) in enumerate(pmos_specs):
        mos_spec = MosfetLayoutSpec(
            name=name, model="pmos_rf", device_type="pmos",
            width_per_finger=finger_width_pmos, length=spec.length,
            fingers=spec.fingers)
        draw_mosfet(cell, mos_spec, origin=(index * 60e-6, core_origin_y + 60e-6),
                    terminals={"d": drain, "g": gate,
                               "s": NET_SUPPLY, "b": NET_SUPPLY},
                    in_nwell=True)

    # --- tail current source NMOS ---------------------------------------------
    tail_spec = MosfetLayoutSpec(
        name="MN_tail", model="nmos_rf", device_type="nmos",
        width_per_finger=finger_width_nmos * 2, length=0.5e-6,
        fingers=spec.fingers)
    draw_mosfet(cell, tail_spec, origin=(30e-6, core_origin_y - 60e-6),
                terminals={"d": NET_TAIL, "g": NET_BIAS,
                           "s": NET_GROUND_RING, "b": backgate_node("MN_tail")})

    core_region = Rect(-10e-6, core_origin_y - 70e-6, 130e-6, core_origin_y + 100e-6)

    # --- LC tank ---------------------------------------------------------------
    draw_spiral_inductor(
        cell, "L_tank", center=(60e-6, core_origin_y + 300e-6),
        terminals={"plus": NET_TANK_P, "minus": NET_TANK_N},
        inductance=spec.tank_inductance,
        series_resistance=spec.inductor_resistance,
        substrate_capacitance=spec.inductor_substrate_cap,
        outer_diameter=220e-6, turns=3.5, width=12e-6)
    draw_varactor(
        cell, "C_var_left", origin=(150e-6, core_origin_y + 20e-6),
        terminals={"plus": NET_TANK_P, "minus": NET_TUNE, "well": NET_TUNE},
        cmin=spec.varactor_cmin, cmax=spec.varactor_cmax,
        v_half=spec.varactor_v_half, slope=spec.varactor_slope)
    draw_varactor(
        cell, "C_var_right", origin=(150e-6, core_origin_y + 60e-6),
        terminals={"plus": NET_TANK_N, "minus": NET_TUNE, "well": NET_TUNE},
        cmin=spec.varactor_cmin, cmax=spec.varactor_cmax,
        v_half=spec.varactor_v_half, slope=spec.varactor_slope)

    # --- local ground ring and the resistive on-chip ground net -----------------
    draw_substrate_contact_ring(cell, NET_GROUND_RING, core_region,
                                ring_width=3e-6, name="vco_ground_ring")
    # Tap rows inside the core (standard analog-layout practice): they keep
    # the substrate under the devices close to the local ground potential.
    draw_substrate_tap_strip(
        cell, NET_GROUND_RING,
        Rect(core_region.x0 + 5e-6, core_origin_y + 35e-6,
             core_region.x1 - 5e-6, core_origin_y + 41e-6),
        name="vco_tap_row_mid")
    draw_substrate_tap_strip(
        cell, NET_GROUND_RING,
        Rect(core_region.x0 + 5e-6, core_origin_y - 20e-6,
             core_region.x1 - 5e-6, core_origin_y - 14e-6),
        name="vco_tap_row_low")
    ground_width = spec.ground_wire_width * spec.ground_width_scale
    ring_exit = (core_region.x1 + 3e-6, core_region.center.y)
    pad_center = (ring_exit[0] + spec.ground_wire_length, ring_exit[1])
    draw_wire(cell, "M1", [ring_exit, pad_center], width=ground_width,
              net="VGND", nodes=(NET_GROUND_RING, NET_GROUND_PAD))
    draw_bond_pad(cell, NET_GROUND_PAD, pad_center)

    # --- supply, tuning and output routing ---------------------------------------
    top_y = core_origin_y + 480e-6
    draw_bond_pad(cell, NET_SUPPLY, (-150e-6, top_y))
    draw_wire(cell, "M5", [(-150e-6, top_y), (-150e-6, core_origin_y + 80e-6),
                           (0.0, core_origin_y + 80e-6)],
              width=6e-6, net=NET_SUPPLY)
    draw_bond_pad(cell, NET_TUNE, (350e-6, top_y))
    draw_wire(cell, "M3", [(350e-6, top_y), (350e-6, core_origin_y + 40e-6),
                           (200e-6, core_origin_y + 40e-6)],
              width=2e-6, net=NET_TUNE)
    draw_bond_pad(cell, NET_OUT, (120e-6, top_y))
    draw_wire(cell, "M4", [(120e-6, top_y), (120e-6, core_origin_y + 30e-6)],
              width=3e-6, net=NET_OUT)
    draw_bond_pad(cell, NET_BIAS, (470e-6, top_y))
    draw_wire(cell, "M3", [(470e-6, top_y), (470e-6, core_origin_y - 55e-6),
                           (60e-6, core_origin_y - 55e-6)],
              width=2e-6, net=NET_BIAS)

    # --- substrate injection pad (SUB) --------------------------------------------
    injection_center = (core_region.x0 - spec.injection_distance,
                        core_region.center.y)
    draw_substrate_injection_contact(cell, NET_SUB, injection_center)
    draw_bond_pad(cell, NET_SUB, (injection_center[0] - 80e-6, injection_center[1]))

    # --- outer guard ring, tied to the pad-side ground ------------------------------
    outer_region = core_region.expanded(260e-6)
    draw_substrate_contact_ring(cell, NET_GROUND_PAD, outer_region,
                                ring_width=5e-6, name="chip_guard_ring")

    cell.validate()
    return cell
