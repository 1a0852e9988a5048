"""Section 3 / Figure 3 experiment: substrate-noise impact on the RF NMOS.

The experiment reproduces the paper's one-transistor validation vehicle:

1. extract substrate, interconnect and devices from the NMOS measurement
   structure layout,
2. bias the four parallel RF NMOS devices over the 0.5-1.6 V sweep (gate and
   drain driven together through a bias tee, as in a curve-tracer setup),
3. inject a sinusoidal tone into the substrate through the SUB contact,
4. simulate the transfer from the injected tone to the NMOS output and
   compare against the reconstructed measurement of Figure 3,
5. additionally report the quantities the paper quotes in the text: the
   substrate-to-back-gate voltage division (1/652 with the ground-wire
   resistance, about half of that without), the gmb / gds ranges and the
   junction-capacitance crossover frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.compare import compare_curves
from ..analysis.waveforms import SinusoidalNoise
from ..data import measurements
from ..errors import AnalysisError
from ..layout.testchips import (
    NET_GATE,
    NET_GROUND_PAD,
    NET_GROUND_RING,
    NET_OUT,
    NET_SUB,
    NmosStructureSpec,
    make_nmos_measurement_structure,
)
from ..netlist.circuit import Circuit
from ..package.model import PackageModel
from ..simulator.dc import dc_operating_point
from ..simulator.mna import LinearStamps
from ..simulator.transfer import transfer_function
from ..technology.process import ProcessTechnology
from .flow import FlowOptions, FlowResult, run_extraction_flow
from .results import NmosExperimentResult

#: External testbench node names.
NODE_SUB_DRIVE = "SUB_DRIVE"
NODE_SUB_EXT = "SUB_EXT"
NODE_GATE_EXT = "VGATE_EXT"
NODE_OUT_EXT = "OUT_EXT"
NODE_DRAIN_SUPPLY = "VDRAIN_EXT"


def _default_nmos_flow_options() -> FlowOptions:
    """Mesh configuration used for the Section-3 structure.

    A 36 x 36 lateral mesh over the port region (plus a 100 um margin) gives
    13.7 x 9.5 um surface cells.  That does not resolve the devices: every
    back-gate port shares 2-4 surface cells with ``sub:mos_ground_ring``,
    and ``bulk:MN2`` shares 2 with ``bulk:MN3``.  ROADMAP item 1 covers
    choosing a mesh that separates them.
    """
    from ..substrate.extraction import SubstrateExtractionOptions

    return FlowOptions(substrate=SubstrateExtractionOptions(
        nx=36, ny=36, lateral_margin=100e-6))


@dataclass(frozen=True)
class NmosExperimentOptions:
    """Controls of the Section-3 experiment."""

    bias_points: tuple[float, ...] = (0.5, 0.72, 0.94, 1.16, 1.38, 1.6)
    analysis_frequency: float = 1e6           #: tone frequency for the transfer
    injected_power_dbm: float = measurements.INJECTED_POWER_DBM
    source_impedance: float = 50.0
    bias_tee_inductance: float = 1e-3          #: DC feed choke at the output
    flow: FlowOptions = field(default_factory=_default_nmos_flow_options)


def _build_testbench(flow: FlowResult, options: NmosExperimentOptions
                     ) -> tuple[Circuit, LinearStamps]:
    """The impact netlist inside the measurement testbench, with its linear
    stamps: compiled once for the whole bias sweep.

    The circuit shares the flow's impact-netlist elements (it never modifies
    them); each bias point solves a copy with fresh ``VGATE_SRC`` and
    ``VDRAIN_SRC`` sources (:meth:`~repro.netlist.circuit.Circuit.with_sources`).
    """
    circuit = flow.impact.circuit.with_sources()
    # Probe / package connections.
    package = PackageModel.rf_probed({
        NET_GROUND_PAD: "0",
        NET_SUB: NODE_SUB_EXT,
        NET_GATE: NODE_GATE_EXT,
        NET_OUT: NODE_OUT_EXT,
    })
    package.add_to_circuit(circuit)

    # Gate bias (set per bias point).
    circuit.add_voltage_source("VGATE_SRC", NODE_GATE_EXT, "0", 0.0)
    # Drain bias through a bias-tee choke: DC at the bias point, open at RF.
    circuit.add_inductor("L_biastee", NODE_OUT_EXT, NODE_DRAIN_SUPPLY,
                         options.bias_tee_inductance)
    circuit.add_voltage_source("VDRAIN_SRC", NODE_DRAIN_SUPPLY, "0", 0.0)
    # Substrate-noise source behind its source impedance.
    noise = SinusoidalNoise(power_dbm=options.injected_power_dbm,
                            frequency=options.analysis_frequency,
                            impedance=options.source_impedance)
    circuit.add_voltage_source("VSUB_SRC", NODE_SUB_DRIVE, "0",
                               noise.source_value())
    circuit.add_resistor("RSUB_SRC", NODE_SUB_DRIVE, NODE_SUB_EXT,
                         options.source_impedance)
    return circuit, LinearStamps.of(circuit)


def _ground_wire_resistance(flow: FlowResult) -> float:
    return flow.interconnect.resistance_between(NET_GROUND_RING, NET_GROUND_PAD)


def _substrate_division(flow: FlowResult, ground_wire_resistance: float) -> float:
    """Voltage division from the SUB contact to the NMOS back-gate (vbs).

    Computed on the substrate macromodel alone, with the local ground ring
    tied to the external reference through ``ground_wire_resistance`` and the
    outer guard ring tied solidly — the configuration behind the paper's
    1/652 number.
    """
    macromodel = flow.substrate.macromodel
    injection = next(p.name for p in flow.substrate.ports
                     if p.kind.value == "injection")
    ring_port = next(p.name for p in flow.substrate.ports
                     if p.kind.value == "tap" and NET_GROUND_RING in p.nets)
    outer_port = next(p.name for p in flow.substrate.ports
                      if p.kind.value == "tap" and NET_GROUND_PAD in p.nets)
    backgate_ports = [p.name for p in flow.substrate.ports
                      if p.kind.value == "backgate"]
    if not backgate_ports:
        raise AnalysisError("no back-gate ports in the substrate extraction")
    grounding = {ring_port: max(ground_wire_resistance, 1e-3), outer_port: 0.05}
    # Voltage at the back-gate relative to the off-chip ground reference —
    # this is what drives the device output together with the local ground
    # bounce (the paper's "voltage division ... to the back-gate voltage").
    divisions = [abs(macromodel.voltage_division(injection, port, grounding))
                 for port in backgate_ports]
    return float(np.mean(divisions))


def run_nmos_experiment(technology: ProcessTechnology,
                        spec: NmosStructureSpec | None = None,
                        options: NmosExperimentOptions | None = None,
                        flow_result: FlowResult | None = None
                        ) -> NmosExperimentResult:
    """Run the complete Section-3 experiment and compare against the paper."""
    options = options or NmosExperimentOptions()
    spec = spec or NmosStructureSpec()
    if flow_result is None:
        cell = make_nmos_measurement_structure(spec)
        flow_result = run_extraction_flow(cell, technology, options=options.flow)

    ground_resistance = _ground_wire_resistance(flow_result)
    bias = np.asarray(options.bias_points, dtype=float)
    transfer_db = np.zeros_like(bias)
    gmb = np.zeros_like(bias)
    gds = np.zeros_like(bias)
    crossover = np.zeros_like(bias)

    mos_names = sorted(flow_result.devices.mosfets)
    testbench, linear = _build_testbench(flow_result, options)
    for index, bias_value in enumerate(bias):
        circuit = testbench.with_sources({"VGATE_SRC": float(bias_value),
                                          "VDRAIN_SRC": float(bias_value)})
        op = dc_operating_point(circuit, linear=linear)
        # Combined small-signal parameters of the parallel devices.
        total_gmb = 0.0
        total_gds = 0.0
        total_cj = 0.0
        for name in mos_names:
            device_op = op.operating_point_of(name)
            total_gmb += device_op.gmb
            total_gds += device_op.gds
            total_cj += device_op.cdb + device_op.csb
        gmb[index] = total_gmb
        gds[index] = total_gds
        crossover[index] = 3.0 * total_gmb / (2.0 * np.pi * max(total_cj, 1e-18))

        tf = transfer_function(circuit, "VSUB_SRC", [NET_OUT],
                               [options.analysis_frequency],
                               operating_point=op, linear=linear)
        transfer_db[index] = 20.0 * np.log10(
            max(abs(tf.at(NET_OUT, options.analysis_frequency)), 1e-30))

    reference_bias, reference_db = measurements.nmos_transfer_reference(bias)
    comparison = compare_curves(reference_bias, reference_db, bias, transfer_db)

    division = _substrate_division(flow_result, ground_resistance)
    division_ideal = _substrate_division(flow_result, 1e-3)

    return NmosExperimentResult(
        bias=bias, transfer_db=transfer_db, reference_db=reference_db,
        comparison=comparison,
        substrate_division=division,
        substrate_division_ideal_ground=division_ideal,
        gmb=gmb, gds=gds, crossover_frequencies=crossover,
        ground_wire_resistance=ground_resistance)
