"""Sections 5-6 experiments: substrate-noise impact on the LC-tank VCO.

The :class:`VcoImpactAnalysis` class wires the extraction flow, the MNA
simulator and the analytical VCO model together:

* the impact netlist of the VCO test chip provides, through an AC analysis,
  the transfer ``h_sub,i(f)`` from the injected substrate tone to every noise
  entry (on-chip ground, NMOS back-gates, inductor, wells),
* the extracted devices at their DC operating point parameterise the
  analytical :class:`~repro.vco.lctank.LcTankVco` model, which provides the
  frequency sensitivities ``K_i`` and AM gains ``G_AM,i``,
* the paper's equations (2)/(3) then give the spur amplitudes at
  ``f_c +/- f_noise``.

On top of that, the module provides the figure-level experiments:

* :meth:`VcoImpactAnalysis.spur_sweep` — Figure 8 (total spur power versus
  noise frequency for several tuning voltages),
* :meth:`VcoImpactAnalysis.contributions` — Figure 9 (per-entry decomposition),
* :meth:`VcoImpactAnalysis.output_spectrum` — Figure 7 (spectrum-analyzer view
  of the VCO output with a 10 MHz tone in the substrate),
* :func:`ground_resistance_study` — Figure 10 (ground wires widened by 2x).

The grid-style experiments (:meth:`VcoImpactAnalysis.spur_sweep`,
:func:`ground_resistance_study`) run on the :mod:`repro.studies` sweep
engine: they accept an execution ``backend`` (serial or process-pool) and an
extraction ``cache`` shared across studies, while returning the same result
objects as before.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from ..analysis.compare import classify_mechanism, slope_per_decade
from ..analysis.spectrum import Spectrum, compute_spectrum
from ..analysis.waveforms import SinusoidalNoise
from ..data import measurements
from ..errors import AnalysisError
from ..obs import trace_span
from ..layout.testchips import (
    NET_BIAS,
    NET_GROUND_PAD,
    NET_GROUND_RING,
    NET_OUT,
    NET_SUB,
    NET_SUPPLY,
    NET_TANK_N,
    NET_TANK_P,
    NET_TUNE,
    VcoLayoutSpec,
    backgate_node,
    make_vco_testchip,
)
from ..package.model import PackageModel
from ..simulator.dc import DcSolution, dc_operating_point
from ..simulator.linalg import resolve_solver
from ..simulator.transfer import TransferFunction, transfer_function
from ..technology.process import ProcessTechnology
from ..vco.lctank import LcTankVco, VcoDesign
from ..vco.sensitivity import (
    ENTRY_NMOS,
    VcoEntryCatalog,
    build_entry_catalog,
    entries_at_frequency,
    junction_capacitance_sensitivity,
)
from ..vco.spurs import SpurResult, compute_spurs, synthesize_output_waveform
from .flow import FlowOptions, FlowResult, run_extraction_flow
from .results import (
    ContributionResult,
    DesignStudyResult,
    MechanismReport,
    VcoSpurSweepResult,
)

#: External testbench node names.
NODE_SUB_DRIVE = "SUB_DRIVE"
NODE_SUB_EXT = "SUB_EXT"
NODE_VDD_EXT = "VDD_EXT"
NODE_TUNE_EXT = "VTUNE_EXT"
NODE_BIAS_EXT = "VBIAS_EXT"
NODE_OUT_EXT = "OUT_EXT"

#: Names of the cross-coupled NMOS devices and the tail device in the layout.
CROSS_COUPLED_NMOS = ("MN_left", "MN_right")
TAIL_NMOS = "MN_tail"


def _default_vco_flow_options() -> FlowOptions:
    """Mesh configuration used for the VCO test chip.

    A 56 x 56 lateral mesh keeps the box size around 13 um, fine enough to
    separate the device back-gates from the guard ring and the tap rows of
    the VCO core; EXPERIMENTS.md documents the sensitivity of the per-entry
    decomposition to this choice.
    """
    from ..substrate.extraction import SubstrateExtractionOptions

    return FlowOptions(substrate=SubstrateExtractionOptions(
        nx=56, ny=56, lateral_margin=60e-6))


@dataclass(frozen=True)
class VcoExperimentOptions:
    """Controls of the VCO impact experiments."""

    vtune_values: tuple[float, ...] = (0.0, 0.75, 1.5)
    noise_frequencies: tuple[float, ...] = tuple(
        float(f) for f in np.logspace(np.log10(100e3), np.log10(15e6), 12))
    injected_power_dbm: float = measurements.INJECTED_POWER_DBM
    source_impedance: float = 50.0
    supply_voltage: float = 1.8
    tail_bias_voltage: float = 0.75
    output_load: float = 50.0
    flow: FlowOptions = field(default_factory=_default_vco_flow_options)


class VcoImpactAnalysis:
    """Impact analysis of the VCO test chip (Figures 7, 8 and 9)."""

    def __init__(self, technology: ProcessTechnology,
                 spec: VcoLayoutSpec | None = None,
                 options: VcoExperimentOptions | None = None,
                 flow_result: FlowResult | None = None):
        self.technology = technology
        self.spec = spec or VcoLayoutSpec()
        self.options = options or VcoExperimentOptions()
        if flow_result is None:
            cell = make_vco_testchip(self.spec)
            flow_result = run_extraction_flow(cell, technology,
                                              options=self.options.flow)
        self.flow = flow_result
        self._operating_points: dict[float, DcSolution] = {}
        # One solver instance for every analysis of this object.
        self.solver = resolve_solver(self.options.flow.solver)
        self._noise = SinusoidalNoise(
            power_dbm=self.options.injected_power_dbm, frequency=1e6,
            impedance=self.options.source_impedance)

    # -- testbench ----------------------------------------------------------------

    def build_testbench(self, vtune: float):
        """Impact netlist plus probes, bias sources and the noise source."""
        circuit = copy.deepcopy(self.flow.impact.circuit)
        package = PackageModel.rf_probed({
            NET_GROUND_PAD: "0",
            NET_SUB: NODE_SUB_EXT,
            NET_SUPPLY: NODE_VDD_EXT,
            NET_TUNE: NODE_TUNE_EXT,
            NET_BIAS: NODE_BIAS_EXT,
            NET_OUT: NODE_OUT_EXT,
        })
        package.add_to_circuit(circuit)

        circuit.add_voltage_source("VDD_SRC", NODE_VDD_EXT, "0",
                                   self.options.supply_voltage)
        circuit.add_voltage_source("VTUNE_SRC", NODE_TUNE_EXT, "0", vtune)
        circuit.add_voltage_source("VBIAS_SRC", NODE_BIAS_EXT, "0",
                                   self.options.tail_bias_voltage)
        circuit.add_resistor("RLOAD_OUT", NODE_OUT_EXT, "0",
                             self.options.output_load)
        # Output buffer: the measured single-ended output follows one tank node.
        circuit.add_vcvs("EBUF_OUT", NET_OUT, "0", NET_TANK_P, "0", 1.0)
        circuit.add_voltage_source("VSUB_SRC", NODE_SUB_DRIVE, "0",
                                   self._noise.source_value())
        circuit.add_resistor("RSUB_SRC", NODE_SUB_DRIVE, NODE_SUB_EXT,
                             self.options.source_impedance)
        return circuit

    # -- VCO analytical model from the extracted devices -----------------------------

    def _tank_side_capacitance(self, op: DcSolution) -> float:
        """Fixed (non-varactor) capacitance loading one tank node."""
        total = 0.0
        for name in CROSS_COUPLED_NMOS + ("MP_left", "MP_right"):
            device_op = op.operating_point_of(name)
            # Each tank node sees one device's drain (cdb + cgd) and the other
            # device's gate (cgs + cgd); by symmetry half of each device's
            # relevant capacitance is attributed to each side.
            total += 0.5 * (device_op.cdb + 2.0 * device_op.cgd + device_op.cgs)
        total += self.flow.interconnect.total_capacitance_of(NET_TANK_P)
        return total

    def vco_model(self, operating_point: DcSolution) -> LcTankVco:
        """Build the analytical VCO model at a solved operating point."""
        inductor_model = self.flow.devices.inductors["L_tank"]
        varactor_model = self.flow.devices.varactors["C_var_left"].model
        tail_op = operating_point.operating_point_of(TAIL_NMOS)
        tank_cm = 0.5 * (operating_point.voltage(NET_TANK_P)
                         + operating_point.voltage(NET_TANK_N))
        ground_sensitivity = sum(
            junction_capacitance_sensitivity(
                self.flow.devices.mosfets[name].model,
                operating_point.operating_point_of(name).vgs,
                operating_point.operating_point_of(name).vds,
                operating_point.operating_point_of(name).vbs)
            for name in CROSS_COUPLED_NMOS)
        ground_referenced_cap = sum(
            operating_point.operating_point_of(name).cdb
            + operating_point.operating_point_of(name).csb
            for name in CROSS_COUPLED_NMOS)
        design = VcoDesign(
            tank_inductance=self.spec.tank_inductance,
            inductor=inductor_model,
            varactor=varactor_model,
            fixed_capacitance_per_side=self._tank_side_capacitance(operating_point),
            tail_current=max(abs(operating_point.branch_current("VDD_SRC")), 1e-3)
            if "VDD_SRC" in operating_point.circuit else 5e-3,
            supply_voltage=self.options.supply_voltage,
            tank_common_mode=tank_cm,
            tail_transconductance=tail_op.gm,
            ground_referenced_capacitance=ground_referenced_cap,
            ground_referenced_cap_sensitivity=ground_sensitivity)
        return LcTankVco(design)

    def entry_catalog(self, vco: LcTankVco, vtune: float) -> VcoEntryCatalog:
        """Noise-entry catalogue of the VCO test chip."""
        port_nodes = self.flow.impact.port_nodes
        nmos_names = list(CROSS_COUPLED_NMOS) + [TAIL_NMOS]
        backgates = {name: backgate_node(name) for name in nmos_names}
        # The back-gate entry captures the noise arriving at the device bulk
        # *beyond* the local ground bounce (which is already counted by the
        # ground-interconnect entry), so its reference is the ground ring.
        sources = {name: NET_GROUND_RING for name in nmos_names}
        op = self._operating_points[vtune]
        junction_sensitivities = {
            name: junction_capacitance_sensitivity(
                self.flow.devices.mosfets[name].model,
                op.operating_point_of(name).vgs,
                op.operating_point_of(name).vds,
                op.operating_point_of(name).vbs)
            for name in nmos_names}

        pmos_ports = [p for p in self.flow.substrate.ports
                      if p.kind.value == "well" and p.device
                      and p.device.startswith("MP_")]
        varactor_ports = [p for p in self.flow.substrate.ports
                          if p.kind.value == "well" and p.device
                          and p.device.startswith("C_var")]
        inductor_ports = self.flow.substrate.ports_of_net(NET_TANK_P)
        inductor_port = next((p for p in inductor_ports
                              if p.kind.value == "inductor"), None)

        return build_entry_catalog(
            vco, vtune,
            ground_node=NET_GROUND_RING,
            nmos_backgate_nodes=backgates,
            nmos_source_nodes=sources,
            nmos_junction_sensitivity=junction_sensitivities,
            inductor_port_node=(port_nodes[inductor_port.name]
                                if inductor_port else None),
            inductor_capacitance=(inductor_port.coupling_capacitance
                                  if inductor_port else 0.0),
            pmos_well_port_node=(port_nodes[pmos_ports[0].name]
                                 if pmos_ports else None),
            pmos_well_capacitance=sum(p.coupling_capacitance for p in pmos_ports),
            varactor_well_port_node=(port_nodes[varactor_ports[0].name]
                                     if varactor_ports else None),
            varactor_well_capacitance=sum(p.coupling_capacitance
                                          for p in varactor_ports))

    # -- core analysis -----------------------------------------------------------------

    def analyze(self, vtune: float,
                noise_frequencies: np.ndarray | None = None
                ) -> tuple[list[SpurResult], LcTankVco, VcoEntryCatalog,
                           TransferFunction]:
        """Full spur analysis at one tuning voltage.

        Returns one :class:`SpurResult` per noise frequency plus the VCO model,
        the entry catalogue and the raw transfer function used.
        """
        if noise_frequencies is None:
            noise_frequencies = np.asarray(self.options.noise_frequencies)
        noise_frequencies = np.asarray(noise_frequencies, dtype=float)

        # Simulation setup: testbench assembly plus the DC operating point
        # (the Newton solve) — the part of a corner that is not the AC sweep.
        with trace_span("sim.setup", vtune=vtune):
            circuit = self.build_testbench(vtune)
            operating_point = dc_operating_point(circuit, solver=self.solver)
            self._operating_points[vtune] = operating_point

            vco = self.vco_model(operating_point)
            catalog = self.entry_catalog(vco, vtune)
        with trace_span("sim.transfer_function",
                        points=int(noise_frequencies.size)):
            transfer = transfer_function(circuit, "VSUB_SRC",
                                         catalog.observation_nodes(),
                                         noise_frequencies,
                                         operating_point=operating_point,
                                         solver=self.solver)
        carrier_frequency = vco.oscillation_frequency(vtune)
        carrier_amplitude = vco.amplitude(vtune)
        noise_amplitude = self._noise.amplitude

        results = []
        for frequency in noise_frequencies:
            entries = entries_at_frequency(catalog, transfer, float(frequency))
            results.append(compute_spurs(entries, carrier_frequency,
                                         carrier_amplitude, noise_amplitude,
                                         float(frequency)))
        return results, vco, catalog, transfer

    # -- Figure 8 -------------------------------------------------------------------------

    def spur_campaign(self, vtune_values: tuple[float, ...] | None = None,
                      noise_frequencies: np.ndarray | None = None):
        """The (V_tune x noise frequency) sweep as a declarative campaign.

        The campaign reuses this analysis's already-extracted flow through a
        seeded :class:`~repro.studies.cache.ExtractionCache` (the layout cell
        hashes to the same content key), so running it performs zero
        additional extractions on any backend.
        """
        from ..studies import Campaign, ParamSpace

        vtune_values = tuple(vtune_values or self.options.vtune_values)
        if noise_frequencies is None:
            noise_frequencies = self.options.noise_frequencies
        frequencies = tuple(
            float(f) for f in np.asarray(noise_frequencies, dtype=float))
        return Campaign(
            name=f"{self.flow.cell.name}__spur_sweep",
            space=ParamSpace({"vtune": vtune_values,
                              "noise_frequency": frequencies}),
            base_spec=self.spec,
            options=self.options)

    def spur_sweep(self, vtune_values: tuple[float, ...] | None = None,
                   noise_frequencies: np.ndarray | None = None,
                   backend=None, cache=None,
                   cache_dir=None) -> VcoSpurSweepResult:
        """Total spur power versus noise frequency for several tuning voltages.

        Runs through the :mod:`repro.studies` sweep engine: ``backend`` is
        the :class:`~repro.parallel.scheduler.WorkScheduler` that executes
        the campaign (default :class:`~repro.studies.SerialBackend`, one
        worker, inline) and ``cache`` an
        extraction cache to share across studies (default: a fresh one,
        seeded with this analysis's flow so nothing is re-extracted).
        ``cache_dir`` instead builds a persistent
        :class:`~repro.studies.store.DiskExtractionCache` under that
        directory, so repeated sweeps warm-start across processes.  The
        reference curve per V_tune is the ideal resistive-coupling + FM line
        (-20 dB/decade) anchored at the first simulated point; the comparison
        therefore measures how well the simulated sweep follows the mechanism
        the paper identifies.
        """
        from ..studies import SweepRunner

        campaign = self.spur_campaign(vtune_values, noise_frequencies)
        cache = _resolve_cache(cache, cache_dir)
        cache.seed(self.flow, options=self.options.flow)
        runner = SweepRunner(self.technology, backend=backend, cache=cache)
        return runner.run(campaign).to_vco_sweep_result(
            measurements.FIG8_SLOPE_DB_PER_DECADE)

    # -- Figure 9 -------------------------------------------------------------------------

    def contributions(self, vtune: float = 0.0,
                      noise_frequencies: np.ndarray | None = None
                      ) -> ContributionResult:
        """Per-entry contribution to the spur power (Figure 9)."""
        if noise_frequencies is None:
            noise_frequencies = np.asarray(self.options.noise_frequencies)
        noise_frequencies = np.asarray(noise_frequencies, dtype=float)
        results, _vco, _catalog, _tf = self.analyze(vtune, noise_frequencies)

        # Group the individual entries into the paper's categories.
        def category_of(name: str) -> str:
            if name.startswith(ENTRY_NMOS):
                return ENTRY_NMOS
            return name

        categories: dict[str, np.ndarray] = {}
        for index, result in enumerate(results):
            per_entry_power: dict[str, float] = {}
            for entry in result.entries:
                category = category_of(entry.name)
                v_fm = result.per_entry_fm_voltage[entry.name]
                v_am = result.per_entry_am_voltage[entry.name]
                per_entry_power[category] = per_entry_power.get(category, 0.0) \
                    + (v_fm ** 2 + v_am ** 2)
            for category, power in per_entry_power.items():
                if category not in categories:
                    categories[category] = np.full(len(results), -300.0)
                categories[category][index] = 10.0 * math.log10(
                    max(power / 50.0 / 1e-3, 1e-30))

        total = np.array([r.total_spur_power_dbm() for r in results])
        slopes = {name: slope_per_decade(noise_frequencies, level)
                  for name, level in categories.items()}
        mechanisms = {name: classify_mechanism(slope)
                      for name, slope in slopes.items()}
        return ContributionResult(vtune=vtune,
                                  noise_frequencies=noise_frequencies,
                                  contributions_dbm=categories,
                                  total_dbm=total,
                                  slopes=slopes,
                                  mechanisms=mechanisms)

    # -- Figure 7 -------------------------------------------------------------------------

    def output_spectrum(self, vtune: float = 0.0, noise_frequency: float = 10e6,
                        periods_of_noise: int = 8,
                        samples_per_carrier_period: int = 8
                        ) -> tuple[Spectrum, SpurResult]:
        """Spectrum-analyzer view of the VCO output with a tone in the substrate."""
        results, vco, _catalog, _tf = self.analyze(
            vtune, np.asarray([noise_frequency]))
        spur = results[0]
        carrier_frequency = spur.carrier_frequency
        sample_rate = carrier_frequency * samples_per_carrier_period
        duration = periods_of_noise / noise_frequency
        times, waveform = synthesize_output_waveform(spur, duration, sample_rate)
        spectrum = compute_spectrum(times, waveform)
        return spectrum, spur


def _resolve_cache(cache, cache_dir):
    """Resolve the ``cache=`` / ``cache_dir=`` pair of the study entry points.

    ``cache`` is any extraction-cache instance to share across studies;
    ``cache_dir`` builds a persistent on-disk cache under the directory.
    Passing both is ambiguous and rejected.
    """
    from ..studies import DiskExtractionCache, ExtractionCache

    if cache is not None and cache_dir is not None:
        raise AnalysisError(
            "pass either cache= (an existing cache instance) or cache_dir= "
            "(a directory for a DiskExtractionCache), not both")
    if cache_dir is not None:
        return DiskExtractionCache(cache_dir)
    return cache if cache is not None else ExtractionCache()


def mechanism_report(contribution: ContributionResult) -> MechanismReport:
    """Section-5 classification of the dominant coupling / modulation mechanism."""
    dominant = contribution.dominant_entry()
    return MechanismReport(
        slopes_db_per_decade=dict(contribution.slopes),
        mechanisms=dict(contribution.mechanisms),
        dominant_entry=dominant,
        dominant_mechanism=contribution.mechanisms[dominant])


def ground_resistance_study(technology: ProcessTechnology,
                            spec: VcoLayoutSpec | None = None,
                            options: VcoExperimentOptions | None = None,
                            width_scale: float = 2.0,
                            vtune: float = 0.0,
                            backend=None, cache=None,
                            cache_dir=None) -> DesignStudyResult:
    """Figure 10: widen the ground interconnect and re-run the full flow.

    Implemented as a two-variant layout campaign on the :mod:`repro.studies`
    engine (axis ``ground_width_scale``), so the nominal and widened layouts
    are extracted through the shared cache — a repeated study against a warm
    ``cache`` (or a ``cache_dir`` populated by any earlier process) performs
    zero extractions — and the per-variant analyses can be sharded with a
    parallel ``backend``.  Widening the ground wires leaves the devices
    untouched, so both variants share one substrate macromodel: a cold
    study runs one Kron reduction, not two.
    """
    from ..studies import Campaign, ParamSpace, SweepRunner

    spec = spec or VcoLayoutSpec()
    options = options or VcoExperimentOptions()
    if width_scale <= 0:
        raise AnalysisError("width scale must be positive")
    cache = _resolve_cache(cache, cache_dir)

    scales = (spec.ground_width_scale, spec.ground_width_scale * width_scale)
    frequencies = tuple(float(f) for f in options.noise_frequencies)
    campaign = Campaign(
        name="fig10_ground_grid",
        space=ParamSpace({"ground_width_scale": scales,
                          "vtune": (vtune,),
                          "noise_frequency": frequencies}),
        base_spec=spec,
        options=options)
    runner = SweepRunner(technology, backend=backend, cache=cache)
    sweep = runner.run(campaign)

    nominal_dbm = np.array([r.spur_power_dbm for r in sweep.select(variant=0)])
    improved_dbm = np.array([r.spur_power_dbm for r in sweep.select(variant=1)])
    r_nominal = sweep.variants[0].flow.interconnect.resistance_between(
        NET_GROUND_RING, NET_GROUND_PAD)
    r_improved = sweep.variants[1].flow.interconnect.resistance_between(
        NET_GROUND_RING, NET_GROUND_PAD)
    reduction = float(np.mean(nominal_dbm - improved_dbm))
    ideal = 20.0 * math.log10(r_nominal / r_improved) if r_improved > 0 else 0.0
    return DesignStudyResult(
        noise_frequencies=np.asarray(frequencies),
        nominal_dbm=nominal_dbm,
        improved_dbm=improved_dbm,
        nominal_ground_resistance=r_nominal,
        improved_ground_resistance=r_improved,
        predicted_reduction_db=reduction,
        ideal_reduction_db=ideal)
