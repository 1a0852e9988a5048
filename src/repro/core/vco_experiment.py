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

Only the device operating points depend on V_tune; the substrate
macromodel, the interconnect, the package and the rest of the testbench do
not.  The testbench of an extracted flow is therefore compiled once — the
circuit around the shared impact-netlist elements plus its
:class:`~repro.simulator.mna.LinearStamps` — and kept per flow object,
which it holds weakly, so every corner of a variant shares it and none
outlives its flow.

:meth:`VcoImpactAnalysis.analyze_corners` analyses a whole stack of V_tune
corners at once on that compiled testbench, with no circuit copy: one
stacked DC Newton whose per-corner source right-hand sides come straight
from the source incidence, one stacked device evaluation for the VCO model
and the entry catalogue, one stacked transfer solve of every corner x
noise frequency on the port-reduced rows, and one evaluation of the spur
equations.  Every step keeps the corners apart (a per-corner convergence
mask, elementwise device equations, one LAPACK factorization per system),
so a corner's results are bit-identical alone or in any stack, and each
corner is returned with its own share of the solver work
(:class:`CornerAnalysis`).  :meth:`VcoImpactAnalysis.analyze` is a stack
of one.

V_tune only biases the varactors, which carry no DC current, so the bias
point of the core hardly moves with it.  Beside each compiled testbench
sits its reference operating point: the DC solution at V_tune = 0 V, keyed
by every other DC input (supply and tail-bias voltages, the noise source's
DC value, the effective gmin).  Every corner starts plain Newton from it —
one or two iterations instead of seven to nine from zero.  Each process
solves the reference itself on the first request for its key, so a
corner's start depends only on (flow, bias), never on which corner ran
before or on how many workers share the campaign; like the compiled
testbench, it is compile-time state and counts no solver work
(:meth:`~repro.simulator.solver.SolverStats.uncounted`).  A reference that
does not converge is logged once per key and the corners start from zero.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..analysis.compare import (
    classify_mechanism,
    compare_curves,
    reference_slope_line,
    slope_per_decade,
)
from ..analysis.spectrum import Spectrum, compute_spectrum
from ..analysis.waveforms import SinusoidalNoise
from ..data import measurements
from ..errors import AnalysisError, ConvergenceError, check_fields
from ..obs import get_logger, trace_span
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
from ..netlist.circuit import Circuit
from ..package.model import PackageModel
from ..simulator.dc import DcCorners, DcOptions, DcSolution, dc_operating_point
from ..simulator.linalg import LinearSolver
from ..simulator.mna import LinearStamps
from ..simulator.solver import SolverStats
from ..simulator.solver import stats as solver_stats
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
from ..vco.spurs import SpurSweep, compute_spurs, synthesize_output_waveform
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

logger = get_logger(__name__)

#: Names of the cross-coupled NMOS devices and the tail device in the layout.
CROSS_COUPLED_NMOS = ("MN_left", "MN_right")
TAIL_NMOS = "MN_tail"


def _default_vco_flow_options() -> FlowOptions:
    """Mesh configuration used for the VCO test chip.

    A 56 x 56 lateral mesh over the port region (plus a 60 um margin) gives
    14.1 x 15.5 um surface cells.  That does not resolve the devices: the
    ports ``bulk:MN_left`` and ``bulk:MN_tail`` each share 2 surface cells
    with ``sub:vco_ground_ring``, which ties those back-gates to the ring
    (``well:MP_left`` shares 2 as well).  ROADMAP item 1 records the
    measurements and the work of choosing a mesh that separates them.
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

    def __post_init__(self) -> None:
        check_fields(self, "[options]")
        for name in ("vtune_values", "noise_frequencies"):
            object.__setattr__(self, name, tuple(
                float(v) for v in getattr(self, name)))


def _compile_testbench(flow: FlowResult, options: VcoExperimentOptions
                       ) -> tuple[Circuit, LinearStamps]:
    """Impact netlist plus probes, load, output buffer, bias sources and the
    noise source, with its linear stamps.

    The circuit shares the impact-netlist elements of ``flow`` (it never
    modifies them); its sources hold placeholder values: the corners'
    values reach the DC solve as ``sources=``
    (:meth:`VcoImpactAnalysis.analyze_corners`), and
    :meth:`VcoImpactAnalysis.build_testbench` copies it with them.
    """
    circuit = flow.impact.circuit.with_sources()
    package = PackageModel.rf_probed({
        NET_GROUND_PAD: "0",
        NET_SUB: NODE_SUB_EXT,
        NET_SUPPLY: NODE_VDD_EXT,
        NET_TUNE: NODE_TUNE_EXT,
        NET_BIAS: NODE_BIAS_EXT,
        NET_OUT: NODE_OUT_EXT,
    })
    package.add_to_circuit(circuit)

    circuit.add_voltage_source("VDD_SRC", NODE_VDD_EXT, "0", 0.0)
    circuit.add_voltage_source("VTUNE_SRC", NODE_TUNE_EXT, "0", 0.0)
    circuit.add_voltage_source("VBIAS_SRC", NODE_BIAS_EXT, "0", 0.0)
    circuit.add_resistor("RLOAD_OUT", NODE_OUT_EXT, "0", options.output_load)
    # Output buffer: the measured single-ended output follows one tank node.
    circuit.add_vcvs("EBUF_OUT", NET_OUT, "0", NET_TANK_P, "0", 1.0)
    circuit.add_voltage_source("VSUB_SRC", NODE_SUB_DRIVE, "0", 0.0)
    circuit.add_resistor("RSUB_SRC", NODE_SUB_DRIVE, NODE_SUB_EXT,
                         options.source_impedance)
    return circuit, LinearStamps.of(circuit)


#: id(flow) -> (weak reference to the flow, {testbench shape: compiled
#: testbench}, {DC key: reference operating-point vector, or ``None`` when
#: it did not converge}).  An entry leaves when its flow is collected.
_COMPILED_TESTBENCHES: dict[int, tuple[weakref.ref, dict, dict]] = {}


def _flow_state(flow: FlowResult) -> tuple[dict, dict]:
    """The compiled testbenches and reference points kept for ``flow``."""
    key = id(flow)
    entry = _COMPILED_TESTBENCHES.get(key)
    if entry is None or entry[0]() is not flow:
        def forget(ref, key=key):
            if _COMPILED_TESTBENCHES.get(key, (None,))[0] is ref:
                del _COMPILED_TESTBENCHES[key]

        entry = (weakref.ref(flow, forget), {}, {})
        _COMPILED_TESTBENCHES[key] = entry
    return entry[1], entry[2]


def _testbench_shape(options: VcoExperimentOptions) -> tuple[float, float]:
    """The options that shape the linear part of the testbench."""
    return (options.source_impedance, options.output_load)


def _compiled_testbench(flow: FlowResult, options: VcoExperimentOptions
                        ) -> tuple[Circuit, LinearStamps]:
    """The compiled testbench of ``flow``, built on the first request.

    Keyed on the flow object and the options that shape the linear part
    (source impedance, output load); the source values are set per corner.
    """
    testbenches, _references = _flow_state(flow)
    shape = _testbench_shape(options)
    compiled = testbenches.get(shape)
    if compiled is None:
        compiled = testbenches[shape] = _compile_testbench(flow, options)
    return compiled


@dataclass(frozen=True, eq=False)
class _CornerStack:
    """The stacked results of one :meth:`VcoImpactAnalysis.analyze_corners`
    call."""

    vtunes: np.ndarray
    operating_points: DcCorners
    vco: LcTankVco
    catalog: VcoEntryCatalog
    transfer: TransferFunction
    spurs: SpurSweep


class CornerAnalysis:
    """One V_tune corner of :meth:`VcoImpactAnalysis.analyze_corners`.

    Each part is taken out of the stack on first access, so a caller that
    reads only the spur sweep (the campaign runner) slices nothing else.
    """

    def __init__(self, stack: _CornerStack, index: int):
        self._stack = stack
        self.index = index
        self.vtune = float(stack.vtunes[index])

    @cached_property
    def sweep(self) -> SpurSweep:
        return self._stack.spurs.corner(self.index)

    @property
    def stack_sweep(self) -> SpurSweep:
        """The spur sweep of this corner's whole stack, whose row
        :attr:`index` is :attr:`sweep` (no corner axis for a stack of
        one)."""
        return self._stack.spurs

    @cached_property
    def vco(self) -> LcTankVco:
        return LcTankVco(self._stack.vco.design.corner(self.index))

    @cached_property
    def catalog(self) -> VcoEntryCatalog:
        return self._stack.catalog.corner(self.index)

    @cached_property
    def transfer(self) -> TransferFunction:
        return self._stack.transfer.corner(self.index)

    @cached_property
    def operating_point(self) -> DcSolution:
        """The DC operating point (its ``circuit`` is the compiled
        testbench)."""
        return self._stack.operating_points.corner(self.index)

    @cached_property
    def solver_counts(self) -> SolverStats:
        """This corner's solver work: its Newton solves and ladder rungs,
        and its transfer solves (one solve per noise frequency when it is
        reached from the stack's base systems; one factorization, one
        solve per frequency and one ``fallbacks`` when it fell back)."""
        counts = SolverStats()
        counts.merge(self._stack.transfer.work[self.index])
        counts.merge(self._stack.operating_points.work[self.index])
        return counts


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
        # One solver instance for every analysis of this object.
        self.solver = LinearSolver(self.options.flow.solver)
        self._noise = SinusoidalNoise(
            power_dbm=self.options.injected_power_dbm, frequency=1e6,
            impedance=self.options.source_impedance)

    # -- testbench ----------------------------------------------------------------

    def build_testbench(self, vtune: float) -> Circuit:
        """Impact netlist plus probes, bias sources and the noise source.

        A standalone circuit at ``vtune``: a shallow copy of the flow's
        compiled testbench that shares its elements and owns fresh source
        elements with this analysis's bias, V_tune and noise values.  The
        corner analyses never build one; the reference operating point
        does, once per key.
        """
        circuit, _linear = _compiled_testbench(self.flow, self.options)
        return circuit.with_sources({
            "VDD_SRC": self.options.supply_voltage,
            "VTUNE_SRC": vtune,
            "VBIAS_SRC": self.options.tail_bias_voltage,
            "VSUB_SRC": self._noise.source_value(),
        })

    def _corner_sources(self, vtunes) -> dict:
        """The DC value of every testbench source, per V_tune corner."""
        return {"VDD_SRC": self.options.supply_voltage,
                "VTUNE_SRC": vtunes,
                "VBIAS_SRC": self.options.tail_bias_voltage,
                "VSUB_SRC": self._noise.source_value().dc}

    def reference_point(self) -> np.ndarray | None:
        """The DC solution of this analysis's testbench at V_tune = 0 V.

        Every corner's plain Newton starts from it.  It is solved on the
        first request for its key — the testbench shape, the supply and
        tail-bias voltages, the noise source's DC value and the effective
        gmin — and kept beside the compiled testbench.  The solve counts no
        solver work.  ``None`` when it did not converge (logged once per
        key): the corners then start from zero.
        """
        _testbenches, references = _flow_state(self.flow)
        key = (_testbench_shape(self.options), self.options.supply_voltage,
               self.options.tail_bias_voltage, self._noise.source_value().dc,
               self.solver.options.effective_gmin(DcOptions().gmin))
        if key not in references:
            _template, linear = _compiled_testbench(self.flow, self.options)
            try:
                with solver_stats.uncounted():
                    solution = dc_operating_point(
                        self.build_testbench(0.0), solver=self.solver,
                        linear=linear)
            except ConvergenceError as exc:
                logger.warning(
                    "DC reference operating point of %s did not converge; "
                    "its V_tune corners start Newton from zero: %s",
                    self.flow.cell.name, exc)
                references[key] = None
            else:
                solution.vector.flags.writeable = False
                references[key] = solution.vector
        return references[key]

    # -- VCO analytical model from the extracted devices -----------------------------

    def _tank_side_capacitance(self, op: DcSolution | DcCorners):
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

    def junction_sensitivities(self, operating_point: DcSolution | DcCorners
                               ) -> dict:
        """dC/dV of every NMOS's junction capacitance at the operating
        point (F/V; per corner of a stack), the cross-coupled pair first.
        :meth:`vco_model` and :meth:`entry_catalog` both take them."""
        sensitivities = {}
        for name in CROSS_COUPLED_NMOS + (TAIL_NMOS,):
            point = operating_point.operating_point_of(name)
            sensitivities[name] = junction_capacitance_sensitivity(
                self.flow.devices.mosfets[name].model,
                point.vgs, point.vds, point.vbs)
        return sensitivities

    def vco_model(self, operating_point: DcSolution | DcCorners,
                  junction_sensitivities: dict) -> LcTankVco:
        """Build the analytical VCO model at a solved operating point (a
        stacked model, every operating-point quantity per corner, at a
        stack of them)."""
        inductor_model = self.flow.devices.inductors["L_tank"]
        varactor_model = self.flow.devices.varactors["C_var_left"].model
        tail_op = operating_point.operating_point_of(TAIL_NMOS)
        tank_cm = 0.5 * (operating_point.voltage(NET_TANK_P)
                         + operating_point.voltage(NET_TANK_N))
        ground_sensitivity = sum(junction_sensitivities[name]
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
            tail_current=np.maximum(
                np.abs(operating_point.branch_current("VDD_SRC")), 1e-3)
            if "VDD_SRC" in operating_point.circuit else 5e-3,
            supply_voltage=self.options.supply_voltage,
            tank_common_mode=tank_cm,
            tail_transconductance=tail_op.gm,
            ground_referenced_capacitance=ground_referenced_cap,
            ground_referenced_cap_sensitivity=ground_sensitivity)
        return LcTankVco(design)

    def entry_catalog(self, vco: LcTankVco, vtune,
                      junction_sensitivities: dict) -> VcoEntryCatalog:
        """Noise-entry catalogue of the VCO test chip (stacked for a
        stacked ``vco`` and an array of V_tune corners)."""
        port_nodes = self.flow.impact.port_nodes
        nmos_names = list(CROSS_COUPLED_NMOS) + [TAIL_NMOS]
        backgates = {name: backgate_node(name) for name in nmos_names}
        # The back-gate entry captures the noise arriving at the device bulk
        # *beyond* the local ground bounce (which is already counted by the
        # ground-interconnect entry), so its reference is the ground ring.
        sources = {name: NET_GROUND_RING for name in nmos_names}

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
                ) -> tuple[SpurSweep, LcTankVco, VcoEntryCatalog,
                           TransferFunction]:
        """Full spur analysis at one tuning voltage: a stack of one of
        :meth:`analyze_corners`.

        Returns the :class:`SpurSweep` over the noise frequencies plus the
        VCO model, the entry catalogue and the raw transfer function used.
        """
        corner = self.analyze_corners([vtune], noise_frequencies)[0]
        return corner.sweep, corner.vco, corner.catalog, corner.transfer

    def analyze_corners(self, vtunes,
                        noise_frequencies: np.ndarray | None = None
                        ) -> list[CornerAnalysis]:
        """Full spur analysis of a stack of tuning voltages at once.

        One stacked DC solve, VCO model, entry catalogue, transfer solve
        and spur evaluation for all ``vtunes`` (see the module docstring);
        returns one :class:`CornerAnalysis` per V_tune, in order, each
        bit-identical to the corner analysed alone.
        """
        vtunes = np.asarray(vtunes, dtype=float)
        if vtunes.ndim != 1 or not vtunes.size:
            raise AnalysisError("analyze_corners needs a 1-D sequence of at "
                                f"least one V_tune, got shape {vtunes.shape}")
        if noise_frequencies is None:
            noise_frequencies = np.asarray(self.options.noise_frequencies)
        noise_frequencies = np.asarray(noise_frequencies, dtype=float)
        bad = noise_frequencies[~np.isfinite(noise_frequencies)]
        if bad.size:
            raise AnalysisError(
                f"noise frequency {float(bad[0])!r} is not finite")

        # Simulation setup: the DC operating points (the Newton solve) and
        # the models read from them — the part that is not the AC sweep.
        # One corner is evaluated on Python floats, a stack on arrays: the
        # device and VCO equations give the same bits on either
        # (repro.devices.stack).
        corners = vtunes if vtunes.size > 1 else float(vtunes[0])
        template, linear = _compiled_testbench(self.flow, self.options)
        with trace_span("sim.setup", corners=int(vtunes.size)):
            operating_points = dc_operating_point(
                template, solver=self.solver, linear=linear,
                initial=self.reference_point(),
                sources=self._corner_sources(corners))
            sensitivities = self.junction_sensitivities(operating_points)
            vco = self.vco_model(operating_points, sensitivities)
            catalog = self.entry_catalog(vco, corners, sensitivities)
        with trace_span("sim.transfer_function",
                        points=int(noise_frequencies.size),
                        corners=int(vtunes.size)):
            transfer = transfer_function(template, "VSUB_SRC",
                                         catalog.observation_nodes(),
                                         noise_frequencies,
                                         operating_point=operating_points,
                                         solver=self.solver, linear=linear)
        # Every entry's h_sub and eqs. (2)/(3) over every corner and the
        # whole sweep at once, as (corners x entries x frequencies) arrays.
        entries = entries_at_frequency(catalog, transfer, noise_frequencies,
                                       index=np.arange(noise_frequencies.size))
        spurs = compute_spurs(entries, vco.oscillation_frequency(corners),
                              vco.amplitude(corners), self._noise.amplitude,
                              noise_frequencies)
        stack = _CornerStack(vtunes=vtunes, operating_points=operating_points,
                             vco=vco, catalog=catalog, transfer=transfer,
                             spurs=spurs)
        return [CornerAnalysis(stack, index) for index in range(vtunes.size)]

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
                   backend=None, cache=None) -> VcoSpurSweepResult:
        """Total spur power versus noise frequency for several tuning voltages.

        Runs through the :mod:`repro.studies` sweep engine: ``backend`` is
        the :class:`~repro.parallel.scheduler.WorkScheduler` that executes
        the campaign (default :class:`~repro.studies.SerialBackend`, one
        worker, inline) and ``cache`` an extraction cache to share across
        studies (default: a fresh one).  It is seeded with this analysis's
        flow so nothing is re-extracted; a
        :class:`~repro.studies.store.DiskExtractionCache` keeps it across
        processes.  The reference curve per V_tune is the ideal
        resistive-coupling + FM line (-20 dB/decade) anchored at the first
        simulated point; the comparison therefore measures how well the
        simulated sweep follows the mechanism the paper identifies.
        """
        from ..studies import ExtractionCache, SweepRunner

        campaign = self.spur_campaign(vtune_values, noise_frequencies)
        cache = ExtractionCache() if cache is None else cache
        cache.seed(self.flow, options=self.options.flow)
        runner = SweepRunner(self.technology, backend=backend, cache=cache)
        sweep = runner.run(campaign)

        frequencies = np.asarray(sweep.axes["noise_frequency"], dtype=float)
        vtunes = tuple(sweep.axes["vtune"])
        # Each corner's points, in point (= frequency axis) order.
        rows = {vtune: sweep.column("vtune") == vtune for vtune in vtunes}
        power = {vtune: sweep.column("spur_power_dbm")[row]
                 for vtune, row in rows.items()}
        reference = {vtune: reference_slope_line(
            frequencies, float(level[0]),
            measurements.FIG8_SLOPE_DB_PER_DECADE)
            for vtune, level in power.items()}
        return VcoSpurSweepResult(
            noise_frequencies=frequencies,
            vtune_values=vtunes,
            spur_power_dbm=power,
            reference_dbm=reference,
            comparisons={vtune: compare_curves(frequencies, reference[vtune],
                                               frequencies, power[vtune],
                                               log_axis=True)
                         for vtune in vtunes},
            carrier_frequencies={
                vtune: float(sweep.column("carrier_frequency")[row][0])
                for vtune, row in rows.items()},
            carrier_amplitudes={
                vtune: float(sweep.column("carrier_amplitude")[row][0])
                for vtune, row in rows.items()})

    # -- Figure 9 -------------------------------------------------------------------------

    def contributions(self, vtune: float = 0.0,
                      noise_frequencies: np.ndarray | None = None
                      ) -> ContributionResult:
        """Per-entry contribution to the spur power (Figure 9)."""
        if noise_frequencies is None:
            noise_frequencies = np.asarray(self.options.noise_frequencies)
        noise_frequencies = np.asarray(noise_frequencies, dtype=float)
        sweep, _vco, _catalog, _tf = self.analyze(vtune, noise_frequencies)

        # Sum the entries' powers per paper category (the NMOS back-gates
        # form one), entry by entry in Python floats.
        fm = sweep.per_entry_fm_voltage.T.tolist()
        am = sweep.per_entry_am_voltage.T.tolist()
        powers: dict[str, list[float]] = {}
        for name, entry_fm, entry_am in zip(sweep.entry_names, fm, am):
            category = ENTRY_NMOS if name.startswith(ENTRY_NMOS) else name
            power = powers.setdefault(category, [0.0] * len(sweep))
            for point, (v_fm, v_am) in enumerate(zip(entry_fm, entry_am)):
                power[point] += v_fm ** 2 + v_am ** 2
        categories = {
            category: np.array([10.0 * math.log10(max(p / 50.0 / 1e-3, 1e-30))
                                for p in power])
            for category, power in powers.items()}

        total = sweep.total_spur_power_dbm()
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
                        ) -> tuple[Spectrum, SpurSweep]:
        """Spectrum-analyzer view of the VCO output with a tone in the
        substrate, plus the one-point spur sweep it was synthesised from."""
        spur, _vco, _catalog, _tf = self.analyze(
            vtune, np.asarray([noise_frequency]))
        sample_rate = spur.carrier_frequency * samples_per_carrier_period
        duration = periods_of_noise / noise_frequency
        times, waveform = synthesize_output_waveform(spur, duration, sample_rate)
        spectrum = compute_spectrum(times, waveform)
        return spectrum, spur


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
                            backend=None, cache=None) -> DesignStudyResult:
    """Figure 10: widen the ground interconnect and re-run the full flow.

    Implemented as a two-variant layout campaign on the :mod:`repro.studies`
    engine (axis ``ground_width_scale``), so the nominal and widened layouts
    are extracted through the shared cache — a repeated study against a warm
    ``cache`` (a :class:`~repro.studies.store.DiskExtractionCache` populated
    by any earlier process included) performs zero extractions — and the
    per-variant analyses can be sharded with a parallel ``backend``.
    Widening the ground wires leaves the devices untouched, so both
    variants share one substrate macromodel: a cold study runs one Kron
    reduction, not two.
    """
    from ..studies import Campaign, ParamSpace, SweepRunner

    spec = spec or VcoLayoutSpec()
    options = options or VcoExperimentOptions()
    if width_scale <= 0:
        raise AnalysisError("width scale must be positive")

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

    variant = sweep.column("variant")
    nominal_dbm = sweep.column("spur_power_dbm")[variant == 0]
    improved_dbm = sweep.column("spur_power_dbm")[variant == 1]
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
