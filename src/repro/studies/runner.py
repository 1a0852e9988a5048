"""The sweep runner: campaign resolution, extraction reuse and task fan-out.

``SweepRunner`` turns a declarative :class:`~repro.studies.params.Campaign`
into a :class:`~repro.studies.results.SweepResult`:

1. resolve the campaign's layout/mesh axes into variants and look each one
   up in the :class:`~repro.studies.cache.ExtractionCache` (layout-invariant
   sweeps hit the cache after the first run; layout sweeps re-extract only
   the changed variants, and run one Kron reduction per distinct device
   geometry, mesh, technology and solver: variants that change only
   interconnect reuse the substrate macromodel of the first one),
2. build one :class:`SweepTask` per (variant, injected power, V_tune) —
   each task analyses all noise frequencies of the campaign in one AC sweep,
   which is the natural unit of work (one DC solve + one transfer function),
3. execute the extractions and the tasks as *one* dependency-aware plan on
   the :class:`~repro.parallel.scheduler.WorkScheduler` — inline at one
   worker, on the shared process pool otherwise — and reassemble the
   per-point records *in task order*, so the result is numerically identical
   whatever the worker count.

``_execute_task`` and ``_execute_extraction`` are module-level functions
with picklable payloads, which is what lets the scheduler ship them to
worker processes.  With real workers involved each variant's extracted flow
ships through shared memory once instead of per corner, so workers never
re-extract.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..core.flow import FlowOptions, FlowResult, run_extraction_flow
from ..errors import AnalysisError, CornerFailure
from ..layout.cell import Cell
from ..substrate.extraction import SubstrateExtraction, substrate_inputs
from ..obs import (
    TraceContext,
    collect_spans,
    get_logger,
    span_aggregates,
    trace_span,
    tracer,
)
from ..parallel.plan import ON_ERROR_ABORT, TaskFailure, WorkItem, _check_policy
from ..parallel.scheduler import WorkScheduler
from ..parallel.shm import ObjectShipper, load_object
from ..simulator.solver import SolverStats
from ..simulator.solver import stats as solver_stats
from ..technology.process import ProcessTechnology
from .cache import ExtractionCache, fingerprint
from .params import Campaign, LayoutVariant
from .persist import CampaignJournal, CheckpointPolicy
from .results import PointRecord, SweepResult, VariantRecord

if TYPE_CHECKING:
    from ..core.vco_experiment import VcoExperimentOptions
    from ..layout.testchips import VcoLayoutSpec
    from ..obs import CampaignObserver
    from .faults import FaultPlan

logger = get_logger(__name__)


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of work: a spur analysis over all noise
    frequencies at a fixed (variant, injected power, V_tune) corner."""

    index: int
    variant_index: int
    knobs: dict[str, float]
    technology: ProcessTechnology
    spec: "VcoLayoutSpec"                  #: layout spec of the variant
    options: "VcoExperimentOptions"        #: options with this task's power
    injected_power_dbm: float
    vtune: float
    noise_frequencies: tuple[float, ...]
    flow: FlowResult | None                #: pre-extracted models of the variant
    first_point_index: int                 #: global index of the first point
    #: per-run trace handle re-parenting worker spans under the campaign
    #: root; ``None`` whenever tracing is disabled.
    trace: "TraceContext | None" = None
    #: shared-memory reference resolving to ``flow`` (a multi-worker plan
    #: ships each variant's extracted flow *once* instead of per corner); exactly
    #: one of ``flow`` / ``flow_ref`` is set on a dispatched task.
    flow_ref: object | None = None

    # Excluded from content hashing: the same corner must fingerprint
    # identically with and without tracing, and however its flow travelled.
    __fingerprint_exclude__ = ("trace", "flow_ref")

    def corner_label(self) -> str:
        """Human-readable corner identity (used in failure messages)."""
        knobs = "".join(f" {name}={value:g}"
                        for name, value in sorted(self.knobs.items()))
        return (f"variant {self.variant_index}{knobs}, "
                f"P_inj={self.injected_power_dbm:g} dBm, "
                f"V_tune={self.vtune:g} V, "
                f"{len(self.noise_frequencies)} noise frequencies")


@dataclass(frozen=True)
class TaskOutcome:
    """Per-point records produced by one task, tagged with the task index.

    ``solver_counts`` holds the non-zero solver counters this task spent,
    measured as the delta of the executing process's global solver stats
    around the task, so the parent sums them whichever process ran it.
    ``seconds`` is the task's wall clock; ``spans`` carries the spans the
    task recorded under its :class:`~repro.obs.TraceContext` home to the
    parent process (empty whenever tracing is disabled).
    """

    index: int
    records: tuple[PointRecord, ...]
    solver_counts: tuple[tuple[str, int], ...] = ()
    seconds: float = 0.0
    spans: tuple = ()

    @property
    def degradations(self) -> tuple[tuple[str, int], ...]:
        """The degradation-ladder subset of ``solver_counts``."""
        return tuple((name, count) for name, count in self.solver_counts
                     if name in SolverStats.DEGRADATION_COUNTERS)


@dataclass(frozen=True)
class ExtractionTask:
    """One cache-missing variant to extract (worker-shippable payload).

    When the runner's cache is disk-backed, ``cache_dir``/``key`` ride along
    so the executing process (worker or not) extracts under the store's
    per-key claim lock — N concurrent runners sharing one cache directory
    then extract each distinct variant exactly once, with the others
    waiting for the claimer's lock and reusing its published entry.  The
    claim is taken where the task runs: in a pool worker, or inline on the
    one-worker path, which starts no pool.  So no claim is ever held across
    the fork of a pool worker.

    ``substrate`` is set on a *follower*: a variant whose substrate inputs
    equal those of another variant of the run (its *leader*).  The flow then
    reuses the leader's substrate extraction instead of running its own
    Kron reduction.
    """

    variant_index: int
    cell: Cell
    technology: ProcessTechnology
    flow_options: FlowOptions
    cache_dir: str | None = None
    key: str = ""
    substrate: SubstrateExtraction | None = None

    def corner_label(self) -> str:
        """Human-readable identity of the extraction (failure messages)."""
        return (f"extraction of variant {self.variant_index} "
                f"(cell {self.cell.name!r})")


def _execute_extraction(task: ExtractionTask) -> FlowResult:
    """Extract one variant (worker-side entry point; must stay picklable)."""
    def extract() -> FlowResult:
        return run_extraction_flow(task.cell, task.technology,
                                   options=task.flow_options,
                                   substrate=task.substrate)

    if not task.cache_dir or not task.key:
        return extract()
    # Claimed path: exactly-once across every process sharing the cache
    # directory (local import keeps the worker payload import-light).
    from .store import DiskExtractionCache

    return DiskExtractionCache(task.cache_dir).extract_with_claim(task.key,
                                                                  extract)


def _corner(record: PointRecord) -> tuple[int, float, float]:
    """The (variant, injected power, V_tune) corner a point belongs to."""
    return (record.variant_index, record.injected_power_dbm, record.vtune)


def _full_corners(records: Iterable[PointRecord], n_frequencies: int,
                  ) -> frozenset[tuple[int, float, float]]:
    """Corners with a record for every one of the ``n_frequencies``."""
    counts = Counter(_corner(record) for record in records)
    return frozenset(corner for corner, count in counts.items()
                     if count >= n_frequencies)


@dataclass
class _ExtractionPlan:
    """How one run obtains a flow per pending variant (built parent-side).

    ``keys`` are the per-variant cache keys in variant order.  ``resolved``
    holds the flows in hand: cache hits, then fresh extractions as they
    land.  ``hits`` are the keys that were cache hits, and ``pending`` has
    one :class:`ExtractionTask` per distinct missing key.  ``leaders`` maps
    each follower key to its leader key, a hit or an earlier miss with the
    same substrate inputs.
    """

    keys: list[str] = field(default_factory=list)
    resolved: dict[str, FlowResult] = field(default_factory=dict)
    hits: set[str] = field(default_factory=set)
    pending: dict[str, ExtractionTask] = field(default_factory=dict)
    leaders: dict[str, str] = field(default_factory=dict)

    def records(self, variants: list[LayoutVariant]) -> list[VariantRecord]:
        """One record per variant, with the flow if it is resolved yet."""
        return [VariantRecord(index=variant.index, knobs=dict(variant.knobs),
                              spec=variant.spec, cache_key=key,
                              flow=self.resolved.get(key),
                              from_cache=key in self.hits)
                for variant, key in zip(variants, self.keys)]


def _execute_task(task: SweepTask) -> TaskOutcome:
    """Run one task (worker-side entry point; must stay picklable)."""
    # Local import: repro.core.vco_experiment uses the studies package for its
    # own sweeps, so the dependency must not be circular at import time.
    from ..core.vco_experiment import VcoImpactAnalysis

    if task.flow is None and task.flow_ref is not None:
        # A worker receives the variant's flow through shared memory (or by
        # value when that is unavailable); the worker-side cache makes this
        # one unpickle per variant and hands every corner the same flow
        # object, so the variant's testbench is compiled once per worker
        # too (repro.core.vco_experiment).
        task = replace(task, flow=load_object(task.flow_ref), flow_ref=None)

    before = solver_stats.snapshot()
    t0 = time.perf_counter()
    # collect_spans parents this task's spans under the campaign root span
    # (shipped in ``task.trace``) and hands them back through the outcome —
    # in a worker process *and*, identically, inline in the parent.
    with collect_spans(task.trace) as span_sink:
        with trace_span("campaign.corner", index=task.index,
                        variant=task.variant_index,
                        power_dbm=task.injected_power_dbm, vtune=task.vtune):
            analysis = VcoImpactAnalysis(task.technology, spec=task.spec,
                                         options=task.options,
                                         flow_result=task.flow)
            spur_results, _vco, _catalog, _tf = analysis.analyze(
                task.vtune, np.asarray(task.noise_frequencies, dtype=float))
    seconds = time.perf_counter() - t0
    # Process-local delta of the global counters: the solves this corner
    # spent, including any robustness ladder it needed.
    spent = solver_stats.since(before)
    solver_counts = tuple((name, getattr(spent, name))
                          for name in SolverStats._COUNTERS
                          if getattr(spent, name) > 0)
    records = tuple(
        PointRecord(point_index=task.first_point_index + offset,
                    variant_index=task.variant_index,
                    knobs=dict(task.knobs),
                    injected_power_dbm=task.injected_power_dbm,
                    vtune=task.vtune,
                    noise_frequency=float(frequency),
                    spur=spur)
        for offset, (frequency, spur)
        in enumerate(zip(task.noise_frequencies, spur_results)))
    return TaskOutcome(index=task.index, records=records,
                       solver_counts=solver_counts, seconds=seconds,
                       spans=tuple(span_sink))


class _Checkpointer:
    """Streams completed corners into the crash journal (``on_result`` hook).

    Buffers each settled task's records and flushes them as one atomic
    journal segment every ``policy.every_corners`` corners or
    ``policy.every_seconds`` seconds, whichever comes first.  The runner
    flushes once more in a ``finally`` when the campaign ends, so even an
    aborting run journals every corner that completed before the abort.
    """

    def __init__(self, journal: CampaignJournal, policy: CheckpointPolicy):
        self.journal = journal
        self.policy = policy
        self._buffer: list[PointRecord] = []
        self._corners_since_flush = 0
        self._last_flush = time.monotonic()

    def __call__(self, index: int, outcome: TaskOutcome) -> None:
        self._buffer.extend(outcome.records)
        self._corners_since_flush += 1
        if (self._corners_since_flush >= self.policy.every_corners
                or time.monotonic() - self._last_flush
                >= self.policy.every_seconds):
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self.journal.append(self._buffer)
            self._buffer = []
        self._corners_since_flush = 0
        self._last_flush = time.monotonic()


#: The ``process-pool`` spelling of the campaign backend: the scheduler itself.
ProcessPoolBackend = WorkScheduler


class SerialBackend(WorkScheduler):
    """The ``serial`` spelling: a :class:`WorkScheduler` pinned to one worker.

    The campaign plan runs inline in the calling process, in priority order,
    with no pool, no pickling and the scheduler's retry semantics
    (wall-clock task timeouts need a worker process to abandon, so there
    are none here).
    """

    def __init__(self, retries: int = 0):
        super().__init__(max_workers=1, retries=retries)


class SweepRunner:
    """Runs campaigns on a :class:`WorkScheduler` against an extraction cache.

    One runner can execute many campaigns; sharing its cache across campaigns
    is how a design session avoids re-extracting layouts it has already seen
    (the counters on ``runner.cache.stats`` record the traffic).

    ``on_error`` selects the campaign failure policy (``"abort"``, ``"skip"``
    or ``"retry_then_skip"``): under the skip policies a corner that exhausts
    its attempts becomes a structured
    :class:`~repro.errors.CornerFailure` on the (partial) result instead of
    aborting the run.  ``fault_plan`` injects deterministic faults into the
    sweep tasks (see :mod:`repro.studies.faults`) — test-harness machinery,
    ``None`` in production.
    """

    def __init__(self, technology: ProcessTechnology,
                 backend: WorkScheduler | None = None,
                 cache: ExtractionCache | None = None, *,
                 on_error: str = ON_ERROR_ABORT,
                 fault_plan: "FaultPlan | None" = None):
        self.technology = technology
        self.backend = SerialBackend() if backend is None else backend
        # Explicit None check: an empty cache is falsy (it has __len__).
        self.cache = ExtractionCache() if cache is None else cache
        self.on_error = _check_policy(on_error)
        self.fault_plan = fault_plan

    def _task_fn(self):
        """The (picklable) per-task callable, fault-wrapped when injecting."""
        if self.fault_plan is None:
            return _execute_task
        return self.fault_plan.wrap(_execute_task)

    # -- extraction ----------------------------------------------------------

    def _plan_extractions(self, campaign: Campaign,
                          variants: list[LayoutVariant]) -> _ExtractionPlan:
        """Cache-resolve every variant; plan the (deduplicated) misses.

        Cache lookups stay parent-side, so workers never race the extraction
        store.  A miss whose :func:`~repro.substrate.extraction.substrate_inputs`
        fingerprint equals that of a hit or of an earlier miss becomes a
        follower of it and reuses its substrate extraction.  So the Kron
        reduction runs once per distinct (device geometry, mesh, technology,
        solver), while every variant keeps its own cache entry.
        """
        plan = _ExtractionPlan()
        cells: dict[str, tuple[LayoutVariant, Cell]] = {}
        for variant in variants:
            cell = campaign.build_cell(variant)
            key = self.cache.key(cell, self.technology, variant.flow_options)
            plan.keys.append(key)
            if key in cells:
                continue                          # duplicate content, no traffic
            cells[key] = (variant, cell)
            flow = self.cache.lookup(key)
            if flow is not None:
                plan.resolved[key] = flow
                plan.hits.add(key)
            else:
                # A disk-backed cache stamps its directory into the task so
                # the extracting process claims the key first (exactly-once
                # across concurrent runners sharing the directory).
                cache_dir = getattr(self.cache, "cache_dir", None)
                plan.pending[key] = ExtractionTask(
                    variant_index=variant.index, cell=cell,
                    technology=self.technology,
                    flow_options=variant.flow_options,
                    cache_dir=str(cache_dir) if cache_dir else None,
                    key=key)
        if not plan.pending:
            return plan
        # Hits first, so a miss follows a flow already in hand when it can.
        leader_by_inputs: dict[str, str] = {}
        for key in sorted(cells, key=lambda k: k not in plan.hits):
            variant, cell = cells[key]
            inputs = fingerprint(*substrate_inputs(cell, self.technology,
                                                   variant.flow_options))
            leader = leader_by_inputs.setdefault(inputs, key)
            if leader != key and key in plan.pending:
                plan.leaders[key] = leader
                logger.info(
                    "substrate reuse: variant=%d leader_variant=%d "
                    "leader_source=%s", variant.index,
                    cells[leader][0].index,
                    "cache" if leader in plan.hits else "extraction")
        return plan

    # -- task fan-out --------------------------------------------------------

    def _build_tasks(self, campaign: Campaign,
                     variants: list[LayoutVariant],
                     extracted: list[VariantRecord],
                     skip: frozenset[tuple[int, float, float]] = frozenset(),
                     ) -> list[SweepTask]:
        """One task per pending (variant, power, vtune) corner.

        ``skip`` holds corners an earlier (persisted) run already completed;
        their tasks are omitted but the deterministic global point indexing
        still advances past them, so merged records line up exactly with a
        never-interrupted run.  A task of a variant still to be extracted
        is built with ``flow=None``; the scheduler binds the flow in just
        before dispatch.
        """
        powers, vtunes, frequencies = campaign.sim_grid()
        tasks: list[SweepTask] = []
        point_index = 0
        for variant, record in zip(variants, extracted):
            for power in powers:
                options = replace(campaign.options,
                                  injected_power_dbm=power,
                                  flow=variant.flow_options)
                for vtune in vtunes:
                    if (variant.index, power, vtune) not in skip:
                        tasks.append(SweepTask(
                            index=len(tasks),
                            variant_index=variant.index,
                            knobs=dict(variant.knobs),
                            technology=self.technology,
                            spec=variant.spec,
                            options=options,
                            injected_power_dbm=power,
                            vtune=vtune,
                            noise_frequencies=frequencies,
                            flow=record.flow,
                            first_point_index=point_index))
                    point_index += len(frequencies)
        return tasks

    # -- resume bookkeeping --------------------------------------------------

    @staticmethod
    def _completed_corners(campaign: Campaign,
                           resume_from: SweepResult | None,
                           n_frequencies: int,
                           ) -> frozenset[tuple[int, float, float]]:
        """Corners of ``campaign`` fully covered by a stored partial result.

        A corner counts as complete only when every noise frequency of the
        campaign has a record (tasks are atomic, so a run killed mid-task
        leaves no partial corners — but a result saved from a *different*
        frequency grid would, and the fingerprint check catches that first).
        """
        if resume_from is None:
            return frozenset()
        stored = (resume_from.campaign_spec or {}).get("fingerprint")
        if stored is not None and stored != campaign.fingerprint():
            raise AnalysisError(
                f"cannot resume campaign {campaign.name!r} from a result of "
                f"campaign {resume_from.campaign_name!r}: the stored "
                "fingerprint does not match this campaign's axes/spec/options")
        return _full_corners(resume_from.records, n_frequencies)

    @staticmethod
    def _carried_variant(variant: LayoutVariant,
                         resume_from: SweepResult | None) -> VariantRecord:
        """Variant record for a fully-completed variant (no re-extraction)."""
        if resume_from is not None:
            for record in resume_from.variants:
                if record.index == variant.index:
                    return record
        return VariantRecord(index=variant.index, knobs=dict(variant.knobs),
                             spec=variant.spec, cache_key="", flow=None,
                             from_cache=True)

    # -- execution -----------------------------------------------------------

    def run(self, campaign: Campaign,
            resume_from: SweepResult | None = None,
            checkpoint: CheckpointPolicy | None = None,
            observer: "CampaignObserver | None" = None) -> SweepResult:
        """Execute the campaign and aggregate its tidy result.

        With ``resume_from`` (a previously persisted, possibly partial result
        of the *same* campaign), corners the stored result already covers are
        skipped entirely — their variants are not even re-extracted — and the
        stored records are merged with the freshly computed ones into one
        complete result.

        With ``checkpoint``, completed corners stream into an atomic
        crash-recovery journal at ``checkpoint.path`` while the campaign
        runs; corners already journaled there (by a previous run killed
        mid-campaign) are recovered first and not recomputed, so a ``kill
        -9`` loses at most one checkpoint interval.  The journal survives
        this call — discard it (:meth:`CampaignJournal.discard
        <repro.studies.persist.CampaignJournal.discard>`) once the returned
        result has been saved.

        ``observer`` (a :class:`repro.obs.CampaignObserver`, e.g. the run-log
        recorder or the progress reporter) receives parent-process callbacks
        as corners start, retry, finish and fail.  When the process-global
        :data:`repro.obs.tracer` is enabled, the whole run executes under a
        ``campaign.run`` root span and every task ships a
        :class:`~repro.obs.TraceContext` so worker-recorded spans re-parent
        under that root when their outcomes come home.
        """
        root_span = None
        trace_mark = 0
        if tracer.enabled:
            trace_mark = tracer.mark()
            # Entered manually (not a ``with`` around the body): the span
            # must be closed *before* the observer's campaign_finished hook
            # dumps the recorded spans into the run log.
            root_span = trace_span("campaign.run", campaign=campaign.name)
            root_span.__enter__()
        try:
            result = self._run(campaign, resume_from, checkpoint, observer,
                               trace_mark)
        except BaseException:
            if root_span is not None:
                root_span.__exit__(None, None, None)
            if observer is not None:
                observer.close()
            raise
        if root_span is not None:
            root_span.__exit__(None, None, None)
            if result.telemetry is not None:
                # Re-aggregate now that the root span itself is recorded.
                result.telemetry["spans"] = span_aggregates(
                    tracer.spans_since(trace_mark))
        if observer is not None:
            observer.campaign_finished(result)
        return result

    def _run(self, campaign: Campaign,
             resume_from: SweepResult | None,
             checkpoint: CheckpointPolicy | None,
             observer: "CampaignObserver | None",
             trace_mark: int) -> SweepResult:
        start = time.perf_counter()
        hits_before = self.cache.hits
        misses_before = self.cache.misses

        variants = campaign.variants()
        powers, vtunes, frequencies = campaign.sim_grid()
        done = self._completed_corners(campaign, resume_from, len(frequencies))

        prior_records: list[PointRecord] = []
        if resume_from is not None:
            prior_records.extend(record for record in resume_from.records
                                 if _corner(record) in done)

        checkpointer: _Checkpointer | None = None
        if checkpoint is not None:
            fingerprint = campaign.fingerprint()
            recovered = CampaignJournal.recover(checkpoint.path,
                                                fingerprint=fingerprint)
            seen_points = {record.point_index for record in prior_records}
            recovered = [record for record in recovered
                         if record.point_index not in seen_points]
            journaled = _full_corners(recovered, len(frequencies))
            done |= journaled
            prior_records.extend(record for record in recovered
                                 if _corner(record) in journaled)
            journal = CampaignJournal(checkpoint.path,
                                      campaign_name=campaign.name,
                                      fingerprint=fingerprint)
            journal.open()
            checkpointer = _Checkpointer(journal, checkpoint)

        pending_variants = [
            variant for variant in variants
            if any((variant.index, power, vtune) not in done
                   for power in powers for vtune in vtunes)]
        plan = self._plan_extractions(campaign, pending_variants)

        def current_variant_records() -> list[VariantRecord]:
            extracted = {record.index: record
                         for record in plan.records(pending_variants)}
            return [extracted.get(variant.index)
                    or self._carried_variant(variant, resume_from)
                    for variant in variants]

        tasks = self._build_tasks(campaign, variants,
                                  current_variant_records(), skip=done)
        if tracer.enabled:
            # Same context for every task: all corners of this run hang
            # directly off the campaign root span.
            context = tracer.current_context()
            tasks = [replace(task, trace=context) for task in tasks]

        if observer is not None:
            observer.campaign_started(
                campaign_name=campaign.name,
                fingerprint=campaign.fingerprint(),
                total_corners=len(variants) * len(powers) * len(vtunes),
                pending_corners=len(tasks),
                prior_corners=len(done))
        logger.info(
            "campaign start: name=%s pending_corners=%d prior_corners=%d "
            "backend=%s", campaign.name, len(tasks), len(done),
            self.backend.describe())

        # Item ``x<j>`` extracts the j-th pending key (see _work_items).
        extraction_keys = list(plan.pending)

        def on_result(item_id: str, value) -> None:
            if item_id.startswith("x"):
                key = extraction_keys[int(item_id[1:])]
                self.cache.store(key, value)
                plan.resolved[key] = value
                return
            if checkpointer is not None:
                checkpointer(int(item_id[1:]), value)
            if value.spans:
                tracer.adopt(value.spans)
            if observer is not None:
                observer.corner_finished(tasks[int(item_id[1:])], value)

        on_start = None
        if observer is not None:
            def on_start(item_id: str, attempt: int) -> None:
                if item_id.startswith("c"):
                    observer.corner_started(tasks[int(item_id[1:])], attempt)

        shipper = ObjectShipper()
        try:
            outcome_map = self.backend.run(
                self._work_items(tasks, pending_variants, plan, shipper),
                on_error=self.on_error, on_result=on_result,
                on_start=on_start)
        finally:
            # Workers that still hold a mapped segment keep it alive; the
            # parent-side dispose only unlinks the names.
            shipper.close()
            # Journal every corner that completed, even when aborting: the
            # next run recovers them instead of recomputing.
            if checkpointer is not None:
                checkpointer.flush()
        corner_ids = [f"c{position}" for position in range(len(tasks))]
        # Fresh flows arrived through the plan, after the tasks were built
        # (flows of variants that failed to extract stay None).
        variant_records = current_variant_records()

        # Solver work of this run: every fresh extraction's own counters plus
        # every successful corner's, wherever each of them ran.
        spent = SolverStats()
        for key in plan.pending:
            flow = plan.resolved.get(key)
            if flow is not None and flow.solver_stats is not None:
                spent.merge(flow.solver_stats)
        failures: list[CornerFailure] = []
        successes: list[TaskOutcome] = []
        # Position-keyed, not ``outcome.index``-keyed: a corner doomed by a
        # failed extraction inherits the extraction's TaskFailure verbatim,
        # whose index is the *extraction's* plan position.
        for task, item_id in zip(tasks, corner_ids):
            outcome = outcome_map[item_id]
            if isinstance(outcome, TaskFailure):
                failure = outcome.as_corner_failure(
                    variant_index=task.variant_index,
                    injected_power_dbm=task.injected_power_dbm,
                    vtune=task.vtune)
                failures.append(failure)
                if observer is not None:
                    observer.corner_failed(failure)
                continue
            successes.append(outcome)
            for name, count in outcome.solver_counts:
                setattr(spent, name, getattr(spent, name) + count)
        degradations: dict[str, int] = dict(
            resume_from.solver_degradations) if resume_from else {}
        for name in SolverStats.DEGRADATION_COUNTERS:
            if getattr(spent, name):
                degradations[name] = (degradations.get(name, 0)
                                      + getattr(spent, name))

        records = list(prior_records)
        for outcome in sorted(successes, key=lambda o: o.index):
            records.extend(outcome.records)
        records.sort(key=lambda record: record.point_index)
        telemetry = self._build_telemetry(
            spent=spent,
            cache_hits=self.cache.hits - hits_before,
            cache_misses=self.cache.misses - misses_before,
            degradations=degradations,
            successes=successes,
            attempts=[self.backend.attempts.get(item_id, 0)
                      for item_id in corner_ids],
            substrate_reuses=sum(1 for key in plan.leaders
                                 if key in plan.resolved),
            trace_mark=trace_mark)
        return SweepResult(
            campaign_name=campaign.name,
            backend_name=self.backend.describe(),
            axes=campaign.resolved_axes(),
            records=records,
            variants=variant_records,
            wall_seconds=time.perf_counter() - start,
            cache_hits=self.cache.hits - hits_before,
            cache_misses=self.cache.misses - misses_before,
            campaign_spec=campaign.describe(),
            failures=failures,
            solver_degradations=degradations,
            telemetry=telemetry)

    def _work_items(self, tasks: list[SweepTask],
                    pending_variants: list[LayoutVariant],
                    plan: _ExtractionPlan,
                    shipper: ObjectShipper) -> list[WorkItem]:
        """The campaign as one dependency-aware plan of work items.

        Extraction items (``x<j>``, one per distinct cache key, priority 0)
        and corner items (``c<i>``, priority 1) go down the scheduler
        together; corners of a cache-missing variant depend on its extraction
        item and receive the flow through the item's ``bind`` hook just
        before dispatch.  A follower's extraction item depends on its
        leader's item the same way and receives the leader's substrate
        extraction (a follower of a cache hit gets it at plan time).  With
        real worker processes involved, each variant's flow ships through
        shared memory **once** (``shipper``) and every corner carries only a
        tiny reference; the inline single-worker plan passes flows by
        reference instead.  Priorities make the inline order extractions
        first, then corners in task order.
        """
        key_by_variant = {variant.index: key
                          for variant, key in zip(pending_variants, plan.keys)}
        xid_by_key = {key: f"x{position}"
                      for position, key in enumerate(plan.pending)}
        n_items = len(plan.pending) + len(tasks)
        ship = min(self.backend.max_workers, n_items) > 1
        task_fn = self._task_fn()

        items: list[WorkItem] = []
        for key, xid in xid_by_key.items():
            task = plan.pending[key]
            leader = plan.leaders.get(key)
            leader_xid = xid_by_key.get(leader)
            if leader_xid is None:
                if leader is not None:
                    task = replace(task,
                                   substrate=plan.resolved[leader].substrate)
                items.append(WorkItem(id=xid, fn=_execute_extraction,
                                      payload=task, priority=0))
                continue

            def bind_substrate(payload, dep_results, leader_xid=leader_xid):
                return replace(payload,
                               substrate=dep_results[leader_xid].substrate)
            items.append(WorkItem(id=xid, fn=_execute_extraction,
                                  payload=task, deps=(leader_xid,),
                                  priority=0, bind=bind_substrate))
        for position, task in enumerate(tasks):
            key = key_by_variant[task.variant_index]
            deps: tuple[str, ...] = ()
            bind = None
            payload = task
            if key in xid_by_key:
                xid = xid_by_key[key]
                deps = (xid,)
                if ship:
                    def bind(payload, dep_results, key=key, xid=xid):
                        return replace(payload, flow_ref=shipper.ref_for(
                            key, dep_results[xid]))
                else:
                    def bind(payload, dep_results, xid=xid):
                        return replace(payload, flow=dep_results[xid])
            elif ship:
                payload = replace(task, flow=None,
                                  flow_ref=shipper.ref_for(key, task.flow))
            items.append(WorkItem(id=f"c{position}", fn=task_fn,
                                  payload=payload, deps=deps, priority=1,
                                  bind=bind))
        return items

    def _build_telemetry(self, *, spent: SolverStats,
                         cache_hits: int, cache_misses: int,
                         degradations: dict[str, int],
                         successes: list[TaskOutcome],
                         attempts: list[int],
                         substrate_reuses: int,
                         trace_mark: int) -> dict:
        """Per-run metrics: ``{"counters", "gauges", "histograms"}``.

        Every number is a delta of *this* run, not a process-lifetime
        accumulation.  ``spent`` is the run's solver work summed from the
        fresh extractions and the successful corners, so the solver
        counters read the same at any worker count.  ``attempts`` are the
        per-corner attempt counts; the scheduler's pool rebuilds and
        heartbeat trips are read straight off it.
        ``extraction.substrate_reuses`` counts the follower extractions that
        reused a leader's substrate instead of running a Kron reduction.
        Zero counters are left out (``campaign.task_attempts`` is present
        whenever the run had corners), and there are no gauges; perfbench,
        the CI parallel-smoke job, ``show --timings`` and saved sidecars
        read this schema.
        """
        counters = {f"solver.{name}": getattr(spent, name)
                    for name in SolverStats._COUNTERS}
        counters.update({
            "cache.hits": cache_hits,
            "cache.misses": cache_misses,
            "campaign.retries": sum(n - 1 for n in attempts if n > 1),
            "campaign.pool_rebuilds": self.backend.pool_rebuilds,
            "campaign.heartbeat_trips": self.backend.heartbeat_trips,
            "extraction.substrate_reuses": substrate_reuses})
        for kind, count in degradations.items():
            counters[f"solver.degradations{{kind={kind}}}"] = count
        counters = {name: count for name, count in counters.items() if count}
        if attempts:
            counters["campaign.task_attempts"] = sum(attempts)
        histograms = {}
        seconds = [outcome.seconds for outcome in successes if outcome.seconds]
        if seconds:
            total = sum(seconds)
            histograms["campaign.corner_seconds"] = {
                "count": len(seconds), "sum": total, "min": min(seconds),
                "max": max(seconds), "mean": total / len(seconds)}
        telemetry: dict = {"metrics": {
            "counters": dict(sorted(counters.items())),
            "gauges": {},
            "histograms": histograms}}
        if tracer.enabled:
            telemetry["spans"] = span_aggregates(
                tracer.spans_since(trace_mark))
        return telemetry
