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
3. run the pending extractions on the
   :class:`~repro.parallel.scheduler.WorkScheduler` as two flat batches —
   the leaders, then the followers that reuse a fresh leader's substrate —
   on the shared process pool when there are two or more extractions and
   the scheduler has more than one worker, inline otherwise, and then every
   task inline in this process, in task order, so the result is
   numerically identical whatever the worker count.

A corner costs about a millisecond once its variant's flow exists, less
than shipping the flow to another process, so only extractions leave the
process.  ``_execute_extraction`` is a module-level function with a
picklable payload for that reason; its flow comes home as the task's
result.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..core.flow import FlowOptions, FlowResult, run_extraction_flow
from ..errors import AnalysisError, CornerFailure
from ..layout.cell import Cell
from ..substrate.extraction import SubstrateExtraction, substrate_inputs
from ..obs import get_logger, span_aggregates, trace_span, tracer
from ..parallel.plan import ON_ERROR_ABORT, TaskFailure, WorkItem, _check_policy
from ..parallel.scheduler import WorkScheduler
from ..simulator.solver import SolverStats
from ..simulator.solver import stats as solver_stats
from ..technology.process import ProcessTechnology
from .cache import ExtractionCache, fingerprint
from .columns import (
    CornerBlock,
    concat_columns,
    corner_columns,
    corner_keys,
    n_points,
)
from .params import Campaign, LayoutVariant
from .persist import CampaignJournal, CheckpointPolicy
from .results import SweepResult, VariantRecord

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
    """The corner block one task produced, tagged with the task index.

    ``block`` holds the corner's points as result columns and the non-zero
    solver counters the task spent, measured as the delta of the global
    solver stats around the task.  ``seconds`` is the task's wall clock.
    """

    index: int
    block: CornerBlock
    seconds: float = 0.0

    @property
    def points(self) -> int:
        return n_points(self.block.columns)

    @property
    def degradations(self) -> tuple[tuple[str, int], ...]:
        """The degradation-ladder subset of the block's solver counts."""
        return _degradations(self.block.solver_counts)


def _degradations(solver_counts) -> tuple[tuple[str, int], ...]:
    return tuple((name, count) for name, count in solver_counts
                 if name in SolverStats.DEGRADATION_COUNTERS)


@dataclass(frozen=True)
class ExtractionTask:
    """One cache-missing variant to extract (a picklable pool payload).

    When the runner's cache is disk-backed, ``cache_dir``/``key`` ride along
    so the executing process (worker or not) extracts under the store's
    per-key claim lock — N concurrent runners sharing one cache directory
    then extract each distinct variant exactly once, with the others
    waiting for the claimer's lock and reusing its published entry.  The
    claim is taken where the task runs: in a pool worker, or inline on the
    one-worker path (or for the one extraction of a campaign), which
    submits nothing to the pool.  So no claim is ever held across the fork
    of a pool worker.

    ``substrate`` is set on a *follower*: a variant whose substrate inputs
    equal those of another variant of the run (its *leader*).  The flow then
    reuses the leader's substrate extraction instead of running its own
    Kron reduction.  A follower of a cache hit gets it at plan time, a
    follower of a fresh leader once the leaders' batch has run.
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


@dataclass
class _ExtractionPlan:
    """How one run obtains a flow per pending variant (built parent-side).

    ``keys`` are the cache keys of every variant of the campaign, indexed by
    variant index, so a variant's record carries its content key whether or
    not this run needs its flow.  ``resolved`` holds the flows in hand for the
    pending variants: cache hits, then fresh extractions as they land.
    ``pending`` has one :class:`ExtractionTask` per distinct missing key,
    so at plan time every resolved key is a hit.  ``leaders`` maps
    each follower key to its leader key, a hit or an earlier miss with the
    same substrate inputs.
    """

    keys: list[str] = field(default_factory=list)
    resolved: dict[str, FlowResult] = field(default_factory=dict)
    pending: dict[str, ExtractionTask] = field(default_factory=dict)
    leaders: dict[str, str] = field(default_factory=dict)

    def records(self, variants: list[LayoutVariant]) -> list[VariantRecord]:
        """One record per variant, with the flow if it is resolved yet."""
        return [VariantRecord(index=variant.index, knobs=dict(variant.knobs),
                              spec=variant.spec, cache_key=key,
                              flow=self.resolved.get(key),
                              from_cache=key not in self.pending)
                for variant, key in zip(variants, self.keys)]


def _execute_task(task: SweepTask) -> TaskOutcome:
    """Run one corner task in this process."""
    # Local import: repro.core.vco_experiment uses the studies package for its
    # own sweeps, so the dependency must not be circular at import time.
    from ..core.vco_experiment import VcoImpactAnalysis

    before = solver_stats.snapshot()
    t0 = time.perf_counter()
    with trace_span("campaign.corner", index=task.index,
                    variant=task.variant_index,
                    power_dbm=task.injected_power_dbm, vtune=task.vtune):
        analysis = VcoImpactAnalysis(task.technology, spec=task.spec,
                                     options=task.options,
                                     flow_result=task.flow)
        sweep, _vco, _catalog, _tf = analysis.analyze(
            task.vtune, np.asarray(task.noise_frequencies, dtype=float))
    seconds = time.perf_counter() - t0
    # Process-local delta of the global counters: the solves this corner
    # spent, including any robustness ladder it needed.
    spent = solver_stats.since(before)
    solver_counts = tuple((name, getattr(spent, name))
                          for name in SolverStats._COUNTERS
                          if getattr(spent, name) > 0)
    columns = corner_columns(
        sweep, first_point_index=task.first_point_index,
        variant_index=task.variant_index, knobs=task.knobs,
        injected_power_dbm=task.injected_power_dbm, vtune=task.vtune)
    return TaskOutcome(index=task.index,
                       block=CornerBlock(columns, solver_counts),
                       seconds=seconds)


class _Checkpointer:
    """Streams completed corners into the crash journal (``on_result`` hook).

    Buffers each settled task's corner block and flushes them as one durable
    journal frame every ``policy.every_corners`` corners or
    ``policy.every_seconds`` seconds, whichever comes first.  The runner
    flushes once more in a ``finally`` when the campaign ends, so even an
    aborting run journals every corner that completed before the abort.
    """

    def __init__(self, journal: CampaignJournal, policy: CheckpointPolicy):
        self.journal = journal
        self.policy = policy
        self._buffer: list[CornerBlock] = []
        self._corners_since_flush = 0
        self._last_flush = time.monotonic()

    def __call__(self, outcome: TaskOutcome) -> None:
        self._buffer.append(outcome.block)
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

    The extractions and the corners both run inline in the calling process,
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
        """The per-task callable, fault-wrapped when injecting."""
        if self.fault_plan is None:
            return _execute_task
        return self.fault_plan.wrap(_execute_task)

    # -- extraction ----------------------------------------------------------

    def _plan_extractions(self, campaign: Campaign,
                          variants: list[LayoutVariant],
                          pending: set[int]) -> _ExtractionPlan:
        """Key every variant; cache-resolve the ``pending`` ones and plan
        their (deduplicated) misses.

        Cache lookups stay in this process, so pool workers never race the
        extraction store, and only pending variants count cache traffic.  A
        miss whose :func:`~repro.substrate.extraction.substrate_inputs`
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
            if variant.index not in pending or key in cells:
                continue                          # done, or duplicate content
            cells[key] = (variant, cell)
            flow = self.cache.lookup(key)
            if flow is not None:
                plan.resolved[key] = flow
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
        for key in sorted(cells, key=lambda k: k not in plan.resolved):
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
                    "cache" if leader in plan.resolved else "extraction")
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
        still advances past them, so merged points line up exactly with a
        never-interrupted run.  A task of a variant still to be extracted
        is built with ``flow=None``; :meth:`_run` binds the flow in once
        the extraction has landed.
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

    # -- prior work ----------------------------------------------------------

    @staticmethod
    def _prior(campaign: Campaign, resume_from: SweepResult | None,
               checkpoint: CheckpointPolicy | None, n_frequencies: int,
               ) -> SweepResult | None:
        """The work done before this run as one partial result, or ``None``.

        ``resume_from`` and the corner blocks recovered from the
        ``checkpoint`` journal combine through :meth:`SweepResult.merge`, the
        stored result winning where both cover a corner; both are files from
        outside this process, so both are checked against the campaign
        fingerprint.  The journaled corners' solver degradations ride along
        in their blocks.  Only corners with a point for each of the
        ``n_frequencies`` are kept.  The prior carries work, not cost: its
        wall clock, cache traffic, telemetry and failures are dropped, so a
        resumed result reports this run's.
        """
        fingerprint = campaign.fingerprint()
        prior = resume_from
        if prior is not None:
            stored = (prior.campaign_spec or {}).get("fingerprint")
            if stored is not None and stored != fingerprint:
                raise AnalysisError(
                    f"cannot resume campaign {campaign.name!r} from a result "
                    f"of campaign {prior.campaign_name!r}: the stored "
                    "fingerprint does not match this campaign's "
                    "axes/spec/options")
        if checkpoint is not None:
            blocks = CampaignJournal.recover(checkpoint.path,
                                             fingerprint=fingerprint)
            if prior is not None:
                # The stored result wins: a block it already covers would
                # count its corner's degradations twice.
                stored = set(prior.columns["point_index"].tolist())
                blocks = [block for block in blocks
                          if block.first_point not in stored]
            if blocks:
                degradations: Counter = Counter()
                for block in blocks:
                    degradations.update(dict(
                        _degradations(block.solver_counts)))
                journaled = SweepResult(
                    campaign_name=campaign.name, backend_name="journal",
                    axes=campaign.resolved_axes(),
                    columns=concat_columns([block.columns
                                            for block in blocks]),
                    variants=[], wall_seconds=0.0, cache_hits=0,
                    cache_misses=0, campaign_spec=campaign.describe(),
                    solver_degradations=dict(degradations))
                prior = journaled if prior is None else prior.merge(journaled)
        if prior is None:
            return None
        corners = corner_keys(prior.columns)
        counts = Counter(corners)
        complete = np.array([counts[corner] >= n_frequencies
                             for corner in corners], dtype=bool)
        return replace(prior.subset(complete),
                       wall_seconds=0.0, cache_hits=0, cache_misses=0,
                       failures=[], telemetry=None)

    # -- execution -----------------------------------------------------------

    def run(self, campaign: Campaign,
            resume_from: SweepResult | None = None,
            checkpoint: CheckpointPolicy | None = None,
            observer: "CampaignObserver | None" = None) -> SweepResult:
        """Execute the campaign and aggregate its tidy result.

        Prior work — ``resume_from`` (a persisted, possibly partial result
        of the *same* campaign) and the corners a killed run left in the
        ``checkpoint`` journal — becomes one prior result (:meth:`_prior`).
        Its corners are skipped (variants with no pending corner are not
        re-extracted), and the fresh result is merged with it through
        :meth:`SweepResult.merge <repro.studies.results.SweepResult.merge>`.

        With ``checkpoint``, completed corners also stream into a durable
        crash-recovery journal at ``checkpoint.path``, so a ``kill -9``
        loses at most one checkpoint interval.  The journal survives this
        call — discard it (:meth:`CampaignJournal.discard
        <repro.studies.persist.CampaignJournal.discard>`) once the returned
        result has been saved.

        ``observer`` (a :class:`repro.obs.CampaignObserver`, e.g. the run-log
        recorder or the progress reporter) receives callbacks as corners
        start, retry, finish and fail.  When the process-global
        :data:`repro.obs.tracer` is enabled, the whole run executes under a
        ``campaign.run`` root span, and every ``campaign.corner`` span nests
        directly under it.
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
        prior = self._prior(campaign, resume_from, checkpoint,
                            len(frequencies))
        done = prior.corners() if prior is not None else frozenset()

        pending = {variant.index for variant in variants
                   if any((variant.index, power, vtune) not in done
                          for power in powers for vtune in vtunes)}
        plan = self._plan_extractions(campaign, variants, pending)
        tasks = self._build_tasks(campaign, variants, plan.records(variants),
                                  skip=done)

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

        def extracted(key: str, flow: FlowResult) -> None:
            self.cache.store(key, flow)
            plan.resolved[key] = flow

        def corner_finished(item_id: str, outcome: TaskOutcome) -> None:
            if checkpointer is not None:
                checkpointer(outcome)
            if observer is not None:
                observer.corner_finished(tasks[int(item_id[1:])], outcome)

        on_start = None
        if observer is not None:
            def on_start(item_id: str, attempt: int) -> None:
                observer.corner_started(tasks[int(item_id[1:])], attempt)

        checkpointer: _Checkpointer | None = None
        if checkpoint is not None:
            journal = CampaignJournal(checkpoint.path,
                                      campaign_name=campaign.name,
                                      fingerprint=campaign.fingerprint())
            journal.open()
            checkpointer = _Checkpointer(journal, checkpoint)

        try:
            extractions, pool_rebuilds = self._run_extractions(plan,
                                                               extracted)
            outcome_map, corner_items = self._corner_items(tasks, plan,
                                                           extractions)
            outcome_map.update(self.backend.run(
                corner_items, on_error=self.on_error,
                on_result=corner_finished, on_start=on_start, inline=True))
        finally:
            # Journal every corner that completed, even when aborting: the
            # next run recovers them instead of recomputing.
            if checkpointer is not None:
                try:
                    checkpointer.flush()
                finally:
                    checkpointer.journal.close()
        corner_ids = [f"c{position}" for position in range(len(tasks))]

        # Solver work of this run: every fresh extraction's own counters
        # (wherever it ran) plus every successful corner's.
        spent = SolverStats()
        for key in plan.pending:
            flow = plan.resolved.get(key)
            if flow is not None and flow.solver_stats is not None:
                spent.merge(flow.solver_stats)
        failures: list[CornerFailure] = []
        successes: list[TaskOutcome] = []
        # Position-keyed, not ``outcome.index``-keyed: a corner doomed by a
        # failed extraction inherits the extraction's TaskFailure verbatim,
        # whose index is the *extraction's* position in its batch.
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
            for name, count in outcome.block.solver_counts:
                setattr(spent, name, getattr(spent, name) + count)
        degradations = {name: getattr(spent, name)
                        for name in SolverStats.DEGRADATION_COUNTERS
                        if getattr(spent, name)}
        telemetry = self._build_telemetry(
            spent=spent,
            cache_hits=self.cache.hits - hits_before,
            cache_misses=self.cache.misses - misses_before,
            degradations=degradations,
            successes=successes,
            attempts=[self.backend.attempts.get(item_id, 0)
                      for item_id in corner_ids],
            pool_rebuilds=pool_rebuilds,
            substrate_reuses=sum(1 for key in plan.leaders
                                 if key in plan.resolved),
            trace_mark=trace_mark)
        # Tasks run in point order, so their blocks concatenate in order.
        # Fresh flows arrived through the plan after the tasks were built
        # (flows of variants that failed to extract stay None).
        result = SweepResult(
            campaign_name=campaign.name,
            backend_name=self.backend.describe(),
            axes=campaign.resolved_axes(),
            columns=concat_columns([outcome.block.columns
                                    for outcome in successes]),
            variants=plan.records(variants),
            wall_seconds=time.perf_counter() - start,
            cache_hits=self.cache.hits - hits_before,
            cache_misses=self.cache.misses - misses_before,
            campaign_spec=campaign.describe(),
            failures=failures,
            solver_degradations=degradations,
            telemetry=telemetry)
        return result if prior is None else result.merge(prior)

    def _run_extractions(self, plan: _ExtractionPlan, on_result,
                         ) -> tuple[dict[str, object], int]:
        """Extract every pending key; returns (outcomes by key, rebuilds).

        Two flat batches on the backend: first the leaders and every
        follower of a cache hit (which gets the hit's substrate here), then
        the followers of the leaders just extracted.  A follower whose
        leader failed never runs: its slot holds the leader's
        :class:`TaskFailure`.  ``rebuilds`` sums the pool rebuilds of both.
        """
        first: list[WorkItem] = []
        for key, task in plan.pending.items():
            leader = plan.leaders.get(key)
            if leader in plan.pending:
                continue
            if leader is not None:
                task = replace(task, substrate=plan.resolved[leader].substrate)
            first.append(WorkItem(id=key, fn=_execute_extraction,
                                  payload=task))
        # One pending extraction runs inline; two or more use the pool.
        inline = len(plan.pending) < 2
        outcomes = self.backend.run(first, on_error=self.on_error,
                                    on_result=on_result, inline=inline)
        rebuilds = self.backend.pool_rebuilds
        followers: list[WorkItem] = []
        for key, leader in plan.leaders.items():
            if leader not in plan.pending:
                continue
            flow = outcomes[leader]
            if isinstance(flow, TaskFailure):
                outcomes[key] = flow
                continue
            followers.append(WorkItem(
                id=key, fn=_execute_extraction,
                payload=replace(plan.pending[key], substrate=flow.substrate)))
        outcomes.update(self.backend.run(followers, on_error=self.on_error,
                                         on_result=on_result, inline=inline))
        return outcomes, rebuilds + self.backend.pool_rebuilds

    def _corner_items(self, tasks: list[SweepTask], plan: _ExtractionPlan,
                      extractions: dict[str, object],
                      ) -> tuple[dict[str, object], list[WorkItem]]:
        """The corner items ``c<i>`` to run, and the corners that cannot.

        A corner of a variant whose extraction failed never runs: its slot
        holds the extraction's :class:`TaskFailure`.  Every other corner
        gets its variant's flow.
        """
        task_fn = self._task_fn()
        doomed: dict[str, object] = {}
        items: list[WorkItem] = []
        for position, task in enumerate(tasks):
            key = plan.keys[task.variant_index]
            flow = plan.resolved.get(key)
            if flow is None:
                doomed[f"c{position}"] = extractions[key]
                continue
            if task.flow is None:
                task = replace(task, flow=flow)
            items.append(WorkItem(id=f"c{position}", fn=task_fn,
                                  payload=task))
        return doomed, items

    def _build_telemetry(self, *, spent: SolverStats,
                         cache_hits: int, cache_misses: int,
                         degradations: dict[str, int],
                         successes: list[TaskOutcome],
                         attempts: list[int],
                         pool_rebuilds: int,
                         substrate_reuses: int,
                         trace_mark: int) -> dict:
        """Per-run metrics: ``{"counters", "gauges", "histograms"}``.

        Every number is a delta of *this* run, not a process-lifetime
        accumulation.  ``spent`` is the run's solver work summed from the
        fresh extractions and the successful corners, so the solver
        counters read the same at any worker count.  ``attempts`` are the
        per-corner attempt counts and ``pool_rebuilds`` the scheduler's pool
        rebuilds during the extractions (corners never use the pool).
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
            "campaign.pool_rebuilds": pool_rebuilds,
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
