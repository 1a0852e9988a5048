"""Design-study sweep engine: declarative spur campaigns over the test chips.

The paper's end product is a design study — spur power swept over noise
frequency, V_tune and ground-grid layout variants (Figures 8-10).  This
package turns such studies into declarative campaigns executed by one engine:

* :mod:`repro.studies.params` — :class:`ParamSpace` / :class:`Campaign`
  grid specs over simulation, layout and mesh axes,
* :mod:`repro.studies.cache` — a content-addressed
  :class:`ExtractionCache` keyed by (layout cell, mesh spec, technology)
  with hit/miss counters,
* :mod:`repro.studies.store` — the persistent :class:`DiskExtractionCache`
  (same protocol, entries survive the process; atomic, versioned,
  corruption-tolerant),
* :mod:`repro.studies.runner` — the :class:`SweepRunner` orchestrating
  extraction reuse, task fan-out, corner-level resume, crash-safe
  checkpointing (:class:`CheckpointPolicy`) and structured
  :class:`~repro.errors.CornerFailure` reporting.  Every campaign runs as
  one extraction->corner plan on a
  :class:`~repro.parallel.scheduler.WorkScheduler`, which owns task-level
  retries, wall-clock timeouts, pool-rebuild backoff and the
  abort/skip/retry_then_skip failure policies.  :class:`SerialBackend`
  (the scheduler pinned to one worker, running the plan inline) and
  :class:`ProcessPoolBackend` (the scheduler itself) are its
  configuration names,
* :mod:`repro.studies.faults` — the deterministic :class:`FaultPlan`
  injection harness the fault-tolerance tests drive all of the above with,
* :mod:`repro.studies.results` — the tidy :class:`SweepResult` store with
  worst-corner and spur-vs-frequency queries plus ``save``/``load``/
  ``merge`` persistence (NPZ + JSON metadata sidecar),
* :mod:`repro.studies.cli` — the ``repro-campaign`` command line
  (``run`` / ``resume`` / ``show`` / ``cache stats|prune``) over
  declarative TOML/JSON campaign configs.

Quickstart (see ``examples/spur_campaign.py`` for the narrated version)::

    from repro.studies import Campaign, ParamSpace, ProcessPoolBackend, SweepRunner
    from repro.technology import make_technology

    campaign = Campaign(
        name="vtune_x_fnoise",
        space=ParamSpace({"vtune": (0.0, 0.75, 1.5),
                          "noise_frequency": (1e6, 5e6, 10e6)}))
    runner = SweepRunner(make_technology(), backend=ProcessPoolBackend(2))
    result = runner.run(campaign)
    print(result.summary(), result.worst_spur().row())
"""

from ..errors import CampaignError, CornerFailure, TaskTimeoutError
from ..parallel.plan import (
    ON_ERROR_ABORT,
    ON_ERROR_POLICIES,
    ON_ERROR_RETRY_THEN_SKIP,
    ON_ERROR_SKIP,
    TaskFailure,
)
from .cache import CacheStats, ExtractionCache, extraction_key, fingerprint
from .faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    arm_crash_points,
    crashpoint,
    disarm_crash_points,
    fault_region,
)
from .params import (
    AXIS_INJECTED_POWER,
    AXIS_NOISE_FREQUENCY,
    AXIS_VTUNE,
    Campaign,
    LayoutVariant,
    ParamSpace,
)
from .persist import (
    CampaignJournal,
    CheckpointPolicy,
    journal_path_for,
    load_result,
    save_result,
)
from .results import PointRecord, SweepResult, VariantRecord
from .runner import ProcessPoolBackend, SerialBackend, SweepRunner, SweepTask
from .store import (
    CacheCorruptionWarning,
    DiskCacheStats,
    DiskExtractionCache,
)

__all__ = [
    "AXIS_INJECTED_POWER",
    "AXIS_NOISE_FREQUENCY",
    "AXIS_VTUNE",
    "CacheCorruptionWarning",
    "CacheStats",
    "Campaign",
    "CampaignError",
    "CampaignJournal",
    "CheckpointPolicy",
    "CornerFailure",
    "DiskCacheStats",
    "DiskExtractionCache",
    "ExtractionCache",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "arm_crash_points",
    "crashpoint",
    "disarm_crash_points",
    "fault_region",
    "LayoutVariant",
    "ON_ERROR_ABORT",
    "ON_ERROR_POLICIES",
    "ON_ERROR_RETRY_THEN_SKIP",
    "ON_ERROR_SKIP",
    "ParamSpace",
    "PointRecord",
    "ProcessPoolBackend",
    "SerialBackend",
    "SweepResult",
    "SweepRunner",
    "SweepTask",
    "TaskFailure",
    "TaskTimeoutError",
    "VariantRecord",
    "extraction_key",
    "fingerprint",
    "journal_path_for",
    "load_result",
    "save_result",
]
