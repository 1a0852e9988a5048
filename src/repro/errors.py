"""Exception hierarchy for the substrate-noise impact flow.

Every stage of the methodology (layout handling, extraction, simulation,
analysis) raises a subclass of :class:`ReproError`, so callers can catch the
library's failures without masking programming errors.

Campaign execution adds a structured failure layer on top: an exhausted sweep
corner is described by a :class:`CornerFailure` record (exception type,
attempt count, traceback summary), and campaign-level aborts raise
:class:`CampaignError` carrying those records as a payload — so the CLI and
tests branch on failure *kind* (``except TaskTimeoutError`` / ``exc.failures``)
instead of string-matching messages.

Option records check their own values on construction (:func:`check_fields`),
so a config table and a sweep axis of the same field meet the same rule.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TechnologyError(ReproError):
    """Invalid or inconsistent process-technology description."""


class LayoutError(ReproError):
    """Malformed layout: bad geometry, unknown layer, missing pin, ..."""


class ExtractionError(ReproError):
    """A parasitic or circuit extraction step failed."""


class NetlistError(ReproError):
    """Invalid netlist: unknown node, duplicate element, bad element value."""


class SimulationError(ReproError):
    """The impact simulator failed to assemble or solve the system."""


class ConvergenceError(SimulationError):
    """An iterative solve (DC Newton, transient step) did not converge."""


class AnalysisError(ReproError):
    """Post-processing (spectrum, spur extraction, comparison) failed."""


@dataclass(frozen=True)
class CornerFailure:
    """Structured record of one sweep corner that exhausted its attempts.

    Stored inside :class:`~repro.studies.results.SweepResult` (and its JSON
    sidecar) when the campaign's failure policy keeps partial results instead
    of aborting; ``repro-campaign show`` lists these and ``resume`` re-runs
    exactly these corners.
    """

    corner_label: str           #: human-readable corner identity
    error_type: str             #: exception class name (e.g. "ConvergenceError")
    message: str                #: exception message (truncated)
    attempts: int               #: attempts spent before giving up
    timed_out: bool = False     #: True when the corner tripped ``task_timeout``
    traceback_summary: str = ""  #: last few frames of the original traceback
    variant_index: int = -1     #: layout variant (-1 when not a sweep corner)
    injected_power_dbm: float = float("nan")
    vtune: float = float("nan")


class CampaignError(AnalysisError):
    """A sweep campaign could not complete under its failure policy.

    ``failures`` carries the structured :class:`CornerFailure` records of the
    corners that caused the abort (empty when the error is not corner-shaped,
    e.g. a broken configuration).  Subclasses :class:`AnalysisError`, so
    pre-existing callers that catch the broad class keep working.
    """

    def __init__(self, message: str,
                 failures: "tuple[CornerFailure, ...] | list[CornerFailure]" = ()):
        super().__init__(message)
        self.failures: list[CornerFailure] = list(failures)


class TaskTimeoutError(CampaignError, TimeoutError):
    """A sweep task exceeded its wall-clock ``task_timeout``.

    Also a :class:`TimeoutError`, so generic timeout handling
    (``except TimeoutError``) catches it without importing this module.
    """


def finite_numbers(label: str, values) -> tuple:
    """``values`` as a tuple, each checked to be a finite number (a bool is
    not one); :class:`AnalysisError` names ``label`` and the first bad
    value."""
    if not isinstance(values, (list, tuple)):
        raise AnalysisError(
            f"{label}: expected a list of numbers, got {values!r}")
    for value in values:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise AnalysisError(
                f"{label}: every value must be a finite number, got "
                f"{value!r}")
    return tuple(values)


def check_fields(record, context: str, bounds=None) -> None:
    """Check each field of the dataclass ``record`` against its annotation.

    A ``float`` field must hold a finite number, an ``int`` field an
    integer, a ``bool`` field a bool (``bool | None`` also ``None``) and a
    ``tuple[float, ...]`` field a list or tuple of finite numbers; a bool is
    never a number.  ``bounds`` maps a field name to ``(test, wording)``.
    A bad value raises :class:`AnalysisError` naming ``context`` (the
    record's config table, e.g. ``[options.mesh]``), the field and the
    value.
    """
    for spec in fields(record):
        value = getattr(record, spec.name)
        label = f"{context} {spec.name}"
        if spec.type == "tuple[float, ...]":
            finite_numbers(label, value)
            continue
        number = (isinstance(value, numbers.Real)
                  and not isinstance(value, bool))
        if spec.type == "float":
            valid, noun = number and math.isfinite(value), "a finite number"
        elif spec.type == "int":
            valid = number and isinstance(value, numbers.Integral)
            noun = "an integer"
        elif spec.type in ("bool", "bool | None"):
            valid = isinstance(value, bool) or (
                value is None and spec.type == "bool | None")
            noun = "true or false"
        else:
            continue
        if not valid:
            raise AnalysisError(f"{label} must be {noun}, got {value!r}")
        test, wording = (bounds or {}).get(spec.name, (None, ""))
        if test is not None and not test(value):
            raise AnalysisError(f"{label} must be {wording}, got {value!r}")
