"""The paper's methodology: extraction flow and figure-level experiments."""

from .flow import FlowOptions, FlowResult, FlowTimings, run_extraction_flow
from .nmos import NmosExperimentOptions, run_nmos_experiment
from .results import (
    ContributionResult,
    DesignStudyResult,
    MechanismReport,
    NmosExperimentResult,
    VcoSpurSweepResult,
)
from .vco_experiment import (
    CornerAnalysis,
    VcoExperimentOptions,
    VcoImpactAnalysis,
    ground_resistance_study,
    mechanism_report,
)

__all__ = [
    "ContributionResult",
    "CornerAnalysis",
    "DesignStudyResult",
    "FlowOptions",
    "FlowResult",
    "FlowTimings",
    "MechanismReport",
    "NmosExperimentOptions",
    "NmosExperimentResult",
    "VcoExperimentOptions",
    "VcoImpactAnalysis",
    "VcoSpurSweepResult",
    "ground_resistance_study",
    "mechanism_report",
    "run_extraction_flow",
    "run_nmos_experiment",
]
