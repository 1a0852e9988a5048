"""Sparse-MNA circuit simulator: DC, AC, transfer-function and transient analyses."""

from .mna import MatrixStamper, MnaStructure, SolutionView, solve_sparse, stamp_linear_elements
from .solver import (
    Factorization,
    SharedPatternPair,
    SolverStats,
    add_gmin_diagonal,
    factorize,
    gmin_diagonal,
    stats as solver_stats,
)
from .linalg import (
    DirectLUSolver,
    LinearSolver,
    SolverOptions,
    make_solver,
    resolve_solver,
)
from .dc import DcOptions, DcSolution, dc_operating_point
from .ac import AcSolution, ac_analysis
from .transfer import (
    TransferFunction,
    substituted_sources,
    transfer_function,
    transfer_functions,
)
from .transient import TransientOptions, TransientSolution, transient_analysis

__all__ = [
    "AcSolution",
    "DcOptions",
    "DcSolution",
    "DirectLUSolver",
    "Factorization",
    "LinearSolver",
    "MatrixStamper",
    "MnaStructure",
    "SharedPatternPair",
    "SolutionView",
    "SolverOptions",
    "SolverStats",
    "TransferFunction",
    "TransientOptions",
    "TransientSolution",
    "ac_analysis",
    "add_gmin_diagonal",
    "dc_operating_point",
    "factorize",
    "gmin_diagonal",
    "make_solver",
    "resolve_solver",
    "solve_sparse",
    "solver_stats",
    "stamp_linear_elements",
    "substituted_sources",
    "transfer_function",
    "transfer_functions",
    "transient_analysis",
]
