"""MNA circuit simulator: DC, small-signal transfer and transient analyses.

Every analysis factors and solves through one :class:`LinearSolver`
(configured by :class:`SolverOptions`, defaulting to a fresh one), and all
solver work is counted in ``solver_stats``.  Each analysis builds its source
right-hand side from the sources' MNA incidence (:func:`source_rows`) and
only reads the circuit.
"""

from .mna import (
    LinearStamps,
    MatrixStamper,
    MnaStructure,
    SolutionView,
    source_rows,
    stamp_linear_elements,
)
from .solver import (
    Factorization,
    SharedPatternPair,
    SolverStats,
    add_gmin_diagonal,
    stats as solver_stats,
)
from .linalg import LinearSolver, SolverOptions
from .dc import DcCorners, DcOptions, DcSolution, dc_operating_point
from .transfer import (
    TransferFunction,
    transfer_function,
    transfer_functions,
)
from .transient import TransientOptions, TransientSolution, transient_analysis

__all__ = [
    "DcCorners",
    "DcOptions",
    "DcSolution",
    "Factorization",
    "LinearSolver",
    "LinearStamps",
    "MatrixStamper",
    "MnaStructure",
    "SharedPatternPair",
    "SolutionView",
    "SolverOptions",
    "SolverStats",
    "TransferFunction",
    "TransientOptions",
    "TransientSolution",
    "add_gmin_diagonal",
    "dc_operating_point",
    "solver_stats",
    "source_rows",
    "stamp_linear_elements",
    "transfer_function",
    "transfer_functions",
    "transient_analysis",
]
