"""Finite-horizon LQ optimal control with affine two-point boundary
constraints, solved through the structure of the extended symplectic
pencil.

The stage cost and the endpoint penalty are only assumed positive
semidefinite: the input weight R may be singular or zero, in which case
the pencil is singular, optimal inputs are non-unique, and part of the
control acts as a free parameter.  The solver certifies a solution of
the constrained generalized Riccati equation, splits the problem into a
regular part and a free part, assembles a square boundary system, and
returns an optimal trajectory together with a parameterization of the
whole optimal set.  A flat-QP oracle provides an algorithmically
independent cross-check.

The top level holds the solve pipeline and the complete set of error
types it raises.  Everything else stays importable from its module,
e.g. ``lqpencil.pencil.generalized_spectrum``.
"""

from .linalg import DimensionMismatchError, NonFiniteMatrixError, TolerancePolicy
from .lqsolve import (
    HorizonTooShortError,
    InfeasibleProblemError,
    LqSolution,
    LqSolveError,
    StationarityReport,
    solve_problem,
    verify_stationarity,
)
from .model import (
    BoundarySpec,
    ConstraintRankError,
    IndefiniteCostError,
    IndefinitePenaltyError,
    LqProblem,
    PopovTriple,
    ProblemFormatError,
    ValidationError,
    load_problem,
    save_problem,
    validate,
)
from .oracle import OracleSizeError, UnboundedObjectiveError, flatten, solve_flat
from .pencil import DecompositionError
from .riccati import (
    NotRiccatiSolutionError,
    NotSymmetricError,
    RiccatiCertificate,
    RiccatiDivergenceError,
    RiccatiIterationError,
    RiccatiKernelConditionError,
    RiccatiNoConvergenceError,
    certify,
    iterate_grde,
)

__version__ = "0.1.0"
