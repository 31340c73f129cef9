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
"""

from .linalg import (
    DEFAULT_POLICY,
    DimensionMismatchError,
    NonFiniteMatrixError,
    TolerancePolicy,
    image_basis,
    kernel_basis,
    pseudo_inverse,
    rank_of,
    solve_affine,
)
from .lqsolve import (
    BoundarySystem,
    HorizonTooShortError,
    InfeasibleProblemError,
    LqSolution,
    StationarityReport,
    assemble_boundary,
    control_free_param,
    controllability_index,
    endpoint_gramian,
    free_control_for_chi,
    reconstruct_trajectories,
    solve_problem,
    solve_with_decomposition,
    verify_stationarity,
)
from .model import (
    BoundarySpec,
    IndefiniteCostError,
    IndefinitePenaltyError,
    ConstraintRankError,
    LqProblem,
    PopovTriple,
    ProblemFormatError,
    ValidationError,
    evaluate_cost,
    factor_cost,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    validate,
)
from .oracle import FlatQp, OracleSizeError, flatten, solve_flat
from .pencil import (
    Pencil,
    PencilDecomposition,
    PencilSpectrum,
    build_esp,
    canonical_form,
    generalized_spectrum,
    normal_rank,
    reachability_decomposition,
    riccati_congruence,
)
from .riccati import (
    InputSplit,
    NotRiccatiSolutionError,
    RiccatiCertificate,
    RiccatiDivergenceError,
    RiccatiKernelConditionError,
    RiccatiNoConvergenceError,
    certify,
    check_solution_pair_invariants,
    gdare_residual,
    iterate_grde,
    kernel_condition_violation,
    split_inputs,
)

__version__ = "0.1.0"
