"""Shared fixtures: the closed-form singular example and its cyclic
problem, seeded random problem families (regular R > 0 and singular R),
and checks that only the tests read: the CGDARE residual matrix, the
cost factor Pi = [C D]' [C D] and the output matrix C_X = C - D K_X,
subspace distances, and the invariants shared by two CGDARE solutions."""

from dataclasses import dataclass

import numpy as np
import pytest

from lqpencil import (
    BoundarySpec,
    DimensionMismatchError,
    IndefiniteCostError,
    LqProblem,
    PopovTriple,
    TolerancePolicy,
    certify,
)
from lqpencil.fixtures import singular_riccati_solution, singular_triple
from lqpencil.linalg import (
    DEFAULT_POLICY,
    _as_matrix,
    _fix_signs,
    _svd_cutoff,
    matrix_norm,
    ranked_svd,
)
from lqpencil.lqsolve import _split_chi, _sweep, _trajectories, control_free_param
from lqpencil.model import _symmetric_psd
from lqpencil.pencil import reachability_decomposition
from lqpencil.riccati import _evaluate, split_inputs


def cyclic_problem(h=(1.0, 2.0), horizon: int = 3) -> LqProblem:
    """Cyclic boundary variant of the singular triple.

    Constrains x(0) = x(T) and penalizes both endpoints' distance to h
    with an identity weight.
    """
    h = np.asarray(h, dtype=float)
    n = 2
    boundary = BoundarySpec(
        V0=np.eye(n), VT=-np.eye(n), v=np.zeros(n),
        H=np.eye(2 * n), h0=h, hT=h)
    return LqProblem(singular_triple(), int(horizon), boundary)


def rank_of(M, pol=DEFAULT_POLICY) -> int:
    """Numerical rank under the policy cutoff, from one thin
    :func:`~lqpencil.linalg.ranked_svd`."""
    return ranked_svd(M, pol, full=False).rank


def gdare_residual(sigma, X, pol=DEFAULT_POLICY):
    """Residual matrix X - A'XA + S_X R_X^+ S_X' - Q of a symmetric candidate."""
    return _evaluate(sigma, X, pol)[5]


def factor_cost(triple: PopovTriple, pol: TolerancePolicy = DEFAULT_POLICY):
    """Factor the stage cost as Pi = [C D]' [C D].

    Returns (C, D) with C of shape (p, n) and D of shape (p, m) where
    p = rank(Pi).  Built from the eigendecomposition of 0.5 (Pi + Pi')
    that the triple keeps, keeping eigenvalues above the rank cutoff.
    A Pi that is not symmetric, or has an eigenvalue more negative than
    ``-residual_tol * (1 + s)`` (s the largest eigenvalue modulus),
    raises IndefiniteCostError.  Rows are ordered by decreasing
    eigenvalue with deterministic signs.
    """
    w, W, scale = _symmetric_psd(triple.pi, triple._pi_eig, "stage cost Pi",
                                 IndefiniteCostError, pol)
    w = w[::-1]
    W = _fix_signs(W[:, ::-1])
    keep = w > _svd_cutoff((scale,), w.shape, pol)
    F = (W[:, keep] * np.sqrt(w[keep])).T
    return F[:, :triple.n], F[:, triple.n:]


def output_matrix(cert, pol=DEFAULT_POLICY):
    """C_X = C - D K_X of a certificate, with [C D] from :func:`factor_cost`."""
    C, D = factor_cost(cert.sigma, pol)
    return C - D @ cert.K_X


def subspace_distance(B1, B2) -> float:
    """Distance between subspaces given orthonormal bases: the spectral
    norm of the difference of orthogonal projectors."""
    B1 = _as_matrix(B1)
    B2 = _as_matrix(B2)
    if B1.shape[0] != B2.shape[0]:
        raise DimensionMismatchError("bases live in different ambient spaces")
    P1 = B1 @ B1.T
    P2 = B2 @ B2.T
    return matrix_norm(P1 - P2)


@dataclass(frozen=True)
class SolutionPairReport:
    """Invariants shared by any two CGDARE solutions of one triple.

    All entries are distances/residuals; ``passed`` is their comparison
    against eig_match_tol.  For any two solutions X, Y: ker R_X = ker R_Y,
    the closed-loop reachable subspaces coincide, and A_X, A_Y agree on
    that subspace.  Additionally ker R_X = ker(X B) ∩ ker R and the
    reachable subspace lies in ker C_X.
    """

    kernel_distance: float
    reachable_distance: float
    restriction_residual: float
    output_nulling_residual: float
    kernel_intersection_distance: float
    passed: bool


def check_solution_pair_invariants(c1, c2, pol=DEFAULT_POLICY) -> SolutionPairReport:
    """Check the solution-independent structure shared by two certificates.

    Raises
    ------
    DimensionMismatchError
        When the certificates come from different Popov triples.
    """
    s1, s2 = c1.sigma, c2.sigma
    same = all(np.array_equal(getattr(s1, k), getattr(s2, k))
               for k in ("A", "B", "Q", "S", "R"))
    if not same:
        raise DimensionMismatchError("certificates come from different triples")

    d1 = reachability_decomposition(c1, split_inputs(c1, pol), pol)
    d2 = reachability_decomposition(c2, split_inputs(c2, pol), pol)
    ker1, ker2 = d1.split.T2, d2.split.T2     # ker R_X of each
    kernel_distance = subspace_distance(ker1, ker2)

    W1 = d1.U[:, :d1.r]
    W2 = d2.U[:, :d2.r]
    reachable_distance = subspace_distance(W1, W2)

    scale = 1.0 + matrix_norm(c1.A_X) + matrix_norm(c2.A_X)
    restriction_residual = matrix_norm((c1.A_X - c2.A_X) @ W1) / scale

    output_nulling_residual = max(matrix_norm(output_matrix(c1, pol) @ W1),
                                  matrix_norm(output_matrix(c2, pol) @ W2))

    inter1 = ranked_svd(np.vstack([c1.X @ s1.B, s1.R]), pol).kernel
    kernel_intersection_distance = subspace_distance(ker1, inter1)

    passed = all(val <= pol.eig_match_tol for val in (
        kernel_distance, reachable_distance, restriction_residual,
        output_nulling_residual, kernel_intersection_distance))
    return SolutionPairReport(
        kernel_distance=float(kernel_distance),
        reachable_distance=float(reachable_distance),
        restriction_residual=float(restriction_residual),
        output_nulling_residual=float(output_nulling_residual),
        kernel_intersection_distance=float(kernel_intersection_distance),
        passed=passed)


@pytest.fixture(scope="session")
def pol():
    return TolerancePolicy()


@pytest.fixture(scope="session")
def sing_triple():
    return singular_triple()


@pytest.fixture(scope="session")
def sing_cert(sing_triple):
    return certify(sing_triple, singular_riccati_solution())


@pytest.fixture(scope="session")
def sing_dec(sing_cert):
    return reachability_decomposition(sing_cert, split_inputs(sing_cert))


@pytest.fixture(scope="session")
def cyclic():
    return cyclic_problem((1.0, 2.0), 3)


def random_regular_problem(rng):
    """Random instance with R positive definite (m extra rows in the
    cost factor force it)."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    T = int(rng.integers(1, 7))
    q = int(rng.integers(0, 2 * n + 1))
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    W = rng.normal(size=(n + m + 1, n + m))
    pi = W.T @ W
    Wh = rng.normal(size=(2 * n + 1, 2 * n))
    bd = BoundarySpec(rng.normal(size=(q, n)), rng.normal(size=(q, n)),
                      rng.normal(size=q), Wh.T @ Wh,
                      rng.normal(size=n), rng.normal(size=n))
    return LqProblem(PopovTriple(A, B, pi[:n, :n], pi[:n, n:], pi[n:, n:]),
                     T, bd)


def random_singular_triple(rng):
    """Random triple with rank-deficient stage cost (rank [C D] < m),
    hence singular R and a genuinely singular pencil."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 4))
    p_rows = int(rng.integers(1, m))
    F = rng.normal(size=(p_rows, n + m))
    pi = F.T @ F
    A = 0.9 * rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    return PopovTriple(A, B, pi[:n, :n], pi[:n, n:], pi[n:, n:])


def _orthogonal(rng, k):
    Qm, Rm = np.linalg.qr(rng.normal(size=(k, k)))
    return Qm * np.sign(np.diag(Rm))


def _with_radius(rng, k, rho):
    """Random k x k matrix scaled to spectral radius rho."""
    G = rng.normal(size=(k, k))
    return G * (rho / np.max(np.abs(np.linalg.eigvals(G))))


def _boundary(rng, n, q):
    """q constraint rows [V0 VT] with orthonormal rows, random PSD H."""
    V = _orthogonal(rng, 2 * n)[:q]
    Wh = rng.normal(size=(2 * n + 1, 2 * n))
    return BoundarySpec(V[:, :n], V[:, n:], rng.normal(size=q), Wh.T @ Wh,
                        rng.normal(size=n), rng.normal(size=n))


def z_problem(seed) -> LqProblem:
    """Draw ``seed`` of the Z family: a singular plant with cost rank p,
    m = 3 inputs of which ma = 1 is costed, and a free channel of nb
    states driven by the two cost-neutral inputs.

    Built in hidden coordinates (xa, xb; ua, ub) and rotated by random
    orthogonal state and input transforms, as the benchmark's singular
    workload builds it, but drawn once (no redraw until rho(A) <= 1),
    with the zero dynamics of the costed part at radius 0.3-1.6 and the
    free block a rotation scaled by 0.9-1.3.  Its seeds are 5000-5299.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    T = int(rng.integers(n + 1, n + 9))
    q = int(rng.integers(0, 2 * n + 1))
    nb = 1 + int(rng.integers(0, min(2, n - 1)))
    p = int(rng.integers(1, 3))
    m, ma = 3, 1
    na, mb = n - nb, m - ma
    Ba = rng.normal(size=(na, ma))
    D = _orthogonal(rng, p)[:, :ma]
    G = 0.3 * rng.normal(size=(ma, na))
    C = D @ G + 0.5 * (np.eye(p) - D @ D.T) @ rng.normal(size=(p, na))
    Aa = _with_radius(rng, na, rng.uniform(0.3, 1.6)) + Ba @ G
    A = np.zeros((n, n))
    A[:na, :na] = Aa
    A[na:, :na] = 0.5 * rng.normal(size=(nb, na))
    A[na:, na:] = rng.uniform(0.9, 1.3) * _orthogonal(rng, nb)
    B = np.zeros((n, m))
    B[:na, :ma] = Ba
    B[na:, :ma] = rng.normal(size=(nb, ma))
    B[na:, ma:] = rng.normal(size=(nb, mb))
    F = np.zeros((p, n + m))
    F[:, :na] = C
    F[:, n:n + ma] = D
    Tx, Tu = _orthogonal(rng, n), _orthogonal(rng, m)
    Tz = np.zeros((n + m, n + m))
    Tz[:n, :n], Tz[n:, n:] = Tx, Tu
    pi = Tz @ F.T @ F @ Tz.T
    pi = 0.5 * (pi + pi.T)
    triple = PopovTriple(Tx @ A @ Tx.T, Tx @ B @ Tu.T, pi[:n, :n], pi[:n, n:],
                         pi[n:, n:])
    return LqProblem(triple, T, _boundary(rng, n, q))


def d_problem(seed) -> LqProblem:
    """Draw ``seed`` of the D family: n in [2, 6], m in [2, 3],
    T in [n + 1, n + 8] and q in [0, n], then the benchmark's
    unstructured singular instance (cost rank 1 to m - 1, drawn in the
    same order) with A scaled by 1.4/sqrt(n) in place of 0.9/sqrt(n),
    so that its free channel may grow.  Its seeds are 1000-1399.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 4))
    T = int(rng.integers(n + 1, n + 9))
    q = int(rng.integers(0, n + 1))
    p = int(rng.integers(1, m))
    F = rng.normal(size=(p, n + m))
    A = 1.4 * rng.normal(size=(n, n)) / np.sqrt(n)
    B = rng.normal(size=(n, m))
    pi = F.T @ F
    pi = 0.5 * (pi + pi.T)
    triple = PopovTriple(A, B, pi[:n, :n], pi[:n, n:], pi[n:, n:])
    return LqProblem(triple, T, _boundary(rng, n, q))


def attach_random_boundary(rng, triple, dec, extra_horizon=3):
    """Random boundary data with a horizon above the controllability
    index of the reachable block."""
    n = triple.n
    T = dec.index + int(rng.integers(1, extra_horizon + 1))
    q = int(rng.integers(0, 2 * n + 1))
    Wh = rng.normal(size=(2 * n + 1, 2 * n))
    bd = BoundarySpec(rng.normal(size=(q, n)), rng.normal(size=(q, n)),
                      rng.normal(size=q), Wh.T @ Wh,
                      rng.normal(size=n), rng.normal(size=n))
    return LqProblem(triple, T, bd)


def rebuild_trajectories(problem, dec, chi, free_shift=0.0):
    """(x, u, costate) at the boundary parameter chi, with the stacked
    free inputs moved by ``free_shift`` off their minimum-norm choice,
    along the path the solve itself takes."""
    x1_0, x1_T, x2_0, l2T = _split_chi(dec, chi)
    swept = _sweep(dec, problem.horizon, x2_0, l2T)
    u_free, *_ = control_free_param(dec, problem.horizon, x1_0, x1_T,
                                    swept[3])
    return _trajectories(dec, x1_0, swept, u_free + free_shift)


def simulate(triple, x0, us):
    """Roll the dynamics forward: returns states of shape (T+1, n)."""
    us = np.asarray(us, dtype=float).reshape(-1, triple.m)
    xs = np.empty((us.shape[0] + 1, triple.n))
    xs[0] = x0
    for t in range(us.shape[0]):
        xs[t + 1] = triple.A @ xs[t] + triple.B @ us[t]
    return xs


def measured_normal_rank(p):
    """Normal rank of the pencil N - zM measured on the pencil itself:
    the largest rank of N - zM over the ``size + 1`` distinct points
    z_k = 2 exp(2 pi i (k + 1/2) / (size + 1)).  The rank drops below
    the normal rank at no more than ``size`` values of z, so one of the
    points attains it."""
    k = np.arange(p.size + 1)
    points = 2.0 * np.exp(2j * np.pi * (k + 0.5) / (p.size + 1))
    return max(rank_of(p.at(z)) for z in points)


def three_input_document():
    """Problem document with n = 2, m = 3, q = 0, so that B is 2 x 3."""
    return {"n": 2, "m": 3, "q": 0, "T": 3, "A": np.eye(2).tolist(),
            "B": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], "Q": np.eye(2).tolist(),
            "S": np.zeros((2, 3)).tolist(), "R": np.eye(3).tolist(),
            "H": np.eye(4).tolist()}


# Matrices of the right size in the wrong 2-D shape: B transposed, and
# the 4 x 4 H written as 2 x 8.  Each must be rejected, not reshaped.
WRONG_SHAPES = [
    ("B", [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]], "(3, 2), expected (2, 3)"),
    ("H", np.eye(4).reshape(2, 8).tolist(), "(2, 8), expected (4, 4)"),
]
