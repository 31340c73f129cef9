"""Constrained generalized discrete algebraic Riccati equation (CGDARE).

For a Popov triple (A, B; Q, S, R) a symmetric X solves the CGDARE when

    X = A' X A - S_X R_X^+ S_X' + Q      with      ker R_X <= ker S_X,

where  S_X = A' X B + S  and  R_X = R + B' X B.  R_X may be singular;
the kernel condition makes the pseudo-inverse term basis-independent.
Derived from a solution X are the closed-loop quantities

    K_X = R_X^+ S_X',   A_X = A - B K_X,   G_X = I - R_X^+ R_X,

G_X being the orthogonal projector onto ker R_X.  These drive the
pencil decomposition and the trajectory parameterization downstream.

A solution is found by iterating the update X <- A'XA - S_X R_X^+ S_X' + Q
from X = 0: single updates while R_X is singular, at most n of them,
then structure-preserving doubling, in feedback form, of the remaining
updates of the shifted triple, after a deflation of the cost-neutral
inputs and the states they drive if R_X is still singular (Ferrante
and Ntogramatzidis, Linear Multilinear Algebra 62, 2014).  One route,
with no branch, serves every triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    DimensionMismatchError,
    RankedSvd,
    TolerancePolicy,
    _as_matrix,
    matrix_norm,
    norm_exceeds,
    ranked_svd,
)
from .model import IndefiniteCostError, PopovTriple, _symmetric_psd


class NotSymmetricError(ValueError):
    """A candidate X is not symmetric."""


class NotRiccatiSolutionError(ValueError):
    """A candidate X fails the CGDARE residual or kernel condition."""

    def __init__(self, message, gdare_residual=None, kernel_violation=None):
        super().__init__(message)
        self.gdare_residual = gdare_residual
        self.kernel_violation = kernel_violation


class RiccatiIterationError(RuntimeError):
    """Base class for Riccati iteration failures; raised itself when a
    doubling step is singular."""


class RiccatiDivergenceError(RiccatiIterationError):
    """Iterates grew without bound."""


class RiccatiNoConvergenceError(RiccatiIterationError):
    """Successive differences did not settle within max_iters."""


class RiccatiKernelConditionError(RiccatiIterationError):
    """The iteration limit violates ker R_X <= ker S_X."""


def _check_candidate(sigma: PopovTriple, X, pol) -> np.ndarray:
    X = _as_matrix(X, "X")
    n = sigma.n
    if X.shape != (n, n):
        raise DimensionMismatchError(f"X must be {n} x {n}")
    if norm_exceeds(X - X.T, pol.residual_tol, X):
        raise NotSymmetricError("X is not symmetric")
    return 0.5 * (X + X.T)


def _derived(sigma: PopovTriple, X, pol):
    """S_X and the ranked SVD of R_X (symmetrised): what one update reads."""
    S_X = sigma.A.T @ X @ sigma.B + sigma.S
    R_X = sigma.R + sigma.B.T @ X @ sigma.B
    return S_X, ranked_svd(0.5 * (R_X + R_X.T), pol)


def _evaluate(sigma: PopovTriple, X, pol):
    """Check a candidate and compute, once, everything its tests read.

    Returns (X, S_X, R_X_svd, K_X, G_X, residual, S_X G_X): X
    symmetrised, the SVD of R_X, the residual matrix
    X - A'XA + S_X R_X^+ S_X' - Q and the matrix S_X G_X, which is zero
    iff ker R_X <= ker S_X.  No norm is taken here.
    """
    X = _check_candidate(sigma, X, pol)
    S_X, R_X_svd = _derived(sigma, X, pol)
    Rp = R_X_svd.pinv
    K_X = Rp @ S_X.T
    G_X = np.eye(sigma.m) - Rp @ R_X_svd.M
    residual = X - sigma.A.T @ X @ sigma.A + S_X @ Rp @ S_X.T - sigma.Q
    return X, S_X, R_X_svd, K_X, G_X, residual, S_X @ G_X


def _threshold(sigma: PopovTriple, X, pol) -> float:
    """Acceptance threshold residual_tol * (1 + ||Pi|| + ||X||)."""
    return pol.residual_tol * (1.0 + matrix_norm(sigma.pi) + matrix_norm(X))


@dataclass(frozen=True)
class RiccatiCertificate:
    """A CGDARE solution X together with its derived closed-loop data,
    the SVD of R_X it took, and the residual matrix and S_X G_X that
    certified it.  Their spectral norms, ``gdare_residual`` and
    ``kernel_violation``, are computed on first read: certification
    decides without them (:func:`~lqpencil.linalg.norm_exceeds`)."""

    sigma: PopovTriple
    X: np.ndarray
    S_X: np.ndarray
    R_X: np.ndarray
    R_X_svd: RankedSvd
    G_X: np.ndarray
    K_X: np.ndarray
    A_X: np.ndarray
    residual: np.ndarray
    S_X_G_X: np.ndarray

    @cached_property
    def gdare_residual(self) -> float:
        """||X - A'XA + S_X R_X^+ S_X' - Q||, the spectral norm."""
        return matrix_norm(self.residual)

    @cached_property
    def kernel_violation(self) -> float:
        """||S_X G_X||, the spectral norm; zero iff ker R_X <= ker S_X."""
        return matrix_norm(self.S_X_G_X)


def certify(sigma: PopovTriple, X, pol: TolerancePolicy = DEFAULT_POLICY) -> RiccatiCertificate:
    """Verify a candidate X and package the derived quantities.

    Accepts X when both the CGDARE residual norm and the kernel-condition
    violation are at most ``residual_tol * (1 + ||Pi|| + ||X||)``.

    Raises
    ------
    NotRiccatiSolutionError
        Carrying both residual norms, when either check fails.
    IndefiniteCostError
        When X passes both checks but Pi is not symmetric positive
        semidefinite, by the rule of :func:`~lqpencil.model.validate`.
    """
    return _certify(sigma, _evaluate(sigma, X, pol), pol)


def _certify(sigma: PopovTriple, evaluated, pol) -> RiccatiCertificate:
    """:func:`certify` on the output of :func:`_evaluate`.

    Each of the residual matrix and S_X G_X is tested on its own by
    :func:`~lqpencil.linalg.norm_exceeds`, which is the test of the
    larger of their norms; the exact norms are taken only on rejection,
    for the error, or when the certificate's are read.
    """
    Xs, S_X, R_X_svd, K_X, G_X, res, SG = evaluated
    if norm_exceeds(res, pol.residual_tol, sigma.pi, Xs) or \
            norm_exceeds(SG, pol.residual_tol, sigma.pi, Xs):
        res_norm, viol = matrix_norm(res), matrix_norm(SG)
        threshold = _threshold(sigma, Xs, pol)
        raise NotRiccatiSolutionError(
            f"X is not a CGDARE solution (residual {res_norm:.3e}, "
            f"kernel violation {viol:.3e}, threshold {threshold:.3e})",
            gdare_residual=res_norm, kernel_violation=viol)
    _symmetric_psd(sigma.pi, sigma._pi_eig, "stage cost Pi", IndefiniteCostError, pol)
    return RiccatiCertificate(
        sigma=sigma, X=Xs, S_X=S_X, R_X=R_X_svd.M, R_X_svd=R_X_svd,
        G_X=G_X, K_X=K_X, A_X=sigma.A - sigma.B @ K_X, residual=res, S_X_G_X=SG)


@dataclass(frozen=True)
class InputSplit:
    """Orthogonal input coordinates adapted to R_X.

    T1 spans im R_X (m1 columns), T2 spans ker R_X (m2 = m - m1
    columns); [T1 T2] is orthogonal.  R_X0 = T1' R_X T1 is the
    invertible regular block, B1 = B T1, B2 = B T2.
    """

    T1: np.ndarray
    T2: np.ndarray
    R_X0: np.ndarray
    B1: np.ndarray
    B2: np.ndarray

    @property
    def m1(self) -> int:
        return self.T1.shape[1]

    @property
    def m2(self) -> int:
        return self.T2.shape[1]


def split_inputs(cert: RiccatiCertificate, pol: TolerancePolicy = DEFAULT_POLICY) -> InputSplit:
    """Split input space along im R_X (regular) and ker R_X (free).

    R_X is symmetric PSD here, so the two spans are orthogonal
    complements and [T1 T2] is orthogonal by construction.  Both come
    from the certificate's SVD of R_X, ranked under ``pol``."""
    R_X = cert.R_X
    svd = cert.R_X_svd.ranked(pol)
    T1, T2 = svd.image, svd.kernel
    R_X0 = T1.T @ R_X @ T1
    return InputSplit(T1=T1, T2=T2, R_X0=0.5 * (R_X0 + R_X0.T),
                      B1=cert.sigma.B @ T1, B2=cert.sigma.B @ T2)


def _iterates(sigma: PopovTriple, max_iters: int, pol):
    """Yield X_1, X_2, ... of the update from X_0 = 0, max_iters updates at most.

    Single updates run while R_X is singular, j <= n of them: by then
    ker X_j, the states of zero j-step cost, has settled.  The updates
    from X_j on are those of the shifted triple
    (A, B; Q + A'X_jA - X_j, S_X, R_X) from 0.  With u = -K_X x + T1 v
    and x = E y (T1, E orthonormal bases of im R_X and im X_j, or E = I
    when R_X is nonsingular, j = 0 included) it reduces to the feedback
    form (E'A_X E, E'B T1; E'(X_(j+1) - X_j)E, T1'R_X T1), whose R is
    nonsingular: ker X_j holds B ker R_X and every later increment.
    Doubling it gives X_(j+k) = X_j + E Y_k E'.
    """
    X = np.zeros((sigma.n, sigma.n))
    for j in range(min(sigma.n, max_iters) + 1):
        S_X, R_X_svd = _derived(sigma, X, pol)
        if R_X_svd.rank == sigma.m or j == min(sigma.n, max_iters):
            break
        X = sigma.A.T @ X @ sigma.A - S_X @ R_X_svd.pinv @ S_X.T + sigma.Q
        X = 0.5 * (X + X.T)
        yield X
    E = np.eye(sigma.n) if R_X_svd.rank == sigma.m else ranked_svd(X, pol).image
    T1, K_X = R_X_svd.image, R_X_svd.pinv @ S_X.T
    D_X = sigma.Q + sigma.A.T @ X @ sigma.A - X - S_X @ K_X
    triple = (E.T @ (sigma.A - sigma.B @ K_X) @ E, E.T @ sigma.B @ T1,
              E.T @ D_X @ E, T1.T @ R_X_svd.M @ T1)
    for Y in _doubling(*triple, max_iters - j):
        yield X + E @ Y @ E.T


def _doubling(A, B, Q, R, max_iters: int):
    """Yield X_1, X_2, X_4, ..., X_(2^k) <= max_iters of the update
    X <- A'XA - A'XB (R + B'XB)^-1 B'XA + Q of a triple in feedback form
    (no cross term), from X_0 = 0, for nonsingular R, by structure-
    preserving doubling (Chu, Fan, Lin and Wang, Int. J. Control 77, 2004).

    With A_0 = A, G_0 = B R^-1 B', H_0 = Q = X_1 and W = I + G_k H_k,
    each step sets A_(k+1) = A_k W^-1 A_k,
    G_(k+1) = G_k + A_k W^-1 G_k A_k' and H_(k+1) = H_k + A_k' H_k W^-1 A_k,
    so that H_k = X_(2^k).  W is invertible when Pi >= 0.
    """
    if max_iters < 1:
        return
    n = A.shape[0]
    G = B @ np.linalg.solve(R, B.T)
    G = 0.5 * (G + G.T)
    H = 0.5 * (Q + Q.T)
    yield H
    # the identity and the right-hand side [A_k G_k], allocated once
    eye, AG = np.eye(n), np.empty((n, 2 * n))
    updates = 2
    while updates <= max_iters:
        AG[:, :n], AG[:, n:] = A, G
        try:
            WAG = np.linalg.solve(eye + G @ H, AG)
        except np.linalg.LinAlgError as exc:
            raise RiccatiIterationError(
                "doubling step is singular: I + G H is not invertible") from exc
        WA, WG = WAG[:, :n], WAG[:, n:]
        G = G + A @ WG @ A.T
        G = 0.5 * (G + G.T)
        H = H + A.T @ H @ WA
        H = 0.5 * (H + H.T)
        A = A @ WA
        yield H
        updates *= 2


def _limit(sigma: PopovTriple, iterates, max_iters: int, pol) -> np.ndarray:
    """The first of the iterates whose step from the one before (from 0
    for the first) is at most 1e-3 * residual_tol * (1 + ||X||),
    spectral norms both, as :func:`~lqpencil.linalg.norm_exceeds`
    decides it.

    Raises RiccatiDivergenceError when an iterate (or its Frobenius
    norm) is not finite or its norm exceeds 1e12 * (1 + ||Q||), and
    RiccatiNoConvergenceError when the iterates run out first.  One
    Frobenius norm per iterate settles the finite check and, when it is
    at most 1e12 / 2, the divergence test (the spectral norm is at most
    the Frobenius norm), as the first screen of ``norm_exceeds`` would;
    only a larger norm runs the full test.
    """
    tol_scale = 1e-3 * pol.residual_tol
    X = np.zeros((sigma.n, sigma.n))
    for X_next in iterates:
        step, X = X_next - X, X_next
        fro = np.linalg.norm(X)
        if not np.isfinite(fro):
            raise RiccatiDivergenceError("Riccati iterates are not finite")
        if 2.0 * fro > 1e12 and norm_exceeds(X, 1e12, sigma.Q):
            raise RiccatiDivergenceError("Riccati iterates diverged")
        if not norm_exceeds(step, tol_scale, X):
            return X
    raise RiccatiNoConvergenceError(
        f"no fixed point within {max_iters} iterations")


def iterate_grde(sigma: PopovTriple, max_iters: int = 5000,
                 pol: TolerancePolicy = DEFAULT_POLICY) -> RiccatiCertificate:
    """Run the Riccati difference iteration X <- A'XA - S_X R_X^+ S_X' + Q
    from X = 0 to a fixed point and certify the limit.

    The iterates come from one route for every triple: single updates
    while R_X is singular under ``pol``, at most n of them, then
    doubling of the shifted triple in feedback form, deflated when R_X
    is still singular (see :func:`_iterates`).  Convergence is declared
    when the step from the previous iterate drops below
    ``residual_tol * (1 + ||X||) * 1e-3`` (tighter than the
    certification threshold so the limit certifies).
    ``max_iters`` bounds the Riccati updates: a doubling step from
    X_(j+k) to X_(j+2k) counts as k of them.

    Raises
    ------
    RiccatiDivergenceError
        Iterate norm exceeded 1e12 * (1 + ||Q||), or an iterate is not
        finite.
    RiccatiNoConvergenceError
        No fixed point within max_iters updates.
    RiccatiKernelConditionError
        The limit solves the GDARE but violates ker R_X <= ker S_X.
    RiccatiIterationError
        A doubling step is singular, which needs an indefinite Pi.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            X = _limit(sigma, _iterates(sigma, max_iters, pol), max_iters, pol)
    except FloatingPointError as exc:
        raise RiccatiDivergenceError(
            f"Riccati iterates are not finite: {exc}") from exc
    try:
        return certify(sigma, X, pol)
    except NotRiccatiSolutionError as exc:
        if exc.kernel_violation > _threshold(sigma, X, pol):
            raise RiccatiKernelConditionError(
                f"iteration limit violates the kernel condition "
                f"(||S_X G_X|| = {exc.kernel_violation:.3e})") from exc
        raise RiccatiNoConvergenceError(
            f"iteration limit fails certification: {exc}") from exc
