"""Constrained generalized discrete algebraic Riccati equation (CGDARE).

For a Popov triple (A, B; Q, S, R) a symmetric X solves the CGDARE when

    X = A' X A - S_X R_X^+ S_X' + Q      with      ker R_X <= ker S_X,

where  S_X = A' X B + S  and  R_X = R + B' X B.  R_X may be singular;
the kernel condition makes the pseudo-inverse term basis-independent.
Derived from a solution X are the closed-loop quantities

    K_X = R_X^+ S_X',   A_X = A - B K_X,   G_X = I - R_X^+ R_X,
    C_X = C - D K_X     (with Pi = [C D]' [C D]),

G_X being the orthogonal projector onto ker R_X.  These drive the
pencil decomposition and the trajectory parameterization downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    DimensionMismatchError,
    TolerancePolicy,
    _as_matrix,
    image_basis,
    kernel_basis,
    matrix_norm,
    pseudo_inverse,
)
from .model import PopovTriple, factor_cost


class NotSymmetricError(ValueError):
    """A candidate X is not symmetric."""


class NotRiccatiSolutionError(ValueError):
    """A candidate X fails the CGDARE residual or kernel condition."""

    def __init__(self, message, gdare_residual=None, kernel_violation=None):
        super().__init__(message)
        self.gdare_residual = gdare_residual
        self.kernel_violation = kernel_violation


class RiccatiIterationError(RuntimeError):
    """Base class for fixed-point iteration failures."""


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
    if matrix_norm(X - X.T) > pol.residual_tol * (1.0 + matrix_norm(X)):
        raise NotSymmetricError("X is not symmetric")
    return 0.5 * (X + X.T)


def _derived(sigma: PopovTriple, X, pol):
    S_X = sigma.A.T @ X @ sigma.B + sigma.S
    R_X = sigma.R + sigma.B.T @ X @ sigma.B
    R_X = 0.5 * (R_X + R_X.T)
    Rp = pseudo_inverse(R_X, pol)
    K_X = Rp @ S_X.T
    G_X = np.eye(sigma.m) - Rp @ R_X
    return S_X, R_X, Rp, K_X, G_X


def _evaluate(sigma: PopovTriple, X, pol):
    """Check a candidate and compute, once, everything its tests read.

    Returns (X, S_X, R_X, K_X, G_X, residual, violation) with X
    symmetrised, the residual matrix X - A'XA + S_X R_X^+ S_X' - Q and
    the violation ||S_X G_X||, which is zero iff ker R_X <= ker S_X.
    """
    X = _check_candidate(sigma, X, pol)
    S_X, R_X, Rp, K_X, G_X = _derived(sigma, X, pol)
    residual = X - sigma.A.T @ X @ sigma.A + S_X @ Rp @ S_X.T - sigma.Q
    return X, S_X, R_X, K_X, G_X, residual, matrix_norm(S_X @ G_X)


def _threshold(sigma: PopovTriple, X, pol) -> float:
    """Acceptance threshold residual_tol * (1 + ||Pi|| + ||X||)."""
    return pol.residual_tol * (1.0 + matrix_norm(sigma.pi) + matrix_norm(X))


def gdare_residual(sigma: PopovTriple, X, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Residual matrix X - A'XA + S_X R_X^+ S_X' - Q of a symmetric candidate."""
    return _evaluate(sigma, X, pol)[5]


def kernel_condition_violation(sigma: PopovTriple, X,
                               pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Spectral norm of S_X G_X; zero iff ker R_X <= ker S_X."""
    return _evaluate(sigma, X, pol)[6]


@dataclass(frozen=True)
class RiccatiCertificate:
    """A CGDARE solution X together with its derived closed-loop data
    and the residual norms that certified it."""

    sigma: PopovTriple
    X: np.ndarray
    S_X: np.ndarray
    R_X: np.ndarray
    G_X: np.ndarray
    K_X: np.ndarray
    A_X: np.ndarray
    C_X: np.ndarray
    gdare_residual: float
    kernel_violation: float


def certify(sigma: PopovTriple, X, pol: TolerancePolicy = DEFAULT_POLICY) -> RiccatiCertificate:
    """Verify a candidate X and package the derived quantities.

    Accepts X when both the CGDARE residual norm and the kernel-condition
    violation are at most ``residual_tol * (1 + ||Pi|| + ||X||)``.

    Raises
    ------
    NotRiccatiSolutionError
        Carrying both residual norms, when either check fails.
    IndefiniteCostError
        When X passes both checks but Pi is not positive semidefinite,
        so that the certificate's output matrix C_X does not exist.
    """
    return _certify(sigma, _evaluate(sigma, X, pol), pol)


def _certify(sigma: PopovTriple, evaluated, pol) -> RiccatiCertificate:
    """:func:`certify` on the output of :func:`_evaluate`."""
    Xs, S_X, R_X, K_X, G_X, res, viol = evaluated
    res_norm = matrix_norm(res)
    threshold = _threshold(sigma, Xs, pol)
    if res_norm > threshold or viol > threshold:
        raise NotRiccatiSolutionError(
            f"X is not a CGDARE solution (residual {res_norm:.3e}, "
            f"kernel violation {viol:.3e}, threshold {threshold:.3e})",
            gdare_residual=res_norm, kernel_violation=viol)
    C, D = factor_cost(sigma, pol)
    return RiccatiCertificate(
        sigma=sigma, X=Xs, S_X=S_X, R_X=R_X, G_X=G_X, K_X=K_X,
        A_X=sigma.A - sigma.B @ K_X, C_X=C - D @ K_X,
        gdare_residual=float(res_norm), kernel_violation=float(viol))


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
    complements and [T1 T2] is orthogonal by construction.
    """
    R_X = cert.R_X
    T1 = image_basis(R_X, pol)
    T2 = kernel_basis(R_X, pol)
    R_X0 = T1.T @ R_X @ T1
    return InputSplit(T1=T1, T2=T2, R_X0=0.5 * (R_X0 + R_X0.T),
                      B1=cert.sigma.B @ T1, B2=cert.sigma.B @ T2)


def iterate_grde(sigma: PopovTriple, X0=None, max_iters: int = 5000,
                 pol: TolerancePolicy = DEFAULT_POLICY) -> RiccatiCertificate:
    """Run the Riccati difference iteration X <- A'XA - S_X R_X^+ S_X' + Q
    to a fixed point and certify the limit.

    Starts from X0 (default 0).  Convergence is declared when the
    successive difference drops below ``residual_tol * (1 + ||X||) * 1e-3``
    (tighter than the certification threshold so the limit certifies).

    Raises
    ------
    RiccatiDivergenceError
        Iterate norm exceeded 1e12 * (1 + ||Q||).
    RiccatiNoConvergenceError
        No fixed point within max_iters.
    RiccatiKernelConditionError
        The limit solves the GDARE but violates ker R_X <= ker S_X.
    """
    n = sigma.n
    X = np.zeros((n, n)) if X0 is None else _check_candidate(sigma, X0, pol)
    bound = 1e12 * (1.0 + matrix_norm(sigma.Q))
    tol_scale = 1e-3 * pol.residual_tol
    for _ in range(max_iters):
        S_X, R_X, Rp, _, _ = _derived(sigma, X, pol)
        X_next = sigma.A.T @ X @ sigma.A - S_X @ Rp @ S_X.T + sigma.Q
        X_next = 0.5 * (X_next + X_next.T)
        step, X = X_next - X, X_next
        # Each spectral norm costs an SVD.  Since ||X||_2 <= ||X||_F and
        # ||step||_2 >= its largest column norm, these cheap norms (with
        # a factor 2 against rounding) settle most iterations without
        # one, and every decision is the one the spectral norms give.
        fro = np.linalg.norm(X)
        if 2.0 * fro > bound and matrix_norm(X) > bound:
            raise RiccatiDivergenceError("Riccati iterates diverged")
        if np.linalg.norm(step, axis=0).max(initial=0.0) > 2.0 * tol_scale * (1.0 + fro):
            continue
        if matrix_norm(step) <= tol_scale * (1.0 + matrix_norm(X)):
            break
    else:
        raise RiccatiNoConvergenceError(
            f"no fixed point within {max_iters} iterations")
    try:
        return certify(sigma, X, pol)
    except NotRiccatiSolutionError as exc:
        if exc.kernel_violation > _threshold(sigma, X, pol):
            raise RiccatiKernelConditionError(
                f"iteration limit violates the kernel condition "
                f"(||S_X G_X|| = {exc.kernel_violation:.3e})") from exc
        raise RiccatiNoConvergenceError(
            f"iteration limit fails certification: {exc}") from exc
