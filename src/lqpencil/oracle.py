"""Independent verification oracle: the LQ problem as one flat QP.

The whole trajectory is affine in z = (x(0), u(0), ..., u(T-1)), so the
problem is exactly

    minimize  z' G z - 2 b' z + c0    subject to  Aeq z = beq,

with G PSD.  This module builds that QP from the trajectory map alone
(no Riccati equations, no pencil) and solves it by the null-space
method, giving an algorithmically independent check of the
decomposition-based solver.

Assembly is condensed by lag, as for a time-invariant plant in Frison
and Jorgensen (CDC 2013).  With F_k = A^k B and the open-loop stage sums
Y_0 = H_TT, Y_k = Q + A' Y_(k-1) A, every block of G is one product of
F, A^j and Y.  G is filled in O(T n^3 + T^2 n m^2): the powers of A by
doubling, the sums Y_k as one cumulative sum, and the control blocks by
one product per control column, T Python steps in all.

The null-space step works through the row space V1 of Aeq, which has
at most 2n rows; no basis of ker Aeq is formed.  With P = I - V1 V1' it
solves P G P y = P r for the minimum-norm y: a pivoted Cholesky
factorization of the reduced Hessian, in place, reveals its rank r in
at most dim^3 / 3 flops, and a thin QR of the dim x r factor gives the
minimum-norm solution in O(dim r^2) more (Hammarling, Higham and
Lucas, PARA 2006; Higham, Accuracy and Stability of Numerical
Algorithms, ch. 10).  Since (PGP)^+ = Z (Z'GZ)^+ Z' for any orthonormal
basis Z of ker Aeq, this is the minimum-norm solution in the reduced
coordinates.

Limits: the oracle refuses more than 2000 decision variables
(dim = n + m T); its solve is O(dim^3); and G carries the powers A^t, so
its conditioning degrades like rho(A)^(2T), and a flat QP that
overflows is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    ranked_svd,
)
from .model import LqProblem

MAX_FLAT_VARIABLES = 2000
# The reduced solve's rank cutoff, relative to the largest diagonal entry
# of the reduced Hessian: the one rank decision not taken from the
# TolerancePolicy.  The policy cutoff is relative to sigma_max and can
# discard genuine small curvature directions of badly scaled instances,
# so the cutoff sits at machine-precision scale.  LAPACK's default,
# dim * eps, is above it and loses the minimum-norm optimum where small
# curvature decides it.
CHOLESKY_RANK_TOL = 1e-14


class OracleSizeError(ValueError):
    """The flat QP is beyond what the dense oracle can represent (size
    guard or overflow)."""


class UnboundedObjectiveError(RuntimeError):
    """The reduced quadratic is inconsistent (cannot happen for a PSD
    stage cost; kept as a defensive check)."""


@dataclass(frozen=True)
class FlatQp:
    """The flattened problem: cost z'Gz - 2b'z + c0 on Aeq z = beq,
    in z = (x(0), u(0), ..., u(T-1))."""

    G: np.ndarray
    b: np.ndarray
    c0: float
    Aeq: np.ndarray
    beq: np.ndarray
    n: int
    m: int
    horizon: int

    @property
    def dim(self) -> int:
        return self.G.shape[0]

    def cost(self, z) -> float:
        z = np.asarray(z, dtype=float)
        return float(z @ self.G @ z - 2.0 * self.b @ z + self.c0)

    def controls(self, z) -> np.ndarray:
        """The (T, m) control block of a decision vector."""
        return np.asarray(z[self.n:], dtype=float).reshape(self.horizon, self.m)


def flatten(problem: LqProblem) -> FlatQp:
    """Condense stage costs and endpoint terms over the trajectory map
    x(t) = A^t x(0) + sum_{j<t} F_(t-1-j) u(j), with F_k = A^k B.

    With K_j = A' Y_(T-1-j) B + S and H split as [[H_00, H_0T],
    [H_T0, H_TT]] over [x(0); x(T)], the blocks of G are

        G[u_j, u_j] = B' Y_(T-1-j) B + R,
        G[u_i, u_j] = F_(j-1-i)' K_j                      (i < j),
        G[x0, u_j]  = (A^j)' K_j + H_0T F_(T-1-j),
        G[x0, x0]   = Y_T + H_00 + H_0T A^T + (A^T)' H_T0.

    Raises
    ------
    OracleSizeError
        When n + m*T exceeds the size guard, or when G, b or Aeq is not
        finite (the powers of A overflow).
    """
    tr, bd = problem.triple, problem.boundary
    n, m, T = tr.n, tr.m, problem.horizon
    dim = n + m * T
    if dim > MAX_FLAT_VARIABLES:
        raise OracleSizeError(
            f"flat QP has {dim} variables (limit {MAX_FLAT_VARIABLES})")

    A, B, S = tr.A, tr.B, tr.S
    # Only the symmetric parts of Q, R and H enter the cost.
    Q = 0.5 * (tr.Q + tr.Q.T)
    R = 0.5 * (tr.R + tr.R.T)
    H = 0.5 * (bd.H + bd.H.T)
    # An overflow is reported below, as a non-finite QP.
    with np.errstate(over="ignore", invalid="ignore"):
        # Apow[k] = A^k for k <= T, by doubling: Apow[k:2k] = Apow[:k] A^k
        Apow = np.empty((T + 1, n, n))
        Apow[0], Ak, k = np.eye(n), A, 1
        while k <= T:
            Apow[k:2 * k] = Apow[:min(k, T + 1 - k)] @ Ak
            Ak, k = Ak @ Ak, 2 * k
        At = Apow.transpose(0, 2, 1)
        F = Apow[:T] @ B
        # Y_k = sum_{l<k} (A^l)' Q A^l + (A^k)' H_TT A^k
        Y = At @ H[n:, n:] @ Apow
        Y[1:] += np.cumsum(At[:T] @ Q @ Apow[:T], axis=0)
        YB = Y[T - 1::-1] @ B  # Y_(T-1-j) B, the sum seen by u(j)
        K = A.T @ YB + S
        diag = B.T @ YB + R
        # x(T) = A^T x(0) + C u with C = [F_(T-1) ... F_0]; the blocks
        # of u(0..j-1) in x(j) are the last j blocks of C.
        C = F[::-1].transpose(1, 0, 2).reshape(n, T * m)

        # Each block above the diagonal with its mirror, then the
        # diagonal blocks.
        G = np.zeros((dim, dim))
        Gxu = (At[:T] @ K + H[:n, n:] @ F[::-1]).transpose(1, 0, 2)
        G[:n, n:] = Gxu.reshape(n, T * m)
        G[n:, :n] = G[:n, n:].T
        for j in range(1, T):
            c = n + j * m
            Guu = C[:, (T - j) * m:].T @ K[j]
            G[n:c, c:c + m] = Guu
            G[c:c + m, n:c] = Guu.T
        cross = H[:n, n:] @ Apow[T]
        Gxx = Y[T] + H[:n, :n] + cross + cross.T
        G[:n, :n] = 0.5 * (Gxx + Gxx.T)
        t = np.arange(T)
        G[n:, n:].reshape(T, m, T, m)[t, :, t] = \
            0.5 * (diag + diag.transpose(0, 2, 1))

        Me = np.zeros((2 * n, dim))
        Me[:n, :n] = np.eye(n)
        Me[n:, :n] = Apow[T]
        Me[n:, n:] = C
        h = np.concatenate([bd.h0, bd.hT])
        b = Me.T @ (H @ h)
        c0 = float(h @ H @ h)
        Aeq = bd.V @ Me
    if not (np.isfinite(G).all() and np.isfinite(b).all()
            and np.isfinite(Aeq).all()):
        raise OracleSizeError(
            f"flat QP over horizon {T} is not finite (overflow)")
    return FlatQp(G=G, b=b, c0=c0, Aeq=Aeq, beq=bd.v.copy(),
                  n=n, m=m, horizon=T)


def _project(V1, x):
    """P x = x - V1 V1' x, the orthogonal projection onto ker Aeq."""
    return x - V1 @ (V1.T @ x)


def _reduced_hessian(G, V1):
    """P G P + s V1 V1' by one rank-2q update G - W1 W2', s the largest
    diagonal entry of P G P; returns the matrix and W1, W2.

    P G P = G - V1 E0' - E0 V1' with E0 = G V1 - V1 (V1' G V1) / 2.  The
    update leaves rounding of the size eps*|G| in the row space of Aeq,
    which can exceed the solve's machine-precision rank cutoff; the term
    s V1 V1' gives those directions a curvature on the scale of P G P
    instead.  The right-hand side and the solution are projected onto
    ker Aeq, so the term does not change the minimizer.
    """
    GV1 = G @ V1
    E = GV1 - 0.5 * V1 @ (V1.T @ GV1)
    s = np.max(np.diag(G) - 2.0 * np.sum(V1 * E, axis=1))
    E -= 0.5 * s * V1
    W1, W2 = np.hstack([V1, E]), np.hstack([E, V1])
    Gw = W1 @ W2.T
    return np.subtract(G, Gw, out=Gw), W1, W2


def _min_norm_psd_solve(Gw, bw):
    """Gw^+ bw for a symmetric PSD Gw, which is overwritten.

    The pivoted Cholesky factorization Pi' Gw Pi = L L', Pi a
    permutation, stops at the first pivot at or below
    CHOLESKY_RANK_TOL * max(diag(Gw)) and leaves L dim x r.  With the
    thin QR L = Q R, Gw^+ = Pi Q R^-T R^-1 Q' Pi'.  The QR overwrites the
    first r columns of the factor, and Q is applied as Householder
    reflections, never formed.
    """
    from scipy.linalg.lapack import dgeqrf, dormqr, dpstrf, dtrtrs

    dim = Gw.shape[0]
    w = np.zeros(dim)
    # Gw is symmetric, so its transpose is the Fortran-ordered matrix.
    c, piv, r, _ = dpstrf(Gw.T, tol=CHOLESKY_RANK_TOL * np.max(np.diag(Gw)),
                          lower=1, overwrite_a=1)
    if r == 0:
        return w
    L = c[:, :r]
    L[:r][np.arange(r)[:, None] < np.arange(r)] = 0.0  # above the diagonal
    lwork = int(dgeqrf(L, lwork=-1, overwrite_a=1)[2][0])  # workspace query
    qr, tau, _, _ = dgeqrf(L, lwork=lwork, overwrite_a=1)
    p = piv - 1
    y, _, _ = dormqr("L", "T", qr, tau, bw[p, None], lwork, overwrite_c=1)
    y[:r], _ = dtrtrs(qr, y[:r])
    y[:r], _ = dtrtrs(qr, y[:r], trans=1)
    y[r:] = 0.0
    y, _, _ = dormqr("L", "N", qr, tau, y, lwork, overwrite_c=1)
    w[p] = y[:, 0]
    return w


def solve_flat(qp: FlatQp, pol: TolerancePolicy = DEFAULT_POLICY):
    """Minimize the flat QP by the null-space method.

    Returns
    -------
    z_opt : ndarray
        A minimizer (minimum-norm in the reduced coordinates); when the
        constraints are infeasible, the least-squares constraint fit.
    cost : float
        Objective value at z_opt.
    feasible : bool
        Whether Aeq z = beq is solvable under the policy tolerance.
    """
    svd = ranked_svd(qp.Aeq, pol, full=False)
    z_f, feasible = svd.solve(qp.beq, pol)
    if not feasible:
        return z_f, qp.cost(z_f), False
    V1 = svd.Vt[:svd.rank].T     # orthonormal basis of the row space
    Gw, W1, W2 = _reduced_hessian(qp.G, V1)
    bw = _project(V1, qp.b - qp.G @ z_f)
    # Minimum-norm solve at the machine-precision rank cutoff
    # CHOLESKY_RANK_TOL, by pivoted Cholesky; Gw is overwritten, so the
    # residual uses Gw w = G w - W1 W2' w.
    w = _min_norm_psd_solve(Gw, bw)
    del Gw
    residual = np.linalg.norm(qp.G @ w - W1 @ (W2.T @ w) - bw)
    if residual > pol.residual_tol * (1.0 + np.linalg.norm(bw)) * 100:
        raise UnboundedObjectiveError(
            "reduced normal equations are inconsistent; "
            "the objective is not bounded below on the feasible set")
    z = z_f + _project(V1, w)
    return z, qp.cost(z), True


def projected_gradient_norm(qp: FlatQp, z, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Norm of the objective gradient projected onto ker Aeq at z;
    zero at any constrained minimizer."""
    grad = 2.0 * (qp.G @ np.asarray(z, dtype=float) - qp.b)
    svd = ranked_svd(qp.Aeq, pol, full=False)
    V1 = svd.Vt[:svd.rank].T
    return float(np.linalg.norm(_project(V1, grad)))
