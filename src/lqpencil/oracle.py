"""Independent verification oracle: the LQ problem as one flat QP.

The whole trajectory is affine in z = (x(0), u(0), ..., u(T-1)), so the
problem is exactly

    minimize  z' G z - 2 b' z + c0    subject to  Aeq z = beq,

with G PSD.  This module builds that QP by direct accumulation of the
stage costs over the trajectory map (no Riccati equations, no pencil)
and solves it by the null-space method, giving an algorithmically
independent check of the decomposition-based solver.  Intended for desk
scale; it refuses problems with more than 2000 decision variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    kernel_basis,
    solve_affine,
)
from .model import LqProblem

MAX_FLAT_VARIABLES = 2000


class OracleSizeError(ValueError):
    """The flat QP would exceed the oracle's size guard."""


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
    """Accumulate stage costs and endpoint terms over the trajectory map
    x(t) = A^t x(0) + sum_{j<t} A^(t-1-j) B u(j).

    Raises
    ------
    OracleSizeError
        When n + m*T exceeds the size guard.
    """
    tr, bd = problem.triple, problem.boundary
    n, m, T = tr.n, tr.m, problem.horizon
    dim = n + m * T
    if dim > MAX_FLAT_VARIABLES:
        raise OracleSizeError(
            f"flat QP has {dim} variables (limit {MAX_FLAT_VARIABLES})")

    pi = tr.pi
    G = np.zeros((dim, dim))
    # Phi maps z to x(t); advanced in place as t grows.
    Phi = np.zeros((n, dim))
    Phi[:, :n] = np.eye(n)
    for t in range(T):
        Mt = np.zeros((n + m, dim))
        Mt[:n] = Phi
        Mt[n:, n + t * m:n + (t + 1) * m] = np.eye(m)
        G += Mt.T @ pi @ Mt
        Phi = tr.A @ Phi
        Phi[:, n + t * m:n + (t + 1) * m] += tr.B
    Me = np.zeros((2 * n, dim))
    Me[:n, :n] = np.eye(n)
    Me[n:] = Phi  # Phi now maps z to x(T)
    h = np.concatenate([bd.h0, bd.hT])
    G += Me.T @ bd.H @ Me
    G = 0.5 * (G + G.T)
    b = Me.T @ (bd.H @ h)
    c0 = float(h @ bd.H @ h)
    Aeq = bd.V @ Me
    return FlatQp(G=G, b=b, c0=c0, Aeq=Aeq, beq=bd.v.copy(),
                  n=n, m=m, horizon=T)


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
    z_f, feasible = solve_affine(qp.Aeq, qp.beq, pol)
    if not feasible:
        return z_f, qp.cost(z_f), False
    Z = kernel_basis(qp.Aeq, pol)
    Gw = Z.T @ qp.G @ Z
    Gw = 0.5 * (Gw + Gw.T)
    bw = Z.T @ (qp.b - qp.G @ z_f)
    # Minimum-norm least-squares solve at machine-precision rank cutoff:
    # the policy cutoff is relative to sigma_max and can discard genuine
    # small curvature directions of badly scaled instances.
    w, *_ = np.linalg.lstsq(Gw, bw, rcond=None)
    residual = np.linalg.norm(Gw @ w - bw)
    if residual > pol.residual_tol * (1.0 + np.linalg.norm(bw)) * 100:
        raise UnboundedObjectiveError(
            "reduced normal equations are inconsistent; "
            "the objective is not bounded below on the feasible set")
    z = z_f + Z @ w
    return z, qp.cost(z), True


def projected_gradient_norm(qp: FlatQp, z, pol: TolerancePolicy = DEFAULT_POLICY) -> float:
    """Norm of the objective gradient projected onto ker Aeq at z;
    zero at any constrained minimizer."""
    Z = kernel_basis(qp.Aeq, pol)
    grad = 2.0 * (qp.G @ np.asarray(z, dtype=float) - qp.b)
    return float(np.linalg.norm(Z.T @ grad))
