"""Independent reference for the benchmark: the stage-wise KKT system.

Uses numpy and scipy only and imports nothing from ``lqpencil``.  The
problem

    minimize   sum_t [x_t; u_t]' Pi [x_t; u_t] + e' H e,
               e = [x_0 - h0; x_T - hT]
    subject to x_{t+1} = A x_t + B u_t,   V0 x_0 + VT x_T = v

is posed in the stage-wise variables z = (x_0, ..., x_T, u_0, ...,
u_{T-1}) with one multiplier per dynamics row and per boundary row, as
in the block-banded formulation of Rao, Wright & Rawlings (JOTA 1998).
No power of A is ever formed, so the system stays well conditioned at
long horizons where a condensed (x_0, u) formulation carries A^T.

The KKT matrix K is symmetric, often badly scaled, and singular
whenever the optimum is not unique (singular R).  K s = rhs is
therefore solved as a least-squares problem by regularised iterative
refinement: K is equilibrated by symmetric Ruiz scaling, a sparse LU
factorisation of the scaled matrix plus a tiny quasi-definite shift
(+delta on the primal block, -delta on the multipliers) gives each
correction, and the steps stop once the backward error of the
unregularised system is at machine-precision level.  Directions of zero
curvature, which do not change the cost, stay where the first step put
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from instance import Instance, cost

# Relative tolerance on optimal costs, as in the acceptance suite's
# oracle comparisons.
COST_RTOL = 1e-6
# Relative tolerance on dynamics and boundary residuals of a trajectory.
RESIDUAL_RTOL = 1e-7
_REFINE_STEPS = 40
_BACKWARD_ERROR = 1e-13
_ORDERINGS = ("COLAMD", "MMD_AT_PLUS_A", "NATURAL")


class ReferenceError(RuntimeError):
    """The KKT system could not be solved to the required residual."""


def _kkt(inst: Instance):
    """Sparse KKT matrix and right-hand side in (z, multipliers)."""
    n, m, T, q = inst.n, inst.m, inst.T, inst.q
    nx = (T + 1) * n
    nz = nx + T * m
    eye_n = sp.identity(n, format="csr")
    x_sel = sp.hstack([sp.identity(nx), sp.csr_matrix((nx, T * m))], format="csr")
    u_sel = sp.hstack([sp.csr_matrix((T * m, nx)), sp.identity(T * m)], format="csr")
    # Stage cost: Q on x_0..x_{T-1}, S between x_t and u_t, R on u_t.
    Qb = sp.block_diag([sp.kron(sp.identity(T), inst.Q), sp.csr_matrix((n, n))])
    Sb = sp.vstack([sp.kron(sp.identity(T), inst.S), sp.csr_matrix((n, T * m))])
    Rb = sp.kron(sp.identity(T), inst.R)
    P = (x_sel.T @ Qb @ x_sel + x_sel.T @ Sb @ u_sel + u_sel.T @ Sb.T @ x_sel
         + u_sel.T @ Rb @ u_sel)
    # Endpoint penalty on E z = [x_0; x_T].
    E = sp.csr_matrix((np.ones(2 * n),
                       (np.arange(2 * n),
                        np.concatenate([np.arange(n), T * n + np.arange(n)]))),
                      shape=(2 * n, nz))
    P = (P + E.T @ sp.csr_matrix(inst.H) @ E).tocsr()
    b = E.T @ (inst.H @ np.concatenate([inst.h0, inst.hT]))
    # Dynamics rows x_{t+1} - A x_t - B u_t = 0, then the boundary rows.
    shift = sp.kron(sp.eye(T, T + 1, k=1), eye_n) - sp.kron(sp.eye(T, T + 1), inst.A)
    dyn = sp.hstack([shift, -sp.kron(sp.identity(T), inst.B)])
    bnd = sp.csr_matrix(np.hstack([inst.V0, inst.VT])) @ E
    C = sp.vstack([dyn, bnd]).tocsr()
    K = sp.bmat([[P, C.T], [C, None]], format="csc")
    rhs = np.concatenate([b, np.zeros(T * n), inst.v])
    return K, rhs, nz


@dataclass(frozen=True)
class Optimum:
    x: np.ndarray
    u: np.ndarray
    cost: float
    backward_error: float


def _equilibrate(K, sweeps=10):
    """Symmetric Ruiz scaling: diagonal d with every row and column of
    diag(d) K diag(d) of max-norm close to 1."""
    d = np.ones(K.shape[0])
    Ks = K.tocsr()
    for _ in range(sweeps):
        r = np.sqrt(abs(Ks).max(axis=1).toarray().ravel())
        r[r == 0.0] = 1.0
        Ks = sp.diags(1.0 / r) @ Ks @ sp.diags(1.0 / r)
        d /= r
    return d, Ks.tocsc()


def _refine(Ks, b, lu):
    """Iterative refinement of Ks s = b with the factorisation ``lu`` of a
    shifted Ks; returns the last iterate and its backward error."""
    s = np.zeros(Ks.shape[0])
    norm_k = abs(Ks).max()
    for _ in range(_REFINE_STEPS):
        res = b - Ks @ s
        error = np.linalg.norm(res) / (norm_k * np.linalg.norm(s) + np.linalg.norm(b))
        if error <= _BACKWARD_ERROR or not np.isfinite(error):
            break
        s = s + lu.solve(res)
    return s, error


def solve(inst: Instance) -> Optimum:
    """Optimal trajectory and cost from the stage-wise KKT system.

    Each column ordering of :data:`_ORDERINGS` is tried in turn until
    refinement reaches the backward-error target: sparse LU of the
    nearly singular shifted matrix can lose all accuracy for one
    ordering and not for another.

    Raises
    ------
    ReferenceError
        When no ordering brings the backward error of the KKT solve
        below 1e-13, e.g. for an infeasible boundary constraint.
    """
    K, rhs, nz = _kkt(inst)
    d, Ks = _equilibrate(K)
    b = d * rhs
    delta = 1e-10 * abs(Ks).max()
    shifted = (Ks + sp.diags(np.concatenate([np.full(nz, delta),
                                             np.full(K.shape[0] - nz, -delta)]))).tocsc()
    for ordering in _ORDERINGS:
        s, error = _refine(Ks, b, splu(shifted, permc_spec=ordering, diag_pivot_thresh=0.1))
        if error <= _BACKWARD_ERROR:
            break
    else:
        raise ReferenceError(f"KKT backward error {error:.3e} above {_BACKWARD_ERROR:g}")
    z = d * s
    n, m, T = inst.n, inst.m, inst.T
    x = z[:(T + 1) * n].reshape(T + 1, n)
    u = z[(T + 1) * n:nz].reshape(T, m)
    return Optimum(x=x, u=u, cost=cost(inst, x, u), backward_error=float(error))


def costs_match(got: float, want: float) -> bool:
    return abs(got - want) <= COST_RTOL * (1.0 + abs(want))


def trajectory_faults(inst: Instance, x, u, reported_cost: float,
                      optimum: float) -> list:
    """Names of the checks a returned trajectory fails (empty if none).

    Recomputes the dynamics and boundary residuals and the cost of
    (x, u), and compares that cost with the reported one and with the
    reference optimum.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != (inst.T + 1, inst.n) or u.shape != (inst.T, inst.m):
        return ["shape"]
    faults = []
    size = 1.0 + max(np.abs(x).max(), np.abs(u).max() if u.size else 0.0)
    data = 1.0 + max(np.abs(inst.A).max(), np.abs(inst.B).max() if u.size else 0.0)
    dyn = np.abs(x[1:] - x[:-1] @ inst.A.T - u @ inst.B.T).max()
    if dyn > RESIDUAL_RTOL * size * data:
        faults.append("dynamics")
    if inst.q:
        bnd = np.abs(inst.V0 @ x[0] + inst.VT @ x[-1] - inst.v).max()
        if bnd > RESIDUAL_RTOL * size * (1.0 + np.abs(inst.V0).max()
                                         + np.abs(inst.VT).max()):
            faults.append("boundary")
    J = cost(inst, x, u)
    if not costs_match(reported_cost, J):
        faults.append("reported-cost")
    if not costs_match(J, optimum):
        faults.append("cost-vs-reference")
    return faults


def cyclic_faults(h, x0, reported_cost: float) -> list:
    """Checks against the closed form of the cyclic family (see
    :func:`instance.cyclic`): x(0) = (h1, 2 h2 / 3), cost 2 h2^2 / 3."""
    h1, h2 = h
    faults = []
    if not np.allclose(x0, [h1, 2.0 * h2 / 3.0], rtol=0.0,
                       atol=1e-8 * (1.0 + abs(h1) + abs(h2))):
        faults.append("closed-form-x0")
    if not costs_match(reported_cost, 2.0 * h2 ** 2 / 3.0):
        faults.append("closed-form-cost")
    return faults

