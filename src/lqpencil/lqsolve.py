"""Finite-horizon LQ solves via the pencil decomposition.

In the decomposition coordinates (reachable part x1 of dimension r,
unreachable part x2 of dimension n - r, regular inputs u1 of dimension
m1, free inputs u2 of dimension m2), every stationary trajectory is
generated by a finite-dimensional parameter

    chi = (x1(0), x1(T), x2(0), l2T)

together with the stacked free inputs.  Here l2T is the terminal value
of the second block of the *decomposed* costate

    lhat(t) = X x(t) - lambda(t)           (in U-coordinates),

whose first block vanishes identically and whose second block runs the
backward recursion lhat2(t) = A_X22' lhat2(t+1), lhat2(T) = l2T.  The
remaining pieces are recursions too:

    u1(t)    = R_X0^{-1} B12' lhat2(t+1)
    x2(t+1)  = A_X22 x2(t) + B12 u1(t)
    x2(T)    = A_X22^T x2(0) + P l2T,   P = sum_j A_X22^j W A_X22'^j  (PSD)

with W = B12 R_X0^{-1} B12'.  One backward sweep for lhat2 and one
forward sweep for x2 give the whole horizon at once (:func:`_sweep`);
each sweep runs as log2(T) vectorised doubling steps (:func:`_scan`),
and P is summed by doubling too.  The reachable block x1 is steered by
the free inputs through the reachability matrix of (A_X11, B21); its
endpoints are decision variables.

Original coordinates are recovered by x = U [x1; x2],
lambda = X x - U [0; lhat2], u = T1 u1 + T2 u2 - K_X x.  The endpoint
values of x and lambda are therefore linear in chi, and the boundary
and transversality conditions, written in the problem's own
coordinates, close the system: a square linear system in chi whose
solution set, combined with the kernel of the steering rows (the
reachability matrix), parameterizes *all* optimal trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _as_vector,
    _frobenius,
    ranked_svd,
)
from .model import LqProblem, evaluate_cost, validate
from .pencil import DecompositionError, PencilDecomposition, reachability_decomposition
from .riccati import RiccatiCertificate, split_inputs


class LqSolveError(RuntimeError):
    """Base class for solve-stage failures."""


class InfeasibleProblemError(LqSolveError):
    """The boundary constraints admit no stationary trajectory (and the
    problem, being convex with value bounded below, admits no optimum)."""


class HorizonTooShortError(LqSolveError):
    """The horizon is shorter than the controllability index of the
    reachable block, so the endpoint map is rank-deficient and
    solvability of the boundary system no longer decides feasibility."""


def _scan(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows x(0) = z(0), x(t) = A x(t-1) + z(t) of a linear recursion.

    Runs as log2(len(z)) doubling steps over the whole horizon: after
    the step with shift k, x(t) = sum of A^(t-i) z(i) over the last 2k
    indices i <= t.  ``z`` may also hold matrices (t, d, e), which are
    then propagated as x(t) = x(t-1) A', all rows in one 2-D product.
    """
    x = np.array(z, dtype=float)
    if not x.size:
        return x
    Ak, k = A, 1
    while k < len(x):
        x[k:] += (x[:-k].reshape(-1, len(A)) @ Ak.T).reshape(x[:-k].shape)
        k *= 2
        if k < len(x):
            Ak = Ak @ Ak
    return x


def _sweep(dec: PencilDecomposition, horizon: int, x2_0, l2T):
    """The decomposed trajectory pieces of one boundary parameter, one
    row per time step: lhat2 (T+1, n-r), u1 (T, m1), x2 (T+1, n-r) and
    the drift xi (T, r) of the reachable block.

    One backward sweep gives lhat2, one solve gives every u1(t), and one
    forward sweep gives x2.
    """
    A22 = dec.A_X22
    terminal = np.zeros((horizon + 1, A22.shape[0]))
    terminal[0] = l2T
    lhat2 = _scan(A22.T, terminal)[::-1]
    u1 = np.linalg.solve(dec.split.R_X0, dec.B12.T @ lhat2[1:].T).T
    x2 = _scan(A22, np.concatenate([[x2_0], u1 @ dec.B12.T]))
    xi = x2[:-1] @ dec.A_X12.T + u1 @ dec.B11.T
    return lhat2, u1, x2, xi


def _split_chi(dec: PencilDecomposition, chi):
    """(x1(0), x1(T), x2(0), l2T) from the stacked boundary parameter."""
    r, nr = dec.r, dec.n - dec.r
    chi = _as_vector(chi, "chi")
    return chi[0:r], chi[r:2 * r], chi[2 * r:2 * r + nr], chi[2 * r + nr:]


def endpoint_gramian(dec: PencilDecomposition, horizon: int,
                     pol: TolerancePolicy = DEFAULT_POLICY):
    """(P, A_X22^T): the endpoint gramian

        P = sum_{j=0}^{T-1} A_X22^j B12 R_X0^{-1} B12' A_X22'^j   (PSD)

    and the power of A_X22 that its doubling forms on the way.

    The sum is formed by doubling, P_(a+b) = P_a + A22^a P_b A22'^a,
    in O(n^3 log T).  It satisfies the Stein identity
    P - A22 P A22' = W - A22^T W A22'^T with W = B12 R_X0^{-1} B12',
    which is checked in O(n^3) whatever the spectrum of A22.

    Raises
    ------
    DecompositionError
        If the Stein check is not finite (the powers of A_X22
        overflow), or if P fails its Stein identity.
    """
    A22 = dec.A_X22
    d = A22.shape[0]
    W = dec.B12 @ np.linalg.solve(dec.split.R_X0, dec.B12.T)
    W = 0.5 * (W + W.T)
    # An overflow is reported below, as a non-finite gramian.
    with np.errstate(over="ignore", invalid="ignore"):
        # Over the binary digits of T: P sums the terms taken so far and
        # A_done is A22 to their number; P_k sums the first k terms and
        # A_k = A22^k, for k = 1, 2, 4, ...
        P, A_done = np.zeros((d, d)), np.eye(d)
        P_k, A_k = W, A22
        rest = horizon
        while rest:
            if rest & 1:
                P = P + A_done @ P_k @ A_done.T
                A_done = A_done @ A_k
            rest >>= 1
            if rest:
                P_k = P_k + A_k @ P_k @ A_k.T
                A_k = A_k @ A_k
        P = 0.5 * (P + P.T)
        term = A_done @ W @ A_done.T
        stein = _frobenius(P - A22 @ P @ A22.T - (W - term))
        bound = pol.residual_tol * (1.0 + _frobenius(P) * (1.0 + _frobenius(A22) ** 2)
                                    + _frobenius(W) + _frobenius(term))
    if not (math.isfinite(stein) and math.isfinite(bound)):
        raise DecompositionError("endpoint gramian is not finite")
    if stein > bound:
        raise DecompositionError(
            f"endpoint gramian fails its Stein identity "
            f"({stein:.3e} > {bound:.3e})")
    return P, A_done


def control_free_param(dec: PencilDecomposition, horizon: int, x1_0, x1_T,
                       xi_seq, pol: TolerancePolicy = DEFAULT_POLICY):
    """Minimum-norm stacked free inputs steering x1(0) to x1(T).

    With time-reversed stacking Ustack = [u2(T-1); ...; u2(0)],
    x1(T) = R1 Ustack + d.  The steering rows
    R1 = [B21 | A11 B21 | ... | A11^(T-1) B21] come from one scan seeded
    with B21', and d, the end of the drift x1(t+1) = A11 x1(t) + xi(t)
    from x1(0), from one scan of xi.

    Parameters
    ----------
    xi_seq : (T, r) array
        Forward-time drift terms xi(0), ..., xi(T-1).

    Returns
    -------
    u_stack : ndarray, shape (T * m2,)
        Time-reversed stack [u2(T-1); ...; u2(0)], the minimum-norm
        particular choice.
    steering : ndarray, shape (r, T * m2)
        The steering rows R1; adding any element of ker R1 leaves the
        whole optimal trajectory's cost unchanged.
    reachable : bool
        Whether the required endpoint displacement lies in im R1, by
        the feasibility rule of :meth:`~lqpencil.linalg.RankedSvd.solve`.
    free_dim : int
        The dimension of ker R1, from the same SVD.

    Raises
    ------
    DecompositionError
        If the steering rows (the powers of A_X11 overflow), or the
        steering target x1(T) - d or its norm, are not finite.
    """
    r = dec.r
    x1_0 = _as_vector(x1_0, "x1_0")
    x1_T = _as_vector(x1_T, "x1_T")
    xi = np.asarray(xi_seq, dtype=float).reshape(horizon, r)
    seed = np.zeros((horizon, dec.m2, r))
    seed[0] = dec.B21.T
    # An overflow is reported below, as non-finite steering rows or target.
    with np.errstate(over="ignore", invalid="ignore"):
        # row k of the scan is (A11^k B21)'
        R1 = _scan(dec.A_X11, seed).transpose(2, 0, 1).reshape(r, horizon * dec.m2)
        target = x1_T - _scan(dec.A_X11, np.concatenate([[x1_0], xi]))[-1]
        target_norm = _frobenius(target)
    if not np.isfinite(R1).all():
        raise DecompositionError("steering rows are not finite")
    if not math.isfinite(target_norm):
        raise DecompositionError("steering target is not finite")
    steering = ranked_svd(R1, pol, full=False)
    u_stack, reachable = steering.solve(target, pol)
    return u_stack, R1, reachable, R1.shape[1] - steering.rank


def assemble_boundary(problem: LqProblem, dec: PencilDecomposition,
                      pol: TolerancePolicy = DEFAULT_POLICY):
    """Build the 2n x 2n boundary/transversality system F chi = g in
    chi = (x1(0), x1(T), x2(0), l2T); returns (F, g).

    The system is written in the problem's own coordinates.  With
    U = [U1 U2], the endpoint states are linear in chi,

        x(0) = U1 x1(0) + U2 x2(0),
        x(T) = U1 x1(T) + U2 (A_X22^T x2(0) + P l2T),

    P the endpoint gramian, and so are the endpoint costates
    lambda = X x - U2 lhat2, with lhat2(0) = A_X22'^T l2T and
    lhat2(T) = l2T.  The first q rows impose the affine endpoint
    constraint V [x(0); x(T)] = v; the remaining 2n - q rows impose
    transversality, [-lambda(0); lambda(T)] - H e in im V' with
    e = [x(0) - h0; x(T) - hT], projected onto ker V (where the
    multiplier cannot absorb it); ker V is read off the boundary's SVD of V.
    """
    n, r = dec.n, dec.r
    U1, U2 = dec.U[:, :r], dec.U[:, r:]
    X = dec.cert.X
    bd = problem.boundary
    P, A22_pow = endpoint_gramian(dec, problem.horizon, pol)

    # Rows map the column blocks of chi = (x1(0), x1(T), x2(0), l2T) to
    # [x(0); x(T)] and to [lambda(0); -lambda(T)], lambda = X x - U2 lhat2.
    x1_0, x1_T = slice(0, r), slice(r, 2 * r)
    x2_0, l2T = slice(2 * r, n + r), slice(n + r, 2 * n)
    ends, turn = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    ends[:n, x1_0], ends[:n, x2_0] = U1, U2
    ends[n:, x1_T], ends[n:, x2_0], ends[n:, l2T] = U1, U2 @ A22_pow, U2 @ P
    turn[:n] = X @ ends[:n]
    turn[:n, l2T] -= U2 @ A22_pow.T
    turn[n:, l2T] = U2
    turn[n:] -= X @ ends[n:]

    K = bd._v_svd.ranked(pol).kernel
    F = np.concatenate([bd.V @ ends, K.T @ (bd.H @ ends + turn)])
    g = np.concatenate([bd.v, K.T @ bd.H @ np.concatenate([bd.h0, bd.hT])])
    return F, g


@dataclass(frozen=True)
class StationarityReport:
    """Max-norm residuals of the first-order optimality system.

    ``transversality_residual`` is measured after fitting the
    constraint multiplier by least squares; ``eta`` is that fit.
    """

    dynamics_residual: float
    constraint_residual: float
    costate_residual: float
    input_residual: float
    transversality_residual: float
    eta: np.ndarray
    scale: float
    passed: bool


@dataclass(frozen=True)
class LqSolution:
    """An optimal trajectory plus the complete optimal-set description.

    ``free_boundary`` spans the directions in chi space along which the
    boundary system stays satisfied; at fixed chi, the cost-neutral
    changes of the stacked free inputs are the kernel of the
    ``steering`` rows R1 (see :func:`control_free_param`), of dimension
    ``free_control_dim``.  ``costate`` holds the dynamics' multipliers.
    """

    x: np.ndarray
    u: np.ndarray
    costate: np.ndarray
    cost: float
    chi: np.ndarray
    free_boundary: np.ndarray
    steering: np.ndarray
    free_control_dim: int
    residuals: StationarityReport
    r: int
    m1: int
    m2: int


def _trajectories(dec: PencilDecomposition, x1_0, swept, u_free_stack):
    """(x, u, costate) from x1(0), the output of :func:`_sweep` and the
    stacked free inputs."""
    lhat2, u1, x2, xi = swept
    u2 = u_free_stack.reshape(len(u1), dec.m2)[::-1]
    x1 = _scan(dec.A_X11, np.concatenate([[x1_0], u2 @ dec.B21.T + xi]))
    xs = np.concatenate([x1, x2], axis=1) @ dec.U.T
    lams = xs @ dec.cert.X.T - lhat2 @ dec.U[:, dec.r:].T
    us = u1 @ dec.split.T1.T + u2 @ dec.split.T2.T - xs[:-1] @ dec.cert.K_X.T
    return xs, us, lams


def _stationarity(problem: LqProblem, xs, us, lams, pol) -> StationarityReport:
    """:func:`verify_stationarity` on the trajectories themselves.

    Dynamics, costate recursion and input stationarity are the three
    row blocks of the extended symplectic difference equation
    N z(t) - M z(t+1) = 0, z(t) = (x(t), lambda(t), u(t)) with u(T) = 0
    (M has no input columns), on the pencil the triple keeps: two
    products over the whole horizon.
    """
    tr, bd = problem.triple, problem.boundary
    n, T_h = tr.n, problem.horizon
    z = np.zeros((T_h + 1, 2 * n + tr.m))
    z[:, :n], z[:, n:2 * n], z[:-1, 2 * n:] = xs, lams, us
    esde = z[:-1] @ tr.esp.N.T - z[1:] @ tr.esp.M.T
    sq = esde * esde
    # worst row norm of each block; a block of no columns gives 0
    dyn, cos, inp = (np.sqrt(sq[:, cols].sum(axis=1).max(initial=0.0))
                     for cols in (slice(0, n), slice(n, 2 * n), slice(2 * n, None)))
    con = _frobenius(bd.V0 @ xs[0] + bd.VT @ xs[T_h] - bd.v)
    e = np.concatenate([xs[0] - bd.h0, xs[T_h] - bd.hT])
    rhs = np.concatenate([-lams[0], lams[T_h]]) - bd.H @ e
    # Least squares by pinv(V)' from the boundary's SVD of V, under the policy's
    # cutoff (eta is empty when q = 0); ||Pi||, ||H|| are the max |eigenvalue|s,
    # and the triple keeps ||A||, ||B||.
    fit = bd._v_svd.ranked(pol)
    eta = fit.pinv.T @ rhs
    tv = _frobenius(bd.V.T @ eta - rhs)
    data_scale = 1.0 + max(*tr._dynamics_norms, tr._pi_eig[2], bd._h_eig[2],
                           np.max(fit.s, initial=0.0))
    traj_scale = 1.0 + np.max(np.abs(z), initial=0.0)
    scale = data_scale * traj_scale
    worst = max(dyn, con, cos, inp, tv)
    return StationarityReport(
        dynamics_residual=float(dyn), constraint_residual=float(con),
        costate_residual=float(cos), input_residual=float(inp),
        transversality_residual=tv, eta=eta, scale=float(scale),
        passed=bool(worst <= pol.residual_tol * scale))


def verify_stationarity(problem: LqProblem, sol: LqSolution,
                        pol: TolerancePolicy = DEFAULT_POLICY) -> StationarityReport:
    """Residuals of the discrete first-order optimality system:
    dynamics, endpoint constraint, costate recursion, input
    stationarity, and endpoint transversality (multiplier fitted by
    least squares under the policy's rank cutoff).  The dynamics,
    costate and input residuals are the worst row norms of the three
    row blocks of the extended symplectic difference equation
    N z(t) - M z(t+1), z = (x, lambda, u).  ``passed`` compares the
    worst residual against ``residual_tol`` scaled by the data and
    trajectory norms."""
    return _stationarity(problem, sol.x, sol.u, sol.costate, pol)


def solve_problem(problem: LqProblem, cert: RiccatiCertificate,
                  pol: TolerancePolicy = DEFAULT_POLICY) -> LqSolution:
    """Solve the constrained LQ problem given a CGDARE certificate.

    Raises
    ------
    ValidationError
        The problem fails :func:`~lqpencil.model.validate`.
    DecompositionError
        The reachability decomposition fails its invariance or
        reachability checks, or the solve fails one of its own.
    InfeasibleProblemError, HorizonTooShortError
        As in :func:`solve_with_decomposition`.
    """
    validate(problem, pol)
    dec = reachability_decomposition(cert, split_inputs(cert, pol), pol)
    return solve_with_decomposition(problem, dec, pol)


def solve_with_decomposition(problem: LqProblem, dec: PencilDecomposition,
                             pol: TolerancePolicy = DEFAULT_POLICY) -> LqSolution:
    """Solve with a pre-computed decomposition (see :func:`solve_problem`).

    Raises
    ------
    DecompositionError
        The endpoint gramian, the steering rows or the steering target
        are not finite (the powers of A_X22 or A_X11 overflow), the
        gramian fails its Stein identity, or the reconstructed x1(T)
        misses its target.
    InfeasibleProblemError
        The boundary system has no solution (no optimum exists).
    HorizonTooShortError
        The horizon is below the controllability index of the
        reachable block, where the boundary system stops being a
        faithful feasibility test, or the required endpoint
        displacement is outside the horizon's reach.
    """
    T_h = problem.horizon
    r = dec.r

    if T_h < dec.index:
        raise HorizonTooShortError(
            f"horizon {T_h} is below the controllability index {dec.index}")

    F, g = assemble_boundary(problem, dec, pol)
    boundary = ranked_svd(F, pol)
    chi, feasible = boundary.solve(g, pol)
    if not feasible:
        raise InfeasibleProblemError("boundary/transversality system is infeasible")

    x1_0, x1_T, x2_0, l2T = _split_chi(dec, chi)
    swept = _sweep(dec, T_h, x2_0, l2T)
    u_free, steering, reachable, free_dim = control_free_param(
        dec, T_h, x1_0, x1_T, swept[3], pol)
    if not reachable:
        raise HorizonTooShortError(
            "required endpoint displacement is outside the horizon's reach")

    xs, us, lams = _trajectories(dec, x1_0, swept, u_free)
    if r and _frobenius(dec.U[:, :r].T @ xs[T_h] - x1_T) > \
            pol.residual_tol * (1.0 + _frobenius(x1_T)) * 100:
        raise DecompositionError("reconstructed x1(T) misses its target")

    report = _stationarity(problem, xs, us, lams, pol)
    return LqSolution(
        x=xs, u=us, costate=lams, cost=evaluate_cost(problem, xs, us),
        chi=chi, free_boundary=boundary.kernel, steering=steering,
        free_control_dim=free_dim, residuals=report, r=r, m1=dec.m1, m2=dec.m2)
