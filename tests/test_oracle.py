"""Flat-QP oracle: flattening the trajectory map, solving the reduced
system, and the optimality certificate."""

import numpy as np
import pytest

from lqpencil import (
    BoundarySpec,
    LqProblem,
    OracleSizeError,
    PopovTriple,
    UnboundedObjectiveError,
    flatten,
    solve_flat,
)
from lqpencil.linalg import ranked_svd
from lqpencil.model import evaluate_cost
from lqpencil.oracle import (
    MAX_FLAT_VARIABLES,
    FlatQp,
    _min_norm_psd_solve,
    _reduced_hessian,
    projected_gradient_norm,
)

from conftest import random_regular_problem, random_singular_triple, simulate


def scalar_chain_problem(with_penalty):
    triple = PopovTriple([[2.0]], [[1.0]], [[1.0]], [[0.0]], [[3.0]])
    H = np.eye(2) if with_penalty else np.zeros((2, 2))
    h = np.ones(1) if with_penalty else np.zeros(1)
    return LqProblem(triple, 2, BoundarySpec(np.zeros((0, 1)),
                                             np.zeros((0, 1)), np.zeros(0),
                                             H, h, h))


def test_flatten_hand_expansion_no_penalty():
    qp = flatten(scalar_chain_problem(False))
    assert qp.dim == 3
    np.testing.assert_allclose(qp.G, [[5.0, 2.0, 0.0],
                                      [2.0, 4.0, 0.0],
                                      [0.0, 0.0, 3.0]], atol=1e-14)
    np.testing.assert_allclose(qp.b, 0.0, atol=1e-14)
    assert qp.c0 == pytest.approx(0.0)
    assert qp.Aeq.shape == (0, 3)


def test_flatten_hand_expansion_with_penalty():
    qp = flatten(scalar_chain_problem(True))
    np.testing.assert_allclose(qp.G, [[22.0, 10.0, 4.0],
                                      [10.0, 8.0, 2.0],
                                      [4.0, 2.0, 4.0]], atol=1e-14)
    np.testing.assert_allclose(qp.b, [5.0, 2.0, 1.0], atol=1e-14)
    assert qp.c0 == pytest.approx(2.0)


def test_flatten_cost_matches_simulation(cyclic):
    rng = np.random.default_rng(13)
    qp = flatten(cyclic)
    for _ in range(10):
        z = rng.normal(size=qp.dim)
        us = qp.controls(z)
        xs = simulate(cyclic.triple, z[:2], us)
        assert qp.cost(z) == pytest.approx(evaluate_cost(cyclic, xs, us),
                                           rel=1e-12, abs=1e-12)


def test_flatten_constraints_match_simulation(cyclic):
    rng = np.random.default_rng(29)
    qp = flatten(cyclic)
    bd = cyclic.boundary
    for _ in range(5):
        z = rng.normal(size=qp.dim)
        xs = simulate(cyclic.triple, z[:2], qp.controls(z))
        np.testing.assert_allclose(qp.Aeq @ z,
                                   bd.V0 @ xs[0] + bd.VT @ xs[-1],
                                   atol=1e-12)
    np.testing.assert_allclose(qp.beq, bd.v)


def test_flatten_random_instances_cost_identity():
    rng = np.random.default_rng(97)
    for _ in range(10):
        p = random_regular_problem(rng)
        qp = flatten(p)
        z = rng.normal(size=qp.dim)
        us = qp.controls(z)
        xs = simulate(p.triple, z[:p.triple.n], us)
        assert qp.cost(z) == pytest.approx(
            evaluate_cost(p, xs, us),
            rel=1e-10, abs=1e-10 * (1 + abs(qp.cost(z))))


def test_solve_flat_unconstrained_quadratic():
    qp = FlatQp(G=np.eye(2), b=np.array([1.0, 0.0]), c0=5.0,
                Aeq=np.zeros((0, 2)), beq=np.zeros(0), n=1, m=1, horizon=1)
    z, cost, feasible = solve_flat(qp)
    assert feasible
    np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-12)
    assert cost == pytest.approx(4.0)
    assert projected_gradient_norm(qp, z) <= 1e-10


def test_solve_flat_reports_infeasibility():
    qp = FlatQp(G=np.eye(2), b=np.zeros(2), c0=0.0,
                Aeq=np.array([[1.0, 0.0], [1.0, 0.0]]),
                beq=np.array([0.0, 1.0]), n=1, m=1, horizon=1)
    _, _, feasible = solve_flat(qp)
    assert not feasible


def test_solve_flat_detects_linear_unboundedness():
    qp = FlatQp(G=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c0=0.0,
                Aeq=np.zeros((0, 2)), beq=np.zeros(0), n=1, m=1, horizon=1)
    with pytest.raises(UnboundedObjectiveError):
        solve_flat(qp)


@pytest.mark.parametrize("rank", [0, 1, 6, 12])
def test_min_norm_psd_solve_matches_pseudo_inverse(rank):
    # Eigenvalues spread from 1 down to 1e-10: the kept directions have
    # condition number 1e10, so the solution carries a relative error of
    # about 1e10 * dim * eps, below 1e-4.
    rng = np.random.default_rng(300 + rank)
    dim = 12
    U, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    lam = np.zeros(dim)
    lam[:rank] = np.logspace(0, -10, rank)
    Gw = (U * lam) @ U.T
    Gw = 0.5 * (Gw + Gw.T)
    bw = rng.normal(size=dim)
    want = np.linalg.pinv(Gw) @ bw
    got = _min_norm_psd_solve(Gw.copy(), bw)
    assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)
    if rank == 0:
        assert not got.any()


def test_solve_flat_detects_rank_deficient_inconsistency():
    # G has rank 2 and ker Aeq dimension 4, so a generic b leaves the
    # reduced system inconsistent with its rank between 0 and dim.
    rng = np.random.default_rng(307)
    X = rng.normal(size=(5, 2))
    qp = FlatQp(G=X @ X.T, b=rng.normal(size=5), c0=0.0,
                Aeq=rng.normal(size=(1, 5)), beq=np.ones(1), n=1, m=1,
                horizon=4)
    V1 = ranked_svd(qp.Aeq, full=False).Vt.T
    rank = np.linalg.matrix_rank(_reduced_hessian(qp.G, V1)[0])
    assert 0 < rank < qp.dim
    with pytest.raises(UnboundedObjectiveError):
        solve_flat(qp)


def test_oracle_minimizer_beats_random_feasible_points(cyclic):
    rng = np.random.default_rng(131)
    qp = flatten(cyclic)
    z_opt, cost, feasible = solve_flat(qp)
    assert feasible
    assert cost == pytest.approx(8.0 / 3.0, abs=1e-9)
    assert projected_gradient_norm(qp, z_opt) <= 1e-9
    z_f, _ = ranked_svd(qp.Aeq, full=False).solve(qp.beq)
    Z = ranked_svd(qp.Aeq).kernel
    for _ in range(100):
        z = z_f + Z @ rng.normal(size=Z.shape[1])
        assert qp.cost(z) >= cost - 1e-9


def test_projected_gradient_positive_off_optimum(cyclic):
    qp = flatten(cyclic)
    z_opt, _, _ = solve_flat(qp)
    Z = ranked_svd(qp.Aeq).kernel
    z_bad = z_opt + Z @ np.ones(Z.shape[1])
    assert projected_gradient_norm(qp, z_bad) > 1e-3


def test_size_guard():
    triple = PopovTriple([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    p = LqProblem(triple, MAX_FLAT_VARIABLES, BoundarySpec.unconstrained(1))
    with pytest.raises(OracleSizeError):
        flatten(p)


def test_oracle_agrees_on_random_regular_batch(pol):
    rng = np.random.default_rng(163)
    from lqpencil import (
        InfeasibleProblemError,
        RiccatiDivergenceError,
        RiccatiNoConvergenceError,
        iterate_grde,
    )
    from lqpencil.lqsolve import solve_with_decomposition
    from lqpencil.pencil import reachability_decomposition
    from lqpencil.riccati import split_inputs
    done = 0
    while done < 10:
        p = random_regular_problem(rng)
        try:
            cert = iterate_grde(p.triple)
        except (RiccatiDivergenceError, RiccatiNoConvergenceError):
            continue
        dec = reachability_decomposition(cert, split_inputs(cert))
        try:
            sol = solve_with_decomposition(p, dec)
        except InfeasibleProblemError:
            _, _, feasible = solve_flat(flatten(p))
            assert not feasible
            done += 1
            continue
        qp = flatten(p)
        _, cost, feasible = solve_flat(qp)
        assert feasible
        assert sol.cost == pytest.approx(cost, abs=1e-6 * (1 + abs(cost)))
        z = np.concatenate([sol.x[0], sol.u.reshape(-1)])
        assert projected_gradient_norm(qp, z) <= \
            1e-6 * (1 + np.linalg.norm(qp.G))
        done += 1


@pytest.mark.filterwarnings("error")
def test_flatten_overflow_is_size_error():
    # A = 3 and T = 1000: A^T = 3^1000 overflows the dense QP
    triple = PopovTriple([[3.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]])
    bd = BoundarySpec(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0),
                      np.eye(2), np.ones(1), np.ones(1))
    with pytest.raises(OracleSizeError, match="not finite"):
        flatten(LqProblem(triple, 1000, bd))


def stagewise_flatten(problem):
    """Test-side reference: accumulate each stage's cost as one dense
    dim x dim term over the trajectory map z -> x(t)."""
    tr, bd = problem.triple, problem.boundary
    n, m, T = tr.n, tr.m, problem.horizon
    dim = n + m * T
    G = np.zeros((dim, dim))
    Phi = np.zeros((n, dim))  # maps z to x(t)
    Phi[:, :n] = np.eye(n)
    for t in range(T):
        Mt = np.zeros((n + m, dim))
        Mt[:n] = Phi
        Mt[n:, n + t * m:n + (t + 1) * m] = np.eye(m)
        G += Mt.T @ tr.pi @ Mt
        Phi = tr.A @ Phi
        Phi[:, n + t * m:n + (t + 1) * m] += tr.B
    Me = np.zeros((2 * n, dim))
    Me[:n, :n] = np.eye(n)
    Me[n:] = Phi  # Phi now maps z to x(T)
    h = np.concatenate([bd.h0, bd.hT])
    G += Me.T @ bd.H @ Me
    return FlatQp(G=0.5 * (G + G.T), b=Me.T @ (bd.H @ h),
                  c0=float(h @ bd.H @ h), Aeq=bd.V @ Me, beq=bd.v.copy(),
                  n=n, m=m, horizon=T)


def nullspace_solve(qp):
    """Test-side reference: the minimizer in an explicit orthonormal
    kernel basis Z of Aeq, minimum-norm in the reduced coordinates."""
    z_f, feasible = ranked_svd(qp.Aeq, full=False).solve(qp.beq)
    assert feasible
    Z = ranked_svd(qp.Aeq).kernel
    w, *_ = np.linalg.lstsq(Z.T @ qp.G @ Z, Z.T @ (qp.b - qp.G @ z_f),
                            rcond=None)
    return z_f + Z @ w


def lag_test_problem(seed, n, m, T, q, rho, singular_R):
    """Random plant scaled to spectral radius rho, with S != 0, a full
    endpoint penalty (H_0T != 0) and q constraint rows; singular_R makes
    the input block of the cost factor rank one."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= rho / np.max(np.abs(np.linalg.eigvals(A)))
    W = rng.normal(size=(n + m + 1, n + m))
    if singular_R:
        W[:, n:] = np.outer(W[:, n], rng.normal(size=m))
    pi = W.T @ W
    Wh = rng.normal(size=(2 * n + 1, 2 * n))
    bd = BoundarySpec(rng.normal(size=(q, n)), rng.normal(size=(q, n)),
                      rng.normal(size=q), Wh.T @ Wh,
                      rng.normal(size=n), rng.normal(size=n))
    triple = PopovTriple(A, rng.normal(size=(n, m)), pi[:n, :n], pi[:n, n:],
                         pi[n:, n:])
    return LqProblem(triple, T, bd)


@pytest.mark.parametrize("n, m, T, q, rho, singular_R", [
    (3, 2, 1, 0, 0.9, False),
    (3, 2, 1, 6, 1.3, True),
    (3, 2, 2, 3, 1.3, True),
    (2, 1, 2, 4, 0.7, False),
    (3, 1, 17, 0, 1.2, False),
    (3, 1, 17, 3, 0.9, False),
    (2, 3, 17, 4, 1.1, True),
    (4, 2, 17, 0, 0.95, True),
])
def test_condensed_flatten_matches_stagewise(n, m, T, q, rho, singular_R):
    p = lag_test_problem(1000 + 10 * T + q, n, m, T, q, rho, singular_R)
    assert (p.triple.S != 0).all()
    assert (p.boundary.H[:n, n:] != 0).all()
    assert np.linalg.matrix_rank(p.triple.R) == (1 if singular_R else m)
    qp, ref = flatten(p), stagewise_flatten(p)
    assert np.array_equal(qp.G, qp.G.T)
    for got, want in ((qp.G, ref.G), (qp.b, ref.b), (qp.Aeq, ref.Aeq)):
        scale = np.abs(want).max() if want.size else 0.0
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
    assert qp.c0 == pytest.approx(ref.c0, rel=1e-12)
    np.testing.assert_array_equal(qp.beq, ref.beq)


def test_solve_flat_matches_kernel_basis_reduction():
    # Singular R makes the optimum non-unique on about half of the draws;
    # both methods then pick the minimum-norm optimum in the reduced
    # coordinates.  That choice is compared where the data decide it:
    # where the kernel-basis solve gives the same z on the stage-wise and
    # on the condensed G.  On the other draws rounding of the size
    # eps*|G| passes the solve's machine-precision rank cutoff and picks
    # the optimum, for the kernel-basis solve as well.
    rng = np.random.default_rng(211)
    checked = non_unique = 0
    for _ in range(40):
        triple = random_singular_triple(rng)
        n = triple.n
        T = int(rng.integers(1, 7))
        q = int(rng.integers(0, 2 * n + 1))
        Wh = rng.normal(size=(2 * n + 1, 2 * n))
        bd = BoundarySpec(rng.normal(size=(q, n)), rng.normal(size=(q, n)),
                          rng.normal(size=q), Wh.T @ Wh,
                          rng.normal(size=n), rng.normal(size=n))
        p = LqProblem(triple, T, bd)
        qp = flatten(p)
        z, _, feasible = solve_flat(qp)
        if not feasible:
            continue
        z_ref = nullspace_solve(qp)
        tol = 1e-9 * (1 + np.abs(z_ref).max())
        if np.abs(nullspace_solve(stagewise_flatten(p)) - z_ref).max() > tol:
            continue
        np.testing.assert_allclose(z, z_ref, rtol=0, atol=tol)
        checked += 1
        Z = ranked_svd(qp.Aeq).kernel
        sv = np.linalg.svd(Z.T @ qp.G @ Z, compute_uv=False)
        non_unique += bool(sv.size) and sv[-1] <= 1e-12 * sv[0]
    assert checked >= 30 and non_unique >= 10
