"""Trajectory parameterization, boundary-system assembly, the full LQ
solver, and stationarity verification."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from lqpencil import (
    BoundarySpec,
    DecompositionError,
    HorizonTooShortError,
    InfeasibleProblemError,
    LqProblem,
    PopovTriple,
    RiccatiDivergenceError,
    RiccatiNoConvergenceError,
    TolerancePolicy,
    certify,
    flatten,
    iterate_grde,
    solve_flat,
    solve_problem,
    verify_stationarity,
)
from lqpencil.fixtures import cyclic_problem, singular_riccati_solution
from lqpencil.linalg import kernel_basis, rank_of, solve_affine
from lqpencil.lqsolve import (
    _steering_stacks,
    _sweep,
    assemble_boundary,
    control_free_param,
    endpoint_gramian,
    free_control_for_chi,
    reconstruct_trajectories,
    solve_with_decomposition,
)
from lqpencil.pencil import (
    PencilDecomposition,
    _controllability_index,
    reachability_decomposition,
)
from lqpencil.riccati import InputSplit, split_inputs

from conftest import attach_random_boundary, random_singular_triple


def dec_without_free_part(a22, b12, rx0):
    """Synthetic r = 0 decomposition with scalar regular blocks, enough
    for the closed-form trajectory maps."""
    return PencilDecomposition(
        cert=None, split=InputSplit(np.eye(1), np.zeros((1, 0)),
                                    np.array([[rx0]]), np.array([[b12]]),
                                    np.zeros((1, 0))),
        U_X=None, V_X=None, U=np.eye(1), r=0, index=0,
        A_X11=np.zeros((0, 0)), A_X12=np.zeros((0, 1)),
        A_X22=np.array([[a22]]), B11=np.zeros((0, 1)),
        B12=np.array([[b12]]), B21=np.zeros((0, 0)), pencil=None)


def dec_free_only(a11, b21):
    """Synthetic decomposition that is all reachable free part (n = r = 1,
    m1 = 0)."""
    return PencilDecomposition(
        cert=None, split=InputSplit(np.zeros((1, 0)), np.eye(1),
                                    np.zeros((0, 0)), np.zeros((1, 0)),
                                    np.array([[b21]])),
        U_X=None, V_X=None, U=np.eye(1), r=1, index=1,
        A_X11=np.array([[a11]]), A_X12=np.zeros((1, 0)),
        A_X22=np.zeros((0, 0)), B11=np.zeros((1, 0)),
        B12=np.zeros((0, 0)), B21=np.array([[b21]]), pencil=None)


def random_dec(rng, r, nr, m1, m2=1):
    """Synthetic decomposition with random blocks of the given sizes,
    enough for the trajectory maps."""
    n, m = r + nr, m1 + m2
    G = rng.normal(size=(m1, m1))
    return PencilDecomposition(
        cert=None, split=InputSplit(np.zeros((m, m1)), np.zeros((m, m2)),
                                    G @ G.T + np.eye(m1),
                                    np.zeros((n, m1)), np.zeros((n, m2))),
        U_X=None, V_X=None, U=np.eye(n), r=r, index=r,
        A_X11=rng.normal(size=(r, r)), A_X12=rng.normal(size=(r, nr)),
        A_X22=rng.normal(size=(nr, nr)) / np.sqrt(max(nr, 1)),
        B11=rng.normal(size=(r, m1)), B12=rng.normal(size=(nr, m1)),
        B21=rng.normal(size=(r, m2)), pencil=None)


def test_controllability_index(pol):
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert _controllability_index(A, np.array([[0.0], [1.0]]), pol) == 2
    assert _controllability_index(np.eye(2), np.eye(2), pol) == 1
    assert _controllability_index(np.zeros((0, 0)), np.zeros((0, 0)), pol) == 0
    with pytest.raises(DecompositionError, match="not reachable"):
        _controllability_index(np.eye(2), np.array([[1.0], [0.0]]), pol)


def test_costate_powers():
    dec = dec_without_free_part(0.5, 1.0, 2.0)
    lhat2, _, _, _ = _sweep(dec, 3, [0.0], [8.0])
    assert lhat2.shape == (4, 1)
    np.testing.assert_allclose(lhat2[0], [1.0])
    np.testing.assert_allclose(lhat2[3], [8.0])


def test_regular_control_closed_form():
    dec = dec_without_free_part(0.5, 1.0, 2.0)
    _, u1, _, _ = _sweep(dec, 2, [0.0], [4.0])
    assert u1.shape == (2, 1)
    np.testing.assert_allclose(u1[0], [1.0])
    np.testing.assert_allclose(u1[1], [2.0])


def test_singular_state_forward_recursion():
    dec = dec_without_free_part(0.5, 1.0, 2.0)
    _, _, x2, _ = _sweep(dec, 2, [0.0], [4.0])
    np.testing.assert_allclose(x2[1], [1.0])
    np.testing.assert_allclose(x2[2], [2.5])
    _, _, x2, _ = _sweep(dec, 2, [2.0], [4.0])
    np.testing.assert_allclose(x2[2], [3.0])


def test_sweep_matches_power_closed_forms():
    """The sweeps reproduce the per-t closed forms
    lhat2(t) = A22'^(T-t) l2T, u1(t) = R_X0^-1 B12' A22'^(T-t-1) l2T,
    x2(t) = A22^t x2(0) + sum_{j<t} A22^(t-1-j) B12 u1(j) and
    xi(t) = A12 x2(t) + B11 u1(t)."""
    rng = np.random.default_rng(404)
    power = np.linalg.matrix_power

    def rel_err(a, b):
        return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)

    for r, nr, m1 in ((0, 1, 1), (2, 3, 2), (1, 2, 0), (3, 0, 2), (2, 4, 3),
                      (0, 3, 1)):
        for T in (1, int(rng.integers(2, 60)), 60):
            dec = random_dec(rng, r, nr, m1)
            x2_0, l2T = rng.normal(size=nr), rng.normal(size=nr)
            A22, B12, R = dec.A_X22, dec.B12, dec.split.R_X0
            lhat2 = np.array([power(A22.T, T - t) @ l2T
                              for t in range(T + 1)]).reshape(T + 1, nr)
            u1 = np.array([np.linalg.solve(R, B12.T @ power(A22.T, T - t - 1)
                                           @ l2T) if m1 else np.zeros(0)
                           for t in range(T)]).reshape(T, m1)
            x2 = np.array([power(A22, t) @ x2_0
                           + sum((power(A22, t - 1 - j) @ B12 @ u1[j]
                                  for j in range(t)), np.zeros(nr))
                           for t in range(T + 1)]).reshape(T + 1, nr)
            xi = np.array([dec.A_X12 @ x2[t] + dec.B11 @ u1[t]
                           for t in range(T)]).reshape(T, r)
            got = _sweep(dec, T, x2_0, l2T)
            for name, ref, val in zip(("lhat2", "u1", "x2", "xi"),
                                      (lhat2, u1, x2, xi), got):
                assert val.shape == ref.shape, name
                assert rel_err(val, ref) <= 1e-10, (name, r, nr, m1, T)


def test_endpoint_gramian_values(sing_dec):
    dec = dec_without_free_part(0.5, 1.0, 1.0)
    P, A22_pow = endpoint_gramian(dec, 2)
    np.testing.assert_allclose(P, [[1.25]], atol=1e-12)
    np.testing.assert_allclose(A22_pow, [[0.25]], atol=1e-12)
    zero = dec_without_free_part(0.5, 0.0, 1.0)
    np.testing.assert_allclose(endpoint_gramian(zero, 4)[0], 0.0, atol=1e-14)
    # running example: A22 = 0 keeps only the j = 0 term
    np.testing.assert_allclose(endpoint_gramian(sing_dec, 5)[0], [[1.0]],
                               atol=1e-12)


def test_endpoint_gramian_is_psd_and_obeys_stein_identity():
    rng = np.random.default_rng(71)
    for _ in range(10):
        a, b = rng.normal(), rng.normal()
        T = int(rng.integers(1, 6))
        dec = dec_without_free_part(a, b, 1.0 + rng.random())
        P, A22_pow = endpoint_gramian(dec, T)
        assert P[0, 0] >= -1e-12
        W = dec.B12 @ np.linalg.inv(dec.split.R_X0) @ dec.B12.T
        lhs = P - dec.A_X22 @ P @ dec.A_X22.T
        Ak = np.linalg.matrix_power(dec.A_X22, T)
        rhs = W - Ak @ W @ Ak.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-9 * (1 + abs(P[0, 0])))
        np.testing.assert_allclose(A22_pow, Ak, rtol=1e-12)


def test_endpoint_gramian_stein_check_on_mixed_spectrum():
    # eigenvalues 2 and 1/2 multiply to 1: no Lyapunov solution is
    # unique, yet the finite sum and its Stein check are well defined
    rng = np.random.default_rng(5)
    S = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    A22 = S @ np.diag([2.0, 0.5]) @ np.linalg.inv(S)
    dec = dataclasses.replace(random_dec(rng, 0, 2, 1), A_X22=A22)
    W = dec.B12 @ np.linalg.solve(dec.split.R_X0, dec.B12.T)
    T = 7
    series = sum(np.linalg.matrix_power(A22, j) @ W
                 @ np.linalg.matrix_power(A22, j).T for j in range(T))
    np.testing.assert_allclose(endpoint_gramian(dec, T)[0], series,
                               rtol=1e-12, atol=1e-12)
    with pytest.raises(DecompositionError, match="Stein identity"):
        endpoint_gramian(dec, T, TolerancePolicy(residual_tol=1e-300))


def test_endpoint_gramian_overflow_is_decomposition_error():
    # A_X = 3 and T = 1000: 3^1000 overflows, so the gramian and its
    # Stein check turn non-finite
    triple = PopovTriple([[3.0]], [[0.0]], [[0.0]], [[0.0]], [[1.0]])
    bd = BoundarySpec(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0),
                      np.eye(2), np.ones(1), np.ones(1))
    problem = LqProblem(triple, 1000, bd)
    with pytest.raises(DecompositionError, match="not finite"):
        solve_problem(problem, iterate_grde(triple))


@pytest.mark.filterwarnings("error")
def test_steering_stack_overflow_is_decomposition_error():
    # A = 3, B = 1 and T = 1000: the powers of A_X11 = 3 in the steering
    # rows overflow
    triple = PopovTriple([[3.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]])
    bd = BoundarySpec(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0),
                      np.eye(2), np.ones(1), np.ones(1))
    problem = LqProblem(triple, 1000, bd)
    with pytest.raises(DecompositionError, match="steering rows are not finite"):
        solve_problem(problem, iterate_grde(triple))


def test_trajectory_param_stacks(sing_dec):
    R1, R2 = _steering_stacks(sing_dec, 3)
    assert R1.shape == (1, 3)
    assert R2.shape == (1, 3)
    b = sing_dec.B21[0, 0]
    # A_X11 = 1: all columns equal
    np.testing.assert_allclose(R1, [[b, b, b]], atol=1e-14)
    np.testing.assert_allclose(R2, [[1.0, 1.0, 1.0]], atol=1e-14)


def test_free_control_steering_order():
    # x1(2) = 4 x1(0) + [b, a b] [u2(1); u2(0)] with a = 2, b = 1
    dec = dec_free_only(2.0, 1.0)
    u, R1, reachable = control_free_param(dec, 2, [0.0], [5.0],
                                          np.zeros((2, 1)))
    assert reachable
    np.testing.assert_allclose(u, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(R1, [[1.0, 2.0]], atol=1e-14)
    assert kernel_basis(R1).shape == (2, 1)


def test_free_control_with_drift():
    # x1(2) = 4 x1(0) + [1, 2] [u2(1); u2(0)] + [1, 2] [xi(1); xi(0)]:
    # with x1(0) = 0.5 and xi = (1, 0) the inputs must add 5 - 2 - 2 = 1,
    # at minimum norm along [1, 2]
    dec = dec_free_only(2.0, 1.0)
    u, R1, reachable = control_free_param(dec, 2, [0.5], [5.0],
                                          np.array([[1.0], [0.0]]))
    assert reachable
    np.testing.assert_allclose(u, [0.2, 0.4], atol=1e-12)
    np.testing.assert_allclose(R1, [[1.0, 2.0]], atol=1e-14)


def test_free_control_minimum_norm_is_constant(sing_dec):
    u, R1, reachable = control_free_param(sing_dec, 4, [0.0], [1.0],
                                          np.zeros((4, 1)))
    assert reachable
    np.testing.assert_allclose(u, u[0] * np.ones(4), atol=1e-12)
    assert kernel_basis(R1).shape == (4, 3)


def test_free_control_unreachable_target():
    dec = dec_free_only(2.0, 0.0)
    _, _, reachable = control_free_param(dec, 3, [0.0], [1.0],
                                         np.zeros((3, 1)))
    assert not reachable


def test_assemble_boundary_cyclic(cyclic, sing_dec):
    F, g = assemble_boundary(cyclic, sing_dec)
    assert F.shape == (4, 4)
    assert g.shape == (4,)
    chi, feasible = solve_affine(F, g)
    assert feasible
    assert kernel_basis(F).shape == (4, 0)
    h1, h2 = 1.0, 2.0
    np.testing.assert_allclose(
        chi, [h1, h1, 2 * h2 / 3, 2 * h2 / 3], atol=1e-10)


def test_assemble_boundary_row_counts(sing_triple, sing_dec):
    # fully pinned endpoints: only constraint rows remain
    pinned = LqProblem(sing_triple, 3, BoundarySpec(
        np.vstack([np.eye(2), np.zeros((2, 2))]),
        np.vstack([np.zeros((2, 2)), np.eye(2)]),
        np.array([1.0, 0.0, 0.0, 0.0]), np.zeros((4, 4)),
        np.zeros(2), np.zeros(2)))
    F, _ = assemble_boundary(pinned, sing_dec)
    assert F.shape == (4, 4)

    free = LqProblem(sing_triple, 3, BoundarySpec.unconstrained(2))
    F_free, g_free = assemble_boundary(free, sing_dec)
    assert F_free.shape == (4, 4)
    # no penalty, no constraint: every boundary direction is free
    _, feasible = solve_affine(F_free, g_free)
    assert feasible


def test_cyclic_solution_closed_form(sing_cert):
    T2 = split_inputs(sing_cert).T2
    for (h1, h2), T in (((1.0, 2.0), 3), ((-3.0, 0.5), 2), ((0.0, 1.0), 6),
                        ((1.0, 2.0), 400), ((-3.0, 0.5), 800),
                        ((1.0, 2.0), 10_000)):
        p = cyclic_problem((h1, h2), T)
        sol = solve_problem(p, sing_cert)
        assert sol.cost == pytest.approx(2 * h2 ** 2 / 3, abs=1e-9)
        np.testing.assert_allclose(sol.x[0], [h1, 2 * h2 / 3], atol=1e-9)
        np.testing.assert_allclose(sol.x[T], sol.x[0], atol=1e-9)
        np.testing.assert_allclose(sol.costate[0], [0.0, 2 * h2 / 3],
                                   atol=1e-9)
        np.testing.assert_allclose(sol.costate[T], [0.0, 0.0], atol=1e-9)
        assert sol.residuals.passed
        assert (sol.r, sol.m1, sol.m2) == (1, 1, 1)
        assert sol.free_boundary.shape == (4, 0)
        assert sol.steering.shape == (1, T)
        assert rank_of(sol.steering) == 1
        # minimum-norm free input: constant, coefficient |h2|/(3T)
        ubar2 = (sol.u + sol.x[:-1] @ sing_cert.K_X.T) @ T2
        np.testing.assert_allclose(ubar2, ubar2[0] * np.ones_like(ubar2),
                                   atol=1e-10)
        assert np.linalg.norm(T2 @ ubar2[0]) / np.sqrt(2.0) == \
            pytest.approx(abs(h2) / (3 * T), abs=1e-9)


def test_cyclic_solve_memory_is_linear_in_horizon(sing_cert):
    # 10^4 free inputs: a dense basis of the cost-neutral ones would
    # take 800 MB, the one steering row takes 80 kB
    p = cyclic_problem((1.0, 2.0), 10_000)
    tracemalloc.start()
    try:
        solve_problem(p, sing_cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_cyclic_free_component_pattern(cyclic, sing_cert, sing_dec):
    sol = solve_problem(cyclic, sing_cert)
    T2 = sing_dec.split.T2
    ubar2 = np.array([T2.T @ (sol.u[t] + sing_cert.K_X @ sol.x[t])
                      for t in range(3)])
    # minimum-norm free component is constant in t with a known magnitude
    np.testing.assert_allclose(ubar2, ubar2[0] * np.ones_like(ubar2),
                               atol=1e-10)
    expected = np.sqrt(2.0) * 2.0 / (3 * 3)
    assert np.linalg.norm(T2 @ ubar2[0]) == pytest.approx(expected, abs=1e-9)


def test_solution_reconstruction_consistency(cyclic, sing_cert, sing_dec):
    sol = solve_problem(cyclic, sing_cert)
    u_free, R1, reachable = free_control_for_chi(cyclic, sing_dec, sol.chi)
    assert reachable
    np.testing.assert_allclose(R1, sol.steering, atol=1e-12)
    xs, us, lams = reconstruct_trajectories(cyclic, sing_dec, sol.chi, u_free)
    np.testing.assert_allclose(xs, sol.x, atol=1e-12)
    np.testing.assert_allclose(us, sol.u, atol=1e-12)
    np.testing.assert_allclose(lams, sol.costate, atol=1e-12)


def test_first_costate_block_vanishes(cyclic, sing_cert, sing_dec):
    sol = solve_problem(cyclic, sing_cert)
    U1 = sing_dec.U[:, :sing_dec.r]
    for t in range(4):
        lhat = U1.T @ (sing_cert.X @ sol.x[t] - sol.costate[t])
        np.testing.assert_allclose(lhat, 0.0, atol=1e-10)


def test_free_directions_preserve_cost_and_feasibility(cyclic, sing_cert,
                                                       sing_dec):
    sol = solve_problem(cyclic, sing_cert)
    base_free, _, _ = free_control_for_chi(cyclic, sing_dec, sol.chi)
    A, B = cyclic.triple.A, cyclic.triple.B
    free_control = kernel_basis(sol.steering)
    for k in range(free_control.shape[1]):
        shifted = base_free + 0.37 * free_control[:, k]
        xs, us, _ = reconstruct_trajectories(cyclic, sing_dec, sol.chi,
                                             shifted)
        from lqpencil.model import evaluate_cost
        assert evaluate_cost(cyclic, xs, us) == pytest.approx(sol.cost,
                                                              abs=1e-9)
        for t in range(3):
            np.testing.assert_allclose(xs[t + 1], A @ xs[t] + B @ us[t],
                                       atol=1e-10)
        np.testing.assert_allclose(xs[3], xs[0], atol=1e-9)


def test_solution_invariant_under_split_basis_change(sing_cert):
    p = cyclic_problem((1.0, 2.0), 4)
    base = solve_problem(p, sing_cert)
    sp = split_inputs(sing_cert)
    flipped = InputSplit(T1=-sp.T1, T2=-sp.T2, R_X0=sp.R_X0,
                         B1=-sp.B1, B2=-sp.B2)
    dec2 = reachability_decomposition(sing_cert, flipped)
    alt = solve_with_decomposition(p, dec2)
    np.testing.assert_allclose(alt.x, base.x, atol=1e-9)
    np.testing.assert_allclose(alt.u, base.u, atol=1e-9)
    np.testing.assert_allclose(alt.costate, base.costate, atol=1e-9)
    assert alt.cost == pytest.approx(base.cost, abs=1e-10)


def hidden_free_channel_triple(rng):
    """Singular triple with n = 5, m = 3, built in hidden coordinates
    (xa, xb; ua, ub) and then rotated: the cost sees only xa (2 states)
    and ua (1 input), and xb never feeds back into xa, so the two
    inputs ub are cost-neutral and the reachable block is a proper
    subspace (r = 3 here)."""
    def orthogonal(k):
        Q, R = np.linalg.qr(rng.normal(size=(k, k)))
        return Q * np.sign(np.diag(R))

    A = np.zeros((5, 5))
    A[:2, :2] = 0.8 * rng.normal(size=(2, 2)) / np.sqrt(2)
    A[2:, :2] = rng.normal(size=(3, 2))
    A[2:, 2:] = 0.9 * orthogonal(3)
    B = np.zeros((5, 3))
    B[:2, :1] = rng.normal(size=(2, 1))
    B[2:] = rng.normal(size=(3, 3))
    F = np.zeros((2, 8))
    F[:, :2] = rng.normal(size=(2, 2))
    F[:, 5:6] = rng.normal(size=(2, 1))
    Tz = np.zeros((8, 8))
    Tz[:5, :5], Tz[5:, 5:] = orthogonal(5), orthogonal(3)
    A, B = Tz[:5, :5] @ A @ Tz[:5, :5].T, Tz[:5, :5] @ B @ Tz[5:, 5:].T
    pi = Tz @ F.T @ F @ Tz.T
    return PopovTriple(A, B, pi[:5, :5], pi[:5, 5:], pi[5:, 5:])


def test_solution_invariant_under_decomposition_basis_change():
    rng = np.random.default_rng(0)
    triple = hidden_free_channel_triple(rng)
    cert = iterate_grde(triple)
    split = split_inputs(cert)
    dec = reachability_decomposition(cert, split)
    r = dec.r
    assert r >= 2 and dec.n - r >= 2
    p = attach_random_boundary(rng, triple, dec)
    base = solve_with_decomposition(p, dec)

    Q1, _ = np.linalg.qr(rng.normal(size=(r, r)))
    Q2, _ = np.linalg.qr(rng.normal(size=(dec.n - r, dec.n - r)))
    U = np.hstack([dec.U[:, :r] @ Q1, dec.U[:, r:] @ Q2])
    At, Bt1, Bt2 = U.T @ cert.A_X @ U, U.T @ split.B1, U.T @ split.B2
    rotated = dataclasses.replace(
        dec, U=U, A_X11=At[:r, :r], A_X12=At[:r, r:], A_X22=At[r:, r:],
        B11=Bt1[:r], B12=Bt1[r:], B21=Bt2[:r])
    alt = solve_with_decomposition(p, rotated)
    np.testing.assert_allclose(alt.x, base.x, atol=1e-9)
    np.testing.assert_allclose(alt.u, base.u, atol=1e-9)
    np.testing.assert_allclose(alt.costate, base.costate, atol=1e-9)
    assert alt.cost == pytest.approx(base.cost, abs=1e-9)


def test_fully_pinned_endpoints_match_oracle(sing_triple, sing_cert):
    # pin x(0) and a reachable x(T), no penalty
    from lqpencil.model import simulate
    x0 = np.array([1.0, -0.5])
    us = np.array([[0.2, -0.1], [0.4, 0.3], [-0.2, 0.1]])
    xT = simulate(sing_triple, x0, us)[3]
    bd = BoundarySpec(np.vstack([np.eye(2), np.zeros((2, 2))]),
                      np.vstack([np.zeros((2, 2)), np.eye(2)]),
                      np.concatenate([x0, xT]), np.zeros((4, 4)),
                      np.zeros(2), np.zeros(2))
    p = LqProblem(sing_triple, 3, bd)
    sol = solve_problem(p, sing_cert)
    np.testing.assert_allclose(sol.x[0], x0, atol=1e-9)
    np.testing.assert_allclose(sol.x[3], xT, atol=1e-9)
    z, cost, feasible = solve_flat(flatten(p))
    assert feasible
    assert sol.cost == pytest.approx(cost, abs=1e-8 * (1 + abs(cost)))


def test_unconstrained_problem_matches_oracle(sing_triple, sing_cert):
    Wh = np.random.default_rng(3).normal(size=(5, 4))
    bd = BoundarySpec(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0),
                      Wh.T @ Wh, np.array([1.0, 1.0]), np.array([0.0, 2.0]))
    p = LqProblem(sing_triple, 4, bd)
    sol = solve_problem(p, sing_cert)
    assert sol.residuals.passed
    _, cost, feasible = solve_flat(flatten(p))
    assert feasible
    assert sol.cost == pytest.approx(cost, abs=1e-8 * (1 + abs(cost)))


def test_zero_cost_problem():
    triple = PopovTriple([[1.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]])
    cert = certify(triple, [[0.0]])
    p = LqProblem(triple, 3, BoundarySpec.unconstrained(1))
    sol = solve_problem(p, cert)
    assert sol.cost == pytest.approx(0.0, abs=1e-12)
    assert sol.residuals.passed
    np.testing.assert_allclose(sol.x, 0.0, atol=1e-12)


def test_infeasible_two_point_problem():
    triple = PopovTriple([[0.5]], [[0.0]], [[1.0]], [[0.0]], [[1.0]])
    cert = iterate_grde(triple)
    bd = BoundarySpec(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                      np.array([0.0, 1.0]), np.zeros((2, 2)),
                      np.zeros(1), np.zeros(1))
    p = LqProblem(triple, 3, bd)
    with pytest.raises(InfeasibleProblemError):
        solve_problem(p, cert)
    _, _, feasible = solve_flat(flatten(p))
    assert not feasible


def test_horizon_too_short():
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    triple = PopovTriple(A, B, np.zeros((2, 2)), np.zeros((2, 1)),
                         np.zeros((1, 1)))
    cert = certify(triple, np.zeros((2, 2)))
    bd = BoundarySpec(np.hstack([np.eye(2), ]), -np.eye(2), np.zeros(2),
                      np.zeros((4, 4)), np.zeros(2), np.zeros(2))
    with pytest.raises(HorizonTooShortError):
        solve_problem(LqProblem(triple, 1, bd), cert)
    # horizon at the controllability index is allowed
    sol = solve_problem(LqProblem(triple, 2, bd), cert)
    assert sol.residuals.passed


def test_verify_stationarity_detects_perturbation(cyclic, sing_cert):
    sol = solve_problem(cyclic, sing_cert)
    rep = verify_stationarity(cyclic, sol)
    assert rep.passed
    assert rep.eta.shape == (2,)
    u_bad = sol.u.copy()
    u_bad[0, 0] += 0.1
    bad = dataclasses.replace(sol, u=u_bad)
    rep_bad = verify_stationarity(cyclic, bad)
    assert not rep_bad.passed
    assert max(rep_bad.dynamics_residual, rep_bad.input_residual) > 1e-3


def test_random_singular_instances_match_oracle(pol):
    rng = np.random.default_rng(509)
    done = 0
    while done < 15:
        triple = random_singular_triple(rng)
        try:
            cert = iterate_grde(triple)
        except (RiccatiDivergenceError, RiccatiNoConvergenceError):
            continue
        dec = reachability_decomposition(cert, split_inputs(cert))
        p = attach_random_boundary(rng, triple, dec)
        try:
            sol = solve_with_decomposition(p, dec)
            solver_feasible = True
        except InfeasibleProblemError:
            solver_feasible = False
        _, cost, oracle_feasible = solve_flat(flatten(p))
        assert solver_feasible == oracle_feasible
        if solver_feasible:
            assert sol.residuals.passed
            assert sol.cost == pytest.approx(cost,
                                             abs=1e-6 * (1 + abs(cost)))
        done += 1
