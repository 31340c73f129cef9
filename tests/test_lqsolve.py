"""Trajectory parameterization, boundary-system assembly, the full LQ
solver, and stationarity verification."""

import dataclasses
import tracemalloc
import warnings

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
from lqpencil.fixtures import bundled_problem_path
from lqpencil.linalg import matrix_norm, ranked_svd
from lqpencil.lqsolve import (
    _stationarity,
    _sweep,
    assemble_boundary,
    control_free_param,
    endpoint_gramian,
    solve_with_decomposition,
)
from lqpencil.model import ConstraintRankError, evaluate_cost, load_problem, validate
from lqpencil.pencil import (
    PencilDecomposition,
    _reachable_staging,
    reachability_decomposition,
)
from lqpencil.riccati import InputSplit, split_inputs

from conftest import (
    attach_random_boundary,
    cyclic_problem,
    random_regular_problem,
    random_singular_triple,
    rank_of,
    rebuild_trajectories,
    simulate,
)


def dec_without_free_part(a22, b12, rx0):
    """Synthetic r = 0 decomposition with scalar regular blocks, enough
    for the closed-form trajectory maps."""
    return PencilDecomposition(
        cert=None, split=InputSplit(np.eye(1), np.zeros((1, 0)),
                                    np.array([[rx0]]), np.array([[b12]]),
                                    np.zeros((1, 0))),
        U=np.eye(1), r=0, index=0,
        A_X11=np.zeros((0, 0)), A_X12=np.zeros((0, 1)),
        A_X22=np.array([[a22]]), B11=np.zeros((0, 1)),
        B12=np.array([[b12]]), B21=np.zeros((0, 0)))


def dec_free_only(a11, b21):
    """Synthetic decomposition that is all reachable free part (n = r = 1,
    m1 = 0)."""
    return PencilDecomposition(
        cert=None, split=InputSplit(np.zeros((1, 0)), np.eye(1),
                                    np.zeros((0, 0)), np.zeros((1, 0)),
                                    np.array([[b21]])),
        U=np.eye(1), r=1, index=1,
        A_X11=np.array([[a11]]), A_X12=np.zeros((1, 0)),
        A_X22=np.zeros((0, 0)), B11=np.zeros((1, 0)),
        B12=np.zeros((0, 0)), B21=np.array([[b21]]))


def random_dec(rng, r, nr, m1, m2=1):
    """Synthetic decomposition with random blocks of the given sizes,
    enough for the trajectory maps."""
    n, m = r + nr, m1 + m2
    G = rng.normal(size=(m1, m1))
    return PencilDecomposition(
        cert=None, split=InputSplit(np.zeros((m, m1)), np.zeros((m, m2)),
                                    G @ G.T + np.eye(m1),
                                    np.zeros((n, m1)), np.zeros((n, m2))),
        U=np.eye(n), r=r, index=r,
        A_X11=rng.normal(size=(r, r)), A_X12=rng.normal(size=(r, nr)),
        A_X22=rng.normal(size=(nr, nr)) / np.sqrt(max(nr, 1)),
        B11=rng.normal(size=(r, m1)), B12=rng.normal(size=(nr, m1)),
        B21=rng.normal(size=(r, m2)))


def test_controllability_index(pol):
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert _reachable_staging(A, np.array([[0.0], [1.0]]), pol)[2] == 2
    assert _reachable_staging(np.eye(2), np.eye(2), pol)[2] == 1
    assert _reachable_staging(np.zeros((0, 0)), np.zeros((0, 0)), pol)[2] == 0
    # e1 alone reaches only its own line under A = I
    U1, _, index = _reachable_staging(np.eye(2), np.array([[1.0], [0.0]]), pol)
    assert (U1.shape[1], index) == (1, 1)


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


def test_steering_stack_overflow_is_decomposition_error():
    # A = 3, B = 1: the powers of A_X11 = 3 overflow, in the steering rows
    # from T = 1000 (3^999), in the drift's A_X11^T x1(0) from T = 647,
    # and in the norm of the steering target from T = 324 (3^324 squared)
    triple = PopovTriple([[3.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]])
    bd = BoundarySpec(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0),
                      np.eye(2), np.ones(1), np.ones(1))
    for T, error in ((324, "steering target is not finite"),
                     (646, "steering target is not finite"),
                     (647, "steering target is not finite"),
                     (1000, "steering rows are not finite")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecompositionError, match=error):
                solve_problem(LqProblem(triple, T, bd), iterate_grde(triple))


def test_trajectory_param_stacks(sing_dec):
    _, R1, *_ = control_free_param(sing_dec, 3, [0.0], [0.0], np.zeros((3, 1)))
    assert R1.shape == (1, 3)
    b = sing_dec.B21[0, 0]
    # A_X11 = 1: all columns equal
    np.testing.assert_allclose(R1, [[b, b, b]], atol=1e-14)


@pytest.mark.parametrize("T", [1, 7, 60])
@pytest.mark.parametrize("r, m2", [(0, 1), (1, 1), (3, 2), (4, 1), (2, 3)])
def test_steering_rows_and_drift_match_power_sums(r, m2, T):
    """R1 = [B21 | A11 B21 | ... | A11^(T-1) B21], and the returned inputs
    reach x1(T) = R1 u + A11^T x1(0) + sum_t A11^(T-1-t) xi(t), with the
    powers and sums formed here.  The target is drawn inside im R1, so
    it is reachable even where R1 has fewer columns than rows."""
    rng = np.random.default_rng(1000 * r + 100 * m2 + T)
    dec = random_dec(rng, r, 2, 1, m2)
    dec = dataclasses.replace(dec, A_X11=dec.A_X11 / np.sqrt(max(r, 1)))
    power = np.linalg.matrix_power
    A, x1_0, xi = dec.A_X11, rng.normal(size=r), rng.normal(size=(T, r))
    rows = np.hstack([power(A, k) @ dec.B21 for k in range(T)])
    drift = power(A, T) @ x1_0 + sum(power(A, T - 1 - t) @ xi[t]
                                     for t in range(T))
    x1_T = rows @ rng.normal(size=T * m2) + drift

    u, R1, reachable, _ = control_free_param(dec, T, x1_0, x1_T, xi)
    assert reachable
    assert (R1.shape, u.shape) == ((r, T * m2), (T * m2,))
    scale = 1.0 + max(np.abs(W).max(initial=0.0) for W in (rows, drift, x1_T))
    np.testing.assert_allclose(R1, rows, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(R1 @ u + drift, x1_T, rtol=0, atol=1e-10 * scale)


def test_free_control_steering_order():
    # x1(2) = 4 x1(0) + [b, a b] [u2(1); u2(0)] with a = 2, b = 1
    dec = dec_free_only(2.0, 1.0)
    u, R1, reachable, _ = control_free_param(dec, 2, [0.0], [5.0],
                                             np.zeros((2, 1)))
    assert reachable
    np.testing.assert_allclose(u, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(R1, [[1.0, 2.0]], atol=1e-14)
    assert ranked_svd(R1).kernel.shape == (2, 1)


def test_free_control_with_drift():
    # x1(2) = 4 x1(0) + [1, 2] [u2(1); u2(0)] + [1, 2] [xi(1); xi(0)]:
    # with x1(0) = 0.5 and xi = (1, 0) the inputs must add 5 - 2 - 2 = 1,
    # at minimum norm along [1, 2]
    dec = dec_free_only(2.0, 1.0)
    u, R1, reachable, _ = control_free_param(dec, 2, [0.5], [5.0],
                                             np.array([[1.0], [0.0]]))
    assert reachable
    np.testing.assert_allclose(u, [0.2, 0.4], atol=1e-12)
    np.testing.assert_allclose(R1, [[1.0, 2.0]], atol=1e-14)


def test_free_control_minimum_norm_is_constant(sing_dec):
    u, R1, reachable, _ = control_free_param(sing_dec, 4, [0.0], [1.0],
                                             np.zeros((4, 1)))
    assert reachable
    np.testing.assert_allclose(u, u[0] * np.ones(4), atol=1e-12)
    assert ranked_svd(R1).kernel.shape == (4, 3)


def test_free_control_unreachable_target():
    dec = dec_free_only(2.0, 0.0)
    _, _, reachable, _ = control_free_param(dec, 3, [0.0], [1.0],
                                            np.zeros((3, 1)))
    assert not reachable


def test_assemble_boundary_cyclic(cyclic, sing_dec):
    F, g = assemble_boundary(cyclic, sing_dec)
    assert F.shape == (4, 4)
    assert g.shape == (4,)
    boundary = ranked_svd(F)
    chi, feasible = boundary.solve(g)
    assert feasible
    assert boundary.kernel.shape == (4, 0)
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
    _, feasible = ranked_svd(F_free).solve(g_free)
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


def test_first_costate_block_vanishes(cyclic, sing_cert, sing_dec):
    sol = solve_problem(cyclic, sing_cert)
    U1 = sing_dec.U[:, :sing_dec.r]
    for t in range(4):
        lhat = U1.T @ (sing_cert.X @ sol.x[t] - sol.costate[t])
        np.testing.assert_allclose(lhat, 0.0, atol=1e-10)


def test_free_directions_preserve_cost_and_feasibility(cyclic, sing_cert,
                                                       sing_dec):
    sol = solve_problem(cyclic, sing_cert)
    A, B = cyclic.triple.A, cyclic.triple.B
    free_control = ranked_svd(sol.steering).kernel
    for k in range(free_control.shape[1]):
        xs, us, _ = rebuild_trajectories(cyclic, sing_dec, sol.chi,
                                         0.37 * free_control[:, k])
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


def random_trajectories(rng, problem):
    """(x, u, costate) of the problem's shapes; the multiplier fit reads
    them whatever their residuals."""
    n, m, T = problem.triple.n, problem.triple.m, problem.horizon
    return (rng.normal(size=(T + 1, n)), rng.normal(size=(T, m)),
            rng.normal(size=(T + 1, n)))


def transversality_rhs(problem, xs, lams):
    """The right-hand side V' eta is fitted to, as the check forms it."""
    bd, T = problem.boundary, problem.horizon
    e = np.concatenate([xs[0] - bd.h0, xs[T] - bd.hT])
    return np.concatenate([-lams[0], lams[T]]) - bd.H @ e


def test_multiplier_fit_drops_directions_below_the_policy_cutoff(cyclic, pol):
    # V = [V0 VT] with singular values 1 and 1e-13: numpy's default
    # lstsq cutoff (eps * 4) keeps the second, the policy's
    # (rank_rel_tol * 4) drops it.  validate rejects such a V, so the
    # check is called directly.
    rng = np.random.default_rng(23)
    left, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    right, _ = np.linalg.qr(rng.normal(size=(4, 2)))
    V = left @ np.diag([1.0, 1e-13]) @ right.T
    bd = dataclasses.replace(cyclic.boundary, V0=V[:, :2], VT=V[:, 2:])
    problem = dataclasses.replace(cyclic, boundary=bd)
    xs, us, lams = random_trajectories(rng, problem)
    rhs = transversality_rhs(problem, xs, lams)
    rep = _stationarity(problem, xs, us, lams, pol)
    fit = ranked_svd(V.T, pol)
    assert fit.rank == 1
    # the fit reads the one SVD of V, as pinv(V)'
    np.testing.assert_array_equal(rep.eta, ranked_svd(V, pol).pinv.T @ rhs)
    dropped = fit.Vt[1]
    assert abs(dropped @ rep.eta) <= 1e-15 * np.linalg.norm(rep.eta)
    # numpy's own cutoff would fit the 1e-13 direction with a huge weight
    eta_np, *_ = np.linalg.lstsq(V.T, rhs, rcond=None)
    assert abs(dropped @ eta_np) > 1e6 * np.linalg.norm(rep.eta)


def test_multiplier_fit_matches_lstsq_on_validated_problems(pol):
    rng = np.random.default_rng(2027)
    checked = 0
    while checked < 40:
        problem = random_regular_problem(rng)
        try:
            validate(problem, pol)
        except ConstraintRankError:
            continue
        xs, us, lams = random_trajectories(rng, problem)
        rep = _stationarity(problem, xs, us, lams, pol)
        V = problem.boundary.V
        eta_np, *_ = np.linalg.lstsq(V.T, transversality_rhs(problem, xs, lams),
                                     rcond=None)
        assert rep.eta.shape == (problem.boundary.q,)
        assert np.linalg.norm(rep.eta - eta_np) <= 1e-12 * np.linalg.norm(eta_np)
        checked += 1


def stage_residuals(problem, xs, us, lams):
    """Dynamics, costate and input residuals, one row per stage, each
    formed by its own recursion: the reference for the check's single
    evaluation of the extended symplectic difference equation."""
    tr = problem.triple
    return (xs[1:] - xs[:-1] @ tr.A.T - us @ tr.B.T,
            lams[:-1] - xs[:-1] @ tr.Q.T - lams[1:] @ tr.A - us @ tr.S.T,
            xs[:-1] @ tr.S + lams[1:] @ tr.B + us @ tr.R.T)


def esde_problems():
    """Regular, singular and cyclic problems, a horizon of 1, a problem
    with no state and one with no input."""
    rng = np.random.default_rng(2031)
    regular = [random_regular_problem(rng) for _ in range(12)]
    singular = [LqProblem(tr, int(rng.integers(1, 8)), BoundarySpec.unconstrained(tr.n))
                for tr in (random_singular_triple(rng) for _ in range(12))]
    short = [dataclasses.replace(p, horizon=1) for p in regular[:4]]
    stateless = LqProblem(PopovTriple(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((0, 0)),
                                      np.zeros((0, 2)), np.diag([2.0, 0.0])),
                          3, BoundarySpec.unconstrained(0))
    inputless = LqProblem(PopovTriple([[0.5, 1.0], [0.0, 2.0]], np.zeros((2, 0)), np.eye(2),
                                      np.zeros((2, 0)), np.zeros((0, 0))),
                          4, BoundarySpec.unconstrained(2))
    return [*regular, *singular, cyclic_problem(), cyclic_problem(horizon=9),
            *short, stateless, inputless]


@pytest.mark.parametrize("problem", esde_problems())
def test_stationarity_rows_match_the_three_stage_recursions(problem, pol):
    # On trajectories that are not stationary, each residual must equal
    # the worst row norm of its own recursion up to float64 rounding:
    # an entry is a sum of at most k = 2n + m + 1 products, so either
    # evaluation is within k eps of the sum of their moduli.
    tr = problem.triple
    rng = np.random.default_rng(tr.n * 31 + tr.m * 7 + problem.horizon)
    xs, us, lams = random_trajectories(rng, problem)
    rep = _stationarity(problem, xs, us, lams, pol)
    n, k, eps = tr.n, 2 * tr.n + tr.m + 1, np.finfo(float).eps
    z = np.zeros((problem.horizon + 1, 2 * n + tr.m))
    z[:, :n], z[:, n:2 * n], z[:-1, 2 * n:] = xs, lams, us
    moduli = np.abs(z[:-1]) @ np.abs(tr.esp.N).T + np.abs(z[1:]) @ np.abs(tr.esp.M).T
    blocks = (slice(0, n), slice(n, 2 * n), slice(2 * n, None))
    got = (rep.dynamics_residual, rep.costate_residual, rep.input_residual)
    for value, ref, block in zip(got, stage_residuals(problem, xs, us, lams), blocks):
        worst = np.max(np.linalg.norm(ref, axis=1), initial=0.0)
        slack = 4 * k * eps * (np.max(np.linalg.norm(moduli[:, block], axis=1), initial=0.0)
                               + worst)
        assert abs(value - worst) <= slack
    if tr.n == 0:
        assert rep.dynamics_residual == rep.costate_residual == 0.0
        assert rep.input_residual > 0.0
    if tr.m == 0:
        assert rep.input_residual == 0.0
        assert rep.dynamics_residual > 0.0


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


def test_boundary_solution_set_is_the_separate_rules():
    # chi is the minimum-norm solution of the square boundary system
    # F chi = g, and free_boundary an orthonormal basis of ker F: chi
    # solves it and is orthogonal to ker F, and the basis has 2n - rank F
    # columns that F annihilates.  Endpoint constraints without a
    # penalty (H = 0) leave ker F nontrivial.
    rng = np.random.default_rng(41)
    problems = [load_problem(bundled_problem_path())]
    while len(problems) < 25:
        if len(problems) % 2:
            problems.append(random_regular_problem(rng))
            continue
        triple = random_singular_triple(rng)
        try:
            cert = iterate_grde(triple)
        except (RiccatiDivergenceError, RiccatiNoConvergenceError):
            continue
        dec = reachability_decomposition(cert, split_inputs(cert))
        problems.append(attach_random_boundary(rng, triple, dec))
    for _ in range(8):
        triple = random_singular_triple(rng)
        n = triple.n
        q = int(rng.integers(1, n + 1))
        problems.append(LqProblem(triple, 6, BoundarySpec(
            rng.normal(size=(q, n)), rng.normal(size=(q, n)),
            rng.normal(size=q), np.zeros((2 * n, 2 * n)),
            np.zeros(n), np.zeros(n))))
    solved = free = 0
    for p in problems:
        try:
            cert = iterate_grde(p.triple)
        except (RiccatiDivergenceError, RiccatiNoConvergenceError):
            continue
        dec = reachability_decomposition(cert, split_inputs(cert))
        F, g = assemble_boundary(p, dec)
        try:
            sol = solve_with_decomposition(p, dec)
        except (InfeasibleProblemError, HorizonTooShortError):
            continue
        chi, K = sol.chi, sol.free_boundary
        scale = 1e-10 * (1.0 + matrix_norm(F))
        assert np.linalg.norm(F @ chi - g) <= 1e-8 * (1.0 + np.linalg.norm(g))
        assert np.linalg.norm(K.T @ chi) <= scale * (1.0 + np.linalg.norm(chi))
        assert K.shape == (2 * p.triple.n, 2 * p.triple.n - rank_of(F))
        np.testing.assert_allclose(K.T @ K, np.eye(K.shape[1]), atol=1e-12)
        assert matrix_norm(F @ K) <= 100 * scale
        solved += 1
        free += K.shape[1] > 0
    assert solved >= 25 and free >= 5
