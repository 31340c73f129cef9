"""Constrained generalized discrete-time Riccati equation: residuals,
certification, input splitting, the fixed-point iteration, and invariants
shared by solution pairs."""

import numpy as np
import pytest
import scipy.linalg

from lqpencil import (
    DimensionMismatchError,
    NotRiccatiSolutionError,
    NotSymmetricError,
    PopovTriple,
    RiccatiDivergenceError,
    RiccatiNoConvergenceError,
    certify,
    iterate_grde,
)
from lqpencil.linalg import matrix_norm, pseudo_inverse
from lqpencil.pencil import check_solution_pair_invariants
from lqpencil.riccati import gdare_residual, kernel_condition_violation, split_inputs

from conftest import random_regular_problem, random_singular_triple


def scalar_triple(a, b, q=1.0, s=0.0, r=1.0):
    return PopovTriple([[a]], [[b]], [[q]], [[s]], [[r]])


def test_gdare_residual_at_solution(sing_triple):
    X = np.diag([0.0, 1.0])
    np.testing.assert_allclose(gdare_residual(sing_triple, X), 0.0,
                               atol=1e-14)


def test_gdare_residual_at_zero(sing_triple):
    # with X = 0 and R = 0 the whole update collapses to Q
    res = gdare_residual(sing_triple, np.zeros((2, 2)))
    np.testing.assert_array_equal(res, np.diag([0.0, -1.0]))


def test_gdare_residual_rejects_bad_candidates(sing_triple):
    with pytest.raises(NotSymmetricError):
        gdare_residual(sing_triple, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        gdare_residual(sing_triple, np.eye(3))


def test_kernel_condition_violation_cases(sing_triple):
    assert kernel_condition_violation(sing_triple, np.diag([0.0, 1.0])) == \
        pytest.approx(0.0, abs=1e-12)
    # S = 1, R = 0, X = 0: S_X = 1 but R_X = 0, so ker R_X reaches ker S_X not
    bad = scalar_triple(1.0, 1.0, q=1.0, s=1.0, r=0.0)
    assert kernel_condition_violation(bad, np.zeros((1, 1))) == \
        pytest.approx(1.0)


def test_certify_running_example(sing_triple, sing_cert):
    c = sing_cert
    np.testing.assert_array_equal(c.X, np.diag([0.0, 1.0]))
    np.testing.assert_array_equal(c.R_X, np.ones((2, 2)))
    np.testing.assert_allclose(c.S_X, [[0.0, 0.0], [1.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(c.K_X, [[0.0, 0.5], [0.0, 0.5]], atol=1e-14)
    np.testing.assert_allclose(c.A_X, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(c.G_X, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
    np.testing.assert_allclose(c.C_X, [[0.0, 1.0]], atol=1e-14)
    assert c.gdare_residual <= 1e-12
    assert c.kernel_violation <= 1e-12


def test_certify_rejects_non_solution(sing_triple):
    with pytest.raises(NotRiccatiSolutionError) as exc:
        certify(sing_triple, np.zeros((2, 2)))
    assert exc.value.gdare_residual == pytest.approx(1.0)


def test_certify_rejects_kernel_violation():
    bad = scalar_triple(1.0, 1.0, q=1.0, s=1.0, r=0.0)
    with pytest.raises(NotRiccatiSolutionError) as exc:
        certify(bad, np.array([[0.0]]))
    assert exc.value.kernel_violation > 0.5


def test_split_inputs_running_example(sing_cert):
    sp = split_inputs(sing_cert)
    assert sp.m1 == 1 and sp.m2 == 1
    T = np.hstack([sp.T1, sp.T2])
    np.testing.assert_allclose(T.T @ T, np.eye(2), atol=1e-14)
    # T1 spans im R_X = span (1,1); T2 its orthogonal complement
    np.testing.assert_allclose(np.abs(sp.T1[:, 0]), [1 / np.sqrt(2)] * 2,
                               atol=1e-14)
    np.testing.assert_allclose(sp.R_X0, [[2.0]], atol=1e-14)
    np.testing.assert_allclose(sing_cert.R_X @ sp.T2, 0.0, atol=1e-14)
    np.testing.assert_allclose(sp.B1, sing_cert.sigma.B @ sp.T1, atol=1e-14)
    np.testing.assert_allclose(sp.B2, sing_cert.sigma.B @ sp.T2, atol=1e-14)


def test_split_inputs_regular_case():
    sigma = scalar_triple(2.0, 1.0)
    cert = certify(sigma, [[2.0 + np.sqrt(5.0)]])
    sp = split_inputs(cert)
    assert sp.m1 == 1 and sp.m2 == 0
    assert sp.T2.shape == (1, 0)
    np.testing.assert_allclose(sp.R_X0, cert.R_X)


def test_split_inputs_all_free():
    # R = 0, X = 0: every input direction is cost-free
    sigma = scalar_triple(0.5, 1.0, q=0.0, r=0.0)
    cert = certify(sigma, [[0.0]])
    sp = split_inputs(cert)
    assert sp.m1 == 0 and sp.m2 == 1


def test_iterate_reaches_singular_solution(sing_triple):
    cert = iterate_grde(sing_triple)
    np.testing.assert_allclose(cert.X, np.diag([0.0, 1.0]), atol=1e-12)
    assert cert.gdare_residual <= 1e-12


def test_iterate_scalar_closed_form():
    # scalar DARE x = 4x - 4x^2/(1+x) + 1 has roots 2 +- sqrt(5)
    cert = iterate_grde(scalar_triple(2.0, 1.0))
    assert cert.X[0, 0] == pytest.approx(2.0 + np.sqrt(5.0), abs=1e-9)
    # the iteration limit is the stabilizing solution
    assert abs(cert.A_X[0, 0]) < 1.0


def test_iterate_single_step_fixed_point():
    # A = 0 makes X = Q a fixed point after one update
    cert = iterate_grde(scalar_triple(0.0, 1.0, q=3.0))
    np.testing.assert_allclose(cert.X, [[3.0]], atol=1e-12)


def test_iterate_divergence():
    with pytest.raises(RiccatiDivergenceError):
        iterate_grde(scalar_triple(2.0, 0.0))


def test_iterate_iteration_budget():
    with pytest.raises(RiccatiNoConvergenceError):
        iterate_grde(scalar_triple(2.0, 1.0), max_iters=2)


def test_iterate_respects_start(sing_triple):
    cert = iterate_grde(sing_triple, X0=np.diag([0.0, 1.0]))
    np.testing.assert_allclose(cert.X, np.diag([0.0, 1.0]), atol=1e-14)


def _spectral_norm_iteration(tr, max_iters):
    """The iteration with every test on spectral norms; returns the
    limit and the number of updates, or None when it diverges or runs
    out of updates."""
    X = np.zeros((tr.n, tr.n))
    bound = 1e12 * (1.0 + matrix_norm(tr.Q))
    for k in range(1, max_iters + 1):
        S_X = tr.A.T @ X @ tr.B + tr.S
        R_X = tr.R + tr.B.T @ X @ tr.B
        Rp = pseudo_inverse(0.5 * (R_X + R_X.T))
        X_next = tr.A.T @ X @ tr.A - S_X @ Rp @ S_X.T + tr.Q
        X_next = 0.5 * (X_next + X_next.T)
        if matrix_norm(X_next) > bound:
            return None
        step = matrix_norm(X_next - X)
        X = X_next
        if step <= 1e-11 * (1.0 + matrix_norm(X)):
            return X, k
    return None


def test_iterate_decisions_match_spectral_norms():
    # The loop settles most iterations with cheap norm bounds; it must
    # stop at the same update, with the same bytes, as the plain test.
    rng = np.random.default_rng(7)
    checked = 0
    for i in range(40):
        tr = random_regular_problem(rng).triple if i % 2 else random_singular_triple(rng)
        ref = _spectral_norm_iteration(tr, 500)
        if ref is None:
            with pytest.raises((RiccatiDivergenceError, RiccatiNoConvergenceError)):
                iterate_grde(tr, max_iters=500)
            continue
        X_ref, k = ref
        try:
            certify(tr, X_ref)
        except NotRiccatiSolutionError:
            continue
        assert iterate_grde(tr, max_iters=500).X.tobytes() == X_ref.tobytes()
        if k > 1:
            with pytest.raises(RiccatiNoConvergenceError):
                iterate_grde(tr, max_iters=k - 1)
            checked += 1
    assert checked >= 15


def test_iterate_agrees_with_scipy_on_regular_family():
    rng = np.random.default_rng(61)
    done = 0
    while done < 10:
        p = random_regular_problem(rng)
        tr = p.triple
        try:
            X_ref = scipy.linalg.solve_discrete_are(
                tr.A, tr.B, tr.Q, tr.R, s=tr.S)
            cert = iterate_grde(tr)
        except (RiccatiDivergenceError, RiccatiNoConvergenceError,
                np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            continue
        scale = 1.0 + np.linalg.norm(X_ref)
        # both are stabilizing solutions of the same DARE
        assert np.linalg.norm(cert.X - X_ref) <= 1e-6 * scale
        assert np.linalg.norm(gdare_residual(tr, X_ref)) <= 1e-6 * scale
        done += 1


def test_pair_invariants_identical_certificates(sing_cert):
    rep = check_solution_pair_invariants(sing_cert, sing_cert)
    assert rep.passed
    assert rep.kernel_distance == pytest.approx(0.0, abs=1e-12)
    assert rep.reachable_distance == pytest.approx(0.0, abs=1e-12)
    assert rep.restriction_residual == pytest.approx(0.0, abs=1e-12)
    # the closed-loop reachable subspace is output-nulling
    assert rep.output_nulling_residual <= 1e-12
    # ker R_X = ker(XB) ∩ ker R
    assert rep.kernel_intersection_distance <= 1e-12


def test_pair_invariants_two_scalar_roots():
    sigma = scalar_triple(2.0, 1.0)
    lo = certify(sigma, [[2.0 - np.sqrt(5.0)]])
    hi = certify(sigma, [[2.0 + np.sqrt(5.0)]])
    rep = check_solution_pair_invariants(lo, hi)
    assert rep.passed


def test_pair_invariants_rejects_mixed_triples(sing_cert):
    other = certify(scalar_triple(0.0, 1.0), [[1.0]])
    with pytest.raises(DimensionMismatchError):
        check_solution_pair_invariants(sing_cert, other)
