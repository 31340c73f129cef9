"""Constrained generalized discrete-time Riccati equation: residuals,
certification, input splitting, the iteration (single updates, then
doubling), and invariants shared by solution pairs."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from lqpencil import (
    DimensionMismatchError,
    NotRiccatiSolutionError,
    NotSymmetricError,
    PopovTriple,
    RiccatiDivergenceError,
    RiccatiIterationError,
    RiccatiNoConvergenceError,
    certify,
    iterate_grde,
)
from lqpencil import riccati
from lqpencil.linalg import (
    DEFAULT_POLICY,
    matrix_norm,
    norm_exceeds,
    ranked_svd,
)
from lqpencil.riccati import (
    _doubling,
    _evaluate,
    _iterates,
    _limit,
    split_inputs,
)

from conftest import (
    check_solution_pair_invariants,
    cyclic_problem,
    gdare_residual,
    output_matrix,
    random_regular_problem,
    random_singular_triple,
    rank_of,
    z_problem,
)


def kernel_condition_violation(sigma, X, pol=DEFAULT_POLICY):
    """Spectral norm of S_X G_X; zero iff ker R_X <= ker S_X."""
    return matrix_norm(_evaluate(sigma, X, pol)[6])


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
    np.testing.assert_allclose(output_matrix(c), [[0.0, 1.0]], atol=1e-14)
    assert c.gdare_residual <= 1e-12
    assert c.kernel_violation <= 1e-12


def test_certify_rejects_non_solution(sing_triple):
    with pytest.raises(NotRiccatiSolutionError) as exc:
        certify(sing_triple, np.zeros((2, 2)))
    assert exc.value.gdare_residual == pytest.approx(1.0)


def test_certify_rejects_a_huge_non_solution():
    # X = 1e160 leaves a residual of about 1e160 against a threshold of
    # about 1e152; its sums of squares overflow, which must not pass it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotRiccatiSolutionError) as exc:
            certify(scalar_triple(0.5, 1.0), np.array([[1e160]]))
    assert exc.value.gdare_residual == pytest.approx(1e160)


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


def test_split_inputs_bases_are_the_separate_rules(sing_cert):
    # T1 and T2 are orthonormal bases of im R_X and ker R_X: [T1 T2] is
    # orthogonal, T1 has rank_of(R_X) columns and R_X T2 vanishes.  The
    # random singular triples have X = 0; Z draws give a nonzero X with
    # a singular R_X.
    rng = np.random.default_rng(23)
    certs = [sing_cert, certify(scalar_triple(2.0, 1.0), [[2.0 + np.sqrt(5.0)]]),
             certify(scalar_triple(0.5, 1.0, q=0.0, r=0.0), [[0.0]])]
    for k in range(30):
        sigma = (random_regular_problem(rng).triple if k % 2
                 else random_singular_triple(rng))
        try:
            certs.append(iterate_grde(sigma))
        except RiccatiIterationError:
            pass
    assert len(certs) >= 25
    z_certs = [iterate_grde(z_problem(seed).triple) for seed in range(5000, 5020)]
    assert sum(matrix_norm(c.X) > 1e-6 and split_inputs(c).m2 > 0 for c in z_certs) >= 10
    for cert in certs + z_certs:
        sp = split_inputs(cert)
        m = cert.R_X.shape[0]
        T = np.hstack([sp.T1, sp.T2])
        assert T.shape == (m, m)
        np.testing.assert_allclose(T.T @ T, np.eye(m), atol=1e-12)
        assert sp.m1 == rank_of(cert.R_X)
        np.testing.assert_allclose(cert.R_X @ sp.T2, 0.0,
                                   atol=1e-10 * (1.0 + matrix_norm(cert.R_X)))


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


def test_iterate_without_costed_inputs():
    # R = 0 and B = 0: after the one single update X_1 = 1, the deflated
    # triple has no input left, and doubling sums x = 1 + x / 4.
    cert = iterate_grde(scalar_triple(0.5, 0.0, r=0.0))
    assert cert.X[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_iterate_divergence():
    with pytest.raises(RiccatiDivergenceError):
        iterate_grde(scalar_triple(2.0, 0.0))


def test_iterate_iteration_budget():
    with pytest.raises(RiccatiNoConvergenceError):
        iterate_grde(scalar_triple(2.0, 1.0), max_iters=2)


def _update(tr, X):
    """One update X <- A'XA - S_X R_X^+ S_X' + Q, symmetrised, and
    whether R_X was nonsingular."""
    S_X = tr.A.T @ X @ tr.B + tr.S
    R_X = tr.R + tr.B.T @ X @ tr.B
    svd = ranked_svd(0.5 * (R_X + R_X.T))
    X_next = tr.A.T @ X @ tr.A - S_X @ svd.pinv @ S_X.T + tr.Q
    return 0.5 * (X_next + X_next.T), svd.rank == tr.m


def _updates(tr, count):
    """X_1, ..., X_count from X_0 = 0, one update at a time, and the
    number j of single updates the iteration runs before it doubles:
    the first j with R_(X_j) nonsingular, at most n."""
    X, iterates, regular = np.zeros((tr.n, tr.n)), [], []
    for _ in range(count):
        X, nonsingular = _update(tr, X)
        iterates.append(X)
        regular.append(nonsingular)
    return iterates, min([j for j, r in enumerate(regular) if r] + [tr.n])


def _spectral_norm_iteration(tr, max_iters):
    """The fixed-point iteration with every test on spectral norms;
    returns the limit and the number of updates, or raises the error
    class of the iteration's stop rule when it diverges or runs out of
    updates."""
    X = np.zeros((tr.n, tr.n))
    bound = 1e12 * (1.0 + matrix_norm(tr.Q))
    for k in range(1, max_iters + 1):
        X_next, _ = _update(tr, X)
        if matrix_norm(X_next) > bound:
            raise RiccatiDivergenceError("reference diverged")
        step = matrix_norm(X_next - X)
        X = X_next
        if step <= 1e-11 * (1.0 + matrix_norm(X)):
            return X, k
    raise RiccatiNoConvergenceError("reference ran out of updates")


def _iterates_limit(tr, max_iters):
    return _limit(tr, _iterates(tr, max_iters, DEFAULT_POLICY), max_iters,
                  DEFAULT_POLICY)


def test_iterate_decisions_match_spectral_norms(sing_triple):
    # The single updates that open the iteration of a singular triple
    # are the plain updates byte for byte, and the stop rule, which
    # settles most of them with cheap norm bounds, takes the plain
    # test's decision on each: on the first min(j, k) updates, j the
    # single updates run and k those the plain test needs.
    rng = np.random.default_rng(7)
    triples = [sing_triple] + [random_singular_triple(rng) for _ in range(20)] + \
        [z_problem(s).triple for s in range(5000, 5040)]
    stopped = checked = 0
    for tr in triples:
        updates, j = _updates(tr, tr.n)
        iterates = list(_iterates(tr, tr.n, DEFAULT_POLICY))
        assert [X.tobytes() for X in iterates[:j]] == \
            [X.tobytes() for X in updates[:j]]
        try:
            X_ref, k = _spectral_norm_iteration(tr, 500)
        except RiccatiIterationError:
            continue
        if k <= j:
            assert _iterates_limit(tr, 500).tobytes() == X_ref.tobytes()
            stopped += 1
        if min(j, k - 1):
            with pytest.raises(RiccatiNoConvergenceError):
                _iterates_limit(tr, min(j, k - 1))
            checked += 1
    assert stopped >= 1 and checked >= 15


def _reference_limit(sigma, iterates, max_iters, pol):
    """The stop rule with its three norm passes per iterate: a finite
    check on np.linalg.norm, the full divergence test, then the step
    test."""
    tol_scale = 1e-3 * pol.residual_tol
    X = np.zeros((sigma.n, sigma.n))
    for X_next in iterates:
        step, X = X_next - X, X_next
        if not np.isfinite(np.linalg.norm(X)):
            raise RiccatiDivergenceError("Riccati iterates are not finite")
        if norm_exceeds(X, 1e12, sigma.Q):
            raise RiccatiDivergenceError("Riccati iterates diverged")
        if not norm_exceeds(step, tol_scale, X):
            return X
    raise RiccatiNoConvergenceError(
        f"no fixed point within {max_iters} iterations")


def _limit_triples():
    rng = np.random.default_rng(83)
    return ([random_regular_problem(rng).triple for _ in range(30)]
            + [cyclic_problem().triple]
            + [z_problem(seed).triple for seed in range(5000, 5020)])


@pytest.mark.parametrize("tr", _limit_triples())
def test_limit_keeps_the_reference_iterate(tr, monkeypatch):
    X = iterate_grde(tr).X
    monkeypatch.setattr(riccati, "_limit", _reference_limit)
    assert X.tobytes() == iterate_grde(tr).X.tobytes()


@pytest.mark.parametrize("tr", [
    scalar_triple(2.0, 0.0),                     # drift plant: diverges
    scalar_triple(0.5, 0.0, q=1e155),            # X_1 = 1e155, ||X_1||^2 overflows
    # the Frobenius screen leaves X = 5.3e11 open; it converges
    scalar_triple(0.5, 0.0, q=4e11),
    # ... and leaves X open from the first iterate on; the first state diverges
    PopovTriple(np.diag([2.0, 0.5]), np.zeros((2, 1)), np.diag([1.0, 3e12]),
                np.zeros((2, 1)), [[1.0]]),
])
def test_limit_raises_as_the_reference(tr, monkeypatch):
    def outcome():
        try:
            return iterate_grde(tr).X.tobytes()
        except RiccatiIterationError as exc:
            return type(exc), str(exc)

    got = outcome()
    monkeypatch.setattr(riccati, "_limit", _reference_limit)
    assert got == outcome()


def test_doubled_iterates_after_the_prefix_are_the_updates():
    # After j single updates, doubling step i gives X_(j+2^i) of the
    # update, whether R_(X_j) is nonsingular (the shifted triple) or
    # still singular after n updates (the deflated one).  Sixteen
    # updates keep the plain iterates exact enough to compare: on the
    # Z draws whose optimal cost is zero, the plain iteration grows
    # rounding errors by up to rho(A)^2 per update.  In `shifted`, R = 0
    # and Q = I make R_(X_1) = B'B nonsingular: one single update, then
    # the shifted triple.
    shifted = PopovTriple([[0.9, 0.5], [0.1, 1.2]], [[1.0], [0.5]], np.eye(2),
                          np.zeros((2, 1)), [[0.0]])
    deflated = 0
    for tr in [shifted] + [z_problem(seed).triple for seed in range(5000, 5040)]:
        updates, j = _updates(tr, 16)
        assert (j == 1) if tr is shifted else (j == tr.n)
        doubled = list(_iterates(tr, 16, DEFAULT_POLICY))[j:]
        assert len(doubled) == 1 + int(np.log2(16 - j))
        for i, X in enumerate(doubled):
            X_ref = updates[j + 2 ** i - 1]
            scale = matrix_norm(X_ref) + matrix_norm(tr.pi)
            assert matrix_norm(X - X_ref) <= 1e-10 * scale
        deflated += not _update(tr, updates[j - 1])[1]
    assert deflated >= 30


def _regular_triples(seed, count):
    """Seeded triples with R > 0 and S != 0, and the scalar plant
    a = 3, s = 1/2, whose open loop is unstable."""
    rng = np.random.default_rng(seed)
    return [random_regular_problem(rng).triple for _ in range(count)] + \
        [scalar_triple(3.0, 1.0, q=1.0, s=0.5, r=1.0)]


def test_doubling_step_equals_fixed_point_update():
    # Doubling step j of the feedback form (A - B R^-1 S', B; Q - S R^-1 S', R)
    # gives X_(2^j) of the fixed-point update of (A, B; Q, S, R).
    triples = _regular_triples(7, 40)
    assert all(matrix_norm(tr.S) > 0 for tr in triples)
    assert sum(max(abs(np.linalg.eigvals(tr.A))) > 1 for tr in triples) >= 10
    for tr in triples:
        K = np.linalg.solve(tr.R, tr.S.T)
        doubled = list(_doubling(tr.A - tr.B @ K, tr.B, tr.Q - tr.S @ K, tr.R, 64))
        updates, _ = _updates(tr, 64)
        assert len(doubled) == 7
        for j, H in enumerate(doubled):
            X = updates[2 ** j - 1]
            assert matrix_norm(H - X) <= 1e-12 * matrix_norm(X)


def test_doubling_limit_matches_spectral_norm_iteration():
    # B = 0 with an unstable A diverges; a slow plant with 4 updates
    # runs out of them.
    cases = [(tr, 5000) for tr in _regular_triples(11, 40)] + [
        (scalar_triple(2.0, 0.0), 5000),
        (PopovTriple(np.diag([0.5, 1.5]), [[1.0], [0.0]], np.eye(2),
                     np.zeros((2, 1)), [[1.0]]), 5000),
        (scalar_triple(0.99, 0.1), 4),
    ]
    failures = 0
    for tr, budget in cases:
        try:
            X_ref, _ = _spectral_norm_iteration(tr, budget)
        except RiccatiIterationError as exc:
            failures += 1
            with pytest.raises(type(exc)):
                iterate_grde(tr, max_iters=budget)
            continue
        X = iterate_grde(tr, max_iters=budget).X
        assert matrix_norm(X - X_ref) <= 1e-10 * (1.0 + matrix_norm(X_ref))
    assert failures == 3


@pytest.mark.parametrize("tr, error", [
    # Pi = diag(-1, 1): I + G_0 H_0 = 0 at the first doubling step
    (scalar_triple(1.0, 1.0, q=-1.0), RiccatiIterationError),
    (scalar_triple(2.0, 0.0), RiccatiDivergenceError),
    # A^2 overflows at the first doubling step
    (scalar_triple(1e200, 0.0), RiccatiDivergenceError),
    # R = 0 and B = 0: R_X stays 0, and the deflated triple has no input
    (scalar_triple(2.0, 0.0, r=0.0), RiccatiDivergenceError),
])
def test_iterate_failures_are_typed(tr, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            iterate_grde(tr)


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
