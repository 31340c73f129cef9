"""Rank-revealing primitives: the rank, and the pseudo-inverse,
kernel/image bases and affine solves read off one ranked SVD."""

import warnings

import numpy as np
import pytest

from lqpencil import DimensionMismatchError, NonFiniteMatrixError, TolerancePolicy
from lqpencil import linalg
from lqpencil.linalg import (
    _as_matrix,
    _as_vector,
    _fix_signs,
    _frobenius,
    _svd_cutoff,
    matrix_norm,
    norm_exceeds,
    ranked_svd,
)

from conftest import subspace_distance


def test_policy_rejects_nonpositive_tolerances():
    with pytest.raises(ValueError):
        TolerancePolicy(rank_rel_tol=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(residual_tol=-1e-8)
    with pytest.raises(ValueError):
        TolerancePolicy(eig_match_tol=0.0)
    for name in ("rank_rel_tol", "residual_tol", "eig_match_tol"):
        with pytest.raises(ValueError):
            TolerancePolicy(**{name: np.inf})


def test_nonfinite_input_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteMatrixError):
        ranked_svd(bad)
    with pytest.raises(NonFiniteMatrixError):
        ranked_svd(np.array([[np.inf]]))


def test_pseudo_inverse_diagonal():
    M = np.diag([2.0, 0.0])
    np.testing.assert_allclose(ranked_svd(M).pinv, np.diag([0.5, 0.0]),
                               atol=1e-14)


def test_pseudo_inverse_rank_one():
    M = np.ones((2, 2))
    np.testing.assert_allclose(ranked_svd(M).pinv, 0.25 * np.ones((2, 2)),
                               atol=1e-14)


def test_pseudo_inverse_penrose_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.normal(size=(5, 3))
        for full in (True, False):
            Mp = ranked_svd(M, full=full).pinv
            np.testing.assert_allclose(M @ Mp @ M, M, atol=1e-12)
            np.testing.assert_allclose(Mp @ M @ Mp, Mp, atol=1e-12)
            np.testing.assert_allclose(M @ Mp, (M @ Mp).T, atol=1e-12)
            np.testing.assert_allclose(Mp @ M, (Mp @ M).T, atol=1e-12)


def test_rank_examples():
    assert ranked_svd(np.zeros((3, 4))).rank == 0
    assert ranked_svd(np.eye(3)).rank == 3
    assert ranked_svd(np.ones((2, 2))).rank == 1
    # near-zero singular value below the relative cutoff is dropped
    assert ranked_svd(np.diag([1.0, 1e-14])).rank == 1


def test_rank_complex_matrix():
    M = np.array([[1.0 + 1.0j, 0.0], [0.0, 0.0]])
    assert ranked_svd(M).rank == 1


def test_kernel_basis_orthonormal_and_annihilating():
    M = np.ones((2, 2))
    K = ranked_svd(M).kernel
    assert K.shape == (2, 1)
    np.testing.assert_allclose(M @ K, 0.0, atol=1e-14)
    np.testing.assert_allclose(K.T @ K, np.eye(1), atol=1e-14)
    # sign convention: largest-magnitude entry positive
    assert K[np.argmax(np.abs(K[:, 0])), 0] > 0


def test_kernel_basis_of_empty_row_matrix_is_identity():
    K = ranked_svd(np.zeros((0, 4))).kernel
    np.testing.assert_allclose(K, np.eye(4))


def test_image_basis_span():
    M = np.ones((2, 2))
    U = ranked_svd(M).image
    assert U.shape == (2, 1)
    np.testing.assert_allclose(np.abs(U[:, 0]), [1 / np.sqrt(2)] * 2,
                               atol=1e-14)
    assert U[np.argmax(np.abs(U[:, 0])), 0] > 0


def test_kernel_image_dimensions_add_up():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        rk = int(rng.integers(0, min(rows, cols) + 1))
        M = (rng.normal(size=(rows, rk)) @ rng.normal(size=(rk, cols))
             if rk else np.zeros((rows, cols)))
        assert ranked_svd(M, full=False).rank == rk
        svd = ranked_svd(M)
        assert svd.rank == rk
        K, U = svd.kernel, svd.image
        assert K.shape == (cols, cols - rk)
        assert U.shape == (rows, rk)
        np.testing.assert_allclose(M @ K, 0.0, atol=1e-10)
        if rk:
            # image basis spans the column space
            np.testing.assert_allclose(U @ (U.T @ M), M, atol=1e-10)


def test_orthogonal_split():
    B = np.array([[1.0], [0.0], [0.0]])
    svd = ranked_svd(B)
    image, C = svd.image, svd.complement
    np.testing.assert_allclose(image, B, atol=1e-14)
    assert C.shape == (3, 2)
    np.testing.assert_allclose(B.T @ C, 0.0, atol=1e-14)
    np.testing.assert_allclose(C.T @ C, np.eye(2), atol=1e-14)
    svd = ranked_svd(np.zeros((3, 0)))
    image, full = svd.image, svd.complement
    assert image.shape == (3, 0)
    assert full.shape == (3, 3)
    np.testing.assert_allclose(full.T @ full, np.eye(3), atol=1e-14)


def test_basis_determinism():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(4, 6))
    M[:, 3:] = 0.0
    for name in ("image", "complement", "kernel", "pinv"):
        a = getattr(ranked_svd(M), name)
        b = getattr(ranked_svd(M.copy()), name)
        assert a.tobytes() == b.tobytes()


def test_solve_affine_square_invertible():
    # two difference constraints plus two pinning rows
    F = np.array([[1.0, 0.0, -1.0, 0.0],
                  [0.0, 1.0, 0.0, -1.0],
                  [1.0, 0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0]])
    g = np.array([0.0, 0.0, 1.0, 2.0])
    svd = ranked_svd(F)
    x, feasible = svd.solve(g)
    assert feasible
    assert svd.kernel.shape == (4, 0)
    np.testing.assert_allclose(x, [0.5, 2.0, 0.5, 2.0], atol=1e-12)


def test_solve_affine_underdetermined_min_norm():
    F = np.array([[1.0, 1.0]])
    g = np.array([2.0])
    svd = ranked_svd(F)
    x, feasible = svd.solve(g)
    assert feasible
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)
    ns = svd.kernel
    assert ns.shape == (2, 1)
    np.testing.assert_allclose(F @ ns, 0.0, atol=1e-14)


def test_solve_affine_infeasible():
    F = np.array([[1.0, 0.0], [1.0, 0.0]])
    g = np.array([0.0, 1.0])
    _, feasible = ranked_svd(F).solve(g)
    assert not feasible
    with pytest.raises(DimensionMismatchError):
        ranked_svd(F).solve(np.zeros(3))


def test_solve_affine_empty_system_is_feasible():
    F = np.zeros((0, 3))
    svd = ranked_svd(F)
    x, feasible = svd.solve(np.zeros(0))
    assert feasible
    np.testing.assert_allclose(x, np.zeros(3))
    assert svd.kernel.shape == (3, 3)


def test_solve_affine_consistency_random():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        F = rng.normal(size=(rows, cols))
        z = rng.normal(size=cols)
        g = F @ z
        kernel = ranked_svd(F).kernel
        # the thin and the full factorisation solve alike
        for full in (True, False):
            x, feasible = ranked_svd(F, full=full).solve(g)
            assert feasible
            np.testing.assert_allclose(F @ x, g, atol=1e-10)
            # particular solution is orthogonal to the kernel (min-norm)
            np.testing.assert_allclose(kernel.T @ x, 0.0, atol=1e-10)


def test_matrix_norm():
    assert matrix_norm(np.zeros((0, 0))) == 0.0
    assert matrix_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    # the same bytes as numpy's spectral norm
    rng = np.random.default_rng(3)
    for _ in range(200):
        rows, cols = rng.integers(1, 12, size=2)
        A = rng.normal(size=(rows, cols)) * 10.0 ** rng.uniform(-5, 4)
        assert matrix_norm(A) == float(np.linalg.norm(A, 2))


def exact_exceeds(E, tol, *scales):
    """The decision norm_exceeds screens, from spectral norms alone."""
    total = 1.0
    for S in scales:
        total += matrix_norm(S)
    return matrix_norm(E) > tol * total


def test_norm_exceeds_at_the_threshold():
    # E scaled onto the threshold and a few ulps either side of it,
    # where no screen can decide and the exact norms must.
    rng = np.random.default_rng(5)
    tol = 1e-8
    for _ in range(40):
        k = int(rng.integers(1, 6))
        E = rng.normal(size=(k, int(rng.integers(1, 6))))
        scales = [rng.normal(size=(k, k)), rng.normal(size=(k, 2))]
        E = E * (tol * (1.0 + sum(matrix_norm(S) for S in scales))
                 / matrix_norm(E))
        for ulps in range(-4, 5):
            Ek = E * (1.0 + ulps * np.finfo(float).eps)
            assert norm_exceeds(Ek, tol, *scales) == exact_exceeds(Ek, tol, *scales)


def test_norm_exceeds_on_extreme_shapes():
    tol = 1e-8
    # rank 1: the Frobenius norm is the spectral norm; c I_k: it is
    # sqrt(k) times the spectral norm, the widest gap for k columns.
    u, v = np.array([1.0, -2.0, 2.0]), np.array([3.0, 4.0])
    cases = [np.outer(u, v) / 15.0, np.eye(1), np.eye(4), np.eye(9)]
    for E in cases:
        for factor in (0.01, 0.4, 0.5, 0.6, 0.999, 1.0, 1.001, 1.9, 2.1, 100.0):
            for scales in ((), (np.diag([3.0, 1.0]),), (np.eye(9), np.ones((2, 5)))):
                total = 1.0 + sum(matrix_norm(S) for S in scales)
                Ek = E * (factor * tol * total)
                assert norm_exceeds(Ek, tol, *scales) == exact_exceeds(Ek, tol, *scales)
    # a scalar E, as the certificate threshold uses it
    assert norm_exceeds(2.0 * tol, tol)
    assert not norm_exceeds(0.5 * tol, tol)
    # empty E never exceeds; empty scales count as norm 0
    assert not norm_exceeds(np.zeros((0, 3)), tol, np.eye(2))
    assert not norm_exceeds(np.zeros((2, 0)), tol)
    assert norm_exceeds(np.eye(2), tol, np.zeros((0, 0)), np.zeros((3, 0)))
    assert not norm_exceeds(np.eye(2), 2.0, np.zeros((0, 4)))


def test_norm_exceeds_near_overflow_and_underflow():
    # Sums of squares overflow past about 1.3e154 and underflow below
    # about 1e-154; the decision must still be the exact one, with no
    # warning, and no error where the Riccati iteration raises them.
    rng = np.random.default_rng(13)
    cases = [([[1e160]], 1e-8, [np.eye(1), np.array([[1e160]])]),
             (1e160, 1e-8, [np.eye(2), 1e160 * np.eye(1)]),
             (1e150 * np.ones((2, 2)), 1e-8, [1e156 * np.ones((2, 2))]),
             (1e-170 * np.ones((2, 2)), 1e-200, []),
             (1e-170 * np.ones((3, 1)), 1e-171, [1e-160 * np.eye(3)])]
    for _ in range(40):
        k = int(rng.integers(1, 5))
        E = rng.normal(size=(k, int(rng.integers(1, 5))))
        scales = [rng.normal(size=(k, k)) * 10.0 ** rng.uniform(155, 200)]
        E = E * (1e-8 * (1.0 + matrix_norm(scales[0])) / matrix_norm(E))
        for factor in (1e-6, 0.4, 0.999, 1.001, 2.5, 1e6):
            cases.append((factor * E, 1e-8, scales))
    decisions = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for E, tol, scales in cases:
                want = exact_exceeds(E, tol, *scales)
                assert norm_exceeds(E, tol, *scales) == want
                decisions.add(want)
    assert decisions == {False, True}
    assert norm_exceeds([[1e160]], 1e-8, np.eye(1), np.array([[1e160]]))
    assert norm_exceeds(1e150 * np.ones((2, 2)), 1e-8, 1e156 * np.ones((2, 2)))
    assert not norm_exceeds(1e150 * np.ones((2, 2)), 1e-8,
                            1e160 * np.ones((2, 2)))
    assert norm_exceeds(1e-170 * np.ones((2, 2)), 1e-200)


def test_norm_exceeds_screens_clear_decisions(monkeypatch):
    # Far from the threshold the column and Frobenius norms decide,
    # with no SVD.
    rng = np.random.default_rng(7)
    E, S = rng.normal(size=(5, 4)), rng.normal(size=(5, 5))
    want = {f: exact_exceeds(f * E, 1e-8, S) for f in (1e-12, 1e-4)}

    def no_svd(M):
        raise AssertionError("screen left the decision open")

    monkeypatch.setattr(linalg, "matrix_norm", no_svd)
    for factor, exceeds in want.items():
        assert norm_exceeds(factor * E, 1e-8, S) == exceeds
    assert want == {1e-12: False, 1e-4: True}


def test_ranked_svd_of_empty_matrices():
    # No rows or no columns: identity singular bases and rank 0.
    for rows, cols in ((0, 3), (2, 0), (0, 0)):
        for full in (True, False):
            svd = ranked_svd(np.zeros((rows, cols)), full=full)
            assert svd.rank == 0
            assert svd.image.shape == (rows, 0)
            np.testing.assert_array_equal(svd.complement, np.eye(rows))
            np.testing.assert_array_equal(svd.kernel, np.eye(cols))
            np.testing.assert_array_equal(svd.pinv, np.zeros((cols, rows)))
            x, feasible = svd.solve(np.zeros(rows))
            assert feasible
            np.testing.assert_array_equal(x, np.zeros(cols))
    # with no columns only g = 0 is reached
    _, feasible = ranked_svd(np.zeros((2, 0))).solve([1.0, 0.0])
    assert not feasible


def test_thin_factorisation_refuses_incomplete_bases():
    # A thin SVD of a wide matrix lacks kernel vectors and one of a tall
    # matrix lacks complement vectors; the bases it holds whole match
    # the full factorisation's.
    rng = np.random.default_rng(19)
    wide = np.outer(rng.normal(size=2), rng.normal(size=4))    # rank 1
    thin, full = ranked_svd(wide, full=False), ranked_svd(wide)
    with pytest.raises(ValueError, match="kernel"):
        thin.kernel
    assert subspace_distance(thin.complement, full.complement) < 1e-12
    assert subspace_distance(thin.image, full.image) < 1e-12
    tall = wide.T
    thin, full = ranked_svd(tall, full=False), ranked_svd(tall)
    with pytest.raises(ValueError, match="complement"):
        thin.complement
    assert subspace_distance(thin.kernel, full.kernel) < 1e-12
    assert subspace_distance(thin.image, full.image) < 1e-12


def test_subspace_distance():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert subspace_distance(e1, e1) == pytest.approx(0.0, abs=1e-14)
    assert subspace_distance(e1, e2) == pytest.approx(1.0)
    # same span reached through a different orthonormal representative
    assert subspace_distance(e1, ranked_svd(3.0 * e1).image) == \
        pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DimensionMismatchError):
        subspace_distance(e1, np.zeros((3, 1)))


# The helpers as they were before they passed arrays through, kept as
# references: each rewrite must give the same bytes, errors and ranks.

def reference_fix_signs(B):
    B = np.array(B)
    if B.size:
        lead = B[np.argmax(np.abs(B), axis=0), np.arange(B.shape[1])]
        B[:, lead < 0] *= -1
    return B


def reference_as_matrix(M, name="matrix"):
    A = np.atleast_2d(np.asarray(M))
    if A.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise NonFiniteMatrixError(f"{name} contains NaN or Inf")
    return A


def reference_as_vector(v, name="vector"):
    a = np.asarray(v)
    if a.ndim == 2 and 1 in a.shape:
        a = a.ravel()
    if a.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise NonFiniteMatrixError(f"{name} contains NaN or Inf")
    return a


def reference_norm_exceeds(E, tol, *scales):
    """norm_exceeds behind its former entry, which wrapped every E."""
    return norm_exceeds(np.atleast_2d(np.asarray(E)), tol, *scales)


def reference_rank(M, pol):
    """The rank of a fresh full factorisation re-ranked under pol."""
    s = np.linalg.svd(M, full_matrices=True)[1]
    return int(np.count_nonzero(s > _svd_cutoff(s, M.shape, pol)))


def same_bytes(a, b):
    """Equal type, dtype, shape, memory layout and bytes: the layout
    sets which BLAS kernel a later product takes."""
    return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
            and a.strides == b.strides and a.tobytes() == b.tobytes())


def outcome(fn, *args):
    """What fn(*args) gives: its value, or its error's type and message."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared by type and message
        return "error", type(exc), str(exc)


def signed_bases():
    rng = np.random.default_rng(11)
    bases = [rng.normal(size=(rows, cols))
             for rows, cols in ((1, 1), (3, 2), (5, 5), (6, 3), (2, 7))]
    bases += [
        np.array([[0.5, -0.5, 2.0], [-0.5, 0.5, -2.0]]),     # ties, opposite signs
        np.array([[0.0, -0.0, 1.0], [-0.0, -0.0, -3.0]]),    # zero and -0.0 columns
        np.array([[-0.0], [0.0]]),
        np.zeros((4, 0)), np.zeros((0, 3)), np.zeros((0, 0)),  # empty bases
    ]
    return bases + [np.asfortranarray(B) for B in bases] + [B.T for B in bases]


def test_fix_signs_gives_the_reference_bytes():
    for B in signed_bases():
        for writeable in (True, False):
            B = B.copy(order="K")
            B.setflags(write=writeable)
            before = B.tobytes()
            got = _fix_signs(B)
            assert same_bytes(got, reference_fix_signs(B))
            assert got.flags.writeable
            assert B.tobytes() == before                   # the input is not flipped


def test_bases_of_a_ranked_svd_are_the_reference_sign_fixes():
    rng = np.random.default_rng(12)
    for rows, cols, rank in ((4, 6, 2), (5, 3, 3), (6, 6, 0), (3, 3, 1)):
        M = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        svd = ranked_svd(M)
        assert same_bytes(svd.image, reference_fix_signs(svd.U[:, :svd.rank]))
        assert same_bytes(svd.complement, reference_fix_signs(svd.U[:, svd.rank:]))
        assert same_bytes(svd.kernel, reference_fix_signs(svd.Vt[svd.rank:].T))


def test_frobenius_is_numpys_norm_bit_for_bit():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(7, 5)) * 10.0 ** rng.uniform(-8, 8, size=(7, 5))
    arrays = [M, np.asfortranarray(M), M.T, M[1:6:2, ::-2], M[:, 3], M[2],
              rng.normal(size=1000), rng.normal(size=(40, 30)), rng.normal(size=(40, 30)).T,
              np.zeros(0), np.zeros((0, 3)), np.zeros((3, 0)),
              np.array([[1e-170, 3e-160]]), np.array([[-0.0]])]
    for A in arrays:
        got, want = _frobenius(A), np.linalg.norm(A)
        assert np.float64(got).tobytes() == want.tobytes()


def test_frobenius_keeps_inf_and_nan():
    with np.errstate(over="ignore", invalid="ignore"):
        for A, finite in ((np.array([[np.inf, 1.0]]), False), (np.array([np.nan, 0.0]), False),
                          (np.array([[1e200, -1e200]]), False), (np.array([1e150]), True)):
            got = _frobenius(A)
            assert np.isfinite(got) == finite
            assert np.float64(got).tobytes() == np.linalg.norm(A).tobytes()


COERCIONS = [np.ones((2, 2, 2)), np.array([[1.0, np.nan]]), np.array([np.inf, 1.0]),
             np.float64(2.5), 3.0, [1.0, 2.0], np.arange(3.0), [[1.0], [2.0]],
             np.ones((1, 3)), np.ones((2, 3)), np.asfortranarray(np.ones((2, 3))),
             np.zeros((0, 2)), np.zeros(0), np.array([[np.nan]])[:, :0]]


def test_coercions_keep_their_results_errors_and_messages():
    for M in COERCIONS:
        for new, ref in ((_as_matrix, reference_as_matrix),
                         (_as_vector, reference_as_vector)):
            got, want = outcome(new, M, "Q"), outcome(ref, M, "Q")
            if want[0] == "value":
                assert got[0] == "value" and same_bytes(got[1], want[1])
            else:
                assert got == want
    # a 2-D ndarray passes through, and so does a 1-D one as a vector
    M, v = np.ones((2, 3)), np.ones(3)
    assert _as_matrix(M) is M and _as_vector(v) is v


def test_norm_exceeds_keeps_its_entry():
    scales = (np.eye(2),)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for E in COERCIONS[:-1] + [np.float64(1e-9), 1e-9, [[1e-9, 0.0]], np.ones((1, 1, 1))]:
            for tol in (1e-8, 10.0):
                assert outcome(norm_exceeds, E, tol, *scales) == \
                    outcome(reference_norm_exceeds, E, tol, *scales)


def test_rank_matches_the_reference_under_three_policies():
    rng = np.random.default_rng(14)
    policies = [TolerancePolicy(rank_rel_tol=t) for t in (1e-13, 1e-10, 1e-6)]
    sigma = (1.0, 1e-3, 1e-8, 1e-11, 1e-12, 1e-15)
    ranks = set()
    for rows, cols in ((6, 6), (8, 6), (6, 9), (3, 7)):
        k = min(rows, cols)
        U = np.linalg.qr(rng.normal(size=(rows, rows)))[0][:, :k]
        V = np.linalg.qr(rng.normal(size=(cols, cols)))[0][:, :k]
        M = (U * np.array(sigma[:k])) @ V.T
        for pol in policies:
            svd = ranked_svd(M, pol)
            assert svd.rank == reference_rank(M, pol)
            ranks.add(svd.rank)
            for other in policies:
                again = svd.ranked(other)
                assert again.rank == reference_rank(M, other)
                assert all(x is y for x, y in zip((again.M, again.U, again.s, again.Vt),
                                                  (svd.M, svd.U, svd.s, svd.Vt)))
            assert svd.ranked(pol) is svd
    assert len(ranks) >= 3          # the policies do rank differently
