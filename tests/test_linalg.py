"""Rank-revealing primitives: pseudo-inverse, kernel/image bases and
affine solves."""

import numpy as np
import pytest

from lqpencil import DimensionMismatchError, NonFiniteMatrixError, TolerancePolicy
from lqpencil.linalg import (
    image_basis,
    kernel_basis,
    matrix_norm,
    orthonormal_complement,
    pseudo_inverse,
    rank_of,
    solve_affine,
    subspace_distance,
)


def test_policy_rejects_nonpositive_tolerances():
    with pytest.raises(ValueError):
        TolerancePolicy(rank_rel_tol=0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(residual_tol=-1e-8)
    with pytest.raises(ValueError):
        TolerancePolicy(eig_match_tol=0.0)


def test_nonfinite_input_rejected():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NonFiniteMatrixError):
        rank_of(bad)
    with pytest.raises(NonFiniteMatrixError):
        pseudo_inverse(np.array([[np.inf]]))


def test_pseudo_inverse_diagonal():
    M = np.diag([2.0, 0.0])
    np.testing.assert_allclose(pseudo_inverse(M), np.diag([0.5, 0.0]),
                               atol=1e-14)


def test_pseudo_inverse_rank_one():
    M = np.ones((2, 2))
    np.testing.assert_allclose(pseudo_inverse(M), 0.25 * np.ones((2, 2)),
                               atol=1e-14)


def test_pseudo_inverse_penrose_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        M = rng.normal(size=(5, 3))
        Mp = pseudo_inverse(M)
        np.testing.assert_allclose(M @ Mp @ M, M, atol=1e-12)
        np.testing.assert_allclose(Mp @ M @ Mp, Mp, atol=1e-12)
        np.testing.assert_allclose(M @ Mp, (M @ Mp).T, atol=1e-12)
        np.testing.assert_allclose(Mp @ M, (Mp @ M).T, atol=1e-12)


def test_rank_examples():
    assert rank_of(np.zeros((3, 4))) == 0
    assert rank_of(np.eye(3)) == 3
    assert rank_of(np.ones((2, 2))) == 1
    # near-zero singular value below the relative cutoff is dropped
    assert rank_of(np.diag([1.0, 1e-14])) == 1


def test_rank_complex_matrix():
    M = np.array([[1.0 + 1.0j, 0.0], [0.0, 0.0]])
    assert rank_of(M) == 1


def test_kernel_basis_orthonormal_and_annihilating():
    M = np.ones((2, 2))
    K = kernel_basis(M)
    assert K.shape == (2, 1)
    np.testing.assert_allclose(M @ K, 0.0, atol=1e-14)
    np.testing.assert_allclose(K.T @ K, np.eye(1), atol=1e-14)
    # sign convention: largest-magnitude entry positive
    assert K[np.argmax(np.abs(K[:, 0])), 0] > 0


def test_kernel_basis_of_empty_row_matrix_is_identity():
    K = kernel_basis(np.zeros((0, 4)))
    np.testing.assert_allclose(K, np.eye(4))


def test_image_basis_span():
    M = np.ones((2, 2))
    U = image_basis(M)
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
        assert rank_of(M) == rk
        K = kernel_basis(M)
        U = image_basis(M)
        assert K.shape == (cols, cols - rk)
        assert U.shape == (rows, rk)
        np.testing.assert_allclose(M @ K, 0.0, atol=1e-10)
        if rk:
            # image basis spans the column space
            np.testing.assert_allclose(U @ (U.T @ M), M, atol=1e-10)


def test_orthonormal_complement():
    B = np.array([[1.0], [0.0], [0.0]])
    C = orthonormal_complement(B, 3)
    assert C.shape == (3, 2)
    np.testing.assert_allclose(B.T @ C, 0.0, atol=1e-14)
    np.testing.assert_allclose(C.T @ C, np.eye(2), atol=1e-14)
    full = orthonormal_complement(np.zeros((3, 0)), 3)
    assert full.shape == (3, 3)
    np.testing.assert_allclose(full.T @ full, np.eye(3), atol=1e-14)


def test_basis_determinism():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(4, 6))
    M[:, 3:] = 0.0
    a, b = kernel_basis(M), kernel_basis(M.copy())
    assert a.tobytes() == b.tobytes()
    c, d = image_basis(M), image_basis(M.copy())
    assert c.tobytes() == d.tobytes()


def test_solve_affine_square_invertible():
    # two difference constraints plus two pinning rows
    F = np.array([[1.0, 0.0, -1.0, 0.0],
                  [0.0, 1.0, 0.0, -1.0],
                  [1.0, 0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0]])
    g = np.array([0.0, 0.0, 1.0, 2.0])
    x, ns, feasible = solve_affine(F, g)
    assert feasible
    assert ns.shape == (4, 0)
    np.testing.assert_allclose(x, [0.5, 2.0, 0.5, 2.0], atol=1e-12)


def test_solve_affine_underdetermined_min_norm():
    F = np.array([[1.0, 1.0]])
    g = np.array([2.0])
    x, ns, feasible = solve_affine(F, g)
    assert feasible
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)
    assert ns.shape == (2, 1)
    np.testing.assert_allclose(F @ ns, 0.0, atol=1e-14)


def test_solve_affine_infeasible():
    F = np.array([[1.0, 0.0], [1.0, 0.0]])
    g = np.array([0.0, 1.0])
    _, _, feasible = solve_affine(F, g)
    assert not feasible


def test_solve_affine_empty_system_is_feasible():
    x, ns, feasible = solve_affine(np.zeros((0, 3)), np.zeros(0))
    assert feasible
    np.testing.assert_allclose(x, np.zeros(3))
    assert ns.shape == (3, 3)


def test_solve_affine_consistency_random():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        F = rng.normal(size=(rows, cols))
        z = rng.normal(size=cols)
        g = F @ z
        x, ns, feasible = solve_affine(F, g)
        assert feasible
        np.testing.assert_allclose(F @ x, g, atol=1e-10)
        # particular solution is orthogonal to the kernel (min-norm)
        np.testing.assert_allclose(ns.T @ x, 0.0, atol=1e-10)


def test_matrix_norm():
    assert matrix_norm(np.zeros((0, 0))) == 0.0
    assert matrix_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


def test_subspace_distance():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert subspace_distance(e1, e1) == pytest.approx(0.0, abs=1e-14)
    assert subspace_distance(e1, e2) == pytest.approx(1.0)
    # same span reached through a different orthonormal representative
    assert subspace_distance(e1, image_basis(3.0 * e1)) == \
        pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DimensionMismatchError):
        subspace_distance(e1, np.zeros((3, 1)))
