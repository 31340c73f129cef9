"""Rank-revealing linear algebra with a single shared tolerance policy.

Every rank decision in this package (pseudo-inverses, kernel and image
bases, the split of a space into a column space and its orthogonal
complement, feasibility of affine systems) goes through the routines in
this module so that one `TolerancePolicy` controls them all.  Rank
cutoffs follow the usual SVD convention::

    cutoff = rank_rel_tol * max(rows, cols) * sigma_max

Orthonormal bases returned by :func:`kernel_basis`, :func:`image_basis`
and :func:`orthogonal_split` are made deterministic by a sign
convention: each basis column is flipped so that its entry of largest
magnitude (first such entry on ties) is positive.  Repeated calls on
identical input therefore produce identical output, which the reporting
layer relies on.

Norm checks whose only output is a pass or a fail go through
:func:`norm_exceeds`, which settles most of them from Frobenius and
column norms, using ``max column norm <= ||E||_2 <= ||E||_F``, and
computes spectral norms only when those bounds leave the decision
open, or when a sum of squares could overflow and the bounds would
mean nothing.  Every norm a caller reports or keeps is an exact
spectral norm (:func:`matrix_norm`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonFiniteMatrixError(ValueError):
    """A matrix argument contains NaN or Inf entries."""


class DimensionMismatchError(ValueError):
    """Matrix/vector arguments have inconsistent shapes."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Shared numerical tolerances.

    Parameters
    ----------
    rank_rel_tol : float
        Relative singular-value cutoff for all rank decisions.
    residual_tol : float
        Base tolerance for residual checks; call sites scale it by
        the norms of their inputs.
    eig_match_tol : float
        Radius used to cluster eigenvalues and match reciprocals.
    """

    rank_rel_tol: float = 1e-10
    residual_tol: float = 1e-8
    eig_match_tol: float = 1e-7

    def __post_init__(self):
        for name in ("rank_rel_tol", "residual_tol", "eig_match_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")


DEFAULT_POLICY = TolerancePolicy()


def _as_matrix(M, name="matrix"):
    """Coerce to a 2-D ndarray and reject non-finite entries."""
    A = np.atleast_2d(np.asarray(M))
    if A.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size and not np.all(np.isfinite(A)):
        raise NonFiniteMatrixError(f"{name} contains NaN or Inf")
    return A


def _as_vector(v, name="vector"):
    a = np.asarray(v)
    if a.ndim == 2 and 1 in a.shape:
        a = a.ravel()
    if a.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise NonFiniteMatrixError(f"{name} contains NaN or Inf")
    return a


def _svd_cutoff(s, shape, pol):
    smax = s[0] if len(s) else 0.0
    return pol.rank_rel_tol * max(shape) * smax


def _fix_signs(B):
    """Flip basis columns so the largest-magnitude entry is positive.

    Ties resolve to the first occurrence; makes SVD-derived bases
    deterministic across repeated runs.
    """
    B = np.array(B)
    if B.size:
        lead = B[np.argmax(np.abs(B), axis=0), np.arange(B.shape[1])]
        B[:, lead < 0] *= -1
    return B


def rank_of(M, pol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Numerical rank via SVD with the policy's relative cutoff.

    Accepts real or complex matrices.
    """
    A = _as_matrix(M)
    if 0 in A.shape:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > _svd_cutoff(s, A.shape, pol)))


def _pinv_from_svd(U, s, Vt, shape, pol):
    """The pseudo-inverse from the leading ``len(s)`` singular vectors."""
    k = len(s)
    s_inv = np.divide(1.0, s, out=np.zeros_like(s),
                      where=s > _svd_cutoff(s, shape, pol))
    return (Vt[:k].T * s_inv) @ U[:, :k].T


def _full_svd(A, pol):
    """(U, s, Vt, r): the full SVD of a non-empty A and its rank."""
    U, s, Vt = np.linalg.svd(A)
    return U, s, Vt, int(np.sum(s > _svd_cutoff(s, A.shape, pol)))


def pseudo_inverse(M, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with policy-controlled rank cutoff.

    Singular values at or below ``rank_rel_tol * max(shape) * sigma_max``
    are treated as zero, so the result is the pseudo-inverse of the
    nearest rank-truncated matrix.
    """
    A = _as_matrix(M)
    if 0 in A.shape:
        return np.zeros((A.shape[1], A.shape[0]))
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return _pinv_from_svd(U, s, Vt, A.shape, pol)


def kernel_basis(M, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of the (right) null space, deterministic signs.

    Returns an ``(cols, k)`` array; ``k == cols - rank_of(M)``.  A matrix
    with zero rows has full kernel and returns the identity.
    """
    A = _as_matrix(M)
    if 0 in A.shape:
        return np.eye(A.shape[1])
    _, _, Vt, r = _full_svd(A, pol)
    return _fix_signs(Vt[r:].T)


def orthogonal_split(M, pol: TolerancePolicy = DEFAULT_POLICY):
    """Orthonormal bases of the column space of M and of its orthogonal
    complement, from one full SVD, deterministic signs.

    Returns ``(image, complement)`` of shapes ``(rows, r)`` and
    ``(rows, rows - r)`` with ``r == rank_of(M)``; ``[image complement]``
    is orthogonal.
    """
    A = _as_matrix(M)
    if 0 in A.shape:
        return np.zeros((A.shape[0], 0)), np.eye(A.shape[0])
    U, _, _, r = _full_svd(A, pol)
    return _fix_signs(U[:, :r]), _fix_signs(U[:, r:])


def image_basis(M, pol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of the column space, deterministic signs.

    Returns an ``(rows, r)`` array with ``r == rank_of(M)``.
    """
    return orthogonal_split(M, pol)[0]


def image_and_kernel(M, pol: TolerancePolicy = DEFAULT_POLICY):
    """``(image_basis(M), kernel_basis(M))``, byte for byte, from one
    full SVD."""
    A = _as_matrix(M)
    if 0 in A.shape:
        return np.zeros((A.shape[0], 0)), np.eye(A.shape[1])
    U, _, Vt, r = _full_svd(A, pol)
    return _fix_signs(U[:, :r]), _fix_signs(Vt[r:].T)


def _affine_args(F, g):
    A = _as_matrix(F, "F")
    b = _as_vector(g, "g")
    if A.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"F has {A.shape[0]} rows but g has {b.shape[0]} entries")
    return A, b


def _feasible(A, particular, b, pol) -> bool:
    residual = np.linalg.norm(A @ particular - b) if A.shape[0] else 0.0
    return bool(residual <= pol.residual_tol * (1.0 + np.linalg.norm(b)))


def solve_affine(F, g, pol: TolerancePolicy = DEFAULT_POLICY):
    """Solve ``F x = g`` in the least-squares sense, with feasibility flag.

    Returns
    -------
    particular : ndarray
        Minimum-norm least-squares solution ``F^+ g``; when feasible,
        the full solution set is ``particular + ker F``
        (:func:`kernel_basis` gives a basis).
    feasible : bool
        True when ``||F @ particular - g|| <= residual_tol * (1 + ||g||)``.
    """
    A, b = _affine_args(F, g)
    particular = pseudo_inverse(A, pol) @ b
    return particular, _feasible(A, particular, b, pol)


def affine_solution_set(F, g, pol: TolerancePolicy = DEFAULT_POLICY):
    """:func:`solve_affine` together with :func:`kernel_basis` of F,
    from one full SVD of F: ``(particular, feasible, kernel)``.

    For square F the full and the thin SVD agree, and all three outputs
    equal those of the two functions byte for byte.
    """
    A, b = _affine_args(F, g)
    if 0 in A.shape:
        particular, kernel = np.zeros(A.shape[1]), np.eye(A.shape[1])
    else:
        U, s, Vt, r = _full_svd(A, pol)
        particular = _pinv_from_svd(U, s, Vt, A.shape, pol) @ b
        kernel = _fix_signs(Vt[r:].T)
    return particular, _feasible(A, particular, b, pol), kernel


def matrix_norm(M) -> float:
    """Spectral norm (the largest singular value), with the empty
    matrix mapped to 0."""
    A = np.atleast_2d(np.asarray(M))
    if 0 in A.shape:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


_TINY = float(np.finfo(float).tiny)
# Up to this Frobenius norm no sum of squares of entries overflows.
_SCREEN_MAX = 1e150


def _fro(M) -> float:
    """An upper bound on the Frobenius norm, and so on the spectral
    norm: the sum of squares plus the most that underflow can take from
    it.  inf when the sum overflows."""
    return math.sqrt(np.vdot(M, M) + M.size * _TINY)


def _colmax(M) -> float:
    """Largest column norm, a lower bound on the spectral norm, for M
    whose Frobenius norm is at most ``_SCREEN_MAX``."""
    return math.sqrt((M * M).sum(axis=0).max()) if M.size else 0.0


def _scaled(tol, norms) -> float:
    """tol * (1 + sum of norms), summed from the left, so that two
    scales round as ``tol * (1.0 + a + b)`` does."""
    total = 1.0
    for value in norms:
        total += value
    return tol * total


def norm_exceeds(E, tol, *scales) -> bool:
    """Whether ``||E||_2 > tol * (1 + sum of ||S||_2 over scales)``.

    Decided without an SVD when ``2 ||E||_F <= tol * (1 + sum of column
    maxima)`` (it does not exceed) or ``colmax(E) > 2 tol * (1 + sum of
    ||S||_F)`` (it does); the factor 2 absorbs rounding in the bounds.
    The column maxima are used only while no Frobenius norm passes
    ``_SCREEN_MAX``, since past overflow they bound nothing.  Otherwise
    the decision comes from the exact spectral norms.  ``E`` may be a
    scalar; the scales are 2-D arrays.
    """
    E = np.atleast_2d(np.asarray(E))
    fro = _fro(E)
    # The two screens cannot both hold, so their order only sets the
    # cost: the first test is the pass screen with the column maxima
    # bounded below by 0.
    if 2.0 * fro <= tol:
        return False
    uppers = [_fro(S) for S in scales]
    if max([fro, *uppers]) <= _SCREEN_MAX:
        if _colmax(E) > 2.0 * _scaled(tol, uppers):
            return True
        if 2.0 * fro <= _scaled(tol, map(_colmax, scales)):
            return False
    return matrix_norm(E) > _scaled(tol, map(matrix_norm, scales))


def subspace_distance(B1, B2) -> float:
    """Distance between subspaces given orthonormal bases: the spectral
    norm of the difference of orthogonal projectors."""
    B1 = _as_matrix(B1)
    B2 = _as_matrix(B2)
    if B1.shape[0] != B2.shape[0]:
        raise DimensionMismatchError("bases live in different ambient spaces")
    P1 = B1 @ B1.T
    P2 = B2 @ B2.T
    return matrix_norm(P1 - P2)
