"""Rank-revealing linear algebra with a single shared tolerance policy.

Every rank decision in this package goes through one entry point, so
that one `TolerancePolicy` controls them all: :func:`ranked_svd`, one
SVD whose :class:`RankedSvd` gives the rank, the image, its orthogonal
complement, the kernel, the pseudo-inverse and the solution of an
affine system ``F x = g`` with its feasibility.  An object that owns a
matrix keeps its one factorisation, and each caller re-ranks it under
its own policy with :meth:`RankedSvd.ranked`.  Rank cutoffs follow the
usual SVD convention, and :func:`_svd_cutoff` alone writes it out:
the pencil's infinite structure (on the powers of P_inf) calls it too.
The one rank
decision outside the policy is the oracle's reduced solve, whose
pivoted Cholesky stops at the machine-precision cutoff
``oracle.CHOLESKY_RANK_TOL``.

The orthonormal bases are made deterministic by a sign convention:
each basis column is flipped so that its entry of largest magnitude
(first such entry on ties) is positive.  Repeated calls on identical
input therefore produce identical output, which the reporting layer
relies on.

Norm checks whose only output is a pass or a fail go through
:func:`norm_exceeds`, which settles most of them from Frobenius and
column norms, using ``max column norm <= ||E||_2 <= ||E||_F``, and
computes spectral norms only when those bounds leave the decision
open, or when a sum of squares could overflow and the bounds would
mean nothing.  Every norm a caller reports or keeps is an exact
spectral norm: :func:`matrix_norm`, the largest singular value of a
:func:`ranked_svd` the caller takes anyway, or, for a symmetric matrix,
the largest eigenvalue modulus of the eigendecomposition its owner
keeps.
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
    """The rank cutoff rank_rel_tol * max(shape) * s[0] of a matrix
    whose singular values, largest first, are s."""
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


@dataclass(frozen=True, slots=True)
class RankedSvd:
    """An SVD ``M = U diag(s) Vt`` and the rank the policy cutoff gives
    it; the bases, the pseudo-inverse and the affine solve are read off
    this one factorisation.

    A matrix with no rows or no columns has identity singular bases and
    rank 0.  Of a thin factorisation (``full=False``) only the bases it
    holds whole can be read: :attr:`kernel` needs a square ``Vt`` and
    :attr:`complement` a square ``U``.
    """

    M: np.ndarray
    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray
    rank: int

    @property
    def image(self) -> np.ndarray:
        """Orthonormal basis ``(rows, rank)`` of the column space."""
        return _fix_signs(self.U[:, :self.rank])

    @property
    def complement(self) -> np.ndarray:
        """Orthonormal basis ``(rows, rows - rank)`` of the orthogonal
        complement of the column space; ``[image complement]`` is
        orthogonal."""
        return _fix_signs(_whole(self.U, "complement")[:, self.rank:])

    @property
    def kernel(self) -> np.ndarray:
        """Orthonormal basis ``(cols, cols - rank)`` of the (right) null
        space."""
        return _fix_signs(_whole(self.Vt, "kernel")[self.rank:].T)

    @property
    def pinv(self) -> np.ndarray:
        """Moore-Penrose pseudo-inverse of the rank-``rank`` truncation:
        singular values at or below the cutoff count as zero."""
        k = len(self.s)
        s_inv = np.zeros_like(self.s)
        s_inv[:self.rank] = 1.0 / self.s[:self.rank]
        return (self.Vt[:k].T * s_inv) @ self.U[:, :k].T

    def ranked(self, pol: TolerancePolicy) -> "RankedSvd":
        """The same factorisation with the rank that pol's cutoff gives
        it, the count of singular values above it: the package's one
        rank rule, which a caller keeping one SVD applies per policy."""
        rank = np.count_nonzero(self.s > _svd_cutoff(self.s, self.M.shape, pol))
        return RankedSvd(self.M, self.U, self.s, self.Vt, int(rank))

    def solve(self, g, pol: TolerancePolicy = DEFAULT_POLICY):
        """Solve ``M x = g`` in the least-squares sense.

        Returns ``(particular, feasible)``: the minimum-norm
        least-squares solution ``M^+ g``, whose solution set when
        feasible is ``particular + ker M``, and whether
        ``||M particular - g|| <= residual_tol * (1 + ||g||)``.
        """
        A, b = self.M, _as_vector(g, "g")
        if A.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"F has {A.shape[0]} rows but g has {b.shape[0]} entries")
        particular = self.pinv @ b
        residual = np.linalg.norm(A @ particular - b) if A.shape[0] else 0.0
        return particular, bool(residual <= pol.residual_tol * (1.0 + np.linalg.norm(b)))


def _whole(basis, name):
    if basis.shape[0] != basis.shape[1]:
        raise ValueError(f"the {name} needs the full factorisation "
                         "(ranked_svd with full=True)")
    return basis


def ranked_svd(M, pol: TolerancePolicy = DEFAULT_POLICY, full: bool = True) -> RankedSvd:
    """The SVD of M, full or thin, with its rank under the policy cutoff
    (see :class:`RankedSvd`)."""
    A = _as_matrix(M)
    if 0 in A.shape:
        return RankedSvd(A, np.eye(A.shape[0]), np.zeros(0), np.eye(A.shape[1]), 0)
    return RankedSvd(A, *np.linalg.svd(A, full_matrices=full), 0).ranked(pol)


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
