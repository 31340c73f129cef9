"""The extended symplectic pencil and its structure.

Stationarity of the finite-horizon LQ problem is governed by the matrix
pencil N - z M acting on stacked (state, costate, input) vectors:

    M = [[I, 0,    0],      N = [[A,  0,  B],
         [0, -A',  0],           [Q, -I,  S],
         [0, -B',  0]]           [S', 0,  R]]

The triple keeps this pencil, assembled once and read-only
(``PopovTriple.esp``): the Riccati congruence below transforms it, and
the stationarity check of a solve evaluates the extended symplectic
difference equation N z(t) = M z(t+1) on it, with z = (x, lambda, u).

When R (hence possibly R_X) is singular the pencil is singular too:
det(N - zM) may vanish identically.  Given a CGDARE solution X, a pair
of unimodular transforms turns N - zM into a block-triangular form from
which the complete eigenstructure can be read off:

* finite generalized eigenvalues are the eigenvalues of A_X restricted
  to the unreachable part of (A_X, B2), together with the reciprocals
  of the nonzero ones;
* the multiplicities at infinity are those of the eigenvalue 0 of an
  explicit square matrix built from the same blocks;
* the normal rank is 2n + m1, m1 the rank of R_X.

:func:`generalized_spectrum` reads every figure off these blocks; no
evaluation of N - z M is involved.  The congruence check and
:func:`canonical_form` share the products U_X N V_X and U_X M V_X, each
formed once.  All of this is independent of which CGDARE solution X is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _frobenius,
    _svd_cutoff,
    norm_exceeds,
    ranked_svd,
)
from .model import Pencil
from .riccati import InputSplit, RiccatiCertificate


class DecompositionError(RuntimeError):
    """An internal consistency check of the pencil decomposition failed."""


def _triangular_rhs(cert: RiccatiCertificate, z) -> np.ndarray:
    """The block-triangular form the congruence must produce at z."""
    sigma = cert.sigma
    n, m = sigma.n, sigma.m
    out = np.zeros((2 * n + m, 2 * n + m))
    out[:n, :n] = cert.A_X - z * np.eye(n)
    out[:n, 2 * n:] = sigma.B
    out[n:2 * n, n:2 * n] = np.eye(n) - z * cert.A_X.T
    out[2 * n:, n:2 * n] = -z * sigma.B.T
    out[2 * n:, 2 * n:] = cert.R_X
    return out


def riccati_congruence(cert: RiccatiCertificate,
                       pol: TolerancePolicy = DEFAULT_POLICY):
    """Unimodular transforms (U_X, V_X) that block-triangularize the
    pencil, with the products U_X N V_X and U_X M V_X.

    With X a CGDARE solution,

        U_X (N - z M) V_X = [[A_X - zI, 0,         B  ],
                             [0,        I - zA_X', 0  ],
                             [0,        -zB',      R_X]]

    identically in z.  U_X has determinant 1 and V_X determinant
    (-1)^n, so ranks are preserved.  The identity is verified at
    z in {0, 1} before returning, on the two products U_X N V_X and
    U_X M V_X, each formed once (:func:`canonical_form` reuses them),
    and without singular values: the residual's Frobenius norm against
    ``residual_tol`` times 1 + max|N| + max|M| + max|X| (largest
    absolute entries).  As ||R||_2 <= ||R||_F and max|a_ij| <= ||A||_2,
    this is at least as strict as the same bound in spectral norms.

    Returns
    -------
    (U_X, V_X, U_X N V_X, U_X M V_X) : tuple of ndarray

    Raises
    ------
    DecompositionError
        If the residual exceeds that bound at z = 0 or z = 1.
    """
    sigma = cert.sigma
    esp = sigma.esp
    n, m = sigma.n, sigma.m
    X, K_X, A_X = cert.X, cert.K_X, cert.A_X
    U_X = np.eye(2 * n + m)
    U_X[n:2 * n, :n] = A_X.T @ X
    U_X[n:2 * n, 2 * n:] = -K_X.T
    U_X[2 * n:, :n] = sigma.B.T @ X
    V_X = np.eye(2 * n + m)
    V_X[n:2 * n, :n] = X
    V_X[n:2 * n, n:2 * n] = -np.eye(n)
    V_X[2 * n:, :n] = -K_X
    C_N = U_X @ esp.N @ V_X
    C_M = U_X @ esp.M @ V_X

    scale = 1.0 + sum(np.max(np.abs(W), initial=0.0) for W in (esp.N, esp.M, X))
    for z, C in ((0.0, C_N), (1.0, C_N - C_M)):
        residual = _frobenius(C - _triangular_rhs(cert, z))
        if residual > pol.residual_tol * scale:
            raise DecompositionError(
                f"congruence verification failed at z={z} "
                f"(residual {residual:.3e})")
    return U_X, V_X, C_N, C_M


@dataclass(frozen=True)
class PencilDecomposition:
    """Coordinates adapted to the closed-loop reachability structure.

    U = [U1 U2] is orthogonal with im U1 the reachable subspace (dim r)
    of (A_X, B2).  In these coordinates

        U' A_X U = [[A_X11, A_X12], [0, A_X22]],
        U' B1    = [[B11], [B12]],     U' B2 = [[B21], [0]],

    with (A_X11, B21) reachable and ``index`` its controllability
    index.  Everything downstream (canonical pencil form, spectrum,
    trajectory parameterization) reads off these blocks.
    """

    cert: RiccatiCertificate
    split: InputSplit
    U: np.ndarray
    r: int
    index: int
    A_X11: np.ndarray
    A_X12: np.ndarray
    A_X22: np.ndarray
    B11: np.ndarray
    B12: np.ndarray
    B21: np.ndarray

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def m1(self) -> int:
        return self.split.m1

    @property
    def m2(self) -> int:
        return self.split.m2


def _reachable_staging(A, B, pol):
    """Stage the reachable subspace of (A, B) in one Krylov pass.

    Grows the stack [B, AB, A^2 B, ...] one block at a time, ranking
    each stack by one SVD, and stops when the rank does not rise,
    reaches dim A, or the stack holds dim A blocks.  The SVD of that
    last stack splits R^n into the reachable subspace (orthonormal basis
    U1, r = its rank) and its orthogonal complement (U2).  The
    controllability index of the reachable block is the fewest blocks
    whose stack has rank r.

    Returns (U1, U2, index).
    """
    n = A.shape[0]
    svd = ranked_svd(B, pol)
    stack, block, ranks = B, B, [0, svd.rank]
    while ranks[-2] < ranks[-1] < n and len(ranks) <= n:
        block = A @ block
        stack = np.concatenate([stack, block], axis=1)
        svd = ranked_svd(stack, pol)
        ranks.append(svd.rank)
    index = next(k for k, rank in enumerate(ranks) if rank >= svd.rank)
    return svd.image, svd.complement, index


def reachability_decomposition(cert: RiccatiCertificate, split: InputSplit,
                               pol: TolerancePolicy = DEFAULT_POLICY) -> PencilDecomposition:
    """Stage the closed-loop pair (A_X, B2) into reachable/unreachable blocks.

    The basis U and the controllability index come from one rank
    sequence of the Krylov stack of (A_X, B2), the last rank and the
    basis from one SVD (see :func:`_reachable_staging`).

    Raises
    ------
    DecompositionError
        If the computed basis fails the invariance checks (the lower-left
        block of U' A_X U or the lower block of U' B2 is not negligible).
    """
    A_X = cert.A_X
    U1, U2, index = _reachable_staging(A_X, split.B2, pol)
    r = U1.shape[1]
    U = np.concatenate([U1, U2], axis=1)

    At = U.T @ A_X @ U
    Bt1 = U.T @ split.B1
    Bt2 = U.T @ split.B2
    if norm_exceeds(At[r:, :r], pol.residual_tol, A_X, split.B2):
        raise DecompositionError("reachable subspace is not A_X-invariant")
    if norm_exceeds(Bt2[r:, :], pol.residual_tol, A_X, split.B2):
        raise DecompositionError("im B2 escapes the reachable subspace")

    return PencilDecomposition(
        cert=cert, split=split, U=U, r=r, index=index,
        A_X11=At[:r, :r], A_X12=At[:r, r:], A_X22=At[r:, r:],
        B11=Bt1[:r, :], B12=Bt1[r:, :], B21=Bt2[:r, :])


def canonical_form(dec: PencilDecomposition,
                   pol: TolerancePolicy = DEFAULT_POLICY) -> Pencil:
    """The fully displayed canonical pencil.

    Applies, on top of the block-triangular congruence, the orthogonal
    L = blkdiag(U, U, [T1 T2]) of the reachability coordinates and the
    input split, as L' U_X (N - zM) V_X L, and reorders its blocks by
    index.  The products U_X N V_X and U_X M V_X are those the
    congruence check formed.  This yields (with nr = n - r)

        rows (x1, l1, u2, x2, l2, u1), cols (x1, u2, l1, x2, l2, u1):

        [[A11 - zI, B21,     0,        A12,      0,         B11 ],
         [0,        0,       I - zA11',0,        0,         0   ],
         [0,        0,       -zB21',   0,        0,         0   ],
         [0,        0,       0,        A22 - zI, 0,         B12 ],
         [0,        0,       -zA12',   0,        I - zA22', 0   ],
         [0,        0,       -zB11',   0,        -zB12',    R_X0]]

    The upper-left 3-block corner carries the reachable/regular part;
    rank deficiency of the (l1-row, u2-column) zero structure encodes
    the singular part of the pencil.

    Raises
    ------
    DecompositionError
        If the certificate's congruence fails its check (see
        :func:`riccati_congruence`).
    """
    _, _, C_N, C_M = riccati_congruence(dec.cert, pol)
    n, m = dec.n, dec.m1 + dec.m2
    L = np.zeros((2 * n + m, 2 * n + m))
    L[:n, :n] = dec.U
    L[n:2 * n, n:2 * n] = dec.U
    L[2 * n:, 2 * n:] = np.concatenate([dec.split.T1, dec.split.T2], axis=1)
    # transformed blocks are ordered (x1, x2, l1, l2, u1, u2)
    sizes = (dec.r, n - dec.r, dec.r, n - dec.r, dec.m1, dec.m2)
    ends = np.cumsum(sizes)
    block = [np.arange(end - size, end) for size, end in zip(sizes, ends)]
    rows = L[:, np.concatenate([block[k] for k in (0, 2, 5, 1, 3, 4)])]
    cols = L[:, np.concatenate([block[k] for k in (0, 5, 2, 1, 3, 4)])]
    return Pencil(rows.T @ C_N @ cols, rows.T @ C_M @ cols)


@dataclass(frozen=True)
class FiniteEigenvalue:
    """One finite generalized eigenvalue with its algebraic multiplicity."""

    value: complex
    multiplicity: int


@dataclass(frozen=True)
class PencilSpectrum:
    """Complete generalized eigenstructure of the extended symplectic
    pencil, derived from the canonical blocks.

    ``normal_rank`` is 2n + m1, from the sizes of the blocks.
    ``infinite_algebraic``/``infinite_geometric`` are the multiplicities
    of the eigenvalue 0 of the matrix

        P_inf = [[I, 0, 0], [0, A_X22', 0], [0, B12', 0]]

    (rank-chain and kernel-dimension respectively): the size of the
    eigenvalue at infinity and the number of its Jordan blocks.
    """

    normal_rank: int
    finite_eigenvalues: tuple
    infinite_algebraic: int
    infinite_geometric: int


def _cluster(values, tol):
    """Greedy clustering of complex values, returned as (centres, counts).

    In the stable order of their real, then imaginary parts rounded to
    12 digits, values join the first earlier centre within ``tol`` or
    become centres.  Only values with a neighbour within ``tol`` can join.
    """
    z = np.asarray(values)
    z = z[np.lexsort((np.round(z.imag, 12), np.round(z.real, 12)))]
    gap = z[:, None] - z[None, :]
    # hypot rounds as abs() of a numpy complex scalar does; np.abs may not
    near = np.hypot(gap.real, gap.imag) <= tol
    centre = near.sum(axis=1) == 1
    counts = np.ones(len(z), dtype=int)
    heads = []
    for i in np.flatnonzero(~centre):
        head = next((h for h in heads if near[i, h]), None)
        if head is None:
            heads.append(i)
            centre[i] = True
        else:
            counts[head] += 1
    return z[centre], counts[centre]


def _infinite_multiplicities(A22, B12, pol):
    """(algebraic, geometric) multiplicity of the eigenvalue 0 of
    P_inf (see :class:`PencilSpectrum`), via the rank chain of its powers.

    P_inf = blkdiag(I_d, [[A22', 0], [B12', 0]]), so the singular values
    of P_inf^k are d ones, m1 zeros and those of the (d + m1) x d block
    G_k = [A22'^k; B12' A22'^(k-1)] = G_(k-1) A22'.  The chain runs on
    G_k; each rank is that of P_inf^k under ``linalg._svd_cutoff``,
    with size 2d + m1 and sigma_max = max(1, sigma_max(G_k)) for d > 0.
    """
    d, m1 = B12.shape
    size = 2 * d + m1
    if size == 0:
        return 0, 0
    block = np.concatenate([A22.T, B12.T])
    prev, geometric = size, None
    for _ in range(size):
        s = np.linalg.svd(block, compute_uv=False) if d else np.zeros(0)
        cutoff = _svd_cutoff((np.max(s, initial=1.0),), (size, size), pol)
        rank = d * (1.0 > cutoff) + int(np.sum(s > cutoff))
        if geometric is None:
            geometric = size - rank
        if rank == prev:
            break
        prev = rank
        block = block @ A22.T
    return size - prev, geometric


def generalized_spectrum(dec: PencilDecomposition,
                         pol: TolerancePolicy = DEFAULT_POLICY) -> PencilSpectrum:
    """Finite and infinite generalized eigenstructure of the pencil,
    read off the blocks of the decomposition.

    The normal rank is 2n + m1.  Finite eigenvalues are the eigenvalues
    of A_X22 together with the reciprocals of its nonzero eigenvalues
    (clustered within eig_match_tol, multiplicities added); eigenvalues
    of modulus at most eig_match_tol are treated as zero (no
    reciprocal).  The structure at infinity is that of the eigenvalue 0
    of P_inf (see :class:`PencilSpectrum`).  No figure is measured on
    N - z M itself: each rests on the checks the blocks have passed,
    those of the certificate and of :func:`reachability_decomposition`.

    Cost: one ``eigvals`` of the d x d A_X22 (d = n - r), and a rank
    chain on (d + m1) x d blocks (see :func:`_infinite_multiplicities`).
    """
    A22, tol = dec.A_X22, pol.eig_match_tol
    eigs = np.linalg.eigvals(A22) if A22.size else np.zeros(0)
    nonzero = eigs[np.hypot(eigs.real, eigs.imag) > tol]  # |z| as in _cluster
    centres, counts = _cluster(np.concatenate([eigs, 1.0 / nonzero]), tol)
    finite = tuple(FiniteEigenvalue(value=complex(c), multiplicity=int(k))
                   for c, k in zip(centres, counts))
    inf_alg, inf_geo = _infinite_multiplicities(A22, dec.B12, pol)

    return PencilSpectrum(
        normal_rank=2 * dec.n + dec.m1,
        finite_eigenvalues=finite,
        infinite_algebraic=int(inf_alg),
        infinite_geometric=int(inf_geo),
    )
