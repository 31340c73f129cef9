"""The extended symplectic pencil and its structure.

Stationarity of the finite-horizon LQ problem is governed by the matrix
pencil N - z M acting on stacked (state, costate, input) vectors:

    M = [[I, 0,    0],      N = [[A,  0,  B],
         [0, -A',  0],           [Q, -I,  S],
         [0, -B',  0]]           [S', 0,  R]]

When R (hence possibly R_X) is singular the pencil is singular too:
det(N - zM) may vanish identically.  Given a CGDARE solution X, a pair
of unimodular transforms turns N - zM into a block-triangular form from
which the complete eigenstructure can be read off:

* finite generalized eigenvalues are the eigenvalues of A_X restricted
  to the unreachable part of (A_X, B2), together with the reciprocals
  of the nonzero ones;
* the multiplicities at infinity are those of the eigenvalue 0 of an
  explicit square matrix built from the same blocks;
* the normal rank is 2n + m1.

All of this is independent of which CGDARE solution X is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    DimensionMismatchError,
    TolerancePolicy,
    image_basis,
    kernel_basis,
    matrix_norm,
    orthonormal_complement,
    rank_of,
    subspace_distance,
)
from .model import PopovTriple
from .riccati import InputSplit, RiccatiCertificate, split_inputs

DEFAULT_SEED = 1729


class DecompositionError(RuntimeError):
    """An internal consistency check of the pencil decomposition failed."""


@dataclass(frozen=True, eq=False)
class Pencil:
    """A linear matrix pencil N - z M (square)."""

    N: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        N = np.asarray(self.N, dtype=float)
        M = np.asarray(self.M, dtype=float)
        if N.shape != M.shape or N.ndim != 2 or N.shape[0] != N.shape[1]:
            raise DimensionMismatchError("N and M must be square of equal shape")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "M", M)

    @property
    def size(self) -> int:
        return self.N.shape[0]

    def at(self, z) -> np.ndarray:
        """Evaluate N - z M (complex z allowed)."""
        return self.N - z * self.M


def build_esp(sigma: PopovTriple) -> Pencil:
    """Assemble the extended symplectic pencil of a Popov triple."""
    n, m = sigma.n, sigma.m
    In = np.eye(n)
    M = np.zeros((2 * n + m, 2 * n + m))
    M[:n, :n] = In
    M[n:2 * n, n:2 * n] = -sigma.A.T
    M[2 * n:, n:2 * n] = -sigma.B.T
    N = np.zeros((2 * n + m, 2 * n + m))
    N[:n, :n] = sigma.A
    N[:n, 2 * n:] = sigma.B
    N[n:2 * n, :n] = sigma.Q
    N[n:2 * n, n:2 * n] = -In
    N[n:2 * n, 2 * n:] = sigma.S
    N[2 * n:, :n] = sigma.S.T
    N[2 * n:, 2 * n:] = sigma.R
    return Pencil(N, M)


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
    """Unimodular transforms (U_X, V_X) that block-triangularize the pencil.

    With X a CGDARE solution,

        U_X (N - z M) V_X = [[A_X - zI, 0,         B  ],
                             [0,        I - zA_X', 0  ],
                             [0,        -zB',      R_X]]

    identically in z.  U_X has determinant 1 and V_X determinant
    (-1)^n, so ranks are preserved.  The identity is verified at
    z in {0, 1} before returning.

    Returns
    -------
    (U_X, V_X) : pair of ndarray

    Raises
    ------
    DecompositionError
        If the verification residual exceeds
        ``residual_tol * scale`` at either probe point.
    """
    sigma = cert.sigma
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

    esp = build_esp(sigma)
    scale = 1.0 + matrix_norm(esp.N) + matrix_norm(esp.M) + matrix_norm(X)
    for z in (0.0, 1.0):
        residual = matrix_norm(U_X @ esp.at(z) @ V_X - _triangular_rhs(cert, z))
        if residual > pol.residual_tol * scale:
            raise DecompositionError(
                f"congruence verification failed at z={z} "
                f"(residual {residual:.3e})")
    return U_X, V_X


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
    U_X: np.ndarray
    V_X: np.ndarray
    U: np.ndarray
    r: int
    index: int
    A_X11: np.ndarray
    A_X12: np.ndarray
    A_X22: np.ndarray
    B11: np.ndarray
    B12: np.ndarray
    B21: np.ndarray
    pencil: Pencil

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def m1(self) -> int:
        return self.split.m1

    @property
    def m2(self) -> int:
        return self.split.m2


def _reachable_basis(A, B, pol) -> np.ndarray:
    """Orthonormal basis of the reachable subspace of (A, B)."""
    n = A.shape[0]
    if B.shape[1] == 0:
        return np.zeros((n, 0))
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return image_basis(np.hstack(blocks), pol)


def _controllability_index(A, B, pol) -> int:
    """Smallest k with rank [B, AB, ..., A^(k-1)B] equal to dim A.

    Raises
    ------
    DecompositionError
        If the rank of the prefixes stalls below dim A, i.e. the pair
        is not reachable.
    """
    d = A.shape[0]
    if d == 0:
        return 0
    blocks, prev = [B], 0
    for k in range(1, d + 1):
        rk = rank_of(np.hstack(blocks), pol)
        if rk == d:
            return k
        if rk == prev:
            break
        prev = rk
        blocks.append(A @ blocks[-1])
    raise DecompositionError("(A_X11, B21) is not reachable")


def reachability_decomposition(cert: RiccatiCertificate, split: InputSplit,
                               pol: TolerancePolicy = DEFAULT_POLICY) -> PencilDecomposition:
    """Stage the closed-loop pair (A_X, B2) into reachable/unreachable blocks.

    Raises
    ------
    DecompositionError
        If the computed basis fails the invariance checks (the lower-left
        block of U' A_X U or the lower block of U' B2 is not negligible),
        or if (A_X11, B21) is not reachable: the ranks of the prefixes
        of its Krylov stack, which give its controllability index,
        stall below r.
    """
    A_X = cert.A_X
    n = A_X.shape[0]
    U1 = _reachable_basis(A_X, split.B2, pol)
    r = U1.shape[1]
    U2 = orthonormal_complement(U1, n, pol)
    U = np.hstack([U1, U2])

    At = U.T @ A_X @ U
    Bt1 = U.T @ split.B1
    Bt2 = U.T @ split.B2
    scale = 1.0 + matrix_norm(A_X) + matrix_norm(split.B2)
    if matrix_norm(At[r:, :r]) > pol.residual_tol * scale:
        raise DecompositionError("reachable subspace is not A_X-invariant")
    if matrix_norm(Bt2[r:, :]) > pol.residual_tol * scale:
        raise DecompositionError("im B2 escapes the reachable subspace")

    A11, A12, A22 = At[:r, :r], At[:r, r:], At[r:, r:]
    B21 = Bt2[:r, :]
    index = _controllability_index(A11, B21, pol)

    U_X, V_X = riccati_congruence(cert, pol)
    return PencilDecomposition(
        cert=cert, split=split, U_X=U_X, V_X=V_X, U=U, r=r, index=index,
        A_X11=A11, A_X12=A12, A_X22=A22,
        B11=Bt1[:r, :], B12=Bt1[r:, :], B21=B21,
        pencil=build_esp(cert.sigma))


def canonical_form(dec: PencilDecomposition) -> Pencil:
    """The fully displayed canonical pencil.

    Applies, on top of the block-triangular congruence, the orthogonal
    L = blkdiag(U, U, [T1 T2]) of the reachability coordinates and the
    input split, as L' U_X (N - zM) V_X L, and reorders its blocks by
    index, yielding (with nr = n - r)

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
    """
    n, m = dec.n, dec.m1 + dec.m2
    L = np.zeros((2 * n + m, 2 * n + m))
    L[:n, :n] = dec.U
    L[n:2 * n, n:2 * n] = dec.U
    L[2 * n:, 2 * n:] = np.hstack([dec.split.T1, dec.split.T2])
    # transformed blocks are ordered (x1, x2, l1, l2, u1, u2)
    sizes = (dec.r, n - dec.r, dec.r, n - dec.r, dec.m1, dec.m2)
    ends = np.cumsum(sizes)
    block = [np.arange(end - size, end) for size, end in zip(sizes, ends)]
    rows = np.concatenate([block[k] for k in (0, 2, 5, 1, 3, 4)])
    cols = np.concatenate([block[k] for k in (0, 5, 2, 1, 3, 4)])

    def transform(W):
        return (L.T @ dec.U_X @ W @ dec.V_X @ L)[np.ix_(rows, cols)]

    return Pencil(transform(dec.pencil.N), transform(dec.pencil.M))


def probe_ranks(p: Pencil, pol: TolerancePolicy = DEFAULT_POLICY,
                seed: int = DEFAULT_SEED, avoid=()) -> tuple:
    """Rank of N - zM at ``size + 1`` distinct seeded points on |z| = 2.

    The set of z where the rank drops below the normal rank has at most
    ``size`` elements, so the maximum over the samples attains the
    normal rank.  Points within eig_match_tol of entries of `avoid`
    (known eigenvalues) are re-drawn.  Returns ((z, rank), ...).
    """
    rng = np.random.default_rng(seed)
    need = p.size + 1
    points = []
    attempts = 0
    while len(points) < need and attempts < 100 * need + 100:
        attempts += 1
        z = 2.0 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        if any(abs(z - a) <= pol.eig_match_tol for a in avoid):
            continue
        if any(abs(z - w) <= pol.eig_match_tol for w in points):
            continue
        points.append(z)
    return tuple((z, rank_of(p.at(z), pol)) for z in points)


def normal_rank(p: Pencil, pol: TolerancePolicy = DEFAULT_POLICY,
                seed: int = DEFAULT_SEED, avoid=()) -> int:
    """Normal rank of the pencil: max rank of N - zM over z, attained
    by deterministic seeded sampling (see :func:`probe_ranks`)."""
    probes = probe_ranks(p, pol, seed=seed, avoid=avoid)
    return max((rk for _, rk in probes), default=0)


@dataclass(frozen=True)
class FiniteEigenvalue:
    """One finite generalized eigenvalue with algebraic multiplicity and
    the pencil rank observed at it (strictly below the normal rank)."""

    value: complex
    multiplicity: int
    rank_at_value: int


@dataclass(frozen=True)
class PencilSpectrum:
    """Complete generalized eigenstructure of the extended symplectic
    pencil, derived from the canonical blocks.

    ``infinite_algebraic``/``infinite_geometric`` are the multiplicities
    of the eigenvalue 0 of the matrix

        P_inf = [[I, 0, 0], [0, A_X22', 0], [0, B12', 0]]

    (rank-chain and kernel-dimension respectively).  The refined_*
    fields report the alternative count m1 + (zero modes of the
    unobservable part of (A_X22', B12')); they are diagnostics only and
    can differ from the operational values on degenerate instances.
    """

    normal_rank: int
    finite_eigenvalues: tuple
    infinite_algebraic: int
    infinite_geometric: int
    refined_algebraic: int
    refined_geometric: int
    probes: tuple


def _cluster(values, tol):
    """Greedy clustering of complex values; deterministic via sorting."""
    ordered = sorted(values, key=lambda z: (round(z.real, 12), round(z.imag, 12)))
    clusters = []  # [center, count]
    for z in ordered:
        for c in clusters:
            if abs(z - c[0]) <= tol:
                c[1] += 1
                break
        else:
            clusters.append([z, 1])
    return clusters


def _zero_multiplicities(A, pol):
    """(algebraic, geometric) multiplicity of the eigenvalue 0 of A,
    via the rank chain of its powers."""
    d = A.shape[0]
    if d == 0:
        return 0, 0
    geometric = d - rank_of(A, pol)
    prev = d
    power = np.eye(d)
    algebraic = 0
    for _ in range(d):
        power = power @ A
        rk = rank_of(power, pol)
        if rk == prev:
            break
        algebraic = d - rk
        prev = rk
    return algebraic, geometric


def generalized_spectrum(dec: PencilDecomposition,
                         pol: TolerancePolicy = DEFAULT_POLICY,
                         seed: int = DEFAULT_SEED) -> PencilSpectrum:
    """Finite and infinite generalized eigenstructure of the pencil.

    Finite eigenvalues are the eigenvalues of A_X22 together with the
    reciprocals of its nonzero eigenvalues (clustered within
    eig_match_tol, multiplicities added); each is cross-checked by a
    rank probe of N - zM at the eigenvalue.  Eigenvalues of modulus at
    most eig_match_tol are treated as zero (no reciprocal).
    """
    A22 = dec.A_X22
    eigs = list(np.linalg.eigvals(A22)) if A22.size else []
    candidates = list(eigs)
    candidates += [1.0 / z for z in eigs if abs(z) > pol.eig_match_tol]
    clusters = _cluster(candidates, pol.eig_match_tol)

    probes = probe_ranks(dec.pencil, pol, seed=seed,
                         avoid=[c[0] for c in clusters])
    nr = max((rk for _, rk in probes), default=0)

    finite = tuple(
        FiniteEigenvalue(value=complex(c[0]), multiplicity=int(c[1]),
                         rank_at_value=rank_of(dec.pencil.at(c[0]), pol))
        for c in clusters)

    d = A22.shape[0]
    m1 = dec.m1
    P_inf = np.zeros((2 * d + m1, 2 * d + m1))
    P_inf[:d, :d] = np.eye(d)
    P_inf[d:2 * d, d:2 * d] = A22.T
    P_inf[2 * d:, d:2 * d] = dec.B12.T
    inf_alg, inf_geo = _zero_multiplicities(P_inf, pol)

    # Observability-based refinement (diagnostic): zero modes of the
    # unobservable part of (A_X22', B12'), plus one per regular input.
    if d:
        obs_blocks = [dec.B12.T]
        for _ in range(d - 1):
            obs_blocks.append(obs_blocks[-1] @ A22.T)
        Nb = kernel_basis(np.vstack(obs_blocks), pol)
        A_unobs = Nb.T @ A22.T @ Nb
        ref_alg, ref_geo = _zero_multiplicities(A_unobs, pol)
    else:
        ref_alg = ref_geo = 0

    return PencilSpectrum(
        normal_rank=int(nr),
        finite_eigenvalues=finite,
        infinite_algebraic=int(inf_alg),
        infinite_geometric=int(inf_geo),
        refined_algebraic=int(m1 + ref_alg),
        refined_geometric=int(m1 + ref_geo),
        probes=probes,
    )


@dataclass(frozen=True)
class SolutionPairReport:
    """Invariants shared by any two CGDARE solutions of one triple.

    All entries are distances/residuals; ``passed`` is their comparison
    against eig_match_tol.  For any two solutions X, Y: ker R_X = ker R_Y,
    the closed-loop reachable subspaces coincide, and A_X, A_Y agree on
    that subspace.  Additionally ker R_X = ker(X B) ∩ ker R and the
    reachable subspace lies in ker C_X.
    """

    kernel_distance: float
    reachable_distance: float
    restriction_residual: float
    output_nulling_residual: float
    kernel_intersection_distance: float
    passed: bool


def check_solution_pair_invariants(c1: RiccatiCertificate, c2: RiccatiCertificate,
                                   pol: TolerancePolicy = DEFAULT_POLICY) -> SolutionPairReport:
    """Check the solution-independent structure shared by two certificates.

    Raises
    ------
    DimensionMismatchError
        When the certificates come from different Popov triples.
    """
    s1, s2 = c1.sigma, c2.sigma
    same = all(np.array_equal(getattr(s1, k), getattr(s2, k))
               for k in ("A", "B", "Q", "S", "R"))
    if not same:
        raise DimensionMismatchError("certificates come from different triples")

    ker1 = kernel_basis(c1.R_X, pol)
    ker2 = kernel_basis(c2.R_X, pol)
    kernel_distance = subspace_distance(ker1, ker2)

    d1 = reachability_decomposition(c1, split_inputs(c1, pol), pol)
    d2 = reachability_decomposition(c2, split_inputs(c2, pol), pol)
    W1 = d1.U[:, :d1.r]
    W2 = d2.U[:, :d2.r]
    reachable_distance = subspace_distance(W1, W2)

    scale = 1.0 + matrix_norm(c1.A_X) + matrix_norm(c2.A_X)
    restriction_residual = matrix_norm((c1.A_X - c2.A_X) @ W1) / scale

    output_nulling_residual = max(matrix_norm(c1.C_X @ W1), matrix_norm(c2.C_X @ W2))

    inter1 = kernel_basis(np.vstack([c1.X @ s1.B, s1.R]), pol)
    kernel_intersection_distance = subspace_distance(ker1, inter1)

    passed = all(val <= pol.eig_match_tol for val in (
        kernel_distance, reachable_distance, restriction_residual,
        output_nulling_residual, kernel_intersection_distance))
    return SolutionPairReport(
        kernel_distance=float(kernel_distance),
        reachable_distance=float(reachable_distance),
        restriction_residual=float(restriction_residual),
        output_nulling_residual=float(output_nulling_residual),
        kernel_intersection_distance=float(kernel_intersection_distance),
        passed=passed)
