"""Problem data for finite-horizon LQ control with boundary constraints.

A problem instance is

    minimize   sum_{t=0}^{T-1} [x(t); u(t)]' Pi [x(t); u(t)]
             + ([x(0); x(T)] - [h0; hT])' H ([x(0); x(T)] - [h0; hT])
    subject to x(t+1) = A x(t) + B u(t),
               V0 x(0) + VT x(T) = v,

with Pi = [[Q, S], [S', R]] and H symmetric positive semidefinite, and
[V0 VT] of full row rank q (q = 0 means no linear boundary
constraint).  Neither R nor Pi is assumed positive definite anywhere
in this package; the singular case is the point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    DimensionMismatchError,
    NonFiniteMatrixError,
    TolerancePolicy,
    _as_matrix,
    _as_vector,
    matrix_norm,
    ranked_svd,
)


class ValidationError(ValueError):
    """Base class for numerical validation failures."""


class IndefiniteCostError(ValidationError):
    """The stage-cost matrix Pi is not symmetric or has a negative
    eigenvalue."""


class IndefinitePenaltyError(ValidationError):
    """The endpoint-penalty matrix H is not symmetric or has a negative
    eigenvalue."""


class ConstraintRankError(ValidationError):
    """[V0 VT] is row-rank deficient."""


def _frozen(M, name="matrix"):
    A = np.array(_as_matrix(M, name), dtype=float)
    A.setflags(write=False)
    return A


def _frozen_vec(v, name="vector"):
    a = np.array(_as_vector(v, name), dtype=float)
    a.setflags(write=False)
    return a


def _sym_eigh(M):
    """(w, W, max |w|): the eigh of 0.5 (M + M'), eigenvalues ascending."""
    w, W = np.linalg.eigh(0.5 * (M + M.T))
    return w, W, np.abs(w).max(initial=0.0)


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


@dataclass(frozen=True)
class PopovTriple:
    """Dynamics (A, B) together with the stage-cost matrix
    Pi = [[Q, S], [S', R]]."""

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        A = _frozen(self.A, "A")
        B = _frozen(self.B, "B")
        n = A.shape[0]
        if A.shape != (n, n):
            raise DimensionMismatchError("A must be square")
        if B.shape[0] != n:
            raise DimensionMismatchError("B must have as many rows as A")
        m = B.shape[1]
        Q = _frozen(self.Q, "Q")
        S = _frozen(self.S, "S")
        R = _frozen(self.R, "R")
        if Q.shape != (n, n):
            raise DimensionMismatchError("Q must be n x n")
        if S.shape != (n, m):
            raise DimensionMismatchError("S must be n x m")
        if R.shape != (m, m):
            raise DimensionMismatchError("R must be m x m")
        for name, val in (("A", A), ("B", B), ("Q", Q), ("S", S), ("R", R)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def pi(self) -> np.ndarray:
        """The assembled (n+m) x (n+m) stage-cost matrix, read-only,
        assembled on first use."""
        pi = np.block([[self.Q, self.S], [self.S.T, self.R]])
        pi.setflags(write=False)
        return pi

    @cached_property
    def esp(self) -> Pencil:
        """The extended symplectic pencil N - z M on stacked
        (state, costate, input) vectors, read-only, assembled on first
        use:

            M = [[I, 0,   0],      N = [[A,  0,  B],
                 [0, -A', 0],           [Q, -I,  S],
                 [0, -B', 0]]           [S', 0,  R]]
        """
        n, m = self.n, self.m
        In = np.eye(n)
        M = np.zeros((2 * n + m, 2 * n + m))
        M[:n, :n] = In
        M[n:2 * n, n:2 * n] = -self.A.T
        M[2 * n:, n:2 * n] = -self.B.T
        N = np.zeros((2 * n + m, 2 * n + m))
        N[:n, :n] = self.A
        N[:n, 2 * n:] = self.B
        N[n:2 * n, :n] = self.Q
        N[n:2 * n, n:2 * n] = -In
        N[n:2 * n, 2 * n:] = self.S
        N[2 * n:, :n] = self.S.T
        N[2 * n:, 2 * n:] = self.R
        N.setflags(write=False)
        M.setflags(write=False)
        return Pencil(N, M)

    @cached_property
    def _pi_eig(self):
        """:func:`_sym_eigh` of Pi, taken on first use."""
        return _sym_eigh(self.pi)

    @cached_property
    def _dynamics_norms(self):
        """(||A||, ||B||), the spectral norms, taken on first use."""
        return matrix_norm(self.A), matrix_norm(self.B)


@dataclass(frozen=True)
class BoundarySpec:
    """Affine two-point boundary data.

    V0, VT are q x n (q may be 0), v has length q.  H is the 2n x 2n
    endpoint penalty acting on [x(0) - h0; x(T) - hT].
    """

    V0: np.ndarray
    VT: np.ndarray
    v: np.ndarray
    H: np.ndarray
    h0: np.ndarray
    hT: np.ndarray

    def __post_init__(self):
        V0 = _frozen(self.V0, "V0")
        VT = _frozen(self.VT, "VT")
        v = _frozen_vec(self.v, "v")
        H = _frozen(self.H, "H")
        h0 = _frozen_vec(self.h0, "h0")
        hT = _frozen_vec(self.hT, "hT")
        n = h0.shape[0]
        if hT.shape[0] != n:
            raise DimensionMismatchError("h0 and hT must have equal length")
        if V0.shape[1] != n or VT.shape[1] != n:
            raise DimensionMismatchError("V0, VT must have n columns")
        if V0.shape[0] != VT.shape[0]:
            raise DimensionMismatchError("V0, VT must have equal row counts")
        if v.shape[0] != V0.shape[0]:
            raise DimensionMismatchError("v length must match rows of V0")
        if H.shape != (2 * n, 2 * n):
            raise DimensionMismatchError("H must be 2n x 2n")
        for name, val in (("V0", V0), ("VT", VT), ("v", v),
                          ("H", H), ("h0", h0), ("hT", hT)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return self.h0.shape[0]

    @property
    def q(self) -> int:
        return self.V0.shape[0]

    @cached_property
    def V(self) -> np.ndarray:
        """The stacked constraint matrix [V0 VT], q x 2n, read-only,
        assembled on first use."""
        V = np.hstack([self.V0, self.VT])
        V.setflags(write=False)
        return V

    @cached_property
    def _v_svd(self):
        """The full SVD of V, taken on first use and ranked by each caller."""
        return ranked_svd(self.V)

    @cached_property
    def _h_eig(self):
        """:func:`_sym_eigh` of H, taken on first use."""
        return _sym_eigh(self.H)

    @classmethod
    def unconstrained(cls, n: int) -> "BoundarySpec":
        """Free endpoints: q = 0 and zero penalty."""
        z = np.zeros((0, n))
        return cls(z, z, np.zeros(0), np.zeros((2 * n, 2 * n)),
                   np.zeros(n), np.zeros(n))


@dataclass(frozen=True)
class LqProblem:
    """A Popov triple, a horizon T >= 1, and boundary data."""

    triple: PopovTriple
    horizon: int
    boundary: BoundarySpec

    def __post_init__(self):
        if int(self.horizon) != self.horizon or self.horizon < 1:
            raise DimensionMismatchError("horizon must be an integer >= 1")
        object.__setattr__(self, "horizon", int(self.horizon))
        if self.boundary.n != self.triple.n:
            raise DimensionMismatchError(
                "boundary data dimension does not match state dimension")


def _symmetric_psd(M, eig, name, error, pol):
    """Check that M is symmetric positive semidefinite, by one rule.

    With (w, W, s) = eig, the :func:`_sym_eigh` of M, M is rejected
    when ||M - M'||_F or -min w exceeds ``residual_tol * (1 + s)``, by
    raising ``error`` naming M.  Returns eig.
    """
    w, _, scale = eig
    bound = pol.residual_tol * (1.0 + scale)
    if np.linalg.norm(M - M.T) > bound:
        raise error(f"{name} is not symmetric")
    if w.size and w[0] < -bound:
        raise error(f"{name} is not positive semidefinite")
    return eig


def validate(problem: LqProblem, pol: TolerancePolicy = DEFAULT_POLICY) -> LqProblem:
    """Certify a problem instance numerically.

    Checks that Pi and H are symmetric positive semidefinite by the
    one rule of :func:`_symmetric_psd`, which certification and the
    CLI's candidate check apply to Pi too: the asymmetry ||M - M'||_F
    and the most negative eigenvalue of 0.5 (M + M') may not exceed
    ``residual_tol * (1 + s)``, s the largest eigenvalue modulus.
    Checks that [V0 VT] has full row rank under the policy's rank
    cutoff.  Returns the problem unchanged on success.

    Raises
    ------
    IndefiniteCostError, IndefinitePenaltyError, ConstraintRankError
    """
    tr, bd = problem.triple, problem.boundary
    _symmetric_psd(tr.pi, tr._pi_eig, "stage cost Pi", IndefiniteCostError, pol)
    _symmetric_psd(bd.H, bd._h_eig, "endpoint penalty H", IndefinitePenaltyError, pol)
    if bd._v_svd.ranked(pol).rank < bd.q:
        raise ConstraintRankError("[V0 VT] is row-rank deficient")
    return problem


def evaluate_cost(problem: LqProblem, xs, us) -> float:
    """Cost of a state/control trajectory.

    Parameters
    ----------
    xs : (T+1, n) array
        States x(0), ..., x(T).
    us : (T, m) array
        Controls u(0), ..., u(T-1).
    """
    tr, bd = problem.triple, problem.boundary
    T = problem.horizon
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    us = np.asarray(us, dtype=float).reshape(T, tr.m)
    if xs.shape != (T + 1, tr.n):
        raise DimensionMismatchError("xs must have shape (T+1, n)")
    Z = np.hstack([xs[:-1], us])
    e = np.concatenate([xs[0] - bd.h0, xs[T] - bd.hT])
    return float(np.sum((Z @ tr.pi) * Z)) + float(e @ bd.H @ e)


# --- JSON problem files -------------------------------------------------
#
# Schema (row-major nested lists; a flat row-major list, or a bare number
# for a 1 x 1 matrix, is accepted in place of a nested list):
#   {"n": int, "m": int, "q": int, "T": int,
#    "A": [[..]], "B": [[..]], "Q": [[..]], "S": [[..]], "R": [[..]],
#    "V0": [[..]], "VT": [[..]], "v": [..],        (omitted when q = 0)
#    "H": [[..]], "h0": [..], "hT": [..]}


class ProblemFormatError(ValueError):
    """A problem JSON document is malformed."""


def _get_matrix(doc, key, shape):
    if key not in doc:
        raise ProblemFormatError(f"missing field {key!r}")
    try:
        M = np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"field {key!r} is not numeric") from exc
    # Reshape only a scalar or a flat list, never reorder a nested one.
    if M.ndim < 2 and M.size == int(np.prod(shape)):
        M = M.reshape(shape)
    if M.shape != shape:
        raise ProblemFormatError(
            f"field {key!r} has shape {M.shape}, expected {shape}")
    return M


def _get_vector(doc, key, length):
    if key not in doc:
        raise ProblemFormatError(f"missing field {key!r}")
    try:
        v = np.array(doc[key], dtype=float).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"field {key!r} is not numeric") from exc
    if v.shape != (length,):
        raise ProblemFormatError(
            f"field {key!r} has length {v.size}, expected {length}")
    return v


def _get_dimension(doc, key):
    if key not in doc:
        raise ProblemFormatError(f"missing field {key!r}")
    val = doc[key]
    whole = (isinstance(val, int) and not isinstance(val, bool)) or \
        (isinstance(val, float) and val.is_integer())
    if not whole or val < 0:
        raise ProblemFormatError(
            f"field {key!r} must be a non-negative integer, got {val!r}")
    return int(val)


def problem_from_dict(doc: dict) -> LqProblem:
    """Build an LqProblem from its JSON document (see module comment)."""
    n, m, q, T = (_get_dimension(doc, k) for k in ("n", "m", "q", "T"))
    A = _get_matrix(doc, "A", (n, n))
    B = _get_matrix(doc, "B", (n, m))
    Q = _get_matrix(doc, "Q", (n, n))
    S = _get_matrix(doc, "S", (n, m))
    R = _get_matrix(doc, "R", (m, m))
    if q > 0:
        V0 = _get_matrix(doc, "V0", (q, n))
        VT = _get_matrix(doc, "VT", (q, n))
        v = _get_vector(doc, "v", q)
    else:
        V0 = np.zeros((0, n))
        VT = np.zeros((0, n))
        v = np.zeros(0)
    H = _get_matrix(doc, "H", (2 * n, 2 * n))
    h0 = _get_vector(doc, "h0", n) if "h0" in doc else np.zeros(n)
    hT = _get_vector(doc, "hT", n) if "hT" in doc else np.zeros(n)
    try:
        return LqProblem(PopovTriple(A, B, Q, S, R), T,
                         BoundarySpec(V0, VT, v, H, h0, hT))
    except (DimensionMismatchError, NonFiniteMatrixError) as exc:
        raise ProblemFormatError(str(exc)) from exc


def problem_to_dict(problem: LqProblem) -> dict:
    """Serialize to the JSON document schema (stable key order)."""
    tr, bd = problem.triple, problem.boundary
    doc = {
        "n": tr.n, "m": tr.m, "q": bd.q, "T": problem.horizon,
        "A": tr.A.tolist(), "B": tr.B.tolist(), "Q": tr.Q.tolist(),
        "S": tr.S.tolist(), "R": tr.R.tolist(),
    }
    if bd.q > 0:
        doc["V0"] = bd.V0.tolist()
        doc["VT"] = bd.VT.tolist()
        doc["v"] = bd.v.tolist()
    doc["H"] = bd.H.tolist()
    doc["h0"] = bd.h0.tolist()
    doc["hT"] = bd.hT.tolist()
    return doc


def load_problem(path) -> LqProblem:
    """Read a problem from a JSON file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProblemFormatError("problem document must be a JSON object")
    return problem_from_dict(doc)


def save_problem(problem: LqProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")
