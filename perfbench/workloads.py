"""Seeded problem generators for the three benchmark workloads.

Every workload is a fixed grid of problem slots: the dimensions, the
horizon and the family of each slot are set by the slot's index, and
only the matrix entries come from the workload seed.  Runs with
different seeds therefore solve problems of the same shapes, which
keeps the medians of different seeds comparable.

Each workload also carries a fixed set of known-fault instances that
do not depend on the seed: inputs on which a documented fault of the
program shows on every run (see ``KNOWN_FAULTS``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lqpencil.model import BoundarySpec, LqProblem, PopovTriple

from instance import Instance, cyclic

DESK_SLOTS = 400
LONG_HORIZONS = (100, 140, 180, 220, 260, 300)
WIDE_STATES = (16, 19, 22, 25, 28, 30, 32, 34, 36, 40)

# Known-fault instances: (kind, family, fixed seed).  Each fails every
# time at the commit that introduced the benchmark.
#  * "x1-target": DecompositionError "reconstructed x1(T) misses its
#    target" on random singular instances whose free channel grows
#    like rho(A_X11)^T.
#  * "oracle-cost": oracle.solve_flat returns a wrong cost on a regular
#    plant with open-loop rho(A) = 1.21 at T = 100 and free endpoints,
#    because the dense flat QP carries A^t.
KNOWN_FAULTS = {
    "desk-batch": (("x1-target", "desk-unstructured", 2),
                   ("x1-target", "desk-unstructured", 12)),
    "long-horizon": (("x1-target", "long-unstructured", 1),
                     ("oracle-cost", "long-unstable", 1)),
    "wide-state": (),
}


@dataclass(frozen=True)
class Case:
    """One generated problem.

    ``fault`` names the known fault the instance exercises (None for
    seeded instances); ``oracle`` says whether the oracle operation is
    attempted; ``cyclic_h`` is set for the cyclic family, whose optimum
    is known in closed form; ``normal_rank`` is the normal rank of the
    extended symplectic pencil, 2n + m minus the number of cost-neutral
    inputs, where the construction fixes it (None otherwise).
    """

    pid: int
    family: str
    inst: Instance
    problem: LqProblem
    fault: str | None = None
    oracle: bool = True
    cyclic_h: tuple | None = None
    normal_rank: int | None = None


def _orthogonal(rng, k):
    Qm, Rm = np.linalg.qr(rng.normal(size=(k, k)))
    return Qm * np.sign(np.diag(Rm))


def _with_radius(rng, k, rho):
    """Random k x k matrix scaled to spectral radius rho."""
    G = rng.normal(size=(k, k))
    return G * (rho / np.max(np.abs(np.linalg.eigvals(G))))


def _boundary(rng, n, q):
    """q constraint rows [V0 VT] with orthonormal rows, random PSD H."""
    V = _orthogonal(rng, 2 * n)[:q]
    Wh = rng.normal(size=(2 * n + 1, 2 * n))
    return dict(V0=V[:, :n], VT=V[:, n:], v=rng.normal(size=q), H=Wh.T @ Wh,
                h0=rng.normal(size=n), hT=rng.normal(size=n))


def _instance(A, B, pi, T, bd) -> Instance:
    n = A.shape[0]
    pi = 0.5 * (pi + pi.T)
    return Instance(A=A, B=B, Q=pi[:n, :n], S=pi[:n, n:], R=pi[n:, n:],
                    T=int(T), **bd)


def regular(rng, n, m, T, q, rho) -> Instance:
    """R > 0: the cost factor has n + m + 1 rows; open-loop rho(A) = rho."""
    A = _with_radius(rng, n, rho)
    B = rng.normal(size=(n, m))
    W = rng.normal(size=(n + m + 1, n + m))
    return _instance(A, B, W.T @ W, T, _boundary(rng, n, q))


def singular(rng, n, m, nb, ma, p, T, q) -> Instance:
    """Singular R with cost rank p (ma <= p <= m - 1) and a free channel.

    Built in hidden coordinates (xa, xb; ua, ub), then rotated by random
    orthogonal state and input transforms.  The cost sees only xa and
    ua, and xb never feeds back into xa, so the mb = m - ma inputs ub
    are cost-neutral and drive the nb states xb: a free channel whose
    dynamics Ab is a random rotation scaled by 0.9-1.0.  The zero
    dynamics Aa - Ba D^+ C of the costed part are drawn stable (radius
    0.3-0.95).  Both bounds keep every closed-loop power bounded over
    long horizons.  Draws are repeated until the open-loop rho(A) is at
    most 1, where the dense flat oracle stays exact at T = 300.
    """
    na, mb = n - nb, m - ma
    while True:
        Ba = rng.normal(size=(na, ma))
        D = _orthogonal(rng, p)[:, :ma]
        G = 0.3 * rng.normal(size=(ma, na))
        C = D @ G + 0.5 * (np.eye(p) - D @ D.T) @ rng.normal(size=(p, na))
        Aa = _with_radius(rng, na, rng.uniform(0.3, 0.95)) + Ba @ G
        if np.max(np.abs(np.linalg.eigvals(Aa))) <= 1.0:
            break
    A = np.zeros((n, n))
    A[:na, :na] = Aa
    A[na:, :na] = 0.5 * rng.normal(size=(nb, na))
    A[na:, na:] = rng.uniform(0.9, 1.0) * _orthogonal(rng, nb)
    B = np.zeros((n, m))
    B[:na, :ma] = Ba
    B[na:, :ma] = rng.normal(size=(nb, ma))
    B[na:, ma:] = rng.normal(size=(nb, mb))
    F = np.zeros((p, n + m))
    F[:, :na] = C
    F[:, n:n + ma] = D
    Tx, Tu = _orthogonal(rng, n), _orthogonal(rng, m)
    Tz = np.zeros((n + m, n + m))
    Tz[:n, :n], Tz[n:, n:] = Tx, Tu
    return _instance(Tx @ A @ Tx.T, Tx @ B @ Tu.T, Tz @ F.T @ F @ Tz.T, T,
                     _boundary(rng, n, q))


def unstructured_singular(rng, n, m, T, q) -> Instance:
    """Random singular instance: cost rank 1 to m - 1, A scaled by 0.9/sqrt(n).

    Its free channel is not controlled, so rho(A_X11)^T can be large."""
    p = int(rng.integers(1, m))
    F = rng.normal(size=(p, n + m))
    A = 0.9 * rng.normal(size=(n, n)) / np.sqrt(n)
    B = rng.normal(size=(n, m))
    return _instance(A, B, F.T @ F, T, _boundary(rng, n, q))


def _known_fault(family, seed) -> Instance:
    rng = np.random.default_rng(seed)
    if family == "desk-unstructured":
        return unstructured_singular(rng, 6, 3, 14, 6)
    if family == "long-unstructured":
        return unstructured_singular(rng, 4, 3, 100, 4)
    if family == "long-unstable":
        return regular(rng, 4, 2, 100, 0, 1.21)
    raise ValueError(family)


def _singular_variant(n, m, k):
    """(nb, ma, p) for singular slot k: free-channel size and cost rank."""
    nb = 1 + k % min(2, n - 1)
    variants = ((1, 1),) if m == 2 else ((1, 1), (1, 2), (2, 2))
    ma, p = variants[(k // 2) % len(variants)]
    return nb, ma, p


def _desk_batch(rng):
    """Regular and singular halves over n 2-6, m 2-3, T n+1..n+8."""
    out = []
    for k in range(DESK_SLOTS):
        n, m = 2 + k % 5, 2 + (k // 5) % 2
        T = n + 1 + (k // 10) % 8
        if k % 2 == 0:
            q = (k // 80 + 3 * k) % (2 * n + 1)
            out.append(("regular", regular(rng, n, m, T, q, rng.uniform(0.5, 1.3)),
                        {"normal_rank": 2 * n + m}))
        else:
            # At most n constraint rows: with both endpoints pinned, the
            # ma <= 2 regular inputs can need near-singular steering.
            q = (k // 80 + 3 * k) % (n + 1)
            nb, ma, p = _singular_variant(n, m, k // 2)
            out.append(("singular", singular(rng, n, m, nb, ma, p, T, q),
                        {"normal_rank": 2 * n + ma}))
    return out


def _long_horizon(rng):
    """Cyclic, regular and singular slots in turn over horizons 100-300;
    the regular plants have open-loop rho(A) 0.8 and 1.2."""
    out = []
    for k, T in enumerate(LONG_HORIZONS):
        family = ("cyclic", "regular", "singular")[k % 3]
        if family == "cyclic":
            h = tuple(rng.normal(size=2))
            out.append((family, cyclic(h, T), {"cyclic_h": h, "normal_rank": 5}))
        elif family == "regular":
            n, m, rho = 2 + k % 5, 1 + k % 3, (0.8, 1.2)[(k // 3) % 2]
            # The dense flat oracle carries A^t, so it is attempted only
            # on the stable plant; its failure on an unstable one is the
            # fixed "oracle-cost" fault.
            out.append((family, regular(rng, n, m, T, n, rho),
                        {"oracle": rho < 1.0, "normal_rank": 2 * n + m}))
        else:
            n, m = 3 + k % 4, 2 + k % 2
            nb, ma, p = _singular_variant(n, m, k)
            out.append((family, singular(rng, n, m, nb, ma, p, T, n),
                        {"normal_rank": 2 * n + ma}))
    return out


def _wide_state(rng):
    """Regular plants with n 16-40, m = n/4 and short horizons."""
    out = []
    for k, n in enumerate(WIDE_STATES):
        T = 4 + k % 4
        m = n // 4
        out.append(("regular", regular(rng, n, m, T, n // 2, rng.uniform(0.5, 1.2)),
                    {"normal_rank": 2 * n + m}))
    return out


_GENERATORS = {"desk-batch": _desk_batch, "long-horizon": _long_horizon,
               "wide-state": _wide_state}


def to_problem(inst: Instance) -> LqProblem:
    """The program's problem type for an instance."""
    return LqProblem(PopovTriple(inst.A, inst.B, inst.Q, inst.S, inst.R),
                     inst.T, BoundarySpec(inst.V0, inst.VT, inst.v, inst.H,
                                          inst.h0, inst.hT))


def generate(workload: str, seed: int) -> list:
    """All cases of a workload: the seeded grid, then the known faults."""
    rng = np.random.default_rng(seed)
    specs = _GENERATORS[workload](rng)
    specs += [(family, _known_fault(family, fseed), {"fault": kind})
              for kind, family, fseed in KNOWN_FAULTS[workload]]
    return [Case(pid=i, family=family, inst=inst, problem=to_problem(inst), **extra)
            for i, (family, inst, extra) in enumerate(specs)]
