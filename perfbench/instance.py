"""Plain problem data shared by the generator, the reference and the
checker.  Numpy only; nothing here imports ``lqpencil``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """One LQ problem:

        minimize   sum_t [x_t; u_t]' [[Q, S], [S', R]] [x_t; u_t] + e' H e,
                   e = [x_0 - h0; x_T - hT]
        subject to x_{t+1} = A x_t + B u_t,   V0 x_0 + VT x_T = v.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray
    V0: np.ndarray
    VT: np.ndarray
    v: np.ndarray
    H: np.ndarray
    h0: np.ndarray
    hT: np.ndarray
    T: int

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.V0.shape[0]


def cost(inst: Instance, x, u) -> float:
    """Objective value of a trajectory, x of shape (T+1, n), u (T, m)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float).reshape(inst.T, inst.m)
    stage = (np.einsum("ti,ij,tj->", x[:-1], inst.Q, x[:-1])
             + 2.0 * np.einsum("ti,ij,tj->", x[:-1], inst.S, u)
             + np.einsum("ti,ij,tj->", u, inst.R, u))
    e = np.concatenate([x[0] - inst.h0, x[-1] - inst.hT])
    return float(stage + e @ inst.H @ e)


def cyclic(h, T) -> Instance:
    """The bundled cyclic example: x(0) = x(T), both endpoints pulled
    towards h.  Its optimum is x(0) = (h1, 2 h2 / 3) with cost
    2 h2^2 / 3 for every horizon T."""
    h = np.asarray(h, dtype=float)
    return Instance(A=np.array([[1.0, 1.0], [0.0, 1.0]]),
                    B=np.array([[2.0, 0.0], [1.0, 1.0]]),
                    Q=np.diag([0.0, 1.0]), S=np.zeros((2, 2)), R=np.zeros((2, 2)),
                    V0=np.eye(2), VT=-np.eye(2), v=np.zeros(2), H=np.eye(4),
                    h0=h, hT=h, T=int(T))
