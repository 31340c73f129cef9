"""Bundled example problems used by tests and the CLI self-test.

The core fixture is a 2-state, 2-input triple with a doubly singular
stage cost (R = 0, Q of rank one).  Its CGDARE solution, pencil
structure, and constrained solves are known in closed form, which makes
it a good end-to-end smoke test: the bundled problem file asks for a
cyclic trajectory (x(0) = x(T)) that stays near a target point h under
an endpoint penalty.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .model import PopovTriple


def singular_triple() -> PopovTriple:
    """Double integrator-like dynamics with rank-one state cost and no
    input cost: A = [[1,1],[0,1]], B = [[2,0],[1,1]], Q = diag(0,1),
    S = 0, R = 0."""
    return PopovTriple(
        A=np.array([[1.0, 1.0], [0.0, 1.0]]),
        B=np.array([[2.0, 0.0], [1.0, 1.0]]),
        Q=np.diag([0.0, 1.0]),
        S=np.zeros((2, 2)),
        R=np.zeros((2, 2)),
    )


def singular_riccati_solution() -> np.ndarray:
    """A CGDARE solution for :func:`singular_triple`: X = diag(0, 1)."""
    return np.diag([0.0, 1.0])


def bundled_problem_path() -> str:
    """Filesystem path of the bundled cyclic problem (h=(1,2), T=3)."""
    return str(resources.files("lqpencil").joinpath("data/cyclic_example.json"))
