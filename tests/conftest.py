"""Shared fixtures: the closed-form singular example and seeded random
problem families (regular R > 0 and singular R)."""

import numpy as np
import pytest

from lqpencil import BoundarySpec, LqProblem, PopovTriple, TolerancePolicy, certify
from lqpencil.fixtures import cyclic_problem, singular_riccati_solution, singular_triple
from lqpencil.pencil import reachability_decomposition
from lqpencil.riccati import split_inputs


@pytest.fixture(scope="session")
def pol():
    return TolerancePolicy()


@pytest.fixture(scope="session")
def sing_triple():
    return singular_triple()


@pytest.fixture(scope="session")
def sing_cert(sing_triple):
    return certify(sing_triple, singular_riccati_solution())


@pytest.fixture(scope="session")
def sing_dec(sing_cert):
    return reachability_decomposition(sing_cert, split_inputs(sing_cert))


@pytest.fixture(scope="session")
def cyclic():
    return cyclic_problem((1.0, 2.0), 3)


def random_regular_problem(rng):
    """Random instance with R positive definite (m extra rows in the
    cost factor force it)."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    T = int(rng.integers(1, 7))
    q = int(rng.integers(0, 2 * n + 1))
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    W = rng.normal(size=(n + m + 1, n + m))
    pi = W.T @ W
    Wh = rng.normal(size=(2 * n + 1, 2 * n))
    bd = BoundarySpec(rng.normal(size=(q, n)), rng.normal(size=(q, n)),
                      rng.normal(size=q), Wh.T @ Wh,
                      rng.normal(size=n), rng.normal(size=n))
    return LqProblem(PopovTriple(A, B, pi[:n, :n], pi[:n, n:], pi[n:, n:]),
                     T, bd)


def random_singular_triple(rng):
    """Random triple with rank-deficient stage cost (rank [C D] < m),
    hence singular R and a genuinely singular pencil."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 4))
    p_rows = int(rng.integers(1, m))
    F = rng.normal(size=(p_rows, n + m))
    pi = F.T @ F
    A = 0.9 * rng.normal(size=(n, n))
    B = rng.normal(size=(n, m))
    return PopovTriple(A, B, pi[:n, :n], pi[:n, n:], pi[n:, n:])


def attach_random_boundary(rng, triple, dec, extra_horizon=3):
    """Random boundary data with a horizon above the controllability
    index of the reachable block."""
    n = triple.n
    T = dec.index + int(rng.integers(1, extra_horizon + 1))
    q = int(rng.integers(0, 2 * n + 1))
    Wh = rng.normal(size=(2 * n + 1, 2 * n))
    bd = BoundarySpec(rng.normal(size=(q, n)), rng.normal(size=(q, n)),
                      rng.normal(size=q), Wh.T @ Wh,
                      rng.normal(size=n), rng.normal(size=n))
    return LqProblem(triple, T, bd)
