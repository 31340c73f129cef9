"""One factorisation per matrix.

Along validate -> iterate_grde -> split_inputs ->
reachability_decomposition -> solve_with_decomposition, the constraint
matrix V, sym(Pi), sym(H), R_X and the last Krylov stack of (A_X, B2)
are each factored once, by the object that owns them; a second call
under another policy ranks the kept factorisation again instead of
factoring anew.  The certificate's residual norms are taken only when
read."""

import numpy as np
import pytest

from lqpencil import (
    BoundarySpec,
    ConstraintRankError,
    LqProblem,
    PopovTriple,
    TolerancePolicy,
    iterate_grde,
    validate,
)
from lqpencil.lqsolve import solve_with_decomposition
from lqpencil.pencil import reachability_decomposition
from lqpencil.riccati import split_inputs

from conftest import cyclic_problem, random_regular_problem, z_problem

COARSE = TolerancePolicy(rank_rel_tol=1e-6)


@pytest.fixture
def factored(monkeypatch):
    """The matrices handed to np.linalg.svd and np.linalg.eigh, in call
    order, while the test runs."""
    calls = []
    for name in ("svd", "eigh"):
        def spy(M, *args, _factor=getattr(np.linalg, name), **kwargs):
            calls.append(np.array(M))
            return _factor(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def times_factored(calls, M):
    """How many of the calls factored M or M'."""
    return sum(np.array_equal(C, M) or np.array_equal(C, M.T) for C in calls)


def krylov_stacks(A, B):
    """The stacks [B], [B AB], ..., as the Krylov pass forms them."""
    stack = block = B
    stacks = [stack]
    for _ in range(A.shape[0] - 1):
        block = A @ block
        stack = np.hstack([stack, block])
        stacks.append(stack)
    return stacks


def regular_problem():
    """A fixed regular instance (R > 0): n = 3, q = 5."""
    problem = random_regular_problem(np.random.default_rng(5))
    assert (problem.triple.n, problem.boundary.q) == (3, 5)
    return problem


# Decompositions of the whole chain: sym(Pi), sym(H) and V in validate;
# R_X at X_0 = 0 and at each single update while it is singular
# (cyclic: X_0 and X_1, then X_2 = X_1 stops the iteration); the
# certified R_X; the Krylov stacks (cyclic: two); the boundary system;
# the steering rows (cyclic only); the stationarity norms of A and B.
@pytest.mark.parametrize("make, total", [
    (cyclic_problem, 12),
    (regular_problem, 8),
], ids=["cyclic", "regular"])
def test_solve_chain_factors_each_matrix_once(factored, make, total):
    problem = make()
    tr, bd = problem.triple, problem.boundary
    validate(problem)
    cert = iterate_grde(tr)
    dec = reachability_decomposition(cert, split_inputs(cert))
    solve_with_decomposition(problem, dec)

    for M in (bd.V, 0.5 * (tr.pi + tr.pi.T), 0.5 * (bd.H + bd.H.T), cert.R_X):
        assert times_factored(factored, M) == 1
    stacks = [S for S in krylov_stacks(cert.A_X, dec.split.B2)
              if times_factored(factored, S)]
    # one SVD per stack, the last one included; a regular problem has no
    # free inputs, and no SVD is taken of its empty stack
    assert bool(stacks) == bool(dec.split.m2)
    assert all(times_factored(factored, S) == 1 for S in stacks)
    assert len(factored) == total


@pytest.mark.parametrize("make", [cyclic_problem, regular_problem],
                         ids=["cyclic", "regular"])
def test_second_solve_reads_the_kept_norms_of_a_and_b(factored, make):
    problem = make()
    tr = problem.triple
    cert = iterate_grde(tr)
    dec = reachability_decomposition(cert, split_inputs(cert))
    solve_with_decomposition(problem, dec)
    factored.clear()
    solve_with_decomposition(problem, dec)
    assert times_factored(factored, tr.A) == 0
    assert times_factored(factored, tr.B) == 0


@pytest.mark.parametrize("make", [cyclic_problem, regular_problem],
                         ids=["cyclic", "regular"])
def test_certificate_norms_are_taken_when_read(factored, make):
    problem = make()
    cert = iterate_grde(problem.triple)
    dec = reachability_decomposition(cert, split_inputs(cert))
    solve_with_decomposition(problem, dec)
    assert times_factored(factored, cert.residual) == 0
    assert times_factored(factored, cert.S_X_G_X) == 0
    factored.clear()
    norms = (cert.gdare_residual, cert.kernel_violation)
    assert len(factored) == 2
    assert times_factored(factored, cert.residual) == 1
    assert times_factored(factored, cert.S_X_G_X) == 1
    assert (cert.gdare_residual, cert.kernel_violation) == norms
    assert len(factored) == 2


def test_validate_reranks_the_kept_svd_of_v(factored):
    # V = diag(1, 1e-8): rank 2 under the default cutoff, 1 under COARSE
    triple = PopovTriple([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    bd = BoundarySpec([[1.0], [0.0]], [[0.0], [1e-8]], [0.0, 0.0],
                      np.eye(2), [0.0], [0.0])
    problem = LqProblem(triple, 2, bd)
    validate(problem)
    factored.clear()
    with pytest.raises(ConstraintRankError):
        validate(problem, COARSE)
    assert factored == []


def test_split_inputs_reranks_the_certified_svd_of_r_x(factored):
    # B = 0: R_X = R = diag(1, 1e-8), rank 2 under the default cutoff
    # and 1 under COARSE
    triple = PopovTriple([[0.5]], np.zeros((1, 2)), [[1.0]], np.zeros((1, 2)),
                         np.diag([1.0, 1e-8]))
    cert = iterate_grde(triple)
    assert split_inputs(cert).m1 == 2
    factored.clear()
    split = split_inputs(cert, COARSE)
    assert (split.m1, split.m2) == (1, 1)
    assert factored == []


def test_iteration_of_a_deflated_triple_factors_a_bounded_count(factored):
    # Z draw 5029 (n = 5) keeps R_X singular: n single updates, then
    # the SVDs of R_(X_n) and X_n that deflate it, doubling and the
    # certificate; at most n + 8 decompositions in all.
    triple = z_problem(5029).triple
    assert triple.n == 5
    iterate_grde(triple)
    assert len(factored) <= triple.n + 8
