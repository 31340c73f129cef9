"""The family ledger: seeded draws of the problem families, each solved
and checked against the flat-QP oracle.

Z (``conftest.z_problem``, seeds 5000-5299) is a singular plant whose
two cost-neutral inputs drive a free channel that may be unstable.  The
draws below keep R_X singular for every iterate, and the one-update-
at-a-time iteration ran out of its 5000 updates on each of them; after
n single updates the iteration deflates that singular part and doubles
the rest.  Draw 5275 needs about 2^17 updates, beyond the default
budget (it converges with max_iters = 200 000), and fails loudly.  On
draw 5246 (rho(A) = 2.57, T = 12) the solver passes its gate, but the
dense flat QP, which carries A^t, misses the optimum.

D (``conftest.d_problem``, seeds 1000-1399) is the benchmark's
unstructured singular instance with A scaled by 1.4/sqrt(n).  Its known
faults are strict xfails: on draw 1376 the solver passes its gate with
a cost 1.27e-6 (relative) above the optimum that the oracle and the
benchmark's stage-wise reference agree on, and on draw 1132 it raises a
false HorizonTooShortError where the reference's optimum is about 0.
"""

import pytest

from lqpencil import (
    HorizonTooShortError,
    RiccatiNoConvergenceError,
    flatten,
    iterate_grde,
    solve_flat,
    solve_problem,
)

from conftest import d_problem, z_problem

Z_DEFLATED = (5029, 5035, 5039, 5062, 5090, 5104, 5108, 5109, 5123, 5127, 5135,
              5136, 5184, 5199, 5207, 5229, 5241, 5244, 5253, 5255, 5269, 5277)
Z_SLOW = pytest.param(5275, marks=pytest.mark.xfail(
    raises=RiccatiNoConvergenceError, strict=True,
    reason="needs about 2^17 Riccati updates, above the default max_iters"))
Z_ORACLE_MISS = pytest.param(5246, marks=pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the oracle's cost 6.054052 misses the solver's 6.054158 by 1.5e-5"))


@pytest.mark.parametrize("seed", Z_DEFLATED + (Z_SLOW, Z_ORACLE_MISS))
def test_z_draw_matches_the_oracle(seed):
    problem = z_problem(seed)
    sol = solve_problem(problem, iterate_grde(problem.triple))
    assert sol.residuals.passed
    _, cost, feasible = solve_flat(flatten(problem))
    assert feasible
    assert abs(sol.cost - cost) <= 1e-6 * (1.0 + abs(cost))


def test_z_draw_5275_converges_with_a_larger_budget():
    problem = z_problem(5275)
    sol = solve_problem(problem, iterate_grde(problem.triple, max_iters=200_000))
    assert sol.residuals.passed


def test_z_draw_5246_passes_the_gate_where_the_oracle_misses():
    problem = z_problem(5246)
    sol = solve_problem(problem, iterate_grde(problem.triple))
    assert sol.residuals.passed
    assert sol.cost == pytest.approx(6.054158, abs=1e-6)


D_RIGHT = tuple(range(1000, 1010))
D_WRONG_COST = pytest.param(1376, marks=pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the solver's cost 150.238443 misses the optimum 150.238250 by 1.27e-6"))
D_FALSE_SHORT = pytest.param(1132, marks=pytest.mark.xfail(
    raises=HorizonTooShortError, strict=True,
    reason="false HorizonTooShortError: the reference's optimum is about 0"))


@pytest.mark.parametrize("seed", D_RIGHT + (D_WRONG_COST, D_FALSE_SHORT))
def test_d_draw_matches_the_oracle(seed):
    problem = d_problem(seed)
    sol = solve_problem(problem, iterate_grde(problem.triple))
    assert sol.residuals.passed
    _, cost, feasible = solve_flat(flatten(problem))
    assert feasible
    assert abs(sol.cost - cost) <= 1e-6 * (1.0 + abs(cost))


def test_d_draw_1376_passes_the_gate_with_a_wrong_cost():
    problem = d_problem(1376)
    sol = solve_problem(problem, iterate_grde(problem.triple))
    assert sol.residuals.passed
    assert sol.cost == pytest.approx(150.238443, abs=1e-6)
