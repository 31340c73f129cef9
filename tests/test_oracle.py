"""Flat-QP oracle: flattening the trajectory map, solving the reduced
system, and the optimality certificate."""

import numpy as np
import pytest

from lqpencil import (
    BoundarySpec,
    LqProblem,
    OracleSizeError,
    PopovTriple,
    UnboundedObjectiveError,
    flatten,
    solve_flat,
)
from lqpencil.model import evaluate_cost, simulate
from lqpencil.oracle import MAX_FLAT_VARIABLES, FlatQp, projected_gradient_norm

from conftest import attach_random_boundary, random_regular_problem


def scalar_chain_problem(with_penalty):
    triple = PopovTriple([[2.0]], [[1.0]], [[1.0]], [[0.0]], [[3.0]])
    H = np.eye(2) if with_penalty else np.zeros((2, 2))
    h = np.ones(1) if with_penalty else np.zeros(1)
    return LqProblem(triple, 2, BoundarySpec(np.zeros((0, 1)),
                                             np.zeros((0, 1)), np.zeros(0),
                                             H, h, h))


def test_flatten_hand_expansion_no_penalty():
    qp = flatten(scalar_chain_problem(False))
    assert qp.dim == 3
    np.testing.assert_allclose(qp.G, [[5.0, 2.0, 0.0],
                                      [2.0, 4.0, 0.0],
                                      [0.0, 0.0, 3.0]], atol=1e-14)
    np.testing.assert_allclose(qp.b, 0.0, atol=1e-14)
    assert qp.c0 == pytest.approx(0.0)
    assert qp.Aeq.shape == (0, 3)


def test_flatten_hand_expansion_with_penalty():
    qp = flatten(scalar_chain_problem(True))
    np.testing.assert_allclose(qp.G, [[22.0, 10.0, 4.0],
                                      [10.0, 8.0, 2.0],
                                      [4.0, 2.0, 4.0]], atol=1e-14)
    np.testing.assert_allclose(qp.b, [5.0, 2.0, 1.0], atol=1e-14)
    assert qp.c0 == pytest.approx(2.0)


def test_flatten_cost_matches_simulation(cyclic):
    rng = np.random.default_rng(13)
    qp = flatten(cyclic)
    for _ in range(10):
        z = rng.normal(size=qp.dim)
        us = qp.controls(z)
        xs = simulate(cyclic.triple, z[:2], us)
        assert qp.cost(z) == pytest.approx(evaluate_cost(cyclic, xs, us),
                                           rel=1e-12, abs=1e-12)


def test_flatten_constraints_match_simulation(cyclic):
    rng = np.random.default_rng(29)
    qp = flatten(cyclic)
    bd = cyclic.boundary
    for _ in range(5):
        z = rng.normal(size=qp.dim)
        xs = simulate(cyclic.triple, z[:2], qp.controls(z))
        np.testing.assert_allclose(qp.Aeq @ z,
                                   bd.V0 @ xs[0] + bd.VT @ xs[-1],
                                   atol=1e-12)
    np.testing.assert_allclose(qp.beq, bd.v)


def test_flatten_random_instances_cost_identity():
    rng = np.random.default_rng(97)
    for _ in range(10):
        p = random_regular_problem(rng)
        qp = flatten(p)
        z = rng.normal(size=qp.dim)
        us = qp.controls(z)
        xs = simulate(p.triple, z[:p.triple.n], us)
        assert qp.cost(z) == pytest.approx(
            evaluate_cost(p, xs, us),
            rel=1e-10, abs=1e-10 * (1 + abs(qp.cost(z))))


def test_solve_flat_unconstrained_quadratic():
    qp = FlatQp(G=np.eye(2), b=np.array([1.0, 0.0]), c0=5.0,
                Aeq=np.zeros((0, 2)), beq=np.zeros(0), n=1, m=1, horizon=1)
    z, cost, feasible = solve_flat(qp)
    assert feasible
    np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-12)
    assert cost == pytest.approx(4.0)
    assert projected_gradient_norm(qp, z) <= 1e-10


def test_solve_flat_reports_infeasibility():
    qp = FlatQp(G=np.eye(2), b=np.zeros(2), c0=0.0,
                Aeq=np.array([[1.0, 0.0], [1.0, 0.0]]),
                beq=np.array([0.0, 1.0]), n=1, m=1, horizon=1)
    _, _, feasible = solve_flat(qp)
    assert not feasible


def test_solve_flat_detects_linear_unboundedness():
    qp = FlatQp(G=np.zeros((2, 2)), b=np.array([1.0, 0.0]), c0=0.0,
                Aeq=np.zeros((0, 2)), beq=np.zeros(0), n=1, m=1, horizon=1)
    with pytest.raises(UnboundedObjectiveError):
        solve_flat(qp)


def test_oracle_minimizer_beats_random_feasible_points(cyclic):
    rng = np.random.default_rng(131)
    qp = flatten(cyclic)
    z_opt, cost, feasible = solve_flat(qp)
    assert feasible
    assert cost == pytest.approx(8.0 / 3.0, abs=1e-9)
    assert projected_gradient_norm(qp, z_opt) <= 1e-9
    from lqpencil.linalg import kernel_basis, solve_affine
    z_f, _ = solve_affine(qp.Aeq, qp.beq)
    Z = kernel_basis(qp.Aeq)
    for _ in range(100):
        z = z_f + Z @ rng.normal(size=Z.shape[1])
        assert qp.cost(z) >= cost - 1e-9


def test_projected_gradient_positive_off_optimum(cyclic):
    qp = flatten(cyclic)
    z_opt, _, _ = solve_flat(qp)
    from lqpencil.linalg import kernel_basis
    Z = kernel_basis(qp.Aeq)
    z_bad = z_opt + Z @ np.ones(Z.shape[1])
    assert projected_gradient_norm(qp, z_bad) > 1e-3


def test_size_guard():
    triple = PopovTriple([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    p = LqProblem(triple, MAX_FLAT_VARIABLES, BoundarySpec.unconstrained(1))
    with pytest.raises(OracleSizeError):
        flatten(p)


def test_oracle_agrees_on_random_regular_batch(pol):
    rng = np.random.default_rng(163)
    from lqpencil import (
        InfeasibleProblemError,
        RiccatiDivergenceError,
        RiccatiNoConvergenceError,
        iterate_grde,
    )
    from lqpencil.lqsolve import solve_with_decomposition
    from lqpencil.pencil import reachability_decomposition
    from lqpencil.riccati import split_inputs
    done = 0
    while done < 10:
        p = random_regular_problem(rng)
        try:
            cert = iterate_grde(p.triple)
        except (RiccatiDivergenceError, RiccatiNoConvergenceError):
            continue
        dec = reachability_decomposition(cert, split_inputs(cert))
        try:
            sol = solve_with_decomposition(p, dec)
        except InfeasibleProblemError:
            _, _, feasible = solve_flat(flatten(p))
            assert not feasible
            done += 1
            continue
        qp = flatten(p)
        _, cost, feasible = solve_flat(qp)
        assert feasible
        assert sol.cost == pytest.approx(cost, abs=1e-6 * (1 + abs(cost)))
        z = np.concatenate([sol.x[0], sol.u.reshape(-1)])
        assert projected_gradient_norm(qp, z) <= \
            1e-6 * (1 + np.linalg.norm(qp.G))
        done += 1
