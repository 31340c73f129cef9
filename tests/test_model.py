"""Problem containers, PSD validation, cost factorization/evaluation, and
the JSON problem format."""

import json

import numpy as np
import pytest

from lqpencil import (
    BoundarySpec,
    ConstraintRankError,
    DimensionMismatchError,
    IndefiniteCostError,
    IndefinitePenaltyError,
    LqProblem,
    PopovTriple,
    ProblemFormatError,
    load_problem,
    save_problem,
    validate,
)
from lqpencil.model import (
    evaluate_cost,
    factor_cost,
    problem_from_dict,
    problem_to_dict,
    simulate,
)


def test_triple_dimensions(sing_triple):
    assert sing_triple.n == 2
    assert sing_triple.m == 2
    pi = sing_triple.pi
    assert pi.shape == (4, 4)
    np.testing.assert_allclose(pi[:2, :2], sing_triple.Q)
    np.testing.assert_allclose(pi[:2, 2:], sing_triple.S)
    np.testing.assert_allclose(pi[2:, 2:], sing_triple.R)
    np.testing.assert_allclose(pi, pi.T)


def test_triple_shape_validation():
    with pytest.raises(DimensionMismatchError):
        PopovTriple(np.eye(2), np.ones((3, 1)), np.eye(2),
                    np.zeros((2, 1)), np.eye(1))
    with pytest.raises(DimensionMismatchError):
        PopovTriple(np.eye(2), np.ones((2, 1)), np.eye(3),
                    np.zeros((2, 1)), np.eye(1))


def test_arrays_are_frozen(sing_triple, cyclic):
    with pytest.raises(ValueError):
        sing_triple.A[0, 0] = 9.0
    with pytest.raises(ValueError):
        cyclic.boundary.H[0, 0] = 9.0


def test_boundary_spec_stacking(cyclic):
    bd = cyclic.boundary
    assert bd.q == 2
    assert bd.n == 2
    np.testing.assert_allclose(bd.V, np.hstack([np.eye(2), -np.eye(2)]))
    free = BoundarySpec.unconstrained(3)
    assert free.q == 0
    assert free.V.shape == (0, 6)
    np.testing.assert_allclose(free.H, np.zeros((6, 6)))


def test_horizon_must_be_positive(cyclic):
    with pytest.raises(DimensionMismatchError):
        LqProblem(cyclic.triple, 0, cyclic.boundary)


def test_validate_accepts_cyclic(cyclic):
    validate(cyclic)


def test_validate_rejects_indefinite_cost(cyclic):
    bad = PopovTriple(cyclic.triple.A, cyclic.triple.B, cyclic.triple.Q,
                      cyclic.triple.S, -np.eye(2))
    with pytest.raises(IndefiniteCostError):
        validate(LqProblem(bad, 3, cyclic.boundary))


def test_validate_rejects_indefinite_penalty(cyclic):
    bd = BoundarySpec(cyclic.boundary.V0, cyclic.boundary.VT,
                      cyclic.boundary.v, -np.eye(4),
                      cyclic.boundary.h0, cyclic.boundary.hT)
    with pytest.raises(IndefinitePenaltyError):
        validate(LqProblem(cyclic.triple, 3, bd))


def test_validate_rejects_rank_deficient_constraints(cyclic):
    V0 = np.vstack([np.eye(2), np.eye(2)[:1]])  # duplicated row
    VT = np.vstack([-np.eye(2), -np.eye(2)[:1]])
    bd = BoundarySpec(V0, VT, np.zeros(3), cyclic.boundary.H,
                      cyclic.boundary.h0, cyclic.boundary.hT)
    with pytest.raises(ConstraintRankError):
        validate(LqProblem(cyclic.triple, 3, bd))


def test_factor_cost_running_example(sing_triple):
    C, D = factor_cost(sing_triple)
    assert C.shape == (1, 2)
    assert D.shape == (1, 2)
    np.testing.assert_allclose(C, [[0.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(D, 0.0, atol=1e-14)


def test_factor_cost_reconstructs_random_psd():
    rng = np.random.default_rng(37)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        rk = int(rng.integers(0, n + m + 1))
        F = rng.normal(size=(rk, n + m)) if rk else np.zeros((1, n + m))
        pi = F.T @ F
        triple = PopovTriple(rng.normal(size=(n, n)), rng.normal(size=(n, m)),
                             pi[:n, :n], pi[:n, n:], pi[n:, n:])
        C, D = factor_cost(triple)
        CD = np.hstack([C, D])
        assert CD.shape[0] == np.linalg.matrix_rank(pi, tol=1e-10)
        np.testing.assert_allclose(CD.T @ CD, pi, atol=1e-10)


def test_factor_cost_rejects_indefinite():
    triple = PopovTriple(np.eye(1), np.eye(1), -np.eye(1),
                         np.zeros((1, 1)), np.eye(1))
    with pytest.raises(IndefiniteCostError):
        factor_cost(triple)


def test_simulate_chain():
    triple = PopovTriple(np.array([[2.0]]), np.array([[1.0]]),
                         np.eye(1), np.zeros((1, 1)), np.eye(1))
    xs = simulate(triple, [1.0], [[1.0], [0.0]])
    np.testing.assert_allclose(xs, [[1.0], [3.0], [6.0]])


def test_evaluate_cost_zero_trajectory(cyclic):
    xs = np.zeros((4, 2))
    us = np.zeros((3, 2))
    # stage cost vanishes; endpoint misses both targets (1, 2) under H = I
    assert evaluate_cost(cyclic, xs, us) == pytest.approx(10.0)


def test_evaluate_cost_matches_factorization(cyclic):
    rng = np.random.default_rng(41)
    C, D = factor_cost(cyclic.triple)
    for _ in range(10):
        x0 = rng.normal(size=2)
        us = rng.normal(size=(3, 2))
        xs = simulate(cyclic.triple, x0, us)
        stage = sum(float(np.sum((C @ xs[t] + D @ us[t]) ** 2))
                    for t in range(3))
        e = np.concatenate([xs[0], xs[3]]) - np.concatenate(
            [cyclic.boundary.h0, cyclic.boundary.hT])
        expected = stage + float(e @ cyclic.boundary.H @ e)
        assert evaluate_cost(cyclic, xs, us) == pytest.approx(expected)


def test_dict_round_trip(cyclic):
    doc = problem_to_dict(cyclic)
    assert list(doc.keys()) == ["n", "m", "q", "T", "A", "B", "Q", "S", "R",
                                "V0", "VT", "v", "H", "h0", "hT"]
    p2 = problem_from_dict(doc)
    assert p2.horizon == cyclic.horizon
    np.testing.assert_allclose(p2.triple.A, cyclic.triple.A)
    np.testing.assert_allclose(p2.boundary.V, cyclic.boundary.V)
    np.testing.assert_allclose(p2.boundary.H, cyclic.boundary.H)


def test_dict_round_trip_unconstrained():
    triple = PopovTriple(np.eye(1), np.eye(1), np.eye(1),
                         np.zeros((1, 1)), np.eye(1))
    p = LqProblem(triple, 2, BoundarySpec.unconstrained(1))
    doc = problem_to_dict(p)
    assert doc["q"] == 0
    assert "V0" not in doc and "VT" not in doc and "v" not in doc
    p2 = problem_from_dict(doc)
    assert p2.boundary.q == 0


def test_file_round_trip(cyclic, tmp_path):
    path = tmp_path / "prob.json"
    save_problem(cyclic, path)
    p2 = load_problem(path)
    np.testing.assert_allclose(p2.triple.B, cyclic.triple.B)
    assert p2.horizon == 3
    # the file is plain JSON
    with open(path) as fh:
        assert json.load(fh)["T"] == 3


def test_malformed_documents_rejected(cyclic, tmp_path):
    doc = problem_to_dict(cyclic)
    missing = dict(doc)
    del missing["A"]
    with pytest.raises(ProblemFormatError):
        problem_from_dict(missing)

    bad_shape = dict(doc)
    bad_shape["B"] = [[1.0]]
    with pytest.raises(ProblemFormatError):
        problem_from_dict(bad_shape)

    partial_constraint = dict(doc)
    del partial_constraint["v"]
    with pytest.raises(ProblemFormatError):
        problem_from_dict(partial_constraint)

    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFormatError):
        load_problem(path)


@pytest.mark.parametrize("key, value", [
    ("n", "abc"), ("n", None), ("n", -1), ("T", 2.5), ("n", 1.7),
    ("q", -1), ("m", True), ("T", float("nan")),
])
def test_malformed_dimensions_rejected(cyclic, key, value):
    doc = problem_to_dict(cyclic)
    doc[key] = value
    with pytest.raises(ProblemFormatError, match=f"field '{key}'"):
        problem_from_dict(doc)


def test_integral_float_dimensions_accepted(cyclic):
    doc = problem_to_dict(cyclic)
    doc["T"] = float(doc["T"])
    assert problem_from_dict(doc).horizon == cyclic.horizon
