"""Command-line interface: subcommands, exit codes, report schemas, and
byte-level determinism of written reports."""

import json

import numpy as np
import pytest

from lqpencil import (
    BoundarySpec,
    DecompositionError,
    LqProblem,
    PopovTriple,
    cli,
    riccati,
    save_problem,
)
from lqpencil.cli import (
    EXIT_BAD_INPUT,
    EXIT_DECOMPOSITION_FAILED,
    EXIT_INFEASIBLE,
    EXIT_NO_RICCATI,
    EXIT_OK,
    main,
)
from lqpencil.fixtures import bundled_problem_path

from conftest import WRONG_SHAPES, cyclic_problem, three_input_document


@pytest.fixture(scope="module")
def problem_path():
    return str(bundled_problem_path())


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    return json.loads(out)


def test_solve_bundled_problem(problem_path, capsys):
    code, out = run_cli(["solve", "--problem", problem_path], capsys)
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["status"] == "ok"
    assert doc["solution"]["cost"] == pytest.approx(8.0 / 3.0, abs=1e-9)
    np.testing.assert_allclose(doc["solution"]["x"][0], [1.0, 4.0 / 3.0],
                               atol=1e-9)
    np.testing.assert_allclose(doc["solution"]["x"][-1],
                               doc["solution"]["x"][0], atol=1e-9)
    assert doc["stationarity"]["passed"] is True
    assert doc["riccati"]["source"] == "iterated"
    assert doc["decomposition"] == {"r": 1, "m1": 1, "m2": 1}
    assert doc["solution"]["free_boundary_dim"] == 0
    assert doc["solution"]["free_control_dim"] == 2


def test_solve_long_horizon_reports_steering_rows(tmp_path, capsys):
    T = 10_000
    path = tmp_path / "cyclic.json"
    save_problem(cyclic_problem((1.0, 2.0), T), path)
    code, out = run_cli(["solve", "--problem", str(path)], capsys)
    assert code == EXIT_OK
    solution = last_json(out)["solution"]
    assert solution["free_control_dim"] == T - 1
    assert np.shape(solution["steering"]) == (1, T)
    assert "free_control" not in solution


def test_solve_with_riccati_file(problem_path, tmp_path, capsys):
    xfile = tmp_path / "X.json"
    xfile.write_text(json.dumps({"X": [[0.0, 0.0], [0.0, 1.0]]}))
    code, out = run_cli(["solve", "--problem", problem_path,
                         "--riccati", str(xfile)], capsys)
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["riccati"]["source"] == "file"
    assert doc["solution"]["cost"] == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_analyze_pencil_report(problem_path, capsys):
    code, out = run_cli(["analyze-pencil", "--problem", problem_path], capsys)
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["normal_rank"] == 5
    assert len(doc["finite_eigenvalues"]) == 1
    ev = doc["finite_eigenvalues"][0]
    assert abs(complex(*ev["value"])) <= 1e-9
    assert ev["multiplicity"] == 1
    assert doc["infinite"] == {"algebraic": 2, "geometric": 1}


def test_verify_riccati_accepts_solution(problem_path, tmp_path, capsys):
    xfile = tmp_path / "X.json"
    xfile.write_text(json.dumps({"X": [[0.0, 0.0], [0.0, 1.0]]}))
    code, out = run_cli(["verify-riccati", "--problem", problem_path,
                         "--riccati", str(xfile)], capsys)
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["accepted"] is True
    assert doc["gdare_residual_norm"] <= 1e-10
    assert doc["kernel_violation"] <= 1e-10
    np.testing.assert_allclose(doc["derived"]["R_X"],
                               [[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_allclose(doc["derived"]["A_X"],
                               [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_verify_riccati_rejects_zero(problem_path, tmp_path, capsys):
    xfile = tmp_path / "X.json"
    xfile.write_text(json.dumps({"X": [[0.0, 0.0], [0.0, 0.0]]}))
    code, out = run_cli(["verify-riccati", "--problem", problem_path,
                         "--riccati", str(xfile)], capsys)
    assert code == EXIT_NO_RICCATI
    doc = last_json(out)
    assert doc["accepted"] is False
    np.testing.assert_allclose(doc["gdare_residual_matrix"],
                               [[0.0, 0.0], [0.0, -1.0]], atol=1e-14)


def test_verify_riccati_rejects_a_huge_candidate(tmp_path, capsys):
    triple = PopovTriple([[0.5]], [[1.0]], [[1.0]], [[0.0]], [[1.0]])
    path = tmp_path / "scalar.json"
    save_problem(LqProblem(triple, 2, BoundarySpec.unconstrained(1)), path)
    xfile = tmp_path / "X.json"
    xfile.write_text(json.dumps({"X": [[1e160]]}))
    code, out = run_cli(["verify-riccati", "--problem", str(path),
                         "--riccati", str(xfile)], capsys)
    assert code == EXIT_NO_RICCATI
    doc = last_json(out)
    assert doc["accepted"] is False
    assert doc["gdare_residual_norm"] == pytest.approx(1e160)


def test_verify_riccati_evaluates_candidate_once(problem_path, tmp_path,
                                                 capsys, monkeypatch):
    calls = []
    derived = riccati._derived

    def spy(*args):
        calls.append(1)
        return derived(*args)

    monkeypatch.setattr(riccati, "_derived", spy)
    for X, expected in (([[0.0, 0.0], [0.0, 1.0]], EXIT_OK),
                        ([[0.0, 0.0], [0.0, 0.0]], EXIT_NO_RICCATI)):
        xfile = tmp_path / "X.json"
        xfile.write_text(json.dumps({"X": X}))
        calls.clear()
        code, _ = run_cli(["verify-riccati", "--problem", problem_path,
                           "--riccati", str(xfile)], capsys)
        assert code == expected
        assert len(calls) == 1


def test_verify_riccati_indefinite_cost_is_bad_input(tmp_path, capsys):
    # Pi = diag(-1, 1): X = -1 solves the Riccati equation exactly, but
    # the certificate needs a factor [C D] of Pi, which does not exist;
    # X = 0 fails the equation, and is bad input all the same
    triple = PopovTriple([[0.0]], [[0.0]], [[-1.0]], [[0.0]], [[1.0]])
    path = tmp_path / "indefinite.json"
    save_problem(LqProblem(triple, 2, BoundarySpec.unconstrained(1)), path)
    xfile = tmp_path / "X.json"
    for X in ([[-1.0]], [[0.0]]):
        xfile.write_text(json.dumps({"X": X}))
        code, out = run_cli(["verify-riccati", "--problem", str(path),
                             "--riccati", str(xfile)], capsys)
        assert code == EXIT_BAD_INPUT
        doc = last_json(out)
        assert doc["status"] == "bad-input"
        assert "not positive semidefinite" in doc["error"]


@pytest.mark.parametrize("key, value, matrix", [
    # same quadratic form as H = I, but H e is not its gradient
    ("H", [[1.0, 0.8, 0.0, 0.0], [-0.8, 1.0, 0.0, 0.0],
           [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], "H"),
    # the symmetric part diag(-5e-8, 1) is within tolerance of PSD
    ("Q", [[-5e-8, 10.0], [-10.0, 1.0]], "Pi"),
])
def test_non_symmetric_cost_or_penalty_is_bad_input(problem_path, tmp_path,
                                                    capsys, key, value,
                                                    matrix):
    with open(problem_path) as fh:
        doc = json.load(fh)
    doc[key] = value
    path = tmp_path / "non_symmetric.json"
    path.write_text(json.dumps(doc))
    for command in ("solve", "analyze-pencil", "oracle"):
        code, out = run_cli([command, "--problem", str(path)], capsys)
        assert code == EXIT_BAD_INPUT
        doc_out = last_json(out)
        assert doc_out["status"] == "bad-input"
        assert f"{matrix} is not symmetric" in doc_out["error"]


def test_oracle_subcommand(problem_path, capsys):
    code, out = run_cli(["oracle", "--problem", problem_path], capsys)
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["feasible"] is True
    assert doc["cost"] == pytest.approx(8.0 / 3.0, abs=1e-9)
    assert doc["projected_gradient_norm"] <= 1e-9
    assert len(doc["u"]) == 3


def test_selftest(capsys):
    code, out = run_cli(["selftest"], capsys)
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["all_passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == ["riccati-certificate", "pencil-structure",
                     "solve-vs-oracle"]
    assert all(c["passed"] for c in doc["checks"])


def test_reports_are_byte_identical(problem_path, tmp_path, capsys):
    for cmd in (["solve", "--problem", problem_path],
                ["analyze-pencil", "--problem", problem_path],
                ["oracle", "--problem", problem_path]):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(cmd + ["--out", str(out_a)]) == EXIT_OK
        assert main(cmd + ["--out", str(out_b)]) == EXIT_OK
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()


def test_solve_without_state_matches_oracle(tmp_path, capsys):
    # n = 0: every trajectory array is empty; one regular and one free
    # input, both optimal at zero.
    path = tmp_path / "stateless.json"
    path.write_text(json.dumps({
        "n": 0, "m": 2, "q": 0, "T": 3, "A": [], "B": [], "Q": [], "S": [],
        "R": [[1.0, 0.0], [0.0, 0.0]], "H": [], "h0": [], "hT": []}))
    code, out = run_cli(["solve", "--problem", str(path)], capsys)
    assert code == EXIT_OK
    solution = last_json(out)["solution"]
    assert solution["cost"] == 0.0
    code, out = run_cli(["oracle", "--problem", str(path)], capsys)
    assert code == EXIT_OK
    assert last_json(out)["cost"] == solution["cost"]


def test_oracle_without_variables(tmp_path, capsys):
    # n = m = 0: the flat QP has no variables, and its optimum is the
    # constant cost.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "n": 0, "m": 0, "q": 0, "T": 3, "A": [], "B": [], "Q": [], "S": [],
        "R": [], "H": [], "h0": [], "hT": []}))
    code, out = run_cli(["oracle", "--problem", str(path)], capsys)
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["status"] == "ok" and doc["feasible"] is True
    assert doc["cost"] == 0.0
    assert doc["x0"] == [] and doc["u"] == [[], [], []]


def test_infeasible_problem_exit_code(tmp_path, capsys):
    triple = PopovTriple([[0.5]], [[0.0]], [[1.0]], [[0.0]], [[1.0]])
    bd = BoundarySpec(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]),
                      np.array([0.0, 1.0]), np.zeros((2, 2)),
                      np.zeros(1), np.zeros(1))
    path = tmp_path / "infeasible.json"
    save_problem(LqProblem(triple, 3, bd), path)
    code, out = run_cli(["solve", "--problem", str(path)], capsys)
    assert code == EXIT_INFEASIBLE
    assert last_json(out)["status"] == "infeasible"


def test_horizon_too_short_exit_code(tmp_path, capsys):
    triple = PopovTriple(np.array([[1.0, 1.0], [0.0, 1.0]]),
                         np.array([[0.0], [1.0]]), np.zeros((2, 2)),
                         np.zeros((2, 1)), np.zeros((1, 1)))
    bd = BoundarySpec(np.eye(2), -np.eye(2), np.zeros(2), np.zeros((4, 4)),
                      np.zeros(2), np.zeros(2))
    path = tmp_path / "short.json"
    save_problem(LqProblem(triple, 1, bd), path)
    code, out = run_cli(["solve", "--problem", str(path)], capsys)
    assert code == EXIT_INFEASIBLE
    assert last_json(out)["status"] == "horizon-too-short"


def test_riccati_failure_exit_code(tmp_path, capsys):
    # B = 0 with unstable A: the fixed-point iteration diverges
    triple = PopovTriple([[2.0]], [[0.0]], [[1.0]], [[0.0]], [[1.0]])
    path = tmp_path / "divergent.json"
    save_problem(LqProblem(triple, 2, BoundarySpec.unconstrained(1)), path)
    code, out = run_cli(["solve", "--problem", str(path)], capsys)
    assert code == EXIT_NO_RICCATI
    assert last_json(out)["status"] == "riccati-failed"


@pytest.mark.parametrize("command, stage", [
    ("solve", "solve_with_decomposition"),
    ("analyze-pencil", "reachability_decomposition"),
])
def test_decomposition_failure_exit_code(problem_path, capsys, monkeypatch,
                                         command, stage):
    def fail(*args, **kwargs):
        raise DecompositionError("reconstructed x1(T) misses its target")

    monkeypatch.setattr(cli, stage, fail)
    code, out = run_cli([command, "--problem", problem_path], capsys)
    assert code == EXIT_DECOMPOSITION_FAILED == 5
    assert last_json(out) == {"command": command,
                              "status": "decomposition-failed",
                              "error": "reconstructed x1(T) misses its target"}


def test_overflowing_gramian_exit_code(tmp_path, capsys):
    # A_X = 3 and T = 1000: the endpoint gramian overflows
    triple = PopovTriple([[3.0]], [[0.0]], [[0.0]], [[0.0]], [[1.0]])
    bd = BoundarySpec(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0),
                      np.eye(2), np.ones(1), np.ones(1))
    path = tmp_path / "overflow.json"
    save_problem(LqProblem(triple, 1000, bd), path)
    code, out = run_cli(["solve", "--problem", str(path)], capsys)
    assert code == EXIT_DECOMPOSITION_FAILED
    assert last_json(out) == {"command": "solve",
                              "status": "decomposition-failed",
                              "error": "endpoint gramian is not finite"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, code, status, error, T", [
    ("solve", EXIT_DECOMPOSITION_FAILED, "decomposition-failed",
     "steering rows are not finite", 1000),
    ("solve", EXIT_DECOMPOSITION_FAILED, "decomposition-failed",
     "steering target is not finite", 647),
    ("oracle", EXIT_BAD_INPUT, "bad-input",
     "flat QP over horizon 1000 is not finite (overflow)", 1000),
])
def test_overflowing_powers_exit_codes(tmp_path, capsys, command, code,
                                       status, error, T):
    # A = 3, B = 1: at T = 1000 the steering rows and the flat QP both
    # carry 3^999, which overflows; at T = 647 only the steering target
    # does, through 3^647
    triple = PopovTriple([[3.0]], [[1.0]], [[0.0]], [[0.0]], [[0.0]])
    bd = BoundarySpec(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0),
                      np.eye(2), np.ones(1), np.ones(1))
    path = tmp_path / "overflow.json"
    save_problem(LqProblem(triple, T, bd), path)
    got, out = run_cli([command, "--problem", str(path)], capsys)
    assert got == code
    assert last_json(out) == {"command": command, "status": status,
                              "error": error}


def test_bad_input_exit_codes(tmp_path, capsys):
    code, _ = run_cli(["solve", "--problem", str(tmp_path / "missing.json")],
                      capsys)
    assert code == EXIT_BAD_INPUT

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _ = run_cli(["solve", "--problem", str(broken)], capsys)
    assert code == EXIT_BAD_INPUT

    code, _ = run_cli(["solve"], capsys)  # --problem is required
    assert code == EXIT_BAD_INPUT

    code, _ = run_cli(["verify-riccati", "--problem",
                       str(bundled_problem_path())], capsys)
    assert code == EXIT_BAD_INPUT  # --riccati is required here

    bad_x = tmp_path / "badx.json"
    bad_x.write_text(json.dumps({"X": [[1.0]]}))  # wrong shape
    code, _ = run_cli(["verify-riccati", "--problem",
                       str(bundled_problem_path()), "--riccati", str(bad_x)],
                      capsys)
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("command", ["solve", "analyze-pencil", "verify-riccati"])
@pytest.mark.parametrize("X, error", [
    (np.eye(3).tolist(), "X must be 2 x 2"),
    ([[0.0, 1.0], [0.0, 1.0]], "X is not symmetric"),
    ([[0.0, float("nan")], [float("nan"), 1.0]], "X contains NaN or Inf"),
], ids=["wrong-shape", "not-symmetric", "nan-entry"])
def test_malformed_riccati_candidate_is_bad_input(problem_path, tmp_path, capsys,
                                                  command, X, error):
    # one rule for every command that reads --riccati: a malformed
    # candidate is bad input, and only a CGDARE failure is exit 3
    xfile = tmp_path / "X.json"
    xfile.write_text(json.dumps({"X": X}))
    code, out = run_cli([command, "--problem", problem_path,
                         "--riccati", str(xfile)], capsys)
    assert code == EXIT_BAD_INPUT
    assert last_json(out) == {"command": command, "status": "bad-input",
                              "error": f"invalid candidate: {error}"}


@pytest.mark.parametrize("argv, command, error", [
    (["solve", "--rank-tol", "abc"], "solve", "invalid float value: 'abc'"),
    (["solve", "--problem", bundled_problem_path(), "--bogus"], "solve",
     "unrecognized arguments: --bogus"),
    ([], None, "the following arguments are required: command"),
])
def test_usage_error_is_bad_input(capsys, argv, command, error):
    # argparse's own exit code 2 would read as an infeasible problem
    code, out = run_cli(argv, capsys)
    assert code == EXIT_BAD_INPUT
    doc = last_json(out)
    assert (doc["command"], doc["status"]) == (command, "bad-input")
    assert error in doc["error"]


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--problem", bundled_problem_path(), "--riccati", "x.json"],
     "--riccati"),
    (["selftest", "--problem", "x.json"], "--problem"),
    (["selftest", "--riccati", "x.json"], "--riccati"),
], ids=["oracle-riccati", "selftest-problem", "selftest-riccati"])
def test_flag_the_command_does_not_read_is_bad_input(capsys, argv, flag):
    # the named file does not exist: a command that ignored the flag
    # would report "ok"
    code, out = run_cli(argv, capsys)
    assert code == EXIT_BAD_INPUT
    doc = last_json(out)
    assert (doc["command"], doc["status"]) == (argv[0], "bad-input")
    assert f"unrecognized arguments: {flag}" in doc["error"]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-h"])
    assert exc.value.code == EXIT_OK
    assert "--problem" in capsys.readouterr().out


@pytest.mark.parametrize("key, value, shapes", WRONG_SHAPES)
def test_wrong_matrix_shape_is_bad_input(tmp_path, capsys, key, value, shapes):
    doc = three_input_document()
    doc[key] = value
    path = tmp_path / "wrong_shape.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["solve", "--problem", str(path)], capsys)
    assert code == EXIT_BAD_INPUT
    doc_out = last_json(out)
    assert doc_out["status"] == "bad-input"
    assert f"field '{key}' has shape {shapes}" in doc_out["error"]


@pytest.mark.parametrize("key, value", [
    ("n", "abc"), ("n", None), ("n", -1), ("T", 2.5), ("n", 1.7),
    ("q", -1),
])
def test_malformed_dimension_is_bad_input(problem_path, tmp_path, capsys,
                                          key, value):
    with open(problem_path) as fh:
        doc = json.load(fh)
    doc[key] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    for command in ("solve", "analyze-pencil", "oracle"):
        code, out = run_cli([command, "--problem", str(path)], capsys)
        assert code == EXIT_BAD_INPUT
        doc_out = last_json(out)
        assert doc_out["status"] == "bad-input"
        assert f"field '{key}'" in doc_out["error"]


def test_custom_tolerances_accepted(problem_path, capsys):
    code, out = run_cli(["solve", "--problem", problem_path,
                         "--rank-tol", "1e-9", "--residual-tol", "1e-7"],
                        capsys)
    assert code == EXIT_OK
    doc = last_json(out)
    assert doc["tolerances"]["rank_rel_tol"] == pytest.approx(1e-9)
    assert doc["tolerances"]["residual_tol"] == pytest.approx(1e-7)


@pytest.mark.parametrize("flag", ["--residual-tol", "--rank-tol"])
def test_infinite_tolerance_is_bad_input(tmp_path, capsys, flag):
    # an indefinite stage cost would pass every check under an infinite
    # residual tolerance
    with open(bundled_problem_path()) as fh:
        doc = json.load(fh)
    doc["Q"] = [[0.0, 0.0], [0.0, -1.0]]
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["solve", "--problem", str(path), flag, "inf"], capsys)
    assert code == EXIT_BAD_INPUT
    doc_out = last_json(out)
    assert doc_out["status"] == "bad-input"
    assert "positive and finite" in doc_out["error"]


def test_unwritable_out_path_is_bad_input(problem_path, tmp_path, capsys):
    target = tmp_path / "missing" / "r.json"
    code, out = run_cli(["solve", "--problem", problem_path,
                         "--out", str(target)], capsys)
    assert code == EXIT_BAD_INPUT
    doc = last_json(out)
    assert doc["command"] == "solve"
    assert doc["status"] == "bad-input"
    assert doc["error"].startswith("cannot write report: ")
    assert not target.exists()
