"""Command-line interface.

Subcommands
-----------
solve           Solve a problem file end to end and report the
                trajectory, multipliers, and optimal-set dimensions.
analyze-pencil  Report the generalized eigenstructure of the problem's
                extended symplectic pencil.
verify-riccati  Certify (or reject) a candidate Riccati solution.
oracle          Solve the problem by the flat-QP oracle instead of the
                decomposition.
selftest        Run the bundled closed-form checks.

Exit codes: 0 success, 1 selftest failure, 2 infeasible problem (or a
horizon too short to decide feasibility), 3 no Riccati solution found
or candidate rejected, 4 bad input (including a usage error, a malformed
Riccati candidate, or a stage cost or endpoint penalty that is not
symmetric positive semidefinite), 5 an internal consistency check of
the pencil decomposition failed.
A subcommand declares only the flags it reads (see ``_COMMANDS``); a
flag that it does not read is a usage error, exit 4.

Reports are JSON with a fixed key order, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .fixtures import bundled_problem_path, singular_riccati_solution, singular_triple
from .linalg import TolerancePolicy, matrix_norm
from .lqsolve import (
    HorizonTooShortError,
    InfeasibleProblemError,
    solve_with_decomposition,
)
from .model import (
    IndefiniteCostError,
    LqProblem,
    ProblemFormatError,
    ValidationError,
    _symmetric_psd,
    load_problem,
    validate,
)
from .oracle import OracleSizeError, flatten, projected_gradient_norm, solve_flat
from .pencil import (
    DecompositionError,
    generalized_spectrum,
    reachability_decomposition,
)
from .riccati import (
    NotRiccatiSolutionError,
    RiccatiIterationError,
    _certify,
    _evaluate,
    certify,
    iterate_grde,
    split_inputs,
)

EXIT_OK = 0
EXIT_SELFTEST_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_NO_RICCATI = 3
EXIT_BAD_INPUT = 4
EXIT_DECOMPOSITION_FAILED = 5

_ERROR_STATUS = {EXIT_NO_RICCATI: "riccati-failed",
                 EXIT_BAD_INPUT: "bad-input",
                 EXIT_DECOMPOSITION_FAILED: "decomposition-failed"}


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _policy(args) -> TolerancePolicy:
    kwargs = {}
    if args.rank_tol is not None:
        kwargs["rank_rel_tol"] = args.rank_tol
    if args.residual_tol is not None:
        kwargs["residual_tol"] = args.residual_tol
    try:
        return TolerancePolicy(**kwargs)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_BAD_INPUT) from exc


def _load_problem(args) -> LqProblem:
    try:
        return load_problem(args.problem)
    except (OSError, ProblemFormatError) as exc:
        raise _CliError(f"cannot load problem: {exc}", EXIT_BAD_INPUT) from exc


def _load_riccati_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            doc = json.load(fh)
        X = np.array(doc["X"], dtype=float)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"cannot load Riccati candidate: {exc}", EXIT_BAD_INPUT) from exc
    return X


def _certificate(args, problem: LqProblem, pol: TolerancePolicy):
    """Certificate from --riccati when given, else from the Riccati
    iteration (:func:`~lqpencil.riccati.iterate_grde`).  Returns
    (certificate, source string)."""
    if args.riccati:
        X = _load_riccati_matrix(args.riccati)
        try:
            return certify(problem.triple, X, pol), "file"
        except NotRiccatiSolutionError as exc:
            raise _CliError(f"candidate rejected: {exc}", EXIT_NO_RICCATI) from exc
        except ValueError as exc:
            raise _CliError(f"invalid candidate: {exc}", EXIT_BAD_INPUT) from exc
    try:
        return iterate_grde(problem.triple, pol=pol), "iterated"
    except RiccatiIterationError as exc:
        raise _CliError(f"no Riccati solution found: {exc}", EXIT_NO_RICCATI) from exc


def _mat(M) -> list:
    return np.asarray(M, dtype=float).tolist()


def _complex_pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _report(args, pol: TolerancePolicy) -> dict:
    """The opening keys of every report."""
    return {"command": args.command,
            "tolerances": {"rank_rel_tol": pol.rank_rel_tol,
                           "residual_tol": pol.residual_tol,
                           "eig_match_tol": pol.eig_match_tol}}


def _problem_report(args):
    """The preamble of solve, analyze-pencil and oracle: the policy, the
    loaded and validated problem, and the report opened with its
    "problem" block."""
    pol = _policy(args)
    problem = _load_problem(args)
    try:
        validate(problem, pol)
    except ValidationError as exc:
        raise _CliError(f"invalid problem: {exc}", EXIT_BAD_INPUT) from exc
    report = _report(args, pol)
    report["problem"] = {"n": problem.triple.n, "m": problem.triple.m,
                         "q": problem.boundary.q, "T": problem.horizon}
    return pol, problem, report


def _decomposed(args):
    """The preamble of solve and analyze-pencil: that of
    :func:`_problem_report`, then the certificate and the reachability
    decomposition, with their "riccati" and "decomposition" blocks.
    Returns (policy, problem, report, decomposition)."""
    pol, problem, report = _problem_report(args)
    cert, source = _certificate(args, problem, pol)
    dec = reachability_decomposition(cert, split_inputs(cert, pol), pol)
    report["riccati"] = {"source": source, "X": _mat(cert.X),
                         "gdare_residual": cert.gdare_residual,
                         "kernel_violation": cert.kernel_violation}
    report["decomposition"] = {"r": dec.r, "m1": dec.m1, "m2": dec.m2}
    return pol, problem, report, dec


def _cmd_solve(args):
    pol, problem, report, dec = _decomposed(args)
    try:
        sol = solve_with_decomposition(problem, dec, pol)
    except InfeasibleProblemError as exc:
        report["status"] = "infeasible"
        report["detail"] = str(exc)
        return report, EXIT_INFEASIBLE
    except HorizonTooShortError as exc:
        report["status"] = "horizon-too-short"
        report["detail"] = str(exc)
        return report, EXIT_INFEASIBLE
    report["status"] = "ok"
    report["solution"] = {
        "cost": sol.cost,
        "x": _mat(sol.x),
        "u": _mat(sol.u),
        "costate": _mat(sol.costate),
        "chi": _mat(sol.chi),
        "free_boundary_dim": int(sol.free_boundary.shape[1]),
        "free_control_dim": sol.free_control_dim,
        "free_boundary": _mat(sol.free_boundary),
        "steering": _mat(sol.steering),
    }
    rep = sol.residuals
    report["stationarity"] = {
        "dynamics": rep.dynamics_residual,
        "constraint": rep.constraint_residual,
        "costate": rep.costate_residual,
        "input": rep.input_residual,
        "transversality": rep.transversality_residual,
        "passed": rep.passed,
    }
    return report, EXIT_OK


def _cmd_analyze_pencil(args):
    pol, _, report, dec = _decomposed(args)
    del report["riccati"]["X"]
    spec = generalized_spectrum(dec, pol)
    report.update({
        "normal_rank": spec.normal_rank,
        "finite_eigenvalues": [
            {"value": _complex_pair(f.value), "multiplicity": f.multiplicity}
            for f in spec.finite_eigenvalues
        ],
        "infinite": {"algebraic": spec.infinite_algebraic,
                     "geometric": spec.infinite_geometric},
        "status": "ok",
    })
    return report, EXIT_OK


def _cmd_verify_riccati(args):
    pol = _policy(args)
    problem = _load_problem(args)
    X = _load_riccati_matrix(args.riccati)
    sigma = problem.triple
    report = _report(args, pol)
    report["problem"] = {"n": sigma.n, "m": sigma.m}
    try:
        # no certificate exists unless Pi >= 0, whatever the candidate
        _symmetric_psd(sigma.pi, sigma._pi_eig, "stage cost Pi", IndefiniteCostError, pol)
        evaluated = _evaluate(sigma, X, pol)
    except ValidationError as exc:
        raise _CliError(f"invalid problem: {exc}", EXIT_BAD_INPUT) from exc
    except ValueError as exc:
        raise _CliError(f"invalid candidate: {exc}", EXIT_BAD_INPUT) from exc
    *_, residual_matrix, S_X_G_X = evaluated
    report["gdare_residual_matrix"] = _mat(residual_matrix)
    report["gdare_residual_norm"] = matrix_norm(residual_matrix)
    report["kernel_violation"] = matrix_norm(S_X_G_X)
    try:
        cert = _certify(sigma, evaluated, pol)
    except NotRiccatiSolutionError:
        report["accepted"] = False
        report["status"] = "rejected"
        return report, EXIT_NO_RICCATI
    report["accepted"] = True
    report["status"] = "ok"
    report["derived"] = {"R_X": _mat(cert.R_X), "K_X": _mat(cert.K_X),
                         "A_X": _mat(cert.A_X), "G_X": _mat(cert.G_X)}
    return report, EXIT_OK


def _cmd_oracle(args):
    pol, problem, report = _problem_report(args)
    try:
        qp = flatten(problem)
    except OracleSizeError as exc:
        raise _CliError(str(exc), EXIT_BAD_INPUT) from exc
    z, cost, feasible = solve_flat(qp, pol)
    report.update({
        "status": "ok" if feasible else "infeasible",
        "feasible": bool(feasible),
        "cost": float(cost),
        "x0": _mat(z[:qp.n]),
        "u": _mat(qp.controls(z)),
        "projected_gradient_norm": projected_gradient_norm(qp, z, pol),
    })
    return report, EXIT_OK if feasible else EXIT_INFEASIBLE


def _selftest_checks(pol: TolerancePolicy):
    sigma = singular_triple()
    X = singular_riccati_solution()
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    cert = certify(sigma, X, pol)
    record("riccati-certificate",
           cert.gdare_residual <= 1e-10 and cert.kernel_violation <= 1e-10,
           f"residual {cert.gdare_residual:.2e}, "
           f"violation {cert.kernel_violation:.2e}")

    dec = reachability_decomposition(cert, split_inputs(cert, pol), pol)
    spec = generalized_spectrum(dec, pol)
    finite_ok = (len(spec.finite_eigenvalues) == 1
                 and abs(spec.finite_eigenvalues[0].value) <= pol.eig_match_tol
                 and spec.finite_eigenvalues[0].multiplicity == 1)
    record("pencil-structure",
           spec.normal_rank == 5 and finite_ok
           and spec.infinite_algebraic == 2 and spec.infinite_geometric == 1,
           f"normal rank {spec.normal_rank}, "
           f"{len(spec.finite_eigenvalues)} finite eigenvalue(s), "
           f"infinity ({spec.infinite_algebraic}, {spec.infinite_geometric})")

    problem = load_problem(bundled_problem_path())
    sol = solve_with_decomposition(problem, dec, pol)
    qp = flatten(problem)
    _, oracle_cost, feasible = solve_flat(qp, pol)
    cost_ok = feasible and abs(sol.cost - oracle_cost) <= 1e-8 * (1.0 + abs(oracle_cost))
    record("solve-vs-oracle", cost_ok and sol.residuals.passed,
           f"cost {sol.cost:.12g} vs oracle {oracle_cost:.12g}, "
           f"stationarity {'passed' if sol.residuals.passed else 'failed'}")
    return checks


def _cmd_selftest(args):
    pol = _policy(args)
    checks = _selftest_checks(pol)
    all_passed = all(c["passed"] for c in checks)
    report = _report(args, pol)
    report.update({
        "checks": checks,
        "all_passed": all_passed,
        "status": "ok" if all_passed else "failed",
    })
    return report, EXIT_OK if all_passed else EXIT_SELFTEST_FAILED


# name: (handler, help, --problem, --riccati), each flag required (True),
# optional (False) or not declared (None); all take --out and tolerances.
_COMMANDS = {
    "solve": (_cmd_solve, "solve a problem file", True, False),
    "analyze-pencil": (_cmd_analyze_pencil, "report the pencil eigenstructure",
                       True, False),
    "verify-riccati": (_cmd_verify_riccati, "certify a candidate Riccati solution",
                       True, True),
    "oracle": (_cmd_oracle, "solve via the flat-QP oracle", True, None),
    "selftest": (_cmd_selftest, "run bundled closed-form checks", None, None),
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; writes the JSON report to
    args.out (or stdout) and returns the exit code."""
    handler = _COMMANDS[args.command][0]
    try:
        report, code = handler(args)
    except (_CliError, DecompositionError) as exc:
        code = exc.code if isinstance(exc, _CliError) else EXIT_DECOMPOSITION_FAILED
        report = _error_report(args.command, code, exc)
    return _emit(report, code, args.out)


def _error_report(command: str, code: int, error) -> dict:
    return {"command": command, "status": _ERROR_STATUS[code], "error": str(error)}


def _emit(report: dict, code: int, out) -> int:
    """Write the report to ``out`` (or stdout) and return the exit code;
    a report that cannot be written is bad input, reported on stdout."""
    text = json.dumps(report, indent=2) + "\n"
    if not out:
        sys.stdout.write(text)
        return code
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _emit(_error_report(report["command"], EXIT_BAD_INPUT,
                                   f"cannot write report: {exc}"),
                     EXIT_BAD_INPUT, None)
    line = f"{report['command']}: {report.get('status', '?')}"
    if "cost" in report.get("solution", {}):
        line += f", cost {report['solution']['cost']:.12g}"
    elif "cost" in report:
        line += f", cost {report['cost']:.12g}"
    print(line + f" (report: {out})")
    return code


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad input, not argparse's exit 2 (infeasible)."""

    def error(self, message):
        raise _CliError(message, EXIT_BAD_INPUT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lqpencil",
        description="Finite-horizon LQ control via symplectic-pencil "
                    "decomposition, with an independent QP oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, problem, riccati) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if problem is not None:
            p.add_argument("--problem", required=problem, help="problem JSON file")
        if riccati is not None:
            p.add_argument("--riccati", required=riccati,
                           help="candidate Riccati JSON file (object with key 'X')")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--rank-tol", type=float, default=None,
                       help="relative rank cutoff (default 1e-10)")
        p.add_argument("--residual-tol", type=float, default=None,
                       help="residual tolerance (default 1e-8)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        return run(_build_parser().parse_args(argv))
    except _CliError as exc:  # a usage error: run() reports all others
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        return _emit(_error_report(command, exc.code, exc), exc.code, None)


if __name__ == "__main__":
    sys.exit(main())
