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
or candidate rejected, 4 bad input (including a stage cost that is not
positive semidefinite), 5 an internal consistency check of the pencil
decomposition failed.

Reports are JSON with a fixed key order, so identical inputs and seed
produce byte-identical output.
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
    LqProblem,
    ProblemFormatError,
    ValidationError,
    load_problem,
    validate,
)
from .oracle import OracleSizeError, flatten, projected_gradient_norm, solve_flat
from .pencil import (
    DEFAULT_SEED,
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
    if not args.problem:
        raise _CliError("this command requires --problem", EXIT_BAD_INPUT)
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
    """Certificate from --riccati when given, else from the fixed-point
    iteration.  Returns (certificate, source string)."""
    if args.riccati:
        X = _load_riccati_matrix(args.riccati)
        try:
            return certify(problem.triple, X, pol), "file"
        except (NotRiccatiSolutionError, ValueError) as exc:
            raise _CliError(f"candidate rejected: {exc}", EXIT_NO_RICCATI) from exc
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
            "seed": args.seed,
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
        "chi": _mat(np.atleast_2d(sol.chi))[0],
        "free_boundary_dim": int(sol.free_boundary.shape[1]),
        "free_control_dim": int(sol.free_control.shape[1]),
        "free_boundary": _mat(sol.free_boundary),
        "free_control": _mat(sol.free_control),
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
    spec = generalized_spectrum(dec, pol, seed=args.seed)
    report.update({
        "normal_rank": spec.normal_rank,
        "expected_normal_rank": 2 * dec.n + dec.m1,
        "finite_eigenvalues": [
            {"value": _complex_pair(f.value),
             "multiplicity": f.multiplicity,
             "rank_at_value": f.rank_at_value}
            for f in spec.finite_eigenvalues
        ],
        "infinite": {"algebraic": spec.infinite_algebraic,
                     "geometric": spec.infinite_geometric,
                     "refined_algebraic": spec.refined_algebraic,
                     "refined_geometric": spec.refined_geometric},
        "rank_probes": [
            {"z": _complex_pair(z), "rank": rk} for z, rk in spec.probes
        ],
        "status": "ok",
    })
    return report, EXIT_OK


def _cmd_verify_riccati(args):
    pol = _policy(args)
    problem = _load_problem(args)
    if not args.riccati:
        raise _CliError("verify-riccati requires --riccati", EXIT_BAD_INPUT)
    X = _load_riccati_matrix(args.riccati)
    sigma = problem.triple
    report = _report(args, pol)
    report["problem"] = {"n": sigma.n, "m": sigma.m}
    try:
        evaluated = _evaluate(sigma, X, pol)
    except ValueError as exc:
        raise _CliError(f"invalid candidate: {exc}", EXIT_BAD_INPUT) from exc
    *_, residual_matrix, violation = evaluated
    report["gdare_residual_matrix"] = _mat(residual_matrix)
    report["gdare_residual_norm"] = matrix_norm(residual_matrix)
    report["kernel_violation"] = float(violation)
    try:
        cert = _certify(sigma, evaluated, pol)
    except NotRiccatiSolutionError:
        report["accepted"] = False
        report["status"] = "rejected"
        return report, EXIT_NO_RICCATI
    except ValidationError as exc:
        raise _CliError(f"invalid problem: {exc}", EXIT_BAD_INPUT) from exc
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
        "x0": _mat(np.atleast_2d(z[:qp.n]))[0],
        "u": _mat(qp.controls(z)),
        "projected_gradient_norm": projected_gradient_norm(qp, z, pol),
    })
    return report, EXIT_OK if feasible else EXIT_INFEASIBLE


def _selftest_checks(pol: TolerancePolicy, seed: int):
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
    spec = generalized_spectrum(dec, pol, seed=seed)
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
    checks = _selftest_checks(pol, args.seed)
    all_passed = all(c["passed"] for c in checks)
    report = _report(args, pol)
    report.update({
        "checks": checks,
        "all_passed": all_passed,
        "status": "ok" if all_passed else "failed",
    })
    return report, EXIT_OK if all_passed else EXIT_SELFTEST_FAILED


_COMMANDS = {
    "solve": (_cmd_solve, "solve a problem file"),
    "analyze-pencil": (_cmd_analyze_pencil, "report the pencil eigenstructure"),
    "verify-riccati": (_cmd_verify_riccati, "certify a candidate Riccati solution"),
    "oracle": (_cmd_oracle, "solve via the flat-QP oracle"),
    "selftest": (_cmd_selftest, "run bundled closed-form checks"),
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; writes the JSON report to
    args.out (or stdout) and returns the exit code."""
    handler, _ = _COMMANDS[args.command]
    try:
        report, code = handler(args)
    except (_CliError, DecompositionError) as exc:
        code = exc.code if isinstance(exc, _CliError) else EXIT_DECOMPOSITION_FAILED
        report = {"command": args.command, "status": _ERROR_STATUS[code],
                  "error": str(exc)}
    _emit(report, args)
    return code


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        status = report.get("status", "?")
        line = f"{args.command}: {status}"
        if "cost" in report.get("solution", {}):
            line += f", cost {report['solution']['cost']:.12g}"
        elif "cost" in report:
            line += f", cost {report['cost']:.12g}"
        print(line + f" (report: {args.out})")
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqpencil",
        description="Finite-horizon LQ control via symplectic-pencil "
                    "decomposition, with an independent QP oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--problem", help="problem JSON file")
        p.add_argument("--riccati", help="candidate Riccati JSON file "
                                         "(object with key 'X')")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--rank-tol", type=float, default=None,
                       help="relative rank cutoff (default 1e-10)")
        p.add_argument("--residual-tol", type=float, default=None,
                       help="residual tolerance (default 1e-8)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for rank-probe sampling")
    return parser


def main(argv=None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
