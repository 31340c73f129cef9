"""The package's top level: the solve pipeline, its complete error set,
and the README quick start that uses them."""

import inspect
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lqpencil

PUBLIC = {
    # problem types and I/O
    "PopovTriple", "BoundarySpec", "LqProblem", "TolerancePolicy",
    "load_problem", "save_problem", "validate",
    # Riccati
    "certify", "iterate_grde", "RiccatiCertificate",
    # solve
    "solve_problem", "verify_stationarity", "LqSolution",
    "StationarityReport",
    # oracle
    "flatten", "solve_flat",
    # errors
    "NonFiniteMatrixError", "DimensionMismatchError",
    "ValidationError", "IndefiniteCostError", "IndefinitePenaltyError",
    "ConstraintRankError", "ProblemFormatError",
    "NotSymmetricError", "NotRiccatiSolutionError", "RiccatiIterationError",
    "RiccatiDivergenceError", "RiccatiNoConvergenceError",
    "RiccatiKernelConditionError",
    "DecompositionError",
    "LqSolveError", "InfeasibleProblemError", "HorizonTooShortError",
    "OracleSizeError", "UnboundedObjectiveError",
}
MODULES = ("linalg", "model", "riccati", "pencil", "lqsolve", "oracle")


def test_top_level_names():
    names = {name for name, value in vars(lqpencil).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 35
    assert names == PUBLIC


def test_every_error_type_is_exported():
    errors = {}
    for modname in MODULES:
        module = getattr(lqpencil, modname)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, Exception) and cls.__module__ == module.__name__:
                errors[name] = cls
    assert len(errors) == 19
    for name, cls in errors.items():
        assert getattr(lqpencil, name, None) is cls, name


def test_readme_quick_start(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0]) == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_import_is_numpy_only():
    # The oracle imports its LAPACK wrappers at first use, so importing
    # the package does not pay for importing scipy.
    env = dict(os.environ, PYTHONPATH=str(Path(lqpencil.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lqpencil; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
