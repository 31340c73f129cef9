"""Span tracing around the program's public functions, from outside.

The program's modules import each other's functions by name, so a call
such as ``lqsolve.discrete_lyapunov(...)`` goes through the calling
module's namespace.  :class:`Tracer` therefore replaces a traced
function in every ``lqpencil`` module namespace that holds it, and
names each span after the namespace the call went through, e.g.
``lqsolve.solve_affine`` for the boundary solve and
``oracle.solve_affine`` for the oracle's null-space step.

Spans (name, start, end, parent span, problem id) are kept in memory
and written out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Functions whose calls make up the rank decisions of the program.
RANK_DECISIONS = ("rank_of", "pseudo_inverse", "kernel_basis", "image_basis",
                  "solve_affine")
TRACED = RANK_DECISIONS + (
    "validate", "iterate_grde", "certify", "split_inputs",
    "reachability_decomposition", "riccati_congruence",
    "generalized_spectrum", "canonical_form",
    "controllability_index", "assemble_boundary", "endpoint_gramian",
    "discrete_lyapunov", "free_control_for_chi", "reconstruct_trajectories",
    "control_reg", "solve_with_decomposition",
    "flatten", "solve_flat", "projected_gradient_norm",
)
MODULES = ("linalg", "model", "riccati", "pencil", "lqsolve", "oracle")


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, problem)
        self.problem = -1
        self._stack = [-1]
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.problem)
        return traced

    def install(self, package):
        """Wrap every traced function in every module namespace of
        ``package`` (the imported ``lqpencil``) that holds it."""
        for modname in MODULES:
            module = getattr(package, modname)
            for fname in TRACED:
                fn = getattr(module, fname, None)
                if fn is None:
                    continue
                setattr(module, fname, self._wrap(f"{modname}.{fname}", fn))
                self._patched.append((module, fname, fn))

    def remove(self):
        for module, fname, fn in reversed(self._patched):
            setattr(module, fname, fn)
        self._patched.clear()

    @contextmanager
    def span(self, name, problem):
        """A span recorded by the benchmark itself (one operation)."""
        self.problem = problem
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, self._stack[-1], problem)

    def write(self, path):
        """One CSV line per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,problem\n")
            for i, (name, start, end, parent, problem) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent},{problem}\n")


def layer_metrics(spans, solves: int, flat_variables: list) -> dict:
    """Per-layer figures from the spans of a traced run.

    ``.s`` is the median duration of one call, ``self`` variants exclude
    the time of traced callees; ``.calls`` counts the calls made inside
    solve operations, per attempted solve.  ``solves`` is the number of
    solve operations attempted and ``flat_variables`` holds n + mT for
    each oracle operation.
    """
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    pi_children = defaultdict(int)
    durations = defaultdict(list)
    by_function = defaultdict(list)
    solve_calls = defaultdict(int)
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        durations[name].append(dur)
        by_function[name.split(".")[-1]].append(dur)
        root[i] = i if parent < 0 else root[parent]
        if spans[root[i]][0] == "op.solve":
            solve_calls[name.split(".")[-1]] += 1
        if parent >= 0:
            child_time[parent] += dur
            if name == "riccati.pseudo_inverse":
                pi_children[parent] += 1
    self_time = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        self_time[name].append(end - start - child_time[i])
    iterations = [pi_children[i] for i, span in enumerate(spans)
                  if span[0] == "riccati.iterate_grde"]

    def median(values):
        return statistics.median(values) if values else 0.0

    def per_solve(count):
        return count / solves if solves else 0.0

    out = {}
    for name in ("riccati.iterate_grde", "riccati.split_inputs",
                 "pencil.riccati_congruence", "pencil.generalized_spectrum",
                 "pencil.canonical_form", "lqsolve.controllability_index",
                 "lqsolve.solve_affine", "lqsolve.endpoint_gramian",
                 "lqsolve.free_control_for_chi",
                 "lqsolve.reconstruct_trajectories", "model.validate",
                 "oracle.flatten", "oracle.solve_flat",
                 "oracle.projected_gradient_norm"):
        out[f"{name}.s"] = (median(durations[name]), "s")
    for name in ("pencil.reachability_decomposition", "lqsolve.assemble_boundary"):
        out[f"{name}.s"] = (median(self_time[name]), "s")
    out["lqsolve.solve_with_decomposition.self_s"] = (
        median(self_time["lqsolve.solve_with_decomposition"]), "s")
    out["riccati.iterate_grde.iterations"] = (median(iterations), "count")
    out["lqsolve.endpoint_gramian.calls"] = (per_solve(solve_calls["endpoint_gramian"]), "count")
    out["linalg.discrete_lyapunov.s"] = (median(by_function["discrete_lyapunov"]), "s")
    out["linalg.discrete_lyapunov.calls"] = (per_solve(solve_calls["discrete_lyapunov"]), "count")
    out["lqsolve.control_reg.calls"] = (per_solve(solve_calls["control_reg"]), "count")
    out["linalg.rank_decisions.calls"] = (
        per_solve(sum(solve_calls[f] for f in RANK_DECISIONS)), "count")
    out["oracle.flat_variables"] = (median(flat_variables), "count")
    return out
