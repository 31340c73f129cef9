"""End-to-end and per-layer benchmark of the lqpencil solve pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-batch --seed 1 --seconds 35 --trace 0

One client in one process drives the workload as a closed loop, with
BLAS pinned to one thread.  For every generated problem it times three
operations a user of the library performs:

    solve    validate -> iterate_grde -> split_inputs
             -> reachability_decomposition -> solve_with_decomposition
    analyze  generalized_spectrum and canonical_form of that decomposition
    oracle   flatten -> solve_flat -> projected_gradient_norm

Every round attempts the same operations on the same problems, and a
run measures whole rounds for about ``--seconds`` seconds.  Runs of a
fixed numpy speed probe that does not touch the program follow every
timed operation, and each operation's time is divided by the median
time per probe pass of the probe runs within PROBE_WINDOW_S of it: the
shared machine's speed drifts by up to 1.8x within seconds, and the
ratio tracks the program's own cost.  Latency figures take for each
problem the median of these ratios over its repeats, then the median
or 90th percentile over problems, and give them in seconds at the
reference speed (one probe pass in ``PROBE_PASS_S``).  Outputs are
checked against an independent stage-wise KKT reference
(``reference.py``).  With ``--trace 1`` the first half of the run is
untraced and the second half traced (``tracing.py``); the run reports
the per-layer figures and the difference between the two halves as the
tracing overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("desk-batch", "long-horizon", "wide-state")
# Seconds one pass of each part of the speed probe takes at the
# reference speed (see SpeedProbe); the least seconds a probe runs,
# short for the millisecond operations of desk-batch and longer where
# operations take tens of milliseconds to seconds; and the share of an
# operation's time that the probe after it runs at least, so that it
# samples the drift over a comparable stretch.
PROBE_PASS_S = {"small": 2.0e-4, "blas": 2.5e-3}
PROBE_MIN_S = {"desk-batch": 2.0e-4, "long-horizon": 8.0e-3, "wide-state": 2.0e-3}
PROBE_SHARE = 0.05
# An operation's speed is the median of the probe runs from this many
# seconds before it starts to this many after it ends: one probe run is
# too short to average out the machine's jitter, and the drift is
# slower than this.
PROBE_WINDOW_S = 1.0
# The probe part that scales each operation; "small" where not named.
# The dense oracle of long-horizon spends its time in LAPACK calls on
# matrices of a few hundred rows, which the machine's drift moves less
# than small-matrix work.  Wide-state solves spend theirs in the
# Kronecker Lyapunov solve on matrices of up to 1600 rows, which
# neither part tracks: scaling them added noise in trials, so they are
# reported in plain wall-clock seconds (None).
PROBE_PART = {("long-horizon", "oracle"): "blas", ("wide-state", "solve"): None}
# Analyze and oracle repeats per problem and round: on long-horizon and
# wide-state a round is dominated by its few large solves, and the
# cheaper operations need more repeats for a steady median.
REPEATS = {"desk-batch": 1, "long-horizon": 3, "wide-state": 3}
# Six more set-ups run in fresh interpreters; set-up time is the median
# of the seven.
SETUP_REPEATS = 6
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.generate(sys.argv[3], int(sys.argv[4]))
elapsed = time.perf_counter() - start
import run
print(run.SpeedProbe(float(sys.argv[5])).scale_now(elapsed))
"""


class SpeedProbe:
    """Fixed numpy kernels that time the machine, not the program.

    One pass of the "small" part runs an SVD, a linear solve and a
    product on each of eight 5 x 5 matrices: interpreter overhead plus
    small LAPACK calls, like most of the program's operations.  One
    pass of the "blas" part runs a solve, a product and a QR of one
    200 x 200 matrix.  The probe runs after every operation and keeps
    the time and the seconds per pass of each run; ``scale`` turns the
    time of an operation into seconds at the reference speed, using the
    runs of the same part around it.
    """

    def __init__(self, min_s):
        import numpy as np
        rng = np.random.default_rng(20260101)
        self.np = np
        self.min_s = min_s
        self.mats = [rng.normal(size=(5, 5)) for _ in range(8)]
        self.eye = 5.0 * np.eye(5)
        self.big = rng.normal(size=(200, 200))
        self.big_shifted = self.big + 200.0 * np.eye(200)
        self.runs = {part: ([], []) for part in PROBE_PASS_S}
        self.sample_all()            # the first run loads the LAPACK routines
        self.runs = {part: ([], []) for part in PROBE_PASS_S}

    def _pass(self, part):
        np = self.np
        if part == "small":
            for M in self.mats:
                np.linalg.svd(M)
                np.linalg.solve(M + self.eye, M[0])
                M @ M.T
        else:
            np.linalg.solve(self.big_shifted, self.big[0])
            self.big @ self.big.T
            np.linalg.qr(self.big)

    def sample(self, part, after=0.0):
        """Runs one part of the probe for at least ``min_s`` seconds and
        at least PROBE_SHARE of ``after`` seconds at the reference speed;
        returns its seconds per pass and keeps it with the run's midpoint."""
        seconds = max(self.min_s, PROBE_SHARE * after)
        passes = max(1, math.ceil(seconds / PROBE_PASS_S[part]))
        start = time.perf_counter()
        for _ in range(passes):
            self._pass(part)
        end = time.perf_counter()
        per_pass = (end - start) / passes
        mids, per = self.runs[part]
        mids.append(0.5 * (start + end))
        per.append(per_pass)
        return per_pass

    def sample_all(self):
        for part in PROBE_PASS_S:
            self.sample(part)

    def scale(self, elapsed, start, part):
        """Seconds at the reference speed of ``elapsed`` seconds measured
        from ``start``, by the probe runs of ``part`` around them."""
        mids, per = self.runs[part]
        lo = bisect.bisect_left(mids, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(mids, start + elapsed + PROBE_WINDOW_S)
        around = per[lo:hi] or per[max(0, lo - 1):lo + 1]
        return elapsed / statistics.median(around) * PROBE_PASS_S[part]

    def scale_now(self, elapsed):
        """Seconds at the reference speed of ``elapsed`` seconds that
        have just ended, by three fresh runs of the small part."""
        per = statistics.median(self.sample("small", elapsed) for _ in range(3))
        return elapsed / per * PROBE_PASS_S["small"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


class Tally:
    """Latencies of successful operations and failures per kind.

    ``spans[kind]`` lists (problem id, start, wall-clock seconds, probe
    part) of every successful repeat of an operation; ``finish`` turns
    them into ``times[kind][pid]``, the probe-scaled seconds of the
    repeats on one problem, and ``per_problem`` takes their median.
    """

    def __init__(self):
        self.spans = defaultdict(list)
        self.times = defaultdict(lambda: defaultdict(list))
        self.wall = defaultdict(lambda: defaultdict(list))
        self.attempted = Counter()
        self.failed = defaultdict(Counter)

    def ok(self, kind, pid, span):
        self.attempted[kind] += 1
        self.spans[kind].append((pid, *span))

    def finish(self, probe):
        for kind, spans in self.spans.items():
            for pid, start, elapsed, part in spans:
                self.times[kind][pid].append(
                    elapsed if part is None else probe.scale(elapsed, start, part))
                self.wall[kind][pid].append(elapsed)
        return self

    def fail(self, kind, key):
        self.attempted[kind] += 1
        self.failed[kind][key] += 1

    def add_counts(self, other):
        self.attempted += other.attempted
        for kind, keys in other.failed.items():
            self.failed[kind] += keys

    def per_problem(self, kind):
        return [statistics.median(v) for v in self.times[kind].values()]

    def p50(self, kind):
        return statistics.median(self.per_problem(kind))

    def wall_p50(self, kind):
        """Median over problems of the median wall-clock seconds."""
        return statistics.median(statistics.median(v) for v in self.wall[kind].values())


class Client:
    """Runs the three operations on each case and checks every output."""

    def __init__(self, lq, reference, cases, optima, probe, workload, tracer=None):
        self.lq = lq
        self.probe = probe
        self.workload = workload
        self.repeats = REPEATS[workload]
        self.reference = reference
        self.cases = cases
        self.optima = optima
        self.tracer = tracer
        self.wrong = []          # unexpected wrong outputs on seeded cases
        self.flat_variables = []

    def _timed(self, kind, case, fn):
        """Runs ``fn`` and then the probe; returns the output and the span
        (start, wall-clock seconds, probe part).  A failing ``fn`` is
        followed by a probe too, so every round runs the same probes."""
        start = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn()
            else:
                with self.tracer.span(f"op.{kind}", case.pid):
                    out = fn()
        finally:
            elapsed = time.perf_counter() - start
            part = PROBE_PART.get((self.workload, kind), "small")
            if part is not None:
                self.probe.sample(part, elapsed)
        return out, (start, elapsed, part)

    def _verdict(self, tally, kind, case, span, faults):
        if not faults:
            tally.ok(kind, case.pid, span)
            return
        tally.fail(kind, "check:" + "+".join(faults))
        if case.fault is None:
            self.wrong.append((kind, case.pid, case.family, faults))

    def run_round(self, tally):
        for case in self.cases:
            dec = self._solve(tally, case)
            for _ in range(self.repeats):
                self._analyze(tally, case, dec)
                if case.oracle:
                    self._oracle(tally, case)

    def _solve(self, tally, case):
        lq, p, holder = self.lq, case.problem, {}

        def solve():
            lq.model.validate(p)
            cert = lq.riccati.iterate_grde(p.triple)
            split = lq.riccati.split_inputs(cert)
            holder["dec"] = lq.pencil.reachability_decomposition(cert, split)
            return lq.lqsolve.solve_with_decomposition(p, holder["dec"])

        try:
            sol, span = self._timed("solve", case, solve)
        except Exception as exc:  # every failure is counted, by type
            tally.fail("solve", type(exc).__name__)
            return holder.get("dec")
        faults = self.reference.trajectory_faults(case.inst, sol.x, sol.u, sol.cost,
                                                  self.optima[case.pid].cost)
        if case.cyclic_h is not None:
            faults += self.reference.cyclic_faults(case.cyclic_h, sol.x[0], sol.cost)
        self._verdict(tally, "solve", case, span, faults)
        return holder["dec"]

    def _analyze(self, tally, case, dec):
        lq = self.lq
        if dec is None:
            tally.fail("analyze", "no-decomposition")
            return

        def analyze():
            return (lq.pencil.generalized_spectrum(dec), lq.pencil.canonical_form(dec))

        try:
            (spectrum, canonical), span = self._timed("analyze", case, analyze)
        except Exception as exc:
            tally.fail("analyze", type(exc).__name__)
            return
        size = 2 * case.inst.n + case.inst.m
        faults = []
        if case.normal_rank is not None and spectrum.normal_rank != case.normal_rank:
            faults.append("normal-rank")
        if canonical.N.shape != (size, size) or canonical.M.shape != (size, size):
            faults.append("canonical-shape")
        self._verdict(tally, "analyze", case, span, faults)

    def _oracle(self, tally, case):
        lq, p = self.lq, case.problem

        def oracle():
            qp = lq.oracle.flatten(p)
            z, cost, feasible = lq.oracle.solve_flat(qp)
            lq.oracle.projected_gradient_norm(qp, z)
            return qp.dim, cost, feasible

        try:
            (dim, cost, feasible), span = self._timed("oracle", case, oracle)
        except Exception as exc:
            tally.fail("oracle", type(exc).__name__)
            return
        self.flat_variables.append(dim)
        faults = []
        if not feasible:
            faults.append("infeasible")
        elif not self.reference.costs_match(cost, self.optima[case.pid].cost):
            faults.append("cost-vs-reference")
        self._verdict(tally, "oracle", case, span, faults)


def measure(client, seconds):
    """Whole rounds for about ``seconds``: another round starts only
    while the elapsed time plus one mean round stays within it.
    Returns the tally and the duration of each round."""
    tally = Tally()
    client.probe.sample_all()
    start = time.perf_counter()
    rounds = []
    while True:
        client.run_round(tally)
        rounds.append(time.perf_counter() - start - sum(rounds))
        elapsed = sum(rounds)
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return tally.finish(client.probe), rounds


def setup_seconds(first, workload, seed):
    """Median of this process's set-up and SETUP_REPEATS fresh ones, each
    scaled by a probe run right after it."""
    samples = [first]
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed),
             str(PROBE_MIN_S[workload])],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def end_to_end(tally, setup_s):
    solves = tally.per_problem("solve")
    return {
        "solve_p50_s": (tally.p50("solve"), "s"),
        "solve_p90_s": (statistics.quantiles(solves, n=10, method="inclusive")[-1], "s"),
        "solves_per_s": (len(solves) / sum(solves), "1/s"),
        "analyze_p50_s": (tally.p50("analyze"), "s"),
        "oracle_p50_s": (tally.p50("oracle"), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    setup_start = time.perf_counter()
    try:
        import lqpencil
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(lqpencil.__file__).resolve().parent.parent != SRC:
        print(f"lqpencil was imported from {lqpencil.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    cases = workloads.generate(args.workload, args.seed)
    first_setup = time.perf_counter() - setup_start
    probe = SpeedProbe(PROBE_MIN_S[args.workload])
    setup_s = setup_seconds(probe.scale_now(first_setup), args.workload, args.seed)

    import reference
    import tracing
    optima = {case.pid: reference.solve(case.inst) for case in cases}
    # Warm-up: the first case once, so that lazy initialisation of the
    # linear-algebra libraries is not timed.
    Client(lqpencil, reference, cases[:1], optima, probe, args.workload).run_round(Tally())

    client = Client(lqpencil, reference, cases, optima, probe, args.workload)
    tally, rounds = measure(client, args.seconds / (2 if args.trace else 1))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cases": len(cases),
              "known_fault_cases": sum(c.fault is not None for c in cases),
              "round_s": [round(r, 3) for r in rounds],
              "wall_p50_s": {kind: round(tally.wall_p50(kind), 6)
                             for kind in ("solve", "analyze", "oracle")},
              **environment()}
    if args.trace:
        tracer = tracing.Tracer()
        traced = Client(lqpencil, reference, cases, optima, probe, args.workload, tracer)
        tracer.install(lqpencil)
        try:
            traced_tally, traced_rounds = measure(traced, args.seconds / 2)
        finally:
            tracer.remove()
        client.wrong += traced.wrong
        metrics = tracing.layer_metrics(tracer.spans, traced_tally.attempted["solve"],
                                        traced.flat_variables)
        # In wall-clock seconds: the tracer's growing span list slows the
        # speed probe as much as the program, so the scaled figures of the
        # traced half hide the overhead.
        for kind in ("solve", "analyze", "oracle"):
            metrics[f"tracing.overhead.{kind}_p50_s"] = (
                traced_tally.wall_p50(kind) - tally.wall_p50(kind), "s")
        tally.add_counts(traced_tally)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.csv")
        report.update(traced_round_s=[round(r, 3) for r in traced_rounds],
                      spans=len(tracer.spans))
    else:
        metrics = end_to_end(tally, setup_s)

    report["operations"] = {
        kind: {"attempted": tally.attempted[kind], "failed": dict(tally.failed[kind])}
        for kind in ("solve", "analyze", "oracle")}
    report["unexpected_wrong_outputs"] = client.wrong[:20]
    for key, value in report.items():
        print(f"{key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    result = {
        "correct": not client.wrong,
        "attempted": sum(tally.attempted.values()),
        "failed": sum(sum(keys.values()) for keys in tally.failed.values()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
