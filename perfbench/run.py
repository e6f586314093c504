"""cutslab benchmark: slab-march workloads through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wide_slab --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --self-test

Each measured solve runs ``Setup.build`` -> ``march`` -> ``xnorm_error`` of
the manufactured problem in a fresh child process (child.py) that imports
cutslab from ``src/`` of the checkout.  One client runs one child at a time
(closed loop), with BLAS/OpenMP threads pinned to 1.  A run starts solves
until ``--seconds`` have passed and reports medians over its children.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs pairs of an
untraced and a traced solve and prints the per-layer metrics of the traced
ones (see tracing.py) plus the tracing overhead.  Every answer goes through
the correctness gate below.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Workload choices and
which layer metric should move which end-to-end metric are in README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A quarter of the unit time interval, with a quarter of the slabs, keeps the
# slab length k of the T = 1 configurations (64, 2048 and 256 slabs): every
# slab does the same work, and a solve is short enough that a run's median is
# taken over many solves, which steadies it on a noisy machine.
FINAL_TIME = 0.25
OVERLAP_LENGTH = 0.25
DEFAULT_SEED = 0
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}

# Gate.  The default seed must reproduce reference.json (recorded at the
# commit that added this benchmark) to RTOL relative, with RTOL * x^2 as an
# absolute floor for components near zero: changing the BLAS thread count
# alone moved error_x by 2.6e-13 relative, a real defect by far more.  Other
# seeds move the overlap by less than a cell and must keep error_x within
# ACCURACY of the default seed's reference (sub-cell shifts moved it by < 1 %).
RTOL = 1e-9
ACCURACY = 0.05


@dataclass(frozen=True)
class Workload:
    n0: int  # background cells
    nG: int  # overlap cells
    N: int  # time slabs
    q: int  # temporal degree
    mu: float  # overlap velocity
    initial_left: float


WORKLOADS = {
    # few large slabs, moving: dense assembly and LU dominate march
    "wide_slab": Workload(512, 128, 16, 1, 0.6, 0.125),
    # many tiny slabs: per-slab overhead in assembly and SlabSolution.eval in the norm
    "long_march": Workload(64, 16, 512, 0, 0.6, 0.125),
    # stationary overlap, both interfaces mid-cell: identical slab matrices
    "stationary": Workload(256, 64, 64, 1, 0.0, 0.3),
}
TINY = Workload(16, 4, 2, 1, 0.6, 0.13)  # self-test only


def seeded_workload(name: str, base: Workload, seed: int) -> tuple[Workload, float]:
    """The workload for a seed, and the shift of initial_left in cells.

    The default seed gives the table above exactly; any other seed shifts
    initial_left by a uniform draw in [-1/2, 1/2) of a background cell.
    """
    if seed == DEFAULT_SEED:
        return base, 0.0
    shift = random.Random(f"{name}/{seed}").uniform(-0.5, 0.5)
    moved = Workload(**{**asdict(base), "initial_left": base.initial_left + shift / base.n0})
    return moved, shift


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def gate(result: dict, reference: dict, exact: bool) -> list[str]:
    """Problems with one solve's error norm; empty when it passes.

    ``exact``: compare error_x and every NormBreakdown component with the
    reference; otherwise only error_x, against the ACCURACY bound.
    """
    norm, x = result["norm"], result["error_x"]
    values = list(norm.values()) + [x]
    if not all(isinstance(v, float) and math.isfinite(v) and v >= 0 for v in values):
        return [f"non-finite or negative norm: error_x={x!r} {norm}"]
    ref_x = reference["error_x"]
    if not exact:
        if abs(x / ref_x - 1.0) > ACCURACY:
            return [f"error_x {x!r} differs from the reference {ref_x!r} by more than {ACCURACY:.0%}"]
        return []
    floor = RTOL * ref_x * ref_x
    wanted = {"error_x": ref_x, **reference["norm"]}
    got = {"error_x": x, **norm}
    out = []
    for key, ref in wanted.items():
        if key not in got:
            out.append(f"{key} missing from the result")
        elif abs(got[key] - ref) > RTOL * abs(ref) + floor:
            out.append(f"{key} = {got[key]!r}, reference {ref!r}")
    return out


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


class Fatal(Exception):
    """cutslab cannot be imported from the checkout's src/."""


class Runner:
    """Runs children one at a time and keeps the attempt and failure counts."""

    def __init__(self, workload: Workload, reference: dict | None, exact: bool):
        self.workload, self.reference, self.exact = workload, reference, exact
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.versions: dict = {}
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, mode: str) -> dict | None:
        """One child; the parsed result, or None when it failed (counted)."""
        cfg = {
            **asdict(self.workload),
            "T": FINAL_TIME,
            "length": OVERLAP_LENGTH,
            "mode": mode,
            "src": os.path.realpath(SRC),
        }
        self.attempted += 1
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(cfg)],
                env=self.env,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return self.fail(mode, f"timed out after {timeout:.0f} s")
        if proc.returncode == 4:
            raise Fatal(proc.stderr.strip())
        if proc.returncode != 0:
            return self.fail(mode, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return self.fail(mode, f"no result line in {proc.stdout[-500:]!r}")
        if not res["ok"]:
            return self.fail(mode, res["error"])
        self.versions = res.get("versions", self.versions)
        problems = res.get("span_problems", [])
        if self.reference is not None:
            problems += gate(res, self.reference, self.exact)
        if problems:
            return self.fail(mode, "; ".join(problems))
        return res

    def fail(self, mode: str, why: str) -> None:
        self.failed += 1
        print(f"  FAILED {mode} child: {why}")
        return None


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced run: solves until ``seconds`` pass."""
    solves = []
    while True:
        t0 = runner.elapsed()
        res = runner.child("solve")
        if res:
            solves.append(res)
            print(
                f"  solve {len(solves)}: setup {res['setup_s']:.3f} s  march {res['march_s']:.3f} s"
                f"  xnorm {res['xnorm_s']:.3f} s  error_x {res['error_x']!r}"
            )
        last = runner.elapsed() - t0
        if res is None or runner.elapsed() >= seconds or runner.elapsed() + last > RUN_LIMIT_S:
            break
    if not solves:
        return {}
    med = lambda key: statistics.median(r[key] for r in solves)
    print(f"  medians over {len(solves)} solves")
    return {
        "total_s": (med("total_s"), "s"),
        "march_s": (med("march_s"), "s"),
        "xnorm_s": (med("xnorm_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "dofs_per_s": (statistics.median(r["dofs"] / r["march_s"] for r in solves), "1/s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MiB"),
        "error_x": (med("error_x"), "norm"),
    }


LAYER_UNITS = {"_s": "s", "_ms_p50": "ms", "_bytes_computed": "B", "_ratio": "ratio", "_share": "ratio"}


def layer_unit(name: str) -> str:
    if name == "solver.rel_residual_max":
        return "ratio"
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Traced run: pairs of an untraced and a traced solve until ``seconds`` pass."""
    plain, traced = [], []
    while True:
        t0 = runner.elapsed()
        a = runner.child("solve")
        b = runner.child("trace")
        if a and b and a["error_x"] != b["error_x"]:
            runner.fail("trace", f"traced error_x {b['error_x']!r} != untraced {a['error_x']!r}")
            b = None
        if a:
            plain.append(a)
        if b:
            traced.append(b)
            for layer, why in b["absent"].items():
                print(f"  absent {layer}: {why}")
            parts = b["march_by_layer"]
            print(
                f"  pair {len(traced)}: untraced total {a['total_s']:.3f} s, traced total"
                f" {b['total_s']:.3f} s, {b['spans']} spans; traced march {b['layers']['trace.march_s']:.3f} s = "
                + " + ".join(f"{k} {v:.3f}" for k, v in sorted(parts.items()))
            )
        last = runner.elapsed() - t0
        if not (a and b) or runner.elapsed() >= seconds or runner.elapsed() + last > RUN_LIMIT_S:
            break
    if not (plain and traced):
        return {}
    names = sorted(set().union(*(t["layers"] for t in traced)))
    out = {
        n: (statistics.median_low(t["layers"][n] for t in traced if n in t["layers"]), layer_unit(n))
        for n in names
    }
    overhead = statistics.median(t["total_s"] for t in traced) - statistics.median(p["total_s"] for p in plain)
    out["trace.overhead_s"] = (overhead, "s")
    return out


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def execute(runner: Runner, seconds: float, trace: bool) -> dict:
    """Measure, print the metric table and return the result object."""
    metrics = measure_traced(runner, seconds) if trace else measure(runner, seconds)
    print(f"  versions {json.dumps(runner.versions)}")
    gate_kind = f"reference to {RTOL:g} relative" if runner.exact else f"error_x within {ACCURACY:.0%} of reference"
    print(f"  gate: {gate_kind}; {runner.failed} of {runner.attempted} children failed")
    print(f"  run time {runner.elapsed():.1f} s")
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value!r:>24} {unit}")
    return {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl, shift = seeded_workload(name, WORKLOADS[name], seed)
    runner = Runner(wl, load_reference()[name], exact=(seed == DEFAULT_SEED))
    print(f"cutslab benchmark: workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(
        f"  config n0={wl.n0} nG={wl.nG} N={wl.N} q={wl.q} mu={wl.mu} initial_left={wl.initial_left!r}"
        f" (shift {shift:+.6f} cell) T={FINAL_TIME} length={OVERLAP_LENGTH}"
    )
    print(f"  machine {json.dumps(machine())}")
    print(f"  threads {json.dumps(THREAD_ENV)}, one child at a time, closed loop with one client")
    return execute(runner, seconds, trace)


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def self_test() -> list[str]:
    """Run the whole harness on a tiny config; the problems found."""
    import tracing

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    runner = Runner(TINY, None, exact=True)
    plain = runner.child("solve")
    if plain is None:
        return ["tiny solve failed"]
    reference = {"error_x": plain["error_x"], "norm": plain["norm"]}
    for mode in ("plain", "traced"):
        out = execute(Runner(TINY, reference, exact=True), 0.1, trace=(mode == "traced"))
        wanted = spec["per_layer"] if mode == "traced" else spec["end_to_end"]
        if not out["correct"] or out["failed"]:
            problems.append(f"{mode} run not correct: {out['failed']} of {out['attempted']} failed")
        for m in wanted:
            got = out["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                problems.append(f"{mode} metric {m['name']} [{m['unit']}] missing or wrong: {got}")

    if gate(plain, reference, exact=True):
        problems.append("gate rejects an exact match")
    for key in ["error_x", *plain["norm"]]:
        bad = json.loads(json.dumps(reference))
        where = bad if key == "error_x" else bad["norm"]
        where[key] += 1e-6 * (where[key] if key == "error_x" else reference["error_x"] ** 2)
        if not gate(plain, bad, exact=True):
            problems.append(f"gate misses a perturbed reference {key}")
    if not gate(plain, {**reference, "error_x": plain["error_x"] * 1.1}, exact=False):
        problems.append("accuracy bound misses a 10% error_x change")
    if not gate({**plain, "error_x": float("nan")}, reference, exact=True):
        problems.append("gate misses a non-finite error_x")

    nested = [["a.x", -1, 0.0, 3.0], ["b.y", 0, 0.5, 1.5], ["c.z", 1, 0.6, 0.7]]
    if tracing.span_problems(nested):
        problems.append(f"span check rejects good nesting: {tracing.span_problems(nested)}")
    if not tracing.span_problems([["a.x", -1, 0.0, 1.0], ["b.y", 0, 0.5, 1.6]]):
        problems.append("span check misses a child longer than its parent")
    parts = tracing.layer_self_times(nested, "a.x")
    if abs(parts["a.x"] - 2.0) > 1e-12 or abs(sum(parts.values()) - 3.0) > 1e-12:
        problems.append(f"layer self times do not add up to the root span: {parts}")

    sys.path.insert(0, SRC)
    import numpy as np
    import scipy.sparse

    tr = tracing.Tracer()
    tracing.install(tr, [tracing.Hook("cutslab.geometry", "gone", "geometry.gone", ("geometry.gone_s",))])
    if "geometry.gone_s" not in tr.absent:
        problems.append("a hook with a missing target does not mark its metric absent")
    A = np.array([[4.0, 1.0, 0.0], [0.0, 3.0, 0.0], [1.0, 0.0, 2.0]])
    x, b = np.array([1.0, 2.0, 3.0]), np.array([6.0, 6.0, 7.5])
    S = scipy.sparse.csc_matrix(A)
    if {tracing.matrix_stats(S)[0], tracing.matrix_stats(A)[0]} != {5}:
        problems.append("dense and sparse matrices give different nonzero counts")
    if tracing.relative_residual(S, x, b) != tracing.relative_residual(A, x, b):
        problems.append("dense and sparse matrices give different residuals")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="run the harness on a tiny config and check it")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cutslab", "__init__.py")):
        print(f"no cutslab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            problems = self_test()
            for p in problems:
                print(f"self-test: {p}")
            print("self-test passed" if not problems else f"self-test FAILED ({len(problems)} problems)")
            return 1 if problems else 0
        if args.workload is None:
            ap.error("--workload is required")
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Fatal as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
