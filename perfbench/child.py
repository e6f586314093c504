"""One measured cutslab solve in a fresh process.

Usage: python3 child.py '<json config>'

The config gives the discretization (n0, nG, N, q), the overlap (length,
initial_left, mu), the final time T, the ``src`` directory to import cutslab
from, and the mode: ``solve`` (march + xnorm_error) or ``trace`` (the same
solve with the outside-in hooks of tracing.py installed).  The last line of standard output is one JSON
object.  Exit codes: 0 result printed (``ok`` false when the solver raised
GeometryViolation or NumericalFailure), 4 cutslab not importable from
``src``, anything else a crash.
"""

import json
import os
import sys
import time

T0 = time.perf_counter()  # set-up is timed from here: import cutslab + Setup.build


def main() -> int:
    cfg = json.loads(sys.argv[1])
    try:
        import cutslab
    except ImportError as exc:
        print(f"cannot import cutslab from {cfg['src']}: {exc}", file=sys.stderr)
        return 4
    if not os.path.realpath(cutslab.__file__).startswith(cfg["src"]):
        print(f"cutslab imported from {cutslab.__file__}, not {cfg['src']}", file=sys.stderr)
        return 4

    import dataclasses
    import resource

    tracer = None
    if cfg["mode"] == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    problem = cutslab.manufactured_problem(cfg["T"])
    overlap = cutslab.OverlapSpec(cfg["length"], cfg["initial_left"], cfg["mu"])
    disc = cutslab.Discretization(cfg["n0"], cfg["nG"], cfg["N"], q=cfg["q"])
    out = {"ok": True}
    try:
        cutslab.Setup.build(problem, overlap, disc)
        out["setup_s"] = time.perf_counter() - T0
        out["versions"] = versions()
        t1 = time.perf_counter()
        if tracer is None:
            sol = cutslab.march(problem, overlap, disc)
            t2 = time.perf_counter()
            norm = cutslab.xnorm_error(sol, problem.exact)
        else:
            sol = tracer.call(tracing.MARCH, cutslab.march, (problem, overlap, disc), {})
            t2 = time.perf_counter()
            norm = tracer.call(tracing.XNORM, cutslab.xnorm_error, (sol, problem.exact), {})
        t3 = time.perf_counter()
    except (cutslab.GeometryViolation, cutslab.NumericalFailure) as exc:
        print(json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}"}))
        return 0

    out.update(
        march_s=t2 - t1,
        xnorm_s=t3 - t2,
        total_s=t3 - t1,
        dofs=sum(s.space.n_cols for s in sol.slabs),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        error_x=norm.x,
        norm={f.name: getattr(norm, f.name) for f in dataclasses.fields(norm)},
    )
    if tracer is not None:
        out["layers"] = tracing.per_layer(tracer)
        out["absent"] = tracer.absent
        parts = tracing.layer_self_times(tracer.spans, tracing.MARCH)
        out["march_by_layer"] = parts
        out["span_problems"] = tracing.span_problems(tracer.spans)[:20]
        if abs(sum(parts.values()) - out["layers"]["trace.march_s"]) > 1e-6:
            out["span_problems"].append(f"layer self times {parts} do not add up to march")
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


def versions() -> dict:
    """Interpreter, numpy, scipy and BLAS build as the child sees them."""
    import platform

    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


if __name__ == "__main__":
    sys.exit(main())
