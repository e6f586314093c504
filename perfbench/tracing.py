"""Outside-in tracing of one cutslab solve.

The hooks wrap public names of the cutslab modules from here, so the library
itself carries no tracing code.  A module-level function is replaced in every
loaded ``cutslab`` module that binds it, so calls made through ``from .x
import f`` are caught too; a method is replaced on its class.  A hook whose
target no longer exists is skipped, and the metrics it feeds are reported as
absent instead of failing the run.

Spans are kept in memory as (name, parent index, start, end).  A span's layer
is the part of its name before the first dot (the cutslab module).  Self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MARCH = "solver.march"
XNORM = "norms.xnorm_error"
OBSERVE = "bench.observe"


class Tracer:
    """In-memory span recorder with named counters."""

    def __init__(self):
        self.spans: list = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: dict[str, str] = {}  # metric -> reason
        self.disabled: set[str] = set()  # hooks whose observer failed

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, parent, 0.0, 0.0]
        self.spans.append(span)
        self.stack.append(idx)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self.stack.pop()

    def inside(self, prefix: str) -> bool:
        return any(self.spans[i][0].startswith(prefix) for i in self.stack)

    def add(self, metric: str, value: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + value

    def peak(self, metric: str, value: float) -> None:
        self.counts[metric] = max(self.counts.get(metric, value), value)


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``)."""

    module: str
    attr: str
    span: Optional[str]  # None: count only, the time stays with the caller
    metrics: tuple = ()  # per-layer metrics that need this hook
    observe: Optional[Callable] = None  # (tracer, args, result) -> None

    def mark_absent(self, tracer: "Tracer", reason: str) -> None:
        for m in self.metrics:
            tracer.absent.setdefault(m, reason)


# ---------------------------------------------------------------------------
# observers: read what crossed a layer boundary, inside a bench.observe span
# ---------------------------------------------------------------------------


def _observe_geometry(tr: Tracer, args, geom) -> None:
    tr.add("geometry.events", len(geom.events))
    tr.add("geometry.cut_cells", len(geom.cut_cells))


def _observe_time_rule(tr: Tracer, args, result) -> None:
    if tr.inside("assembly."):
        tr.add("quadrature.time_points", len(result[0]))


def _observe_space(tr: Tracer, args, space) -> None:
    tr.add("spaces.dofs", space.n_cols)
    tr.peak("spaces.max_slab_dofs", space.n_cols)


def matrix_stats(A) -> tuple[int, int, int]:
    """(nonzeros, stored entries, bytes of the stored arrays) of a dense
    ndarray or a scipy.sparse matrix."""
    import scipy.sparse

    if scipy.sparse.issparse(A):
        arrays = [getattr(A, k, None) for k in ("data", "indices", "indptr", "row", "col", "offsets")]
        nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        return int(A.count_nonzero()), int(A.nnz), int(nbytes)
    A = np.asarray(A)
    return int(np.count_nonzero(A)), int(A.size), int(A.nbytes)


def relative_residual(A, x, b) -> float:
    """||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf), dense or sparse A."""
    x = np.asarray(x, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    r = np.asarray(A @ x).ravel() - b
    a_inf = float(np.max(np.asarray(abs(A).sum(axis=1)))) if x.size else 0.0
    denom = a_inf * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
    return float(np.linalg.norm(r, np.inf) / denom) if denom > 0 else 0.0


def _observe_system(tr: Tracer, args, system) -> None:
    nnz, stored, nbytes = matrix_stats(system.matrix)
    tr.add("assembly.nnz", nnz)
    tr.add("assembly.stored_entries", stored)
    tr.add("assembly.matrix_bytes_computed", nbytes)


def _observe_solve(tr: Tracer, args, x) -> None:
    system = args[0]
    tr.peak("solver.rel_residual_max", relative_residual(system.matrix, x, system.rhs))


HOOKS = (
    Hook("cutslab.core", "Setup.build", "core.setup_build", ("core.setup_build_s",)),
    Hook(
        "cutslab.geometry",
        "build_slab_geometry",
        "geometry.build_slab_geometry",
        ("geometry.build_s", "geometry.events", "geometry.cut_cells"),
        _observe_geometry,
    ),
    Hook(
        "cutslab.geometry",
        "spatial_partition",
        "geometry.spatial_partition",
        ("geometry.partition_calls", "geometry.partition_s"),
    ),
    Hook(
        "cutslab.quadrature",
        "composite_time_rule",
        None,
        ("quadrature.time_points",),
        _observe_time_rule,
    ),
    Hook(
        "cutslab.spaces",
        "build_slab_space",
        "spaces.build_slab_space",
        ("spaces.build_s", "spaces.dofs", "spaces.max_slab_dofs"),
        _observe_space,
    ),
    Hook(
        "cutslab.spaces",
        "SlabSolution.eval",
        "spaces.eval",
        ("spaces.eval_calls", "spaces.eval_s", "norms.eval_share"),
    ),
    Hook(
        "cutslab.assembly",
        "assemble_slab",
        "assembly.assemble_slab",
        (
            "assembly.slab_s",
            "assembly.slab_ms_p50",
            "assembly.nnz",
            "assembly.stored_entries",
            "assembly.fill_ratio",
            "assembly.matrix_bytes_computed",
        ),
        _observe_system,
    ),
    Hook(
        "cutslab.solver",
        "solve_slab",
        "solver.solve_slab",
        ("solver.solve_s", "solver.solve_calls", "solver.rel_residual_max"),
        _observe_solve,
    ),
)


def _wrapper(tracer: Tracer, hook: Hook, fn):
    span, observe = hook.span, hook.observe

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if span is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(span, fn, args, kwargs)
        if observe is not None and hook.attr not in tracer.disabled:
            try:
                tracer.call(OBSERVE, observe, (tracer, args, result), {})
            except (AttributeError, TypeError, ValueError, IndexError, KeyError) as exc:
                tracer.disabled.add(hook.attr)
                hook.mark_absent(tracer, f"observer of {hook.attr} failed: {exc!r}")
        return result

    return wrapped


def install(tracer: Tracer, hooks=HOOKS) -> None:
    """Wrap every hook target that exists; note the metrics of the others."""
    for hook in hooks:
        try:
            owner = importlib.import_module(hook.module)
            *outer, name = hook.attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError) as exc:
            hook.mark_absent(tracer, f"hook target {hook.module}.{hook.attr} missing: {exc}")
            continue
        if outer:  # method or classmethod on a class
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(_wrapper(tracer, hook, raw.__func__)))
            else:
                setattr(owner, name, _wrapper(tracer, hook, raw))
            continue
        wrapped = _wrapper(tracer, hook, raw)
        for modname, mod in list(sys.modules.items()):
            if modname == "cutslab" or modname.startswith("cutslab."):
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)


# ---------------------------------------------------------------------------
# reduction of the spans to per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def roots(spans) -> list[int]:
    """Index of the outermost ancestor of every span."""
    top = []
    for i, s in enumerate(spans):
        top.append(i if s[1] < 0 else top[s[1]])
    return top


def span_problems(spans, tol: float = 1e-9) -> list[str]:
    """Nesting violations: a child outside its parent's interval, longer than
    its parent, or a span with negative self time."""
    out = []
    own = self_times(spans)
    for i, (name, parent, t0, t1) in enumerate(spans):
        if t1 < t0:
            out.append(f"span {i} {name} ends before it starts")
        if own[i] < -tol:
            out.append(f"span {i} {name} has negative self time {own[i]:.3e}")
        if parent >= 0:
            p = spans[parent]
            if t0 < p[2] - tol or t1 > p[3] + tol or (t1 - t0) > (p[3] - p[2]) + tol:
                out.append(f"span {i} {name} escapes its parent {parent} {p[0]}")
    return out


def layer_self_times(spans, root_name: str) -> dict[str, float]:
    """Self time per layer of every span under the root span named
    ``root_name``; the root's own self time is keyed by its full name."""
    own = self_times(spans)
    top = roots(spans)
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        if spans[top[i]][0] == root_name:
            key = root_name if top[i] == i else s[0].split(".")[0]
            out[key] = out.get(key, 0.0) + own[i]
    return out


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from one traced solve (march then xnorm_error)."""
    spans = tracer.spans
    own = self_times(spans)
    top = roots(spans)
    dur = [s[3] - s[2] for s in spans]
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name, under=None):
        return sum(dur[i] for i in by_name.get(name, ()) if under is None or spans[top[i]][0] == under)

    march = by_name[MARCH][0]
    xnorm = by_name[XNORM][0]
    slabs = by_name.get("assembly.assemble_slab", [])
    out = {
        "core.setup_build_s": sum(dur[i] for i in by_name.get("core.setup_build", ()) if spans[i][1] < 0),
        "geometry.build_s": total("geometry.build_slab_geometry"),
        "geometry.partition_calls": len(by_name.get("geometry.spatial_partition", ())),
        "geometry.partition_s": total("geometry.spatial_partition"),
        "spaces.build_s": total("spaces.build_slab_space"),
        "spaces.eval_calls": len(by_name.get("spaces.eval", ())),
        "spaces.eval_s": total("spaces.eval"),
        "assembly.slab_s": sum(own[i] for i in slabs),
        "solver.solve_s": total("solver.solve_slab"),
        "solver.solve_calls": len(by_name.get("solver.solve_slab", ())),
        "solver.march_self_s": own[march],
        "norms.xnorm_self_s": own[xnorm],
        "norms.eval_share": total("spaces.eval", under=XNORM) / dur[xnorm],
        "trace.march_s": dur[march],
    }
    if slabs:
        out["assembly.slab_ms_p50"] = 1e3 * statistics.median(dur[i] for i in slabs)
    out.update(tracer.counts)
    if tracer.counts.get("assembly.stored_entries"):
        out["assembly.fill_ratio"] = tracer.counts["assembly.nnz"] / tracer.counts["assembly.stored_entries"]
    for m in tracer.absent:
        out.pop(m, None)
    return out
