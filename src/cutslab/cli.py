"""Command-line driver: single solves, convergence studies, CSV/SVG artifacts."""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .core import (
    Discretization,
    GeometryViolation,
    NumericalFailure,
    OverlapSpec,
    manufactured_problem,
    zero_problem,
)
from .norms import lls_slope, xnorm_error
from .solver import march

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

BREAKDOWN_COLUMNS = [
    "material_bg_sq",
    "material_ov_sq",
    "grad_sq",
    "flux_sq",
    "iface_jump_sq",
    "stab_sq",
    "time_jump_sq",
    "final_sq",
    "initial_sq",
    "moving_jump_sq",
]


class ConfigError(Exception):
    pass


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing field {where}.{key}")
    return cfg[key]


def _integer(value, where: str) -> int:
    """``value`` if it is a JSON integer; a float, string or boolean raises,
    as ``int()`` would truncate or convert it silently."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _real(value, where: str) -> float:
    """``value`` as a float if it is a JSON number; a boolean or string
    raises, as ``float()`` would take true as 1 and "0.25" as 0.25, and so
    does an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where} must be finite, got an integer too large for a float") from None


def _velocity_from_config(vcfg: dict):
    mode = _require(vcfg, "mode", "overlap.velocity")
    value = _real(_require(vcfg, "value", "overlap.velocity"), "overlap.velocity.value")
    if not math.isfinite(value):
        raise ConfigError(f"overlap.velocity.value must be finite, got {value}")
    if mode == "constant":
        return value
    if mode == "sin_demo":
        return lambda t: value * np.sin(2.0 * np.pi * t / 3.0)
    raise ConfigError(f"overlap.velocity.mode must be 'constant' or 'sin_demo', got {mode!r}")


def _problem_from_config(pcfg: dict):
    T = _real(_require(pcfg, "T", "problem"), "problem.T")
    manufactured = pcfg.get("manufactured", True)
    if not isinstance(manufactured, bool):
        raise ConfigError(f"problem.manufactured must be true or false, got {manufactured!r}")
    if manufactured:
        return manufactured_problem(final_time=T)
    return zero_problem(final_time=T)


def parse_config(cfg: dict):
    """Validate the JSON document and build the model objects it describes."""
    try:
        problem = _problem_from_config(_require(cfg, "problem", "config"))
        ocfg = _require(cfg, "overlap", "config")
        overlap = OverlapSpec(
            length=_real(_require(ocfg, "length", "overlap"), "overlap.length"),
            initial_left=_real(_require(ocfg, "initial_left", "overlap"), "overlap.initial_left"),
            velocity=_velocity_from_config(_require(ocfg, "velocity", "overlap")),
            velocity_mode=ocfg.get("velocity_mode", "sample"),
        )
        dcfg = _require(cfg, "discretization", "config")
        disc = Discretization(
            n_background=_integer(_require(dcfg, "n0", "discretization"), "discretization.n0"),
            n_overlap=_integer(_require(dcfg, "nG", "discretization"), "discretization.nG"),
            n_slabs=_integer(_require(dcfg, "N", "discretization"), "discretization.N"),
            q=_integer(dcfg.get("q", 0), "discretization.q"),
            gamma=_real(dcfg.get("gamma", 10.0), "discretization.gamma"),
            omega1=_real(dcfg.get("omega1", 0.5), "discretization.omega1"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return problem, overlap, disc


def _entry_config(cfg: dict, resolution: int) -> dict:
    """Per-sweep-entry discretization derived from the study section."""
    study = _require(cfg, "study", "config")
    sweep = _require(study, "sweep", "study")
    fixed = dict(study.get("fixed", {}))
    dcfg = dict(cfg.get("discretization", {}))
    dcfg.update(fixed)
    ocfg = _require(cfg, "overlap", "config")
    if sweep == "k":
        dcfg["N"] = int(resolution)
    elif sweep == "h":
        dcfg["n0"] = int(resolution)
        # keep the two mesh sizes comparable unless pinned explicitly
        if "nG" not in fixed:
            length = _real(_require(ocfg, "length", "overlap"), "overlap.length")
            dcfg["nG"] = max(1, round(int(resolution) * length))
    else:
        raise ConfigError(f"study.sweep must be 'k' or 'h', got {sweep!r}")
    out = dict(cfg)
    out["discretization"] = dcfg
    return out


def _run_entry(args):
    """Worker for one sweep entry; returns a CSV row dict."""
    cfg, resolution = args
    entry = _entry_config(cfg, resolution)
    problem, overlap, disc = parse_config(entry)
    t0 = time.perf_counter()
    sol = march(problem, overlap, disc)
    err = xnorm_error(sol, problem.exact)
    runtime = time.perf_counter() - t0
    row = {
        "resolution": resolution,
        "k": problem.final_time / disc.n_slabs,
        "h0": problem.length / disc.n_background,
        "hG": overlap.length / disc.n_overlap,
        "error_x": err.x,
        "error_b": err.b,
        "runtime_s": runtime,
    }
    for name in BREAKDOWN_COLUMNS:
        row[name] = getattr(err, name)
    return row


def _write_csv(path: Path, fieldnames, rows):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# minimal SVG log-log plot
# ---------------------------------------------------------------------------


def write_loglog_svg(path: Path, xs, ys, slope: float, ref_slope: float, title: str):
    """Scatter of (x, y) on log-log axes with the fitted and reference lines."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    W, H, pad = 480, 360, 50
    lx, ly = np.log10(xs), np.log10(ys)
    x0, x1 = lx.min(), lx.max()
    y0, y1 = ly.min(), ly.max()
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    sx = lambda v: pad + (v - x0) / (x1 - x0) * (W - 2 * pad)
    sy = lambda v: H - pad - (v - y0) / (y1 - y0) * (H - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W / 2:.0f}" y="20" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{pad}" y1="{H - pad}" x2="{W - pad}" y2="{H - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H - pad}" stroke="black"/>',
    ]
    # fitted line through the log-log centroid
    cx, cy = lx.mean(), ly.mean()
    for s, color, label in ((slope, "crimson", "fit"), (ref_slope, "gray", "reference")):
        ya, yb = cy + s * (x0 - cx), cy + s * (x1 - cx)
        parts.append(
            f'<line x1="{sx(x0):.1f}" y1="{sy(ya):.1f}" x2="{sx(x1):.1f}" '
            f'y2="{sy(yb):.1f}" stroke="{color}" stroke-dasharray="4 2"/>'
        )
        parts.append(
            f'<text x="{W - pad:.0f}" y="{sy(yb) - 4:.1f}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label} {s:.3f}</text>'
        )
    for x, y in zip(lx, ly):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="steelblue"/>')
    for v, txt in ((x0, f"{10 ** x0:.3g}"), (x1, f"{10 ** x1:.3g}")):
        parts.append(
            f'<text x="{sx(v):.1f}" y="{H - pad + 16}" text-anchor="middle" font-size="11">{txt}</text>'
        )
    for v in (y0, y1):
        parts.append(
            f'<text x="{pad - 6}" y="{sy(v) + 4:.1f}" text-anchor="end" font-size="11">{10 ** v:.3g}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_single(cfg: dict, out_dir: Path, quiet: bool = False) -> int:
    problem, overlap, disc = parse_config(cfg)
    sol = march(problem, overlap, disc)
    out_dir.mkdir(parents=True, exist_ok=True)

    nx, nt = 101, 2 * disc.n_slabs + 1
    xs = np.linspace(problem.x_lo, problem.x_hi, nx)
    ts = np.linspace(0.0, problem.final_time, nt)
    with open(out_dir / "solution.csv", "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x", "u"])
        for t in ts:
            vals = sol.eval(xs, float(t))
            for x, u in zip(xs, vals):
                writer.writerow([f"{t:.10g}", f"{x:.10g}", f"{u:.12g}"])

    setup = sol.setup
    rows = []
    for n in range(1, disc.n_slabs + 1):
        t0, t1 = setup.partition.slab_interval(n)
        rows.append(
            {
                "slab": n,
                "t_start": t0,
                "t_end": t1,
                "mu": float(setup.partition.velocities[n - 1]),
                "a_start": float(setup.a_breaks[n - 1]),
                "a_end": float(setup.a_breaks[n]),
            }
        )
    _write_csv(
        out_dir / "geometry.csv",
        ["slab", "t_start", "t_end", "mu", "a_start", "a_end"],
        rows,
    )
    if not quiet:
        print(f"wrote {out_dir / 'solution.csv'} and {out_dir / 'geometry.csv'}")
    return 0


def run_convergence(cfg: dict, out_dir: Path, quiet: bool = False, workers: int | None = None) -> int:
    study = _require(cfg, "study", "config")
    resolutions = _require(study, "resolutions", "study")
    try:
        resolutions = sorted(_integer(r, "study.resolutions") for r in resolutions)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"study.resolutions must be integers, got {resolutions!r}") from exc
    if not resolutions:
        raise ConfigError("study.resolutions must be nonempty")
    if len(set(resolutions)) < len(resolutions):
        raise ConfigError(f"study.resolutions must not repeat, got {study['resolutions']!r}")
    # the fit window is 1-based and inclusive over the sorted resolutions
    window = study.get("fit_window") or None
    i, j = 1, len(resolutions)
    if window is not None:
        try:
            i, j = (_integer(w, "study.fit_window") for w in window)
        except (TypeError, ValueError, ConfigError) as exc:
            raise ConfigError(f"study.fit_window must be two integers, got {window!r}") from exc
        if not 1 <= i < j <= len(resolutions):
            raise ConfigError(
                f"study.fit_window {window} needs 1 <= i < j <= {len(resolutions)} (the resolutions)"
            )
    sweep = _require(study, "sweep", "study")
    ref = _real(study.get("reference_slope", 1.0), "study.reference_slope")
    out_dir.mkdir(parents=True, exist_ok=True)

    rows, failures = [], []
    jobs = [(cfg, r) for r in resolutions]
    if workers is None:
        workers = min(4, len(jobs))
    results = {}
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # not needed by `solve`

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for r, res in zip(resolutions, pool.map(_run_entry_safe, jobs)):
                results[r] = res
    else:
        for job in jobs:
            results[job[1]] = _run_entry_safe(job)

    for r in resolutions:
        res = results[r]
        if isinstance(res, dict):
            rows.append(res)
            if not quiet:
                print(
                    f"resolution {r}: error_x {res['error_x']:.6e} "
                    f"({res['runtime_s']:.2f}s)"
                )
        else:
            failures.append((r, res))
            if not quiet:
                print(f"resolution {r}: FAILED ({res})")

    fieldnames = ["resolution", "k", "h0", "hG", "error_x", "error_b"] + BREAKDOWN_COLUMNS + [
        "runtime_s"
    ]
    _write_csv(out_dir / "convergence.csv", fieldnames, rows)

    key = "k" if sweep == "k" else "h0"
    fit = resolutions[i - 1 : j]
    if len(fit) < 2:
        return EXIT_NUMERICAL if failures else 0
    try:
        failed = [r for r in fit if not isinstance(results[r], dict)]
        if failed:
            raise ValueError(f"resolutions {failed} in the fit window [{i}, {j}] failed")
        slope = lls_slope([(results[r][key], results[r]["error_x"]) for r in fit])
    except ValueError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    points = [(row[key], row["error_x"]) for row in rows]
    title = f"{sweep}-sweep, fitted slope {slope:.4f}"
    write_loglog_svg(out_dir / "convergence.svg", *zip(*points), slope, ref, title)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"sweep": sweep, "slope": slope, "n_ok": len(rows), "n_failed": len(failures)},
            fh,
            indent=2,
        )
        fh.write("\n")
    if not quiet:
        print(f"fitted slope: {slope:.4f}")
    return EXIT_NUMERICAL if failures else 0


def _run_entry_safe(args):
    try:
        return _run_entry(args)
    except (GeometryViolation, NumericalFailure, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _output_dir(cfg: dict) -> Path:
    """The ``output.dir`` of the config, ``out`` by default."""
    ocfg = cfg.get("output", {})
    if not isinstance(ocfg, dict):
        raise ConfigError(f"output must be a JSON object, got {ocfg!r}")
    where = ocfg.get("dir", "out")
    if not isinstance(where, str):
        raise ConfigError(f"output.dir must be a string, got {where!r}")
    return Path(where)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cutslab",
        description="Space-time cut finite element solver for the heat equation "
        "on overlapping meshes",
    )
    parser.add_argument("command", choices=["solve", "converge"])
    parser.add_argument("config", type=Path)
    parser.add_argument("--output-dir", type=Path, default=None)
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")

    try:
        cfg = json.loads(args.config.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"malformed config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if not isinstance(cfg, dict):
            raise ConfigError(f"the config must be a JSON object, got a {type(cfg).__name__}")
        out_dir = args.output_dir if args.output_dir is not None else _output_dir(cfg)
        if args.command == "solve":
            return run_single(cfg, out_dir, quiet=args.quiet)
        return run_convergence(cfg, out_dir, quiet=args.quiet, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GeometryViolation, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
