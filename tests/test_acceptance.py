"""End-to-end acceptance suite.

Each test evaluates one acceptance criterion, records a one-line verdict for
the terminal summary, and then asserts.  The convergence studies in criterion
1 dominate the runtime of the whole test suite (a few minutes).
"""

import math
import time

import numpy as np
import pytest

from cutslab.assembly import assemble_slab
from cutslab.core import manufactured_problem, zero_problem
from cutslab.geometry import build_slab_geometry
from cutslab.norms import lls_slope, xnorm_error
from cutslab.quadrature import composite_time_rule, gauss_legendre3, lobatto3
from cutslab.solver import march, solve_slab
from cutslab.spaces import SlabSolution, build_slab_space, temporal_basis_values

from conftest import make_setup, random_discrete, record_acceptance
from oracles import (
    apply_Bh,
    apply_load,
    asm_bilinear,
    jump_load,
    oracle_bilinear,
    upwind_matrix,
)

EXACT = manufactured_problem().exact


def _sweep_error(q, mu, n0, nG, N):
    setup = make_setup(n0=n0, nG=nG, N=N, q=q, mu=mu)
    sol = march(setup.problem, setup.overlap, setup.disc)
    return xnorm_error(sol, EXACT).x


def _run_study(q, sweep, mu):
    """One convergence study; returns (slope, elapsed seconds)."""
    t0 = time.perf_counter()
    points = []
    if sweep == "k":
        resolutions = [8, 16, 32, 64, 128, 256, 512] if q == 0 else [4, 8, 16, 32, 64, 128]
        for N in resolutions:
            points.append((1.0 / N, _sweep_error(q, mu, 512, 128, N)))
        if q == 0:
            window = (1, 4)
        else:
            # The piecewise-linear-in-time error drops below the fixed-mesh
            # spatial floor within the sweep; remove the floor (the plateaued
            # finest-resolution error) in quadrature before fitting.
            floor = points[-1][1]
            assert points[-1][1] > 0.9 * points[-2][1], "no spatial plateau"
            points = [
                (k, math.sqrt(max(e * e - floor * floor, 0.0))) for k, e in points
            ]
            window = (1, 3)
    else:
        resolutions = [8, 16, 32, 64, 128, 256]
        N = 2048 if q == 0 else 256
        for n0 in resolutions:
            points.append((1.0 / n0, _sweep_error(q, mu, n0, max(1, n0 // 4), N)))
        window = (1, 5) if q == 0 else None
    slope = lls_slope(points, window)
    return slope, time.perf_counter() - t0


class TestCriterion1Convergence:
    def test_convergence_orders(self):
        studies = [
            # (q, sweep, slope window, runtime limit seconds)
            (0, "k", (0.40, 0.62), 120.0),
            (1, "k", (1.35, 1.65), 180.0),
            (0, "h", (0.90, 1.10), 180.0),
            (1, "h", (0.90, 1.10), 180.0),
        ]
        lines = []
        ok = True
        for q, sweep, (lo, hi), limit in studies:
            for mu in (0.6, 0.0, 0.2):
                slope, elapsed = _run_study(q, sweep, mu)
                good = lo <= slope <= hi and elapsed < limit
                ok = ok and good
                lines.append(f"q={q} {sweep}-sweep mu={mu}: {slope:.3f} ({elapsed:.0f}s)")
        detail = "; ".join(lines)
        record_acceptance(1, ok, detail)
        assert ok, detail


class TestCriterion2Oracle:
    def test_single_slab_matches_brute_force(self, rng):
        worst = 0.0
        for q in (0, 1):
            for mu in (0.0, 0.6):
                setup = make_setup(
                    n0=3, nG=1, N=1, q=q, mu=mu, a0=0.3, length=0.25, T=0.25
                )
                w = random_discrete(setup, rng)
                v = random_discrete(setup, rng)
                ref = oracle_bilinear(w, v)
                got = asm_bilinear(w, v)
                worst = max(worst, abs(got - ref) / max(abs(ref), 1.0))
        ok = worst <= 1e-10
        detail = f"max relative assembly-vs-oracle deviation {worst:.2e} (tol 1e-10)"
        record_acceptance(2, ok, detail)
        assert ok, detail


class TestCriterion3FormIdentity:
    def test_fifty_random_pairs(self):
        rng = np.random.default_rng(2024)
        configs = [
            dict(n0=8, nG=2, N=3, q=0, mu=0.6, a0=0.125),
            dict(n0=10, nG=3, N=2, q=1, mu=0.35, a0=0.2),
            dict(n0=6, nG=2, N=2, q=1, mu=-0.3, a0=0.55),
            dict(n0=12, nG=4, N=3, q=0, mu=0.0, a0=0.3),
            dict(n0=9, nG=2, N=4, q=1, mu=0.5, a0=0.1),
        ]
        worst = 0.0
        for cfg in configs:
            setup = make_setup(**cfg)
            for _ in range(10):
                w = random_discrete(setup, rng)
                v = random_discrete(setup, rng)
                std = apply_Bh(w, v, form="standard")
                alt = apply_Bh(w, v, form="alternative")
                worst = max(worst, abs(std - alt) / max(abs(std), 1.0))
        ok = worst <= 1e-9
        detail = f"max form-identity deviation {worst:.2e} over 50 pairs (tol 1e-9)"
        record_acceptance(3, ok, detail)
        assert ok, detail


class TestCriterion4Coercivity:
    def test_quadratic_form_controls_energy_norm(self):
        rng = np.random.default_rng(99)
        configs = [
            dict(n0=16, nG=4, N=8, q=0, mu=0.6, a0=0.125),
            dict(n0=32, nG=8, N=8, q=1, mu=0.2, a0=0.125),
            dict(n0=16, nG=4, N=16, q=1, mu=-0.45, a0=0.7),
            dict(n0=32, nG=8, N=16, q=0, mu=0.0, a0=0.3),
            dict(n0=16, nG=4, N=8, q=1, mu=0.6, a0=0.125),
        ]
        worst = np.inf
        for cfg in configs:
            setup = make_setup(zero=True, **cfg)
            q = setup.disc.q
            slabs = []
            for n in range(1, setup.disc.n_slabs + 1):
                geom = build_slab_geometry(setup, n)
                space = build_slab_space(geom, setup.disc)
                system = assemble_slab(space, setup, None)
                lam0 = temporal_basis_values(q, geom.t_start, geom.t_end, geom.t_start)
                slabs.append((geom, space, system.matrix, lam0))
            for _ in range(40):
                v = random_discrete(setup, rng)
                quad = 0.0
                for n, (geom, space, A, lam0) in enumerate(slabs):
                    c = v.slabs[n].coeffs
                    quad += float(c @ A @ c)
                    if n > 0:
                        uvec = jump_load(space, setup, v.slabs[n - 1])
                        quad -= float(v.slabs[n].by_mode @ lam0 @ uvec)
                b_sq = xnorm_error(v).b_sq
                worst = min(worst, quad / b_sq)
        ok = worst >= 0.01
        detail = f"min B(v,v)/|v|_B^2 = {worst:.4f} over 200 vectors (floor 0.01)"
        record_acceptance(4, ok, detail)
        assert ok, detail


class TestCriterion5GalerkinResidual:
    def test_per_slab_row_residuals(self, rng):
        worst = 0.0
        for q in (0, 1):
            setup = make_setup(n0=16, nG=4, N=4, q=q, mu=0.6)
            prev = None
            for n in range(1, setup.disc.n_slabs + 1):
                geom = build_slab_geometry(setup, n)
                space = build_slab_space(geom, setup.disc)
                system = assemble_slab(space, setup, prev)
                coeffs = solve_slab(system)
                scale = (
                    np.linalg.norm(system.matrix.toarray(), np.inf) * np.max(np.abs(coeffs))
                    + np.max(np.abs(system.rhs))
                )
                res = np.max(np.abs(system.matrix @ coeffs - system.rhs))
                worst = max(worst, res / scale)
                prev = SlabSolution(space, coeffs)
        # the global variational identity closes on a random test function
        setup = make_setup(n0=8, nG=2, N=3, q=1, mu=0.6)
        u_h = march(setup.problem, setup.overlap, setup.disc)
        v = random_discrete(setup, rng)
        gap = abs(apply_Bh(u_h, v) - apply_load(v)) / max(abs(apply_load(v)), 1.0)
        worst = max(worst, gap)
        ok = worst <= 1e-9
        detail = f"max scaled residual {worst:.2e} (tol 1e-9)"
        record_acceptance(5, ok, detail)
        assert ok, detail


class TestCriterion6Quadrature:
    def test_exactness(self):
        rng = np.random.default_rng(5)
        worst = 0.0

        def rel(got, ref):
            return abs(got - ref) / max(abs(ref), 1.0)

        # Lobatto-3 on cubics, Gauss-3 on quintics
        for _ in range(20):
            c = rng.uniform(-2, 2, 6)
            ref3 = sum(c[p] / (p + 1) for p in range(4))
            rule = lobatto3()
            got3 = np.sum(rule.weights * sum(c[p] * rule.nodes**p for p in range(4)))
            worst = max(worst, rel(got3, ref3))
            ref5 = sum(c[p] / (p + 1) for p in range(6))
            rule = gauss_legendre3()
            got5 = np.sum(rule.weights * sum(c[p] * rule.nodes**p for p in range(6)))
            worst = max(worst, rel(got5, ref5))
        # composite rules over randomly split intervals stay exact on cubics
        for _ in range(20):
            events = np.sort(rng.uniform(0.1, 0.9, rng.integers(0, 4)))
            c = rng.uniform(-2, 2, 4)
            for base in (lobatto3(), gauss_legendre3()):
                t, w = composite_time_rule([0.0], [1.0], [events], base)
                got = float(np.sum(w * sum(c[p] * t**p for p in range(4))))
                ref = sum(c[p] / (p + 1) for p in range(4))
                worst = max(worst, rel(got, ref))
        ok = worst <= 1e-13
        detail = f"max relative quadrature error {worst:.2e} (tol 1e-13)"
        record_acceptance(6, ok, detail)
        assert ok, detail


class TestCriterion7TrivialLimits:
    def test_degenerate_configurations(self):
        checks = []
        # zero data: identically zero discrete solution
        setup = make_setup(n0=8, nG=2, N=3, q=1, mu=0.6, zero=True)
        sol = march(setup.problem, setup.overlap, setup.disc)
        peak = max(np.max(np.abs(s.coeffs)) for s in sol.slabs)
        checks.append(peak < 1e-13)
        # stationary overlap: no crossing events, no moving-interface term
        setup0 = make_setup(n0=8, nG=2, N=3, q=0, mu=0.0, a0=0.2)
        for n in range(1, 4):
            geom = build_slab_geometry(setup0, n)
            checks.append(len(geom.events) == 0)
            space = build_slab_space(geom, setup0.disc)
            checks.append(not np.any(upwind_matrix(space, geom.t_start + 0.1)))
        sol0 = march(setup0.problem, setup0.overlap, setup0.disc)
        checks.append(xnorm_error(sol0, EXACT).moving_jump_sq == 0.0)
        ok = all(checks)
        detail = f"zero-data peak {peak:.1e}; stationary events/upwind/moving-term all empty"
        record_acceptance(7, ok, detail)
        assert ok, detail


class TestCriterion8Stability:
    def test_scaled_energy_non_increasing(self):
        # data strength: L2 norms of the initial value and the source
        x = np.linspace(0.0, 1.0, 4001)
        t = np.linspace(0.0, 1.0, 4001)
        prob = manufactured_problem()
        u0 = np.trapezoid(prob.initial(x) ** 2, x) ** 0.5
        f_sq = np.trapezoid(
            [np.trapezoid(prob.source(x, tv) ** 2, x) for tv in t], t
        )
        data = u0 + f_sq**0.5
        triples = {0: [(32, 8), (64, 16), (128, 32)], 1: [(16, 4), (32, 8), (64, 16)]}
        lines = []
        ok = True
        for q, triple in triples.items():
            ratios = []
            for n0, N in triple:
                setup = make_setup(n0=n0, nG=max(1, n0 // 4), N=N, q=q, mu=0.6)
                sol = march(setup.problem, setup.overlap, setup.disc)
                ratios.append(xnorm_error(sol).x / data)
            for a, b in zip(ratios[:-1], ratios[1:]):
                ok = ok and b <= 1.05 * a
            lines.append("q=%d ratios %s" % (q, ", ".join(f"{r:.4f}" for r in ratios)))
        detail = "; ".join(lines)
        record_acceptance(8, ok, detail)
        assert ok, detail
