"""Independent reference computations used by the test suite.

The bilinear-form oracle below shares only the evaluation routines with the
library: panel detection, quadrature rules, and the term-by-term integration
are written from scratch with high-order composite Gauss rules, so agreement
with the assembled matrices is evidence and not tautology.

``pointwise_xnorm_error`` is the energy-norm measurement written as a loop over
the temporal quadrature points, each with its own spatial partition and
side-wise ``SlabSolution.eval`` calls; the library's batched norm must agree
with it to rounding.  ``anorm_sq`` is the spatial energy norm at one time.
"""

import numpy as np

from cutslab.assembly import _GL3, _trace_load, assemble_slab
from cutslab.geometry import overlap_segments, sigma_side, spatial_partition
from cutslab.norms import NormBreakdown, _refine, _segment_points, _stab_term, _zero_exact
from cutslab.quadrature import composite_time_rule
from cutslab.spaces import temporal_basis_values

_GL10_X, _GL10_W = np.polynomial.legendre.leggauss(10)
_GL10_X = 0.5 * (_GL10_X + 1.0)  # nodes on [0, 1]
_GL10_W = 0.5 * _GL10_W


def _time_panels(geom):
    """All crossing times of any moving mesh node with any background node."""
    t0, t1 = geom.t_start, geom.t_end
    cross = []
    if geom.mu != 0.0:
        y0 = geom.ov_positions(t0)
        for g in range(len(y0)):
            tt = t0 + (geom.bg_nodes - y0[g]) / geom.mu
            cross.append(tt[(tt > t0 + 1e-13) & (tt < t1 - 1e-13)])
    times = np.unique(np.concatenate([[t0, t1]] + cross))
    return times


def _segments(geom, t):
    """(x_lo, x_hi, side) tuples tiling the domain at time t."""
    a, b = float(geom.left(t)), float(geom.right(t))
    pts = np.unique(np.concatenate([geom.bg_nodes, geom.ov_positions(t)]))
    out = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi - lo < 1e-14:
            continue
        mid = 0.5 * (lo + hi)
        out.append((lo, hi, 2 if a < mid < b else 1))
    return out


def _integrate_space(geom, t, integrand):
    """Integrate integrand(x_array, side) over the domain with 10-pt Gauss."""
    total = 0.0
    for lo, hi, side in _segments(geom, t):
        xs = lo + (hi - lo) * _GL10_X
        total += (hi - lo) * float(np.sum(_GL10_W * integrand(xs, side)))
    return total


def _stab_integral(geom, t, ws, vs):
    total = 0.0
    a, b = float(geom.left(t)), float(geom.right(t))
    cut = set(geom.cut_cells.tolist())
    nodes = geom.bg_nodes
    for lo, hi, side in _segments(geom, t):
        if side != 2:
            continue
        mid = 0.5 * (lo + hi)
        cell = int(np.searchsorted(nodes, mid) - 1)
        if cell not in cut:
            continue
        jw = ws.eval(mid, t, side=1, deriv="dx")[0] - ws.eval(mid, t, side=2, deriv="dx")[0]
        jv = vs.eval(mid, t, side=1, deriv="dx")[0] - vs.eval(mid, t, side=2, deriv="dx")[0]
        total += (hi - lo) * jw * jv
    return total


def _point_terms(geom, t, ws, vs, gamma, omega1, form, include_upwind):
    mu = geom.mu
    mu_bar = float(np.hypot(mu, 1.0))
    h_K = geom.h_bg
    total = 0.0
    for label, s, n1 in geom.interfaces(t):
        w1 = float(ws.eval(s, t, side=1)[0])
        w2 = float(ws.eval(s, t, side=2)[0])
        v1 = float(vs.eval(s, t, side=1)[0])
        v2 = float(vs.eval(s, t, side=2)[0])
        gw = omega1 * ws.interface_gradient(label, t, 1) + (1 - omega1) * ws.interface_gradient(label, t, 2)
        gv = omega1 * vs.interface_gradient(label, t, 1) + (1 - omega1) * vs.interface_gradient(label, t, 2)
        jw, jv = w1 - w2, v1 - v2
        total += -n1 * (jw * gv + gw * jv) + mu_bar * gamma / h_K * jw * jv
        if include_upwind and mu != 0.0:
            sigma, w_up = sigma_side(label, mu)
            if form == "standard":
                total += w_up * jw * (v1 if sigma == 1 else v2)
            else:
                total += -w_up * (w2 if sigma == 1 else w1) * jv
    return total


def oracle_bilinear(w, v, *, form="standard", gamma=None, omega1=None, include_upwind=True):
    """Brute-force evaluation of the global space-time bilinear form."""
    setup = w.setup
    gamma = setup.disc.gamma if gamma is None else gamma
    omega1 = setup.disc.omega1 if omega1 is None else omega1
    total = 0.0
    N = len(w.slabs)
    for ws, vs in zip(w.slabs, v.slabs):
        geom = ws.geom
        panels = _time_panels(geom)
        for lo, hi in zip(panels[:-1], panels[1:]):
            for tx, tw in zip(lo + (hi - lo) * _GL10_X, (hi - lo) * _GL10_W):
                if form == "standard":
                    vol = _integrate_space(
                        geom,
                        tx,
                        lambda x, s: ws.eval(x, tx, side=s, deriv="dt")
                        * vs.eval(x, tx, side=s),
                    )
                else:
                    vol = -_integrate_space(
                        geom,
                        tx,
                        lambda x, s: ws.eval(x, tx, side=s)
                        * vs.eval(x, tx, side=s, deriv="dt"),
                    )
                grad = _integrate_space(
                    geom,
                    tx,
                    lambda x, s: ws.eval(x, tx, side=s, deriv="dx")
                    * vs.eval(x, tx, side=s, deriv="dx"),
                )
                stab = _stab_integral(geom, tx, ws, vs)
                pts = _point_terms(geom, tx, ws, vs, gamma, omega1, form, include_upwind)
                total += tw * (vol + grad + stab + pts)

    bp = setup.partition.breakpoints
    if form == "standard":
        w0, v0 = w.trace(0, "+"), v.trace(0, "+")
        total += _integrate_space(
            w.slabs[0].geom, float(bp[0]), lambda x, s: w0(x, side=s) * v0(x, side=s)
        )
        for n in range(1, N):
            wp, wm, vp = w.trace(n, "+"), w.trace(n, "-"), v.trace(n, "+")
            total += _integrate_space(
                w.slabs[n - 1].geom,
                float(bp[n]),
                lambda x, s: (wp(x, side=s) - wm(x, side=s)) * vp(x, side=s),
            )
    else:
        for n in range(1, N):
            wm, vp, vm = w.trace(n, "-"), v.trace(n, "+"), v.trace(n, "-")
            total += _integrate_space(
                w.slabs[n - 1].geom,
                float(bp[n]),
                lambda x, s: wm(x, side=s) * (vm(x, side=s) - vp(x, side=s)),
            )
        wN, vN = w.trace(N, "-"), v.trace(N, "-")
        total += _integrate_space(
            w.slabs[-1].geom, float(bp[N]), lambda x, s: wN(x, side=s) * vN(x, side=s)
        )
    return total


def asm_bilinear(w, v, *, include_upwind=True):
    """Global bilinear form through the assembled slab matrices: per-slab
    quadratic pieces minus the inter-slab coupling carried by the trace load."""
    setup = w.setup
    total = 0.0
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    for n, (ws, vs) in enumerate(zip(w.slabs, v.slabs), start=1):
        system = assemble_slab(ws.space, setup, zero, include_upwind=include_upwind)
        total += float(vs.coeffs @ system.matrix @ ws.coeffs)
        if n > 1:
            wm = w.trace(n - 1, "-")
            uvec = _trace_load(ws.space, ws.geom.t_start, lambda x: wm(x))
            q = setup.disc.q
            lam0 = temporal_basis_values(q, ws.geom.t_start, ws.geom.t_end, ws.geom.t_start)
            for i in range(q + 1):
                total -= lam0[i] * float(vs.coeffs[i :: q + 1] @ uvec)
    return total


def oracle_bnorm_sq(v):
    """Brute-force squared global energy norm of a discrete function.

    Mirrors the norm definition term by term with independently computed
    panels and 10-point Gauss quadrature.  The initial term measures the
    distance of the first upper trace to the problem's initial data, matching
    the error-measurement convention.
    """
    setup = v.setup
    omega1 = setup.disc.omega1
    total = 0.0
    for vs in v.slabs:
        geom = vs.geom
        mu = geom.mu
        mu_bar = float(np.hypot(mu, 1.0))
        h_K = geom.h_bg
        panels = _time_panels(geom)
        for lo, hi in zip(panels[:-1], panels[1:]):
            for tx, tw in zip(lo + (hi - lo) * _GL10_X, (hi - lo) * _GL10_W):
                grad = _integrate_space(
                    geom, tx, lambda x, s: vs.eval(x, tx, side=s, deriv="dx") ** 2
                )
                stab = _stab_integral(geom, tx, vs, vs)
                pts = 0.0
                for label, s, n1 in geom.interfaces(tx):
                    v1 = float(vs.eval(s, tx, side=1)[0])
                    v2 = float(vs.eval(s, tx, side=2)[0])
                    g1 = vs.interface_gradient(label, tx, 1)
                    g2 = vs.interface_gradient(label, tx, 2)
                    avg = omega1 * g1 + (1 - omega1) * g2
                    pts += mu_bar * h_K * avg**2
                    pts += mu_bar / h_K * (v1 - v2) ** 2
                    pts += abs(n1 * mu) * (v1 - v2) ** 2
                total += tw * (grad + stab + pts)

    bp = setup.partition.breakpoints
    N = len(v.slabs)
    u0 = setup.problem.initial
    v0 = v.trace(0, "+")
    total += _integrate_space(
        v.slabs[0].geom,
        float(bp[0]),
        lambda x, s: (np.asarray(u0(x), dtype=float) - v0(x, side=s)) ** 2,
    )
    for n in range(1, N):
        vp, vm = v.trace(n, "+"), v.trace(n, "-")
        total += _integrate_space(
            v.slabs[n - 1].geom,
            float(bp[n]),
            lambda x, s: (vp(x, side=s) - vm(x, side=s)) ** 2,
        )
    vN = v.trace(N, "-")
    total += _integrate_space(
        v.slabs[-1].geom, float(bp[N]), lambda x, s: vN(x, side=s) ** 2
    )
    return total


def anorm_sq(fn, geom, t: float, omega1: float = 0.5) -> float:
    """Spatial energy norm squared at time t of a side-wise evaluable function.

    ``fn(x, side, deriv)`` must accept position arrays, side 1 or 2, and deriv
    "value" or "dx".  The four terms: broken gradient, weighted average flux and
    weighted jump at the interface points, and the gradient jump over the
    covered parts of the slab's cut cells.
    """
    part = spatial_partition(geom, t)
    total = 0.0
    for side in (1, 2):
        m = part.side == side
        if not np.any(m):
            continue
        mids = 0.5 * (part.xa[m] + part.xb[m])
        g = np.asarray(fn(mids, side, "dx"), dtype=float)
        total += float(np.sum(part.lengths[m] * g * g))

    nodes = geom.bg_nodes
    mu_bar = float(np.hypot(geom.mu, 1.0))
    for label, s, n1 in geom.interfaces(t):
        v1 = float(fn(np.array([s]), 1, "value")[0])
        v2 = float(fn(np.array([s]), 2, "value")[0])
        g1 = float(fn(np.array([s]), 1, "dx")[0])
        g2 = float(fn(np.array([s]), 2, "dx")[0])
        c = int(np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, len(nodes) - 2))
        h_K = float(nodes[c + 1] - nodes[c])
        avg = omega1 * g1 + (1.0 - omega1) * g2
        total += mu_bar * h_K * avg * avg
        total += mu_bar / h_K * (v1 - v2) ** 2

    seg = overlap_segments(geom, t)
    if len(seg):
        mids = 0.5 * (seg.xa + seg.xb)
        jg = np.asarray(fn(mids, 1, "dx")) - np.asarray(fn(mids, 2, "dx"))
        total += float(np.sum(seg.lengths * jg * jg))
    return total


def _trace_l2_sq(geom, t, fa, fb=None, space_refine=1) -> float:
    """Squared L2 distance of two side-wise evaluable traces over the domain."""
    part = spatial_partition(geom, t)
    pts, wts = _segment_points(part, space_refine)
    total = 0.0
    for side in (1, 2):
        m = part.side == side
        if not np.any(m):
            continue
        xs = pts[m].ravel()
        d = np.asarray(fa(xs, side), dtype=float)
        if fb is not None:
            d = d - np.asarray(fb(xs, side), dtype=float)
        total += float(np.sum(wts[m].ravel() * d * d))
    return total


def pointwise_xnorm_error(sol, exact=None, *, time_refine=1, space_refine=1) -> NormBreakdown:
    """``xnorm_error`` evaluated one temporal quadrature point at a time."""
    if exact is None:
        exact = _zero_exact()
    setup = sol.setup
    omega1 = setup.disc.omega1
    mat_bg = mat_ov = grad = flux = ijump = moving = 0.0
    stab = 0.0

    for slab in sol.slabs:
        geom = slab.geom
        k = geom.k
        mu = geom.mu
        mu_bar = float(np.hypot(mu, 1.0))
        nodes = geom.bg_nodes
        breaks = _refine(geom.events, geom.t_start, geom.t_end, time_refine)
        times, wts = composite_time_rule(geom.t_start, geom.t_end, breaks, _GL3)
        for t, wt in zip(times, wts):
            part = spatial_partition(geom, t)
            pts, pw = _segment_points(part, space_refine)
            for side in (1, 2):
                m = part.side == side
                if not np.any(m):
                    continue
                xs = pts[m].ravel()
                ws = pw[m].ravel()
                ge = np.asarray(exact.u_x(xs, t)) - slab.eval(xs, t, side=side, deriv="dx")
                grad += wt * float(np.sum(ws * ge * ge))
                de = np.asarray(exact.u_t(xs, t)) - slab.eval(xs, t, side=side, deriv="Dt")
                if side == 2:
                    de = de + mu * np.asarray(exact.u_x(xs, t))
                    mat_ov += k * wt * float(np.sum(ws * de * de))
                else:
                    mat_bg += k * wt * float(np.sum(ws * de * de))
            for label, s, n1 in geom.interfaces(t):
                sx = np.array([s])
                e1 = float((np.asarray(exact.u(sx, t)) - slab.eval(sx, t, side=1))[0])
                e2 = float((np.asarray(exact.u(sx, t)) - slab.eval(sx, t, side=2))[0])
                g1 = float(np.asarray(exact.u_x(sx, t))[0]) - slab.interface_gradient(label, t, 1)
                g2 = float(np.asarray(exact.u_x(sx, t))[0]) - slab.interface_gradient(label, t, 2)
                c = int(np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, len(nodes) - 2))
                h_K = float(nodes[c + 1] - nodes[c])
                avg = omega1 * g1 + (1.0 - omega1) * g2
                flux += wt * mu_bar * h_K * avg * avg
                ijump += wt * mu_bar / h_K * (e1 - e2) ** 2
                moving += wt * abs(n1 * mu) * (e1 - e2) ** 2
        stab += _stab_term(slab)

    bp = setup.partition.breakpoints
    N = len(sol.slabs)
    u0 = setup.problem.initial
    up = sol.trace(0, "+")
    initial = _trace_l2_sq(
        sol.slabs[0].geom,
        float(bp[0]),
        lambda x, s: np.asarray(u0(x), dtype=float),
        lambda x, s: up(x, side=s),
        space_refine,
    )
    tjump = 0.0
    for n in range(1, N):
        wp, wm = sol.trace(n, "+"), sol.trace(n, "-")
        tjump += _trace_l2_sq(
            sol.slabs[n - 1].geom,
            float(bp[n]),
            lambda x, s: wp(x, side=s),
            lambda x, s: wm(x, side=s),
            space_refine,
        )
    wN = sol.trace(N, "-")
    T = float(bp[N])
    final = _trace_l2_sq(
        sol.slabs[-1].geom,
        T,
        lambda x, s: np.asarray(exact.u(x, T), dtype=float),
        lambda x, s: wN(x, side=s),
        space_refine,
    )

    return NormBreakdown(
        material_bg_sq=mat_bg,
        material_ov_sq=mat_ov,
        grad_sq=grad,
        flux_sq=flux,
        iface_jump_sq=ijump,
        stab_sq=stab,
        time_jump_sq=tjump,
        final_sq=final,
        initial_sq=initial,
        moving_jump_sq=moving,
    )
