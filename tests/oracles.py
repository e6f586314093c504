"""Independent reference computations used by the test suite.

The bilinear-form oracle below shares only the temporal basis and each slab's
nodal values with the library: its side-wise evaluator ``evaluate``, panel
detection, quadrature rules and the term-by-term integration are written
from scratch, with high-order composite Gauss rules, so agreement with the
assembled matrices is evidence and not tautology.  ``evaluate`` gives a slab
solution's value or a derivative on either side of the interface, also where
the other side covers the point; the library's ``SlabSolution.eval`` gives
only the value on the covering side, and must agree with ``evaluate`` there.

``apply_Bh`` and ``apply_load`` apply the space-time form and the load
functional to evaluable functions through the library's partitions and time
rules, one quadrature point at a time.  ``assemble_Aht``, ``mass_matrix`` and
``upwind_matrix`` are dense spatial matrices at one time, built from the
library's interface stencil and per-segment cell integrals.  ``source_load``
is the reference trapezoid-in-space source load of one slab, on the oracle's
own segments and time rule.

``pointwise_xnorm_error`` is the energy-norm measurement written as a loop over
the temporal quadrature points, each with its own spatial partition and
side-wise ``evaluate`` calls, with optional refined panels and
segments; the library's batched norm must agree with it to rounding.
``anorm_sq`` is the spatial energy norm at one time.  ``overlap_segments``
and ``quadrature_breakpoints`` (every node crossing of the overlap mesh) serve
the pairings above, and ``interfaces`` and ``trace`` give the interface
points at one time and a solution's one-sided traces at a slab breakpoint.
"""

import numpy as np

from cutslab.assembly import _covered_entries, _segment_mass_stiff
from cutslab.geometry import (
    DEGENERATE_FRACTION,
    EVENT_DEDUP_FRACTION,
    SpatialPartition,
    sigma_side,
    spatial_partition,
)
from cutslab.norms import NormBreakdown, _zero_exact
from cutslab.quadrature import GL3, composite_time_rule, lobatto3, midpoint
from cutslab.spaces import interface_stencil, temporal_basis_derivs, temporal_modes

from conftest import slab_system

_GL10_X, _GL10_W = np.polynomial.legendre.leggauss(10)
_GL10_X = 0.5 * (_GL10_X + 1.0)  # nodes on [0, 1]
_GL10_W = 0.5 * _GL10_W


def interfaces(geom, t):
    """[(label, position, spatial normal n1 of the uncovered side)] at time t."""
    a = float(geom.left(t))
    return [("left", a, 1.0), ("right", a + geom.overlap_length, -1.0)]


def _node_tolerance(nodes) -> float:
    """How close a point must be to a background node to count as on it."""
    return DEGENERATE_FRACTION * (nodes[-1] - nodes[0])


def _placed(nodes, s: float) -> float:
    """The point ``s`` as the stencils take it: on its nearest background
    node when it lies within the tolerance of that node, else where it is."""
    near = float(nodes[np.argmin(np.abs(nodes - s))])
    return near if abs(near - s) <= _node_tolerance(nodes) else s


def _h_K(nodes, s: float) -> float:
    """The size of the background cell holding the interface point ``s``,
    the one right of its node when it is placed on one."""
    c = int(np.clip(np.searchsorted(nodes, _placed(nodes, s), side="right") - 1, 0, len(nodes) - 2))
    return float(nodes[c + 1] - nodes[c])


def _modes_at(geom, q: int, t) -> np.ndarray:
    """The slab's temporal mode values at the absolute time t."""
    return temporal_modes(q, (t - geom.t_start) / (geom.t_end - geom.t_start))


def evaluate(slab, x, t: float, side="auto", deriv="value") -> np.ndarray:
    """Side-wise evaluation of the ``SlabSolution`` ``slab`` at time t.

    side "auto" picks the covering representation; side 1 evaluates the
    background polynomial (its natural extension inside the moving
    interval), side 2 the overlap representation, which must be evaluated
    within the closure of the moving interval.  ``deriv`` is "value", "dx",
    "dt" (at a fixed point) or "Dt" (along the overlap's motion on side 2;
    "dt" on side 1).
    """
    geom, space = slab.geom, slab.space
    if not geom.contains_time(t):
        raise ValueError(f"t={t} outside slab {geom.n}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = _modes_at(geom, space.q, t)
    dlam = temporal_basis_derivs(space.q, geom.t_start, geom.t_end)
    a = float(geom.left(t))
    b = a + geom.overlap_length
    if side == "auto":
        on2 = (x > a) & (x < b)
    elif side == 1:
        on2 = np.zeros_like(x, dtype=bool)
    elif side == 2:
        tol = _node_tolerance(geom.bg_nodes)
        if np.any((x < a - tol) | (x > b + tol)):
            raise ValueError("side-2 evaluation outside the moving interval")
        on2 = np.ones_like(x, dtype=bool)
    else:
        raise ValueError(f"side must be 'auto', 1, or 2, got {side!r}")
    out = np.empty_like(x)
    nodal = slab.nodal()
    nb = len(geom.bg_nodes)
    if np.any(~on2):
        out[~on2] = _eval_rep(geom.bg_nodes, nodal[:nb], lam, dlam, x[~on2], deriv, mu=0.0)
    if np.any(on2):
        pos = geom.ov_positions(t)
        out[on2] = _eval_rep(pos, nodal[nb:], lam, dlam, x[on2], deriv, mu=geom.mu)
    return out


def _eval_rep(nodes, nodal, lam, dlam, x, deriv, mu):
    """One mesh's P1 representation, or a derivative of it, at the points x."""
    c = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    h = nodes[c + 1] - nodes[c]
    w1 = (x - nodes[c]) / h
    w0, s0, s1 = 1.0 - w1, -1.0 / h, 1.0 / h
    if deriv == "value":
        coeff = nodal @ lam
        return w0 * coeff[c] + w1 * coeff[c + 1]
    if deriv == "dx":
        coeff = nodal @ lam
        return s0 * coeff[c] + s1 * coeff[c + 1]
    if deriv in ("dt", "Dt"):
        dcoeff = nodal @ dlam
        traj = w0 * dcoeff[c] + w1 * dcoeff[c + 1]
        if deriv == "Dt":
            return traj
        coeff = nodal @ lam
        return traj - mu * (s0 * coeff[c] + s1 * coeff[c + 1])
    raise ValueError(f"unknown derivative kind {deriv!r}")


def trace(sol, n, sign):
    """Callable evaluating the trace of ``sol`` at t_n from above ('+') or
    below ('-')."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    i = n if sign == "+" else n - 1
    if not 0 <= i < len(sol.slabs):
        raise ValueError(f"no slab {'above' if sign == '+' else 'below'} t_{n}")
    slab, t = sol.slabs[i], float(sol.setup.partition.breakpoints[n])
    return lambda x, side="auto", deriv="value": evaluate(slab, x, t, side=side, deriv=deriv)


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
    a, b = float(geom.left(t)), float(geom.left(t) + geom.overlap_length)
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


def overlap_segments(geom, t: float) -> SpatialPartition:
    """Segments of the stabilized overlap region at time t: the parts of the
    slab's cut background cells currently inside the moving interval."""
    part = spatial_partition(geom, t)
    mask = (part.side == 2) & np.isin(part.bg_cell, geom.cut_cells)
    return SpatialPartition(
        t=t,
        time_index=part.time_index[mask],
        xa=part.xa[mask],
        xb=part.xb[mask],
        side=part.side[mask],
        bg_cell=part.bg_cell[mask],
        ov_cell=part.ov_cell[mask],
        a=part.a[mask],
    )


def quadrature_breakpoints(geom) -> np.ndarray:
    """Temporal panel breakpoints for composite rules over the slab: the
    interface-node crossing events plus every crossing of an overlap-mesh node
    with a node of a slab-cut background cell, which makes all
    piecewise-polynomial integrands of the formulation polynomial on each
    panel."""
    if geom.mu == 0.0 or len(geom.cut_cells) == 0:
        return geom.events
    cut_nodes = np.unique(np.concatenate([geom.cut_cells, geom.cut_cells + 1]))
    cut_pos = geom.bg_nodes[cut_nodes]
    y0 = geom.ov_positions(geom.t_start)
    t0, t1 = geom.t_start, geom.t_end
    # crossing of overlap node g with background node position X: t0 + (X - y0_g)/mu
    tt = t0 + (cut_pos[None, :] - y0[:, None]) / geom.mu
    eps = EVENT_DEDUP_FRACTION * (geom.t_end - geom.t_start)
    tt = tt[(tt > t0 + eps) & (tt < t1 - eps)]
    out = np.sort(np.concatenate([geom.events, tt.ravel()]))
    if len(out) > 1:
        keep = np.concatenate(([True], np.diff(out) > eps))
        out = out[keep]
    return out


def _refine(breaks: np.ndarray, t0: float, t1: float, factor: int) -> np.ndarray:
    """Subdivide each panel of [t0, t1] (interior breakpoints given) into equal parts."""
    if factor <= 1:
        return breaks
    full = np.concatenate(([t0], breaks, [t1]))
    out = [np.linspace(lo, hi, factor + 1)[1:-1] for lo, hi in zip(full[:-1], full[1:])]
    return np.sort(np.concatenate(out + [breaks]))


def _segment_points(part, space_refine: int = 1):
    """Gauss-3 points/weights per segment, each segment split into
    ``space_refine`` equal parts."""
    frac = np.linspace(0.0, 1.0, space_refine + 1)
    sub = (frac[:-1, None] + np.diff(frac)[:, None] * GL3.nodes[None, :]).ravel()
    subw = (np.diff(frac)[:, None] * GL3.weights[None, :]).ravel()
    pts = part.xa[:, None] + part.lengths[:, None] * sub[None, :]
    wts = part.lengths[:, None] * subw[None, :]
    return pts, wts


def _stab_integral(geom, t, ws, vs):
    total = 0.0
    a, b = float(geom.left(t)), float(geom.left(t) + geom.overlap_length)
    cut = set(geom.cut_cells.tolist())
    nodes = geom.bg_nodes
    for lo, hi, side in _segments(geom, t):
        if side != 2:
            continue
        mid = 0.5 * (lo + hi)
        cell = int(np.searchsorted(nodes, mid) - 1)
        if cell not in cut:
            continue
        jw = evaluate(ws, mid, t, 1, "dx")[0] - evaluate(ws, mid, t, 2, "dx")[0]
        jv = evaluate(vs, mid, t, 1, "dx")[0] - evaluate(vs, mid, t, 2, "dx")[0]
        total += (hi - lo) * jw * jv
    return total


def _point_terms(geom, t, ws, vs, gamma, omega1, form, include_upwind):
    mu = geom.mu
    mu_bar = float(np.hypot(mu, 1.0))
    h_K = float(geom.bg_nodes[1] - geom.bg_nodes[0])
    total = 0.0
    for label, s, n1 in interfaces(geom, t):
        w1 = float(evaluate(ws, s, t, side=1)[0])
        w2 = float(evaluate(ws, s, t, side=2)[0])
        v1 = float(evaluate(vs, s, t, side=1)[0])
        v2 = float(evaluate(vs, s, t, side=2)[0])
        gw = omega1 * interface_gradient(ws, label, t, 1) + (1 - omega1) * interface_gradient(
            ws, label, t, 2
        )
        gv = omega1 * interface_gradient(vs, label, t, 1) + (1 - omega1) * interface_gradient(
            vs, label, t, 2
        )
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
                        lambda x, s: evaluate(ws, x, tx, side=s, deriv="dt")
                        * evaluate(vs, x, tx, side=s),
                    )
                else:
                    vol = -_integrate_space(
                        geom,
                        tx,
                        lambda x, s: evaluate(ws, x, tx, side=s)
                        * evaluate(vs, x, tx, side=s, deriv="dt"),
                    )
                grad = _integrate_space(
                    geom,
                    tx,
                    lambda x, s: evaluate(ws, x, tx, side=s, deriv="dx")
                    * evaluate(vs, x, tx, side=s, deriv="dx"),
                )
                stab = _stab_integral(geom, tx, ws, vs)
                pts = _point_terms(geom, tx, ws, vs, gamma, omega1, form, include_upwind)
                total += tw * (vol + grad + stab + pts)

    bp = setup.partition.breakpoints
    if form == "standard":
        w0, v0 = trace(w, 0, "+"), trace(v, 0, "+")
        total += _integrate_space(
            w.slabs[0].geom, float(bp[0]), lambda x, s: w0(x, side=s) * v0(x, side=s)
        )
        for n in range(1, N):
            wp, wm, vp = trace(w, n, "+"), trace(w, n, "-"), trace(v, n, "+")
            total += _integrate_space(
                w.slabs[n - 1].geom,
                float(bp[n]),
                lambda x, s: (wp(x, side=s) - wm(x, side=s)) * vp(x, side=s),
            )
    else:
        for n in range(1, N):
            wm, vp, vm = trace(w, n, "-"), trace(v, n, "+"), trace(v, n, "-")
            total += _integrate_space(
                w.slabs[n - 1].geom,
                float(bp[n]),
                lambda x, s: wm(x, side=s) * (vm(x, side=s) - vp(x, side=s)),
            )
        wN, vN = trace(w, N, "-"), trace(v, N, "-")
        total += _integrate_space(
            w.slabs[-1].geom, float(bp[N]), lambda x, s: wN(x, side=s) * vN(x, side=s)
        )
    return total


def _cell_entries(d0, d1, sym):
    """Triplets of symmetric 2x2 cell matrices on nodes (d0, d1).

    ``sym`` holds (e00, e01, e11) along its second-to-last axis and the cells
    along its last one; the values come back with the leading axes of ``sym``
    and the entries along the last axis.
    """
    rows = np.concatenate([d0, d0, d1, d1])
    cols = np.concatenate([d0, d1, d0, d1])
    vals = sym[..., [0, 1, 1, 2], :]
    return rows, cols, vals.reshape(vals.shape[:-2] + (-1,))


def _jump_load(setup, start_cov, prev):
    """The previous slab's end-time trace against every node's hat at the
    slab start: the side-wise start mass, i.e. the full-mesh mass minus the
    covered-correction mass triplets ``start_cov``, applied to its nodal
    values, with one ``bincount`` over all mesh triplets."""
    rows, cols, vals = setup.mesh_matrices
    r, c, mv = start_cov
    g = prev.geom
    u = prev.nodal() @ _modes_at(g, prev.space.q, g.t_end)
    return np.bincount(
        np.concatenate([rows, r]),
        np.concatenate([vals[:, 0] * u[cols], -mv * u[c]]),
        minlength=len(u),
    )


def jump_load(space, setup, prev):
    """The assembly's time-jump load of a slab (the side-wise start mass
    applied to ``prev``'s end-time nodal values), over the slab's spatial
    DOFs."""
    geom = space.geom
    every = np.ones((1, len(geom.bg_nodes)), dtype=bool)  # each cell met, active or not
    a = geom.left(np.array([geom.t_start]))
    cells, _, (mv, _) = _covered_entries(geom, a, np.zeros(1, dtype=int), every)
    return _jump_load(setup, _cell_entries(cells[0], cells[0] + 1, mv[0]), prev)[space.dof_node]


def exact_trace_load(space, t: float, fn):
    """L2 pairing of a side-wise function ``fn(x, side)`` with every spatial
    DOF's basis function at time t, per oracle segment with 10-point Gauss.

    Unlike the library's merged partition, the oracle segments keep slivers
    down to 1e-14 on their own side, so for P1 arguments this is exact.
    """
    geom = space.geom
    nb = len(geom.bg_nodes)
    vec = np.zeros(len(space.node_dof))
    for lo, hi, side in _segments(geom, t):
        nodes, shift = (geom.bg_nodes, 0) if side == 1 else (geom.ov_positions(t), nb)
        c = int(np.searchsorted(nodes, 0.5 * (lo + hi)) - 1)
        xs = lo + (hi - lo) * _GL10_X
        f = (hi - lo) * _GL10_W * fn(xs, side)
        w1 = (xs - nodes[c]) / (nodes[c + 1] - nodes[c])
        vec[shift + c] += np.sum(f * (1.0 - w1))
        vec[shift + c + 1] += np.sum(f * w1)
    return vec[space.dof_node]


def source_load(setup, geom) -> np.ndarray:
    """The source against every node's hat and temporal mode on one slab,
    shaped (nodes, q+1) in the global node numbering: the trapezoid rule on
    each oracle segment at every distinct time of the slab's temporal rule
    (the midpoint for q = 0, three-point Lobatto for q = 1, on the panels
    between the slab's events), looped over the times.

    The segments of one time are handled together: the source at both ends
    of each, the two hats of its own cell there, and an unbuffered scatter
    into the nodes.
    """
    q = setup.disc.q
    t0, t1 = geom.t_start, geom.t_end
    panels = np.concatenate(([t0], geom.events, [t1]))
    weight = {}  # time -> summed rule weight; Lobatto repeats inner panel ends
    for lo, hi in zip(panels[:-1], panels[1:]):
        if q == 0:
            rule = [(0.5 * (lo + hi), hi - lo)]
        else:
            rule = [(lo, (hi - lo) / 6), (0.5 * (lo + hi), 2 * (hi - lo) / 3), (hi, (hi - lo) / 6)]
        for t, w in rule:
            weight[t] = weight.get(t, 0.0) + w
    nb = len(geom.bg_nodes)
    load = np.zeros((nb + len(geom.ov_offsets), q + 1))
    for t, w in weight.items():
        modes = np.ones(1) if q == 0 else np.array([t1 - t, t - t0]) / (t1 - t0)
        lo, hi, side = (np.array(v) for v in zip(*_segments(geom, t)))
        mid = 0.5 * (lo + hi)
        for s, nodes, shift in ((1, geom.bg_nodes, 0), (2, geom.ov_positions(t), nb)):
            on = side == s
            c = np.searchsorted(nodes, mid[on]) - 1
            h = nodes[c + 1] - nodes[c]
            for x in (lo[on], hi[on]):
                fx = 0.5 * (hi[on] - lo[on]) * setup.problem.source(x, np.full_like(x, t))
                np.add.at(load, shift + c, np.outer(w * fx * (nodes[c + 1] - x) / h, modes))
                np.add.at(load, shift + c + 1, np.outer(w * fx * (x - nodes[c]) / h, modes))
    return load


def asm_bilinear(w, v):
    """Global bilinear form through the assembled slab matrices: per-slab
    quadratic pieces minus the inter-slab coupling carried by the time-jump
    load."""
    setup = w.setup
    q = setup.disc.q
    total = 0.0
    for n, (ws, vs) in enumerate(zip(w.slabs, v.slabs), start=1):
        system = slab_system(ws.space, setup)
        total += float(vs.coeffs @ system.matrix @ ws.coeffs)
        if n > 1:
            uvec = jump_load(ws.space, setup, w.slabs[n - 2])
            lam0 = _modes_at(ws.geom, q, ws.geom.t_start)
            total -= float(vs.by_mode @ lam0 @ uvec)
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
        h_K = float(geom.bg_nodes[1] - geom.bg_nodes[0])
        panels = _time_panels(geom)
        for lo, hi in zip(panels[:-1], panels[1:]):
            for tx, tw in zip(lo + (hi - lo) * _GL10_X, (hi - lo) * _GL10_W):
                grad = _integrate_space(
                    geom, tx, lambda x, s: evaluate(vs, x, tx, side=s, deriv="dx") ** 2
                )
                stab = _stab_integral(geom, tx, vs, vs)
                pts = 0.0
                for label, s, n1 in interfaces(geom, tx):
                    v1 = float(evaluate(vs, s, tx, side=1)[0])
                    v2 = float(evaluate(vs, s, tx, side=2)[0])
                    g1 = interface_gradient(vs, label, tx, 1)
                    g2 = interface_gradient(vs, label, tx, 2)
                    avg = omega1 * g1 + (1 - omega1) * g2
                    pts += mu_bar * h_K * avg**2
                    pts += mu_bar / h_K * (v1 - v2) ** 2
                    pts += abs(n1 * mu) * (v1 - v2) ** 2
                total += tw * (grad + stab + pts)

    bp = setup.partition.breakpoints
    N = len(v.slabs)
    u0 = setup.problem.initial
    v0 = trace(v, 0, "+")
    total += _integrate_space(
        v.slabs[0].geom,
        float(bp[0]),
        lambda x, s: (np.asarray(u0(x), dtype=float) - v0(x, side=s)) ** 2,
    )
    for n in range(1, N):
        vp, vm = trace(v, n, "+"), trace(v, n, "-")
        total += _integrate_space(
            v.slabs[n - 1].geom,
            float(bp[n]),
            lambda x, s: (vp(x, side=s) - vm(x, side=s)) ** 2,
        )
    vN = trace(v, N, "-")
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
    for label, s, n1 in interfaces(geom, t):
        v1 = float(fn(np.array([s]), 1, "value")[0])
        v2 = float(fn(np.array([s]), 2, "value")[0])
        g1 = float(fn(np.array([s]), 1, "dx")[0])
        g2 = float(fn(np.array([s]), 2, "dx")[0])
        h_K = _h_K(nodes, s)
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


def _stab_term(slab) -> float:
    """The gradient-jump term of one slab: the quadratic form of its record's
    stabilization weights in the per-pair gradient jumps.  Those weights are
    checked on their own against a 10-point Gauss time integral of
    ``_stab_integral`` (``TestStabilizationTerm``)."""
    if slab.space.stab is None:
        return 0.0
    idx, g, W = slab.space.stab
    d = np.einsum("pk,pki->pi", g, slab.nodal()[idx])  # jump per pair and mode
    return float(np.einsum("pi,pij,pj->", d, W, d))


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
        k = geom.t_end - geom.t_start
        mu = geom.mu
        mu_bar = float(np.hypot(mu, 1.0))
        nodes = geom.bg_nodes
        breaks = _refine(geom.events, geom.t_start, geom.t_end, time_refine)
        times, wts = composite_time_rule([geom.t_start], [geom.t_end], breaks, GL3, [len(breaks)])
        for t, wt in zip(times, wts):
            part = spatial_partition(geom, t)
            pts, pw = _segment_points(part, space_refine)
            for side in (1, 2):
                m = part.side == side
                if not np.any(m):
                    continue
                xs = pts[m].ravel()
                ws = pw[m].ravel()
                ge = np.asarray(exact.u_x(xs, t)) - evaluate(slab, xs, t, side=side, deriv="dx")
                grad += wt * float(np.sum(ws * ge * ge))
                de = np.asarray(exact.u_t(xs, t)) - evaluate(slab, xs, t, side=side, deriv="Dt")
                if side == 2:
                    de = de + mu * np.asarray(exact.u_x(xs, t))
                    mat_ov += k * wt * float(np.sum(ws * de * de))
                else:
                    mat_bg += k * wt * float(np.sum(ws * de * de))
            for label, s, n1 in interfaces(geom, t):
                sx = np.array([s])
                e1 = float((np.asarray(exact.u(sx, t)) - evaluate(slab, sx, t, side=1))[0])
                e2 = float((np.asarray(exact.u(sx, t)) - evaluate(slab, sx, t, side=2))[0])
                g1 = float(np.asarray(exact.u_x(sx, t))[0]) - interface_gradient(slab, label, t, 1)
                g2 = float(np.asarray(exact.u_x(sx, t))[0]) - interface_gradient(slab, label, t, 2)
                h_K = _h_K(nodes, s)
                avg = omega1 * g1 + (1.0 - omega1) * g2
                flux += wt * mu_bar * h_K * avg * avg
                ijump += wt * mu_bar / h_K * (e1 - e2) ** 2
                moving += wt * abs(n1 * mu) * (e1 - e2) ** 2
        stab += _stab_term(slab)

    bp = setup.partition.breakpoints
    N = len(sol.slabs)
    u0 = setup.problem.initial
    up = trace(sol, 0, "+")
    initial = _trace_l2_sq(
        sol.slabs[0].geom,
        float(bp[0]),
        lambda x, s: np.asarray(u0(x), dtype=float),
        lambda x, s: up(x, side=s),
        space_refine,
    )
    tjump = 0.0
    for n in range(1, N):
        wp, wm = trace(sol, n, "+"), trace(sol, n, "-")
        tjump += _trace_l2_sq(
            sol.slabs[n - 1].geom,
            float(bp[n]),
            lambda x, s: wp(x, side=s),
            lambda x, s: wm(x, side=s),
            space_refine,
        )
    wN = trace(sol, N, "-")
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


def interface_gradient(slab, label: str, t: float, side: int) -> float:
    """One-sided spatial gradient of a slab solution at an interface point,
    taken from the cell of the given side also when the point is placed on a
    node (``_placed``)."""
    geom, space = slab.geom, slab.space
    lam = _modes_at(geom, space.q, t)
    a = float(geom.left(t))
    s = a if label == "left" else a + geom.overlap_length
    nb = len(geom.bg_nodes)
    nodal = slab.nodal() @ lam
    if side == 2:
        nodal = nodal[nb:]
        c = 0 if label == "left" else space.n_ov - 2
        pos = geom.ov_positions(t)
        return float((nodal[c + 1] - nodal[c]) / (pos[c + 1] - pos[c]))
    nodes = geom.bg_nodes
    edge = "left" if label == "left" else "right"
    c = int(np.clip(np.searchsorted(nodes, _placed(nodes, s), side=edge) - 1, 0, len(nodes) - 2))
    return float((nodal[c + 1] - nodal[c]) / (nodes[c + 1] - nodes[c]))


# ---------------------------------------------------------------------------
# dense spatial matrices at one time
# ---------------------------------------------------------------------------


def _dense(space, rows, cols, vals) -> np.ndarray:
    """Sum triplets in the global node numbering into a dense matrix over the
    slab's spatial DOFs, dropping nodes without a DOF."""
    r = space.node_dof[np.ravel(rows)]
    c = space.node_dof[np.ravel(cols)]
    v = np.ravel(vals)
    ok = (r >= 0) & (c >= 0)
    out = np.zeros((space.n_spatial, space.n_spatial))
    np.add.at(out, (r[ok], c[ok]), v[ok])
    return out


def _outer_entries(idx, vals):
    """Triplets of per-point matrices ``vals`` (points, s, s) on the nodes
    ``idx`` (points, s), test node first."""
    s = idx.shape[1]
    return np.repeat(idx, s, axis=1), np.tile(idx, (1, s)), vals.reshape(len(idx), s * s)


def _sidewise_entries(space, t):
    """Side-wise (mass, stiffness) triplets at time t, one per side present,
    from the cell integrals over every segment of the merged partition."""
    geom = space.geom
    part = spatial_partition(geom, t)
    nb = len(geom.bg_nodes)
    out = []
    for side, node_arr, cells, shift in (
        (1, geom.bg_nodes, part.bg_cell, 0),
        (2, geom.ov_positions(t), part.ov_cell, nb),
    ):
        m = part.side == side
        if not np.any(m):
            continue
        c = cells[m]
        sym = _segment_mass_stiff(part.xa[m], part.xb[m], node_arr[c], node_arr[c + 1])
        rows, cols, (mv, kv) = _cell_entries(shift + c, shift + c + 1, sym)
        out.append((rows, cols, mv, kv))
    return out


def assemble_Aht(space, t: float, gamma: float, omega1: float) -> np.ndarray:
    """Spatial matrix of the symmetric form at time t: broken stiffness,
    Nitsche coupling and penalty, and gradient-jump stabilization."""
    geom = space.geom
    A = np.zeros((space.n_spatial, space.n_spatial))
    for rows, cols, _, kv in _sidewise_entries(space, t):
        A += _dense(space, rows, cols, kv)
    st = interface_stencil(geom.columns, np.array([geom.i]), np.array([t]), omega1)
    J, G = st.jump, st.grad
    pen = (np.hypot(geom.mu, 1.0) * gamma / st.h_K)[:, None, None]
    n1 = st.n1[:, None, None]
    vals = -n1 * (J[:, :, None] * G[:, None, :] + G[:, :, None] * J[:, None, :])
    vals += pen * J[:, :, None] * J[:, None, :]
    A += _dense(space, *_outer_entries(st.idx, vals))
    # gradient-jump stabilization over the covered parts of cut cells
    seg = overlap_segments(geom, t)
    nb = len(geom.bg_nodes)
    pos = geom.ov_positions(t)
    h = geom.bg_nodes[seg.bg_cell + 1] - geom.bg_nodes[seg.bg_cell]
    h_ov = pos[seg.ov_cell + 1] - pos[seg.ov_cell]
    g = np.stack([-1.0 / h, 1.0 / h, 1.0 / h_ov, -1.0 / h_ov], axis=1)
    idx = np.stack([seg.bg_cell, seg.bg_cell + 1, nb + seg.ov_cell, nb + seg.ov_cell + 1], axis=1)
    vals = seg.lengths[:, None, None] * g[:, :, None] * g[:, None, :]
    A += _dense(space, *_outer_entries(idx, vals))
    return A


def upwind_matrix(space, t: float) -> np.ndarray:
    """Spatial matrix of the moving-interface jump term at time t."""
    # omega1 weights only the average gradient, which this term does not read
    st = interface_stencil(space.geom.columns, np.array([space.geom.i]), np.array([t]), 0.5)
    return _dense(space, *_outer_entries(st.idx, st.upwind[:, :, None] * st.jump[:, None, :]))


def mass_matrix(space, t: float) -> np.ndarray:
    """Side-wise spatial mass matrix at time t."""
    M = np.zeros((space.n_spatial, space.n_spatial))
    for rows, cols, mv, _ in _sidewise_entries(space, t):
        M += _dense(space, rows, cols, mv)
    return M


# ---------------------------------------------------------------------------
# direct application of the space-time form to evaluable functions
# ---------------------------------------------------------------------------
#
# These walk the quadrature by brute force through function evaluations and are
# meant for verification on small instances, not for assembly-scale work.  With
# panel breakpoints at every node crossing (quadrature_breakpoints) the quadrature is
# exact for broken piecewise-linear arguments, so the pairing below agrees with
# the assembled matrices to rounding.


def _compatible(w, v):
    sw, sv = w.setup, v.setup
    return (
        np.array_equal(sw.partition.breakpoints, sv.partition.breakpoints)
        and np.array_equal(sw.partition.velocities, sv.partition.velocities)
        and np.array_equal(sw.bg_nodes, sv.bg_nodes)
        and np.array_equal(sw.ov_offsets, sv.ov_offsets)
        and np.array_equal(sw.a_breaks, sv.a_breaks)
    )


def _segment_quadrature(part):
    pts = part.xa[:, None] + part.lengths[:, None] * GL3.nodes[None, :]
    wts = part.lengths[:, None] * GL3.weights[None, :]
    return pts, wts


def _volume_pairing(ws, vs, t, form):
    """integral over the domain of dw/dt * v (standard) or w * (-dv/dt)."""
    part = spatial_partition(ws.geom, t)
    pts, wts = _segment_quadrature(part)
    total = 0.0
    for side in (1, 2):
        m = part.side == side
        if not np.any(m):
            continue
        xs = pts[m].ravel()
        if form == "standard":
            fa = evaluate(ws, xs, t, side=side, deriv="dt")
            fb = evaluate(vs, xs, t, side=side)
        else:
            fa = evaluate(ws, xs, t, side=side)
            fb = -evaluate(vs, xs, t, side=side, deriv="dt")
        total += float(np.sum(wts[m].ravel() * fa * fb))
    return total


def _gradient_pairing(ws, vs, t):
    part = spatial_partition(ws.geom, t)
    total = 0.0
    for side in (1, 2):
        m = part.side == side
        if not np.any(m):
            continue
        mids = 0.5 * (part.xa[m] + part.xb[m])
        gw = evaluate(ws, mids, t, side=side, deriv="dx")
        gv = evaluate(vs, mids, t, side=side, deriv="dx")
        total += float(np.sum(part.lengths[m] * gw * gv))
    return total


def _stabilization_pairing(ws, vs, t):
    seg = overlap_segments(ws.geom, t)
    if len(seg) == 0:
        return 0.0
    mids = 0.5 * (seg.xa + seg.xb)
    jw = evaluate(ws, mids, t, side=1, deriv="dx") - evaluate(ws, mids, t, side=2, deriv="dx")
    jv = evaluate(vs, mids, t, side=1, deriv="dx") - evaluate(vs, mids, t, side=2, deriv="dx")
    return float(np.sum(seg.lengths * jw * jv))


def _point_pairing(ws, vs, t, gamma, omega1, form, include_upwind):
    geom = ws.geom
    nodes = geom.bg_nodes
    mu = geom.mu
    mu_bar = float(np.hypot(mu, 1.0))
    sym = 0.0
    upwind = 0.0
    for label, s, n1 in interfaces(geom, t):
        w1 = float(evaluate(ws, s, t, side=1)[0])
        w2 = float(evaluate(ws, s, t, side=2)[0])
        v1 = float(evaluate(vs, s, t, side=1)[0])
        v2 = float(evaluate(vs, s, t, side=2)[0])
        gw = omega1 * interface_gradient(ws, label, t, 1) + (1 - omega1) * interface_gradient(
            ws, label, t, 2
        )
        gv = omega1 * interface_gradient(vs, label, t, 1) + (1 - omega1) * interface_gradient(
            vs, label, t, 2
        )
        jw, jv = w1 - w2, v1 - v2
        h_K = _h_K(nodes, s)
        sym += -n1 * (jw * gv + gw * jv) + mu_bar * gamma / h_K * jw * jv
        if include_upwind and mu != 0.0:
            sigma, w_up = sigma_side(label, mu)
            if form == "standard":
                upwind += w_up * jw * (v1 if sigma == 1 else v2)
            else:
                # the rearranged form pairs the downwind trace of the first
                # argument with the jump of the second
                w_dn = w2 if sigma == 1 else w1
                upwind += -w_up * w_dn * jv
    return sym, upwind


def _l2_pairing(geom, t, fa, fb):
    """Inner product over the domain of two side-wise evaluable functions."""
    part = spatial_partition(geom, t)
    pts, wts = _segment_quadrature(part)
    total = 0.0
    for side in (1, 2):
        m = part.side == side
        if not np.any(m):
            continue
        xs = pts[m].ravel()
        total += float(np.sum(wts[m].ravel() * fa(xs, side) * fb(xs, side)))
    return total


def apply_Bh(
    w,
    v,
    *,
    form: str = "standard",
    gamma: float | None = None,
    omega1: float | None = None,
    include_upwind: bool = True,
) -> float:
    """Evaluate the full space-time bilinear form on two space-time functions.

    ``form`` selects the primal writing (time derivative on the first argument,
    jumps paired with upper traces of the second) or the equivalent rearranged
    writing obtained by integration by parts in time.
    """
    if form not in ("standard", "alternative"):
        raise ValueError(f"unknown form {form!r}")
    if not _compatible(w, v):
        raise ValueError("arguments live on different discretizations")
    setup = w.setup
    gamma = setup.disc.gamma if gamma is None else gamma
    omega1 = setup.disc.omega1 if omega1 is None else omega1
    total = 0.0
    N = len(w.slabs)
    for ws, vs in zip(w.slabs, v.slabs):
        geom = ws.geom
        breaks = quadrature_breakpoints(geom)
        times, wts = composite_time_rule([geom.t_start], [geom.t_end], breaks, GL3, [len(breaks)])
        for t, wt in zip(times, wts):
            part = _volume_pairing(ws, vs, t, form)
            grad = _gradient_pairing(ws, vs, t)
            stab = _stabilization_pairing(ws, vs, t)
            sym, upw = _point_pairing(ws, vs, t, gamma, omega1, form, include_upwind)
            total += wt * (part + grad + stab + sym + upw)

    bp = setup.partition.breakpoints
    if form == "standard":
        w0 = trace(w, 0, "+")
        v0 = trace(v, 0, "+")
        total += _l2_pairing(
            w.slabs[0].geom,
            float(bp[0]),
            lambda x, s: w0(x, side=s),
            lambda x, s: v0(x, side=s),
        )
        for n in range(1, N):
            wp, wm = trace(w, n, "+"), trace(w, n, "-")
            vp = trace(v, n, "+")
            total += _l2_pairing(
                w.slabs[n - 1].geom,
                float(bp[n]),
                lambda x, s: wp(x, side=s) - wm(x, side=s),
                lambda x, s: vp(x, side=s),
            )
    else:
        for n in range(1, N):
            wm = trace(w, n, "-")
            vp, vm = trace(v, n, "+"), trace(v, n, "-")
            total += _l2_pairing(
                w.slabs[n - 1].geom,
                float(bp[n]),
                lambda x, s: wm(x, side=s),
                lambda x, s: vm(x, side=s) - vp(x, side=s),
            )
        wN, vN = trace(w, N, "-"), trace(v, N, "-")
        total += _l2_pairing(
            w.slabs[-1].geom,
            float(bp[N]),
            lambda x, s: wN(x, side=s),
            lambda x, s: vN(x, side=s),
        )
    return total


def apply_load(v) -> float:
    """Evaluate the full right-hand-side functional on a space-time function,
    with the same quadrature the assembly uses for its load vector."""
    setup = v.setup
    problem = setup.problem
    total = 0.0
    for vs in v.slabs:
        geom = vs.geom
        q = setup.disc.q
        rhs_rule = midpoint() if q == 0 else lobatto3()
        ends, count = ([geom.t_start], [geom.t_end]), [len(geom.events)]
        times, wts = composite_time_rule(*ends, geom.events, rhs_rule, count)
        for t, wt in zip(times, wts):
            part = spatial_partition(geom, t)
            half = 0.5 * part.lengths
            for xs in (part.xa, part.xb):
                for side in (1, 2):
                    m = part.side == side
                    if not np.any(m):
                        continue
                    fv = np.asarray(problem.source(xs[m], t), dtype=float)
                    total += wt * float(
                        np.sum(half[m] * fv * evaluate(vs, xs[m], t, side=side))
                    )
    v0 = trace(v, 0, "+")
    total += _l2_pairing(
        v.slabs[0].geom,
        float(setup.partition.breakpoints[0]),
        lambda x, s: np.asarray(problem.initial(x), dtype=float),
        lambda x, s: v0(x, side=s),
    )
    return total
