"""Energy-norm evaluation for discrete functions and errors, plus slope fitting.

The space-time error norm is the scaled-material-derivative term plus the
time-integrated spatial energy norm, the time-jump terms at slab breakpoints,
and the moving-interface jump term.  Temporal integration is composite
three-point Gauss over the interface-crossing panels of each slab; spatial
integration is three-point Gauss per merged-partition segment.

Each slab is measured in one batch, with no loop over its quadrature times,
from the ``SlabSpace`` record that the march built for it and the assembly
read (``spaces.build_slab_space``): one merged partition at all of the
record's times, both representations evaluated at every Gauss point from
each segment's own cell, and the interface terms read off the per-time
coefficient vectors through the record's interface stencil.  The
slab-breakpoint traces take one partition per breakpoint.  The gradient-jump
term over the covered parts of cut cells is the quadratic form of the
record's stabilization weights (pairwise per cut cell and overlap cell, exact
in time) in the discrete gradient jumps, which makes it exact for discrete
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExactSolution
from .geometry import segment_cells, segment_points, spatial_partition
from .spaces import SpaceTimeSolution, temporal_basis_derivs, temporal_basis_values


@dataclass(frozen=True)
class NormBreakdown:
    """Squared per-term contributions to the space-time energy norms."""

    material_bg_sq: float  # sum over slabs of k_n * int ||D_t e||^2 over side 1
    material_ov_sq: float  # same over side 2 (material derivative follows the motion)
    grad_sq: float  # time integral of the broken gradient
    flux_sq: float  # weighted average normal flux at the interface points
    iface_jump_sq: float  # weighted interface jumps
    stab_sq: float  # gradient jump over the covered parts of cut cells
    time_jump_sq: float  # jumps at interior slab breakpoints
    final_sq: float  # trace at the final time
    initial_sq: float  # trace at time zero
    moving_jump_sq: float  # interface jump weighted by the temporal normal component

    @property
    def b_sq(self) -> float:
        return (
            self.grad_sq
            + self.flux_sq
            + self.iface_jump_sq
            + self.stab_sq
            + self.time_jump_sq
            + self.final_sq
            + self.initial_sq
            + self.moving_jump_sq
        )

    @property
    def x_sq(self) -> float:
        return self.b_sq + self.material_bg_sq + self.material_ov_sq

    @property
    def b(self) -> float:
        return float(np.sqrt(self.b_sq))

    @property
    def x(self) -> float:
        return float(np.sqrt(self.x_sq))


def _zero_exact() -> ExactSolution:
    z = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    return ExactSolution(u=z, u_x=z, u_t=z)


def _stab_term(slab) -> float:
    """Exact time integral of the squared gradient jump over the covered parts
    of cut cells: the quadratic form of the record's stabilization weights in
    the per-pair gradient jumps."""
    if slab.space.stab is None:
        return 0.0
    idx, g, W = slab.space.stab
    d = np.einsum("pk,pki->pi", g, slab.nodal()[idx])  # jump per pair and mode
    return float(np.einsum("pi,pij,pj->", d, W, d))


def _point_values(slab, part, x, derivs=False):
    """Value of a slab solution at points ``x`` shaped (segments, points per
    segment), or with ``derivs`` its spatial gradient and trajectory time
    derivative there.

    Each row is evaluated on its segment's side, from the nodal values of the
    segment's own cell, at the segment's time.
    """
    geom = slab.geom
    t = np.broadcast_to(part.t, part.xa.shape)
    c, lo, hi = segment_cells(geom, part)
    nodal = slab.nodal()
    lam = temporal_basis_values(slab.space.q, geom.t_start, geom.t_end, t)
    n0, n1 = nodal[c], nodal[c + 1]
    c0 = np.sum(n0 * lam, axis=1)[:, None]
    c1 = np.sum(n1 * lam, axis=1)[:, None]
    h = (hi - lo)[:, None]
    w1 = (x - lo[:, None]) / h
    if not derivs:
        return c0 + w1 * (c1 - c0)
    dlam = temporal_basis_derivs(slab.space.q, geom.t_start, geom.t_end)
    d0, d1 = (n0 @ dlam)[:, None], (n1 @ dlam)[:, None]
    return (c1 - c0) / h, d0 + w1 * (d1 - d0)


def _volume_terms(slab, exact):
    """Squared gradient and material-derivative (side 1, side 2) error terms of
    one slab, at every (time, segment, Gauss point) of its rule at once."""
    geom = slab.geom
    part = spatial_partition(geom, slab.space.times)
    pts, pw = segment_points(part)
    tt = np.broadcast_to(part.t[:, None], pts.shape)
    dx, traj = _point_values(slab, part, pts, derivs=True)
    u_x = np.asarray(exact.u_x(pts, tt), dtype=float)
    ge = u_x - dx
    de = np.asarray(exact.u_t(pts, tt), dtype=float) - traj
    on2 = part.side == 2
    de[on2] += geom.mu * u_x[on2]  # side 2: the material derivative follows the motion
    w = slab.space.weights[part.time_index, None] * pw
    # contracted without (segments, points) temporaries
    de_sq = np.einsum("ij,ij,ij->i", w, de, de)
    return (
        float(np.einsum("ij,ij,ij->", w, ge, ge)),
        geom.k * float(np.sum(de_sq[~on2])),
        geom.k * float(np.sum(de_sq[on2])),
    )


def _interface_terms(slab, exact):
    """Squared flux, interface-jump and moving-jump error terms of one slab at
    all of its rule's times, through the record's interface stencil.

    The exact solution is continuous, so the error's jump is the discrete one.
    """
    geom, space = slab.geom, slab.space
    st = space.stencil
    rows = np.tile(np.arange(len(space.times)), 2)
    vals = (space.lam @ slab.nodal().T)[rows[:, None], st.idx]  # stencil nodes at each row's time
    u_x = np.asarray(exact.u_x(st.x, space.times[rows]), dtype=float)
    avg = u_x - np.sum(vals * st.grad, axis=1)
    jump_sq = np.sum(vals * st.jump, axis=1) ** 2
    w = space.weights[rows]
    mu_bar = float(np.hypot(geom.mu, 1.0))
    return (
        mu_bar * float(np.sum(w * st.h_K * avg * avg)),
        mu_bar * float(np.sum(w / st.h_K * jump_sq)),
        abs(geom.mu) * float(np.sum(w * jump_sq)),
    )


def xnorm_error(sol: SpaceTimeSolution, exact: ExactSolution | None = None) -> NormBreakdown:
    """Energy-norm breakdown of exact-minus-discrete (of the discrete function
    itself when ``exact`` is omitted).

    ``exact`` is evaluated on arrays of points with ``t`` an array of the same
    shape.  Time integrals use three-point Gauss on the interface-crossing
    panels of each slab, space integrals three-point Gauss per segment; the
    gradient-jump term reads the slab record's stabilization weights.
    """
    if exact is None:
        exact = _zero_exact()
    if exact.u_x is None or exact.u_t is None:
        raise ValueError("exact solution must provide u_x and u_t for the error norm")
    setup = sol.setup
    # grad, material (side 1, side 2), flux, interface jump, moving jump, stab
    totals = np.zeros(7)
    for slab in sol.slabs:
        totals += (*_volume_terms(slab, exact), *_interface_terms(slab, exact), _stab_term(slab))
    grad, mat_bg, mat_ov, flux, ijump, moving, stab = map(float, totals)

    # initial, time-jump and final traces, one partition per breakpoint
    bp = setup.partition.breakpoints
    N = len(sol.slabs)
    traces = []
    for n in range(N + 1):
        t = float(bp[n])
        part = spatial_partition(sol.slabs[max(n - 1, 0)].geom, t)
        pts, pw = segment_points(part)
        if n < N:
            upper = _point_values(sol.slabs[n], part, pts)
        else:
            upper = np.asarray(exact.u(pts, np.full_like(pts, t)), dtype=float)
        if n > 0:
            lower = _point_values(sol.slabs[n - 1], part, pts)
        else:
            lower = np.asarray(setup.problem.initial(pts), dtype=float)
        traces.append(float(np.sum(pw * (upper - lower) ** 2)))

    return NormBreakdown(
        material_bg_sq=mat_bg,
        material_ov_sq=mat_ov,
        grad_sq=grad,
        flux_sq=flux,
        iface_jump_sq=ijump,
        stab_sq=stab,
        time_jump_sq=float(sum(traces[1:-1])),
        final_sq=traces[-1],
        initial_sq=traces[0],
        moving_jump_sq=moving,
    )


def lls_slope(points, window=None) -> float:
    """Least-squares slope of log(error) against log(resolution).

    ``window`` is a 1-based inclusive index pair into the point list; the whole
    list is used when omitted.
    """
    pts = [(float(r), float(e)) for r, e in points]
    if window is not None:
        i, j = window
        if not (1 <= i < j <= len(pts)):
            raise ValueError(f"bad fit window {window} for {len(pts)} points")
        pts = pts[i - 1 : j]
    if len(pts) < 2:
        raise ValueError("need at least two points to fit a slope")
    res = np.array([p[0] for p in pts])
    err = np.array([p[1] for p in pts])
    if np.any(res <= 0) or np.any(err <= 0):
        raise ValueError("resolutions and errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(res), np.log(err), 1)[0])
