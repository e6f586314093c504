"""Energy-norm evaluation for discrete functions and errors, plus slope fitting.

The space-time error norm is the scaled-material-derivative term plus the
time-integrated spatial energy norm, the time-jump terms at slab breakpoints,
and the moving-interface jump term.  Temporal integration is composite
three-point Gauss over the interface-crossing panels of each slab; spatial
integration is three-point Gauss per merged-partition segment.

The norm works on flat rows across all slabs, not slab by slab, and reads
the columns of the records that the march built (``spaces.SlabSpaces``) and
its coefficient column (``spaces.SlabSolutions``) as they are, rebuilding
and concatenating none of them.  The coefficient column fills one (slab,
mode, node) array of nodal values, and the rows are the records' times with
their weights and temporal mode values, each tagged with its slab.  Arrays
over a partition's Gauss points are (3, segments), a row per point: every
step runs along the segments, not over the three points of one segment.

- Volume terms: the rows go in chunks of at most ``CHUNK_ROW_NODES`` (time
  rows x mesh nodes) with one merged partition per chunk.  A chunk forms the
  discrete solution and its time derivative at every node of its rows once;
  each segment reads its own cell's ends from those by 1-D gathers.  A chunk
  may cut a slab's times, so the cap bounds the temporaries of a wide slab.
- Interface terms: one gathered contraction over the interface stencils of
  all records, a row of both points per rule time, with each row's slab
  velocity.
- Gradient-jump term over the covered parts of cut cells: the quadratic form
  of the records' stabilization weights (pairwise per cut cell and overlap
  cell, exact in time) in the discrete gradient jumps, over the pairs of all
  slabs at once; it is exact for discrete arguments.
- Initial, time-jump and final traces: the slab breakpoints in chunks under
  the same cap, one merged partition per chunk, with the nodal values of the
  slabs above and below each breakpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ExactSolution, pointwise
from .geometry import partition_at, segment_cells, segment_points
from .spaces import (
    SlabSpaces, SpaceTimeSolution, nodal_values, temporal_basis_derivs, temporal_modes
)

# The volume terms and the breakpoint traces take their rows (times) in
# chunks of at most this many time rows x mesh nodes (background plus
# overlap).  The cap bounds a chunk's per-row nodal values to 16 kB and, as a
# row has fewer segments than the meshes have nodes, each per-point
# temporary to 48 kB; 512 + 128 cells get three rows a chunk.  A cap of 8192
# is faster but raised the benchmark's peak RSS by 1.9-2.9 MiB on 64 + 16 and
# 256 + 64 cells.
CHUNK_ROW_NODES = 2048


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


def _row_values(vals, slab, lam) -> np.ndarray:
    """The nodal values of the slabs ``slab`` with their temporal mode values
    ``lam`` (rows, q+1), one row of nodes per entry, flattened: node i of
    row r is entry ``r * nodes + i``."""
    return np.matmul(lam[:, None], vals[slab]).ravel()


def _volume_terms(spaces, vals, slab, times, exact, per_chunk: int):
    """Squared gradient error and squared material-derivative errors on
    side 1 and on side 2 (each slab's scaled by its length k), taking
    ``per_chunk`` rule rows (``slab``, ``times``) at a time with one merged
    partition each."""
    geoms = spaces.geoms
    S, k, mu = len(geoms), geoms.k, geoms.mu
    dlam = temporal_basis_derivs(spaces.q, k)  # (slabs, q+1)
    a = geoms.left(slab, times)
    grad = 0.0
    material = np.zeros(2 * S)  # per slab on side 1, then per slab on side 2
    for lo in range(0, len(times), per_chunk):
        chunk = slice(lo, lo + per_chunk)
        part = partition_at(geoms, times[chunk], a[chunk])
        row = part.time_index + lo
        s = slab[row]
        # the discrete solution and its time derivative at every node of
        # each row, so a segment reads its cell's ends by 1-D gathers
        V = _row_values(vals, slab[chunk], spaces.lam[chunk])
        D = _row_values(vals, slab[chunk], dlam[slab[chunk]])
        pts, pw = segment_points(part)  # (points, segments)
        tt = np.broadcast_to(part.t, pts.shape)
        node, xa, xb = segment_cells(geoms, part)
        at = part.time_index * vals.shape[2] + node
        h = xb - xa
        u_x = pointwise(exact.u_x, pts, tt)
        ge = u_x - (V[at + 1] - V[at]) / h
        # the discrete time derivative along the trajectories of the nodes
        de = pointwise(exact.u_t, pts, tt) - D[at]  # a new array, not u_t's own
        de -= (pts - xa) * ((D[at + 1] - D[at]) / h)
        on2 = part.side == 2
        # side 2: the material derivative follows the motion
        de += np.where(on2, mu[s], 0.0) * u_x
        # contracted without (points, segments) temporaries
        grad += float(spaces.weights[row] @ np.einsum("ij,ij,ij->j", pw, ge, ge))
        de_sq = spaces.weights[row] * np.einsum("ij,ij,ij->j", pw, de, de)
        material += np.bincount(s + S * on2, de_sq, minlength=2 * S)
    return grad, float(k @ material[:S]), float(k @ material[S:])


def _interface_terms(spaces, vals, slab, times, exact):
    """Squared flux, interface-jump and moving-jump error terms: one
    contraction over the interface stencils of all records, a row of both
    points per rule time, with each row's slab velocity.  The exact solution
    is continuous, so the error's jump is the discrete one."""
    st = spaces.stencil
    v = np.einsum("rpkm,rm->rpk", vals[slab[:, None, None], :, st.idx], spaces.lam)
    t = np.broadcast_to(times[:, None], st.x.shape)
    avg = pointwise(exact.u_x, st.x, t) - np.einsum("rpk,rpk->rp", v, st.grad)
    jump_sq = np.einsum("rpk,rpk->rp", v, st.jump) ** 2
    w = spaces.weights[:, None]
    mu = spaces.geoms.mu[slab][:, None]
    mu_bar = np.hypot(mu, 1.0)
    return (
        float(np.sum(mu_bar * w * st.h_K * avg * avg)),
        float(np.sum(mu_bar * w / st.h_K * jump_sq)),
        float(np.sum(np.abs(mu) * w * jump_sq)),
    )


def _stab_term(spaces, vals) -> float:
    """The gradient-jump term over the covered parts of cut cells: the
    quadratic form of the records' stabilization weights in the per-pair
    gradient jumps, over the pairs of all slabs at once."""
    idx, g, W = spaces.stab
    if not len(idx):
        return 0.0
    slab = spaces.slab_index("stab")
    d = np.einsum("pk,pki->pi", g, vals[slab[:, None], :, idx])  # jump per pair and mode
    return float(np.einsum("pi,pij,pj->", d, W, d))


def _trace_terms(setup, spaces: SlabSpaces, vals, exact, per_chunk: int) -> np.ndarray:
    """Squared L2 norm of the error's jump at each slab breakpoint t_0..t_N,
    with the initial data below t_0 and the exact solution above t_N, taking
    ``per_chunk`` breakpoints at a time.  Breakpoint n takes the partition of
    the slab below it (of slab 1 for n = 0)."""
    geoms = spaces.geoms
    S = len(geoms)
    lam_start, lam_end = temporal_modes(spaces.q, np.zeros(S)), temporal_modes(spaces.q, np.ones(S))
    bp = setup.partition.breakpoints
    above = np.minimum(np.arange(S + 1), S - 1)  # the slab above each breakpoint
    below = np.maximum(np.arange(S + 1) - 1, 0)  # and the slab below it
    sides = ((above, lam_start), (below, lam_end))
    a = geoms.left(below, bp)
    traces = np.zeros(S + 1)
    for lo in range(0, S + 1, per_chunk):
        chunk = slice(lo, lo + per_chunk)
        part = partition_at(geoms, bp[chunk], a[chunk])
        n = part.time_index + lo
        pts, pw = segment_points(part)
        node, xa, xb = segment_cells(geoms, part)
        w1 = (pts - xa) / (xb - xa)
        at = part.time_index * vals.shape[2] + node
        upper, lower = (
            V[at] + w1 * (V[at + 1] - V[at])
            for V in (_row_values(vals, s[chunk], lam[s[chunk]]) for s, lam in sides)
        )
        if lo == 0:
            lower[:, n == 0] = pointwise(setup.problem.initial, pts[:, n == 0])
        if n[-1] == S:
            top = n == S
            upper[:, top] = pointwise(exact.u, pts[:, top], np.full_like(pts[:, top], bp[S]))
        traces += np.bincount(n, np.einsum("ij,ij->j", pw, (upper - lower) ** 2), minlength=S + 1)
    return traces


def xnorm_error(sol: SpaceTimeSolution, exact: ExactSolution | None = None) -> NormBreakdown:
    """Energy-norm breakdown of exact-minus-discrete (of the discrete function
    itself when ``exact`` is omitted).

    ``exact`` is evaluated on arrays of points with ``t`` an array of the same
    shape.  Time integrals use three-point Gauss on the interface-crossing
    panels of each slab, space integrals three-point Gauss per segment; the
    gradient-jump term reads the slab records' stabilization weights.  The
    volume terms and the breakpoint traces take one merged partition per
    chunk of rows under ``CHUNK_ROW_NODES``, across slabs.
    """
    if exact is None:
        exact = _zero_exact()
    if exact.u_x is None or exact.u_t is None:
        raise ValueError("exact solution must provide u_x and u_t for the error norm")
    spaces = sol.slabs.spaces
    vals = nodal_values(spaces.node_dof, sol.slabs.coeffs, spaces.q)
    per_chunk = max(1, CHUNK_ROW_NODES // vals.shape[2])
    slab, times = spaces.slab_index("tau"), spaces.times
    grad, material_bg, material_ov = _volume_terms(spaces, vals, slab, times, exact, per_chunk)
    flux, ijump, moving = _interface_terms(spaces, vals, slab, times, exact)
    traces = _trace_terms(sol.setup, spaces, vals, exact, per_chunk)
    return NormBreakdown(
        material_bg_sq=material_bg,
        material_ov_sq=material_ov,
        grad_sq=grad,
        flux_sq=flux,
        iface_jump_sq=ijump,
        stab_sq=_stab_term(spaces, vals),
        time_jump_sq=float(np.sum(traces[1:-1])),
        final_sq=float(traces[-1]),
        initial_sq=float(traces[0]),
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
    res, err = np.array(pts).T
    if np.any(res <= 0) or np.any(err <= 0):
        raise ValueError("resolutions and errors must be positive for a log-log fit")
    return float(np.polyfit(np.log(res), np.log(err), 1)[0])
