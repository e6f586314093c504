"""Slab system assembly.

The slab bilinear form splits into pieces with different time dependence:

* overlap-mesh volume terms are rigid under the translation, so their spatial
  matrices are constant on the slab and the time integral is done analytically;
* background volume terms over the uncovered region are the full-mesh matrices
  minus a correction over the covered interval, whose entries are piecewise
  polynomial in time between interface-node crossings;
* interface point terms (Nitsche coupling, penalty, upwind space-time jump)
  are rank-one updates, piecewise polynomial between the same crossings;
* the overlap-region gradient-jump stabilization is integrated pairwise over
  (cut background cell, overlap cell) with panels at their mutual crossings.

Composite three-point Gauss rules on those panels integrate every piecewise
polynomial integrand exactly (degree <= 5), so the assembled matrix carries no
temporal quadrature error.  The time-dependent pieces are evaluated at all
panel Gauss times of a slab at once.  Every piece yields COO triplets of
spatial entries, each carrying a (q+1)x(q+1) block over the temporal modes, and
the slab matrix is their sum in CSC form.  Right-hand-side integrals use the
lower-order rules of the reference computation: trapezoid in space, midpoint
in time for piecewise-constant time elements and three-point Lobatto for
linear ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_array, csc_array

from .core import NumericalFailure, Setup
from .geometry import (
    SlabGeometry,
    overlap_segments,
    quadrature_breakpoints,
    sigma_side,
    spatial_partition,
)
from .quadrature import composite_time_rule, gauss_legendre3, lobatto3, midpoint
from .spaces import (
    SlabSpace,
    _hat_eval,
    temporal_basis_derivs,
    temporal_basis_values,
)

_GL3 = gauss_legendre3()


@dataclass(frozen=True)
class SlabSystem:
    """Sparse (CSC) matrix and load vector for one slab."""

    slab: int
    matrix: csc_array
    rhs: np.ndarray
    space: SlabSpace

    def __post_init__(self):
        n = self.space.n_cols
        if not isinstance(self.matrix, csc_array):
            raise TypeError("the slab matrix must be a scipy.sparse.csc_array")
        if self.matrix.shape != (n, n) or self.rhs.shape != (n,):
            raise ValueError("system dimensions do not match the slab space")
        if not (np.all(np.isfinite(self.matrix.data)) and np.all(np.isfinite(self.rhs))):
            raise NumericalFailure(f"non-finite entries in slab {self.slab} system")


# ---------------------------------------------------------------------------
# spatial entries as COO triplets
# ---------------------------------------------------------------------------
#
# Spatial entries are (rows, cols, values) over the slab's spatial DOFs; a
# background node without a DOF maps to index -1, and every entry touching one
# is dropped where the entries are summed.


def _bg_pair_indices(space: SlabSpace, cells: np.ndarray):
    """Spatial DOF indices of the two nodes of each background cell (-1 if dropped)."""
    return space.bg_dof[cells], space.bg_dof[cells + 1]


def _cell_entries(d0, d1, e00, e01, e10, e11):
    """Triplets of 2x2 cell matrices on nodes (d0, d1); values may carry
    leading axes, the cells run along the last one."""
    rows = np.concatenate([d0, d0, d1, d1])
    cols = np.concatenate([d0, d1, d0, d1])
    vals = np.concatenate(np.broadcast_arrays(e00, e01, e10, e11), axis=-1)
    return rows, cols, vals


def _scatter(mat: np.ndarray, rows, cols, vals) -> None:
    """Add spatial entries into a dense matrix."""
    rows, cols, vals = (np.ravel(x) for x in (rows, cols, vals))
    ok = (rows >= 0) & (cols >= 0)
    np.add.at(mat, (rows[ok], cols[ok]), vals[ok])


def _segment_mass_stiff(xa, xb, cell_lo, cell_hi):
    """2x2 mass and stiffness entries of P1 cells restricted to [xa, xb];
    the cells run along the last axis."""
    h = cell_hi - cell_lo
    pts = xa[..., None] + (xb - xa)[..., None] * _GL3.nodes
    wts = (xb - xa)[..., None] * _GL3.weights
    w1 = (pts - cell_lo[..., None]) / h[..., None]
    w0 = 1.0 - w1
    m00 = np.sum(wts * w0 * w0, axis=-1)
    m01 = np.sum(wts * w0 * w1, axis=-1)
    m11 = np.sum(wts * w1 * w1, axis=-1)
    seg = xb - xa
    k00 = seg / h**2
    return (m00, m01, m11), (k00, -k00, k00)


def _p1_entries(nodes: np.ndarray):
    """Node-index triplets of the full-mesh tridiagonal P1 matrices: mass,
    stiffness, and drift (integral of phi_trial' phi_test)."""
    i = np.arange(len(nodes) - 1)
    h = np.diff(nodes)
    half = np.full_like(h, 0.5)
    rows, cols, mass = _cell_entries(i, i + 1, h / 3, h / 6, h / 6, h / 3)
    stiff = _cell_entries(i, i + 1, 1 / h, -1 / h, -1 / h, 1 / h)[2]
    drift = _cell_entries(i, i + 1, -half, half, -half, half)[2]
    return rows, cols, mass, stiff, drift


def _covered_entries(space: SlabSpace, a: np.ndarray):
    """Mass/stiffness triplets of the background basis over the covered interval
    [a, a + L] for each left position in ``a``.

    rows and cols run over the background cells met at any of the positions;
    the values are shaped (positions, entries) and vanish where a cell lies
    outside that position's interval.
    """
    geom = space.geom
    nodes = geom.bg_nodes
    b = a + geom.overlap_length
    c_lo = int(np.clip(np.searchsorted(nodes, a.min(), side="right") - 1, 0, len(nodes) - 2))
    c_hi = int(np.clip(np.searchsorted(nodes, b.max(), side="left") - 1, 0, len(nodes) - 2))
    cells = np.arange(c_lo, c_hi + 1)
    xa = np.maximum(nodes[cells], a[:, None])
    xb = np.maximum(np.minimum(nodes[cells + 1], b[:, None]), xa)
    (m00, m01, m11), (k00, k01, k11) = _segment_mass_stiff(
        xa, xb, nodes[cells], nodes[cells + 1]
    )
    d0, d1 = _bg_pair_indices(space, cells)
    rows, cols, mv = _cell_entries(d0, d1, m00, m01, m01, m11)
    kv = _cell_entries(d0, d1, k00, k01, k01, k11)[2]
    return rows, cols, mv, kv


class _Trace(NamedTuple):
    """A linear functional on the spatial DOFs at each of a batch of points:
    DOF indices and weights, shaped (points, terms)."""

    idx: np.ndarray
    val: np.ndarray

    def scaled_sum(self, w1, other: "_Trace", w2) -> "_Trace":
        return _Trace(
            np.concatenate([self.idx, other.idx], axis=1),
            np.concatenate([w1 * self.val, w2 * other.val], axis=1),
        )


def _outer(test: _Trace, trial: _Trace, w):
    """Triplets of w * test (x) trial at each point, shaped (points, entries)."""
    n, a, b = len(test.idx), test.idx.shape[1], trial.idx.shape[1]
    rows = np.repeat(test.idx, b, axis=1)
    cols = np.tile(trial.idx, (1, a))
    vals = np.asarray(w)[..., None, None] * test.val[:, :, None] * trial.val[:, None, :]
    return rows, cols, vals.reshape(n, a * b)


def _join(parts):
    """Concatenate triplets shaped (points, entries) along the entries."""
    return tuple(np.concatenate(x, axis=1) for x in zip(*parts))


class _InterfacePoint(NamedTuple):
    """Traces of one interface point at a batch of times."""

    label: str
    n1: float  # spatial normal of the uncovered side
    x: np.ndarray  # position at each time
    bg_val: _Trace
    ov_val: _Trace
    bg_grad: _Trace  # one-sided, from the uncovered side's cell
    ov_grad: _Trace
    h_K: np.ndarray  # size of the background cell holding the point

    @property
    def jump(self) -> _Trace:
        return self.bg_val.scaled_sum(1.0, self.ov_val, -1.0)

    def average_grad(self, omega1: float) -> _Trace:
        return self.bg_grad.scaled_sum(omega1, self.ov_grad, 1.0 - omega1)


def _interface_data(space: SlabSpace, times) -> list[_InterfacePoint]:
    """Value/gradient traces of both sides at each interface point, at every
    time of ``times``."""
    geom = space.geom
    nodes = geom.bg_nodes
    times = np.array(times, dtype=float, ndmin=1)
    nt = len(times)
    a = geom.left(times)
    h_ov = (a + geom.ov_offsets[1]) - (a + geom.ov_offsets[0])
    ov_slope = np.stack([-1.0 / h_ov, 1.0 / h_ov], axis=1)
    out = []
    for label, s, n1, edge, ov_node, ov_cell in (
        ("left", a, 1.0, "left", 0, 0),
        ("right", geom.right(times), -1.0, "right", space.n_ov - 1, space.n_ov - 2),
    ):
        c, w0, w1, _, _ = _hat_eval(nodes, s)
        # one-sided gradient cell on the uncovered side
        c1 = np.clip(np.searchsorted(nodes, s, side=edge) - 1, 0, len(nodes) - 2)
        h1 = nodes[c1 + 1] - nodes[c1]
        ov_pair = space.ov_dof(np.array([ov_cell, ov_cell + 1]))
        out.append(
            _InterfacePoint(
                label=label,
                n1=n1,
                x=s,
                bg_val=_Trace(
                    space.bg_dof[np.stack([c, c + 1], axis=1)], np.stack([w0, w1], axis=1)
                ),
                ov_val=_Trace(np.full((nt, 1), space.ov_dof(ov_node)), np.ones((nt, 1))),
                bg_grad=_Trace(
                    space.bg_dof[np.stack([c1, c1 + 1], axis=1)],
                    np.stack([-1.0 / h1, 1.0 / h1], axis=1),
                ),
                ov_grad=_Trace(np.broadcast_to(ov_pair, (nt, 2)), ov_slope),
                h_K=nodes[c + 1] - nodes[c],
            )
        )
    return out


def _nitsche_entries(points, gamma: float, omega1: float, mu: float):
    """Symmetric Nitsche coupling and penalty triplets at each time."""
    mu_bar = float(np.hypot(mu, 1.0))
    parts = []
    for p in points:
        jump, avg = p.jump, p.average_grad(omega1)
        parts += [
            _outer(jump, avg, -p.n1),
            _outer(avg, jump, -p.n1),
            _outer(jump, jump, mu_bar * gamma / p.h_K),
        ]
    return _join(parts)


def _upwind_entries(points, mu: float):
    """Moving-interface jump triplets at each time: rows test the upwind-side
    trace, columns carry the jump, weighted by n1*mu."""
    parts = []
    for p in points:
        sigma, w = sigma_side(p.label, mu)
        parts.append(_outer(p.bg_val if sigma == 1 else p.ov_val, p.jump, w))
    return _join(parts)


def _stabilization_entries(space: SlabSpace, bg_cell, ov_cell, ov_pos, lengths):
    """Gradient-jump triplets of (background cell, overlap cell) pairs weighted
    by the lengths of their covered intersections."""
    nodes = space.geom.bg_nodes
    h = nodes[bg_cell + 1] - nodes[bg_cell]
    h_ov = ov_pos[ov_cell + 1] - ov_pos[ov_cell]
    d0, d1 = _bg_pair_indices(space, bg_cell)
    jg = _Trace(
        np.stack([d0, d1, space.ov_dof(ov_cell), space.ov_dof(ov_cell + 1)], axis=1),
        np.stack([-1.0 / h, 1.0 / h, 1.0 / h_ov, -1.0 / h_ov], axis=1),
    )
    return _outer(jg, jg, lengths)


# ---------------------------------------------------------------------------
# dense spatial matrices at one time (verification)
# ---------------------------------------------------------------------------


def _sidewise_entries(space: SlabSpace, t: float):
    """Side-wise mass and stiffness triplets at time t."""
    geom = space.geom
    part = spatial_partition(geom, t)
    out = []
    for side, node_arr in ((1, geom.bg_nodes), (2, geom.ov_positions(t))):
        m = part.side == side
        if not np.any(m):
            continue
        cells = part.bg_cell[m] if side == 1 else part.ov_cell[m]
        (m00, m01, m11), (k00, k01, k11) = _segment_mass_stiff(
            part.xa[m], part.xb[m], node_arr[cells], node_arr[cells + 1]
        )
        if side == 1:
            d0, d1 = _bg_pair_indices(space, cells)
        else:
            d0, d1 = space.ov_dof(cells), space.ov_dof(cells + 1)
        rows, cols, mv = _cell_entries(d0, d1, m00, m01, m01, m11)
        out.append((rows, cols, mv, _cell_entries(d0, d1, k00, k01, k01, k11)[2]))
    return out


def assemble_Aht(space: SlabSpace, t: float, gamma: float, omega1: float) -> np.ndarray:
    """Spatial matrix of the symmetric form at time t (one temporal quadrature point)."""
    geom = space.geom
    A = np.zeros((space.n_spatial, space.n_spatial))
    for rows, cols, _, kv in _sidewise_entries(space, t):
        _scatter(A, rows, cols, kv)
    _scatter(A, *_nitsche_entries(_interface_data(space, t), gamma, omega1, geom.mu))
    # gradient-jump stabilization over the covered parts of cut cells
    seg = overlap_segments(geom, t)
    _scatter(
        A,
        *_stabilization_entries(space, seg.bg_cell, seg.ov_cell, geom.ov_positions(t), seg.lengths),
    )
    return A


def upwind_matrix(space: SlabSpace, t: float) -> np.ndarray:
    """Spatial matrix of the moving-interface jump term at time t."""
    G = np.zeros((space.n_spatial, space.n_spatial))
    if space.geom.mu != 0.0:
        _scatter(G, *_upwind_entries(_interface_data(space, t), space.geom.mu))
    return G


def mass_matrix(space: SlabSpace, t: float) -> np.ndarray:
    """Side-wise spatial mass matrix at time t."""
    M = np.zeros((space.n_spatial, space.n_spatial))
    for rows, cols, mv, _ in _sidewise_entries(space, t):
        _scatter(M, rows, cols, mv)
    return M


# ---------------------------------------------------------------------------
# pairwise-exact stabilization integral
# ---------------------------------------------------------------------------


def _stabilization_panels(geom: SlabGeometry):
    """(pair DOF data, per-pair time panels) for the gradient-jump term.

    For each (cut background cell, overlap cell) pair the covered-intersection
    length is piecewise linear in time with breakpoints at their endpoint
    crossings; three-point Gauss per panel is exact for the product with the
    temporal mode pairs.
    """
    if len(geom.cut_cells) == 0:
        return None
    nodes = geom.bg_nodes
    t0, t1 = geom.t_start, geom.t_end
    mu = geom.mu
    y0 = geom.ov_positions(t0)
    K_lo_all = nodes[geom.cut_cells]
    K_hi_all = nodes[geom.cut_cells + 1]
    shift = mu * geom.k
    pairs_K, pairs_c = [], []
    for Kc, K_lo, K_hi in zip(geom.cut_cells, K_lo_all, K_hi_all):
        # overlap cells meeting this cell at some slab time
        lo_off = K_lo - max(shift, 0.0)
        hi_off = K_hi - min(shift, 0.0)
        g0 = max(0, int(np.searchsorted(y0, lo_off, side="right")) - 1)
        g1 = min(len(y0) - 2, int(np.searchsorted(y0, hi_off, side="left")) - 1)
        for g in range(g0, g1 + 1):
            pairs_K.append(Kc)
            pairs_c.append(g)
    if not pairs_K:
        return None
    pK = np.asarray(pairs_K)
    pc = np.asarray(pairs_c)
    K_lo, K_hi = nodes[pK], nodes[pK + 1]
    c_lo0, c_hi0 = y0[pc], y0[pc + 1]
    if mu != 0.0:
        crossings = np.stack(
            [
                (K_lo - c_lo0) / mu,
                (K_hi - c_lo0) / mu,
                (K_lo - c_hi0) / mu,
                (K_hi - c_hi0) / mu,
            ],
            axis=1,
        )
        crossings = np.clip(t0 + crossings, t0, t1)
        crossings.sort(axis=1)
    else:
        crossings = np.full((len(pK), 4), t0)
    breaks = np.concatenate(
        [np.full((len(pK), 1), t0), crossings, np.full((len(pK), 1), t1)], axis=1
    )
    return pK, pc, c_lo0, c_hi0, breaks


def _pair_lengths(K_lo, K_hi, c_lo0, c_hi0, mu, t0, tt):
    drift = mu * (tt - t0)
    return np.maximum(
        0.0,
        np.minimum(K_hi[:, None], c_hi0[:, None] + drift)
        - np.maximum(K_lo[:, None], c_lo0[:, None] + drift),
    )


# ---------------------------------------------------------------------------
# slab assembly
# ---------------------------------------------------------------------------


def _temporal_products(q: int, k: float):
    """Exact integrals of mode products over the slab: T1 = lam_i lam_j,
    T2 = lam_i lam_j' (test index first)."""
    if q == 0:
        return np.array([[k]]), np.array([[0.0]])
    T1 = k * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    T2 = np.array([[-0.5, 0.5], [-0.5, 0.5]])
    return T1, T2


def _f_load(space: SlabSpace, times: np.ndarray, weights: np.ndarray, source) -> np.ndarray:
    """Load of the source against every basis function, shaped
    (n_spatial, q+1): trapezoid per segment in space, the rule (times,
    weights) in time."""
    geom = space.geom
    nodes = geom.bg_nodes
    # a composite Lobatto rule repeats each inner panel endpoint
    ts, slot = np.unique(times, return_inverse=True)
    part = spatial_partition(geom, ts)
    wlam = np.bincount(slot, weights)[:, None] * temporal_basis_values(
        space.q, geom.t_start, geom.t_end, ts
    )
    wlam = wlam[part.time_index]
    half = 0.5 * part.lengths
    a = geom.left(part.t)
    vec = np.zeros((space.n_spatial, space.q + 1))
    m1, m2 = part.side == 1, part.side == 2
    for xs in (part.xa, part.xb):
        fv = (np.asarray(source(xs, part.t), dtype=float) * half)[:, None] * wlam
        # evaluate the hats of the segment's own cell, not the neighbor's
        c = part.bg_cell[m1]
        w1 = (xs[m1] - nodes[c]) / (nodes[c + 1] - nodes[c])
        d0, d1 = _bg_pair_indices(space, c)
        for d, w in ((d0, 1.0 - w1), (d1, w1)):
            ok = d >= 0
            np.add.at(vec, d[ok], (fv[m1] * w[:, None])[ok])
        c = part.ov_cell[m2]
        lo = a[m2] + geom.ov_offsets[c]
        w1 = (xs[m2] - lo) / ((a[m2] + geom.ov_offsets[c + 1]) - lo)
        np.add.at(vec, space.ov_dof(c), fv[m2] * (1.0 - w1)[:, None])
        np.add.at(vec, space.ov_dof(c + 1), fv[m2] * w1[:, None])
    return vec


def _trace_load(space: SlabSpace, t: float, func) -> np.ndarray:
    """Gauss-3-per-segment load vector of a scalar function at time t."""
    geom = space.geom
    part = spatial_partition(geom, t)
    vec = np.zeros(space.n_spatial)
    pts = part.xa[:, None] + part.lengths[:, None] * _GL3.nodes[None, :]
    wts = part.lengths[:, None] * _GL3.weights[None, :]
    fv = np.asarray(func(pts.ravel()), dtype=float).reshape(pts.shape) * wts
    ov_pos = geom.ov_positions(t)
    m1 = part.side == 1
    if np.any(m1):
        c = part.bg_cell[m1]
        h = (geom.bg_nodes[c + 1] - geom.bg_nodes[c])[:, None]
        w1 = (pts[m1] - geom.bg_nodes[c][:, None]) / h
        d0, d1 = _bg_pair_indices(space, c)
        for d, w in ((d0, 1.0 - w1), (d1, w1)):
            ok = d >= 0
            np.add.at(vec, d[ok], np.sum(fv[m1] * w, axis=1)[ok])
    m2 = part.side == 2
    if np.any(m2):
        c = part.ov_cell[m2]
        h = (ov_pos[c + 1] - ov_pos[c])[:, None]
        w1 = (pts[m2] - ov_pos[c][:, None]) / h
        np.add.at(vec, space.ov_dof(c), np.sum(fv[m2] * (1.0 - w1), axis=1))
        np.add.at(vec, space.ov_dof(c + 1), np.sum(fv[m2] * w1, axis=1))
    return vec


def _slab_matrix(space: SlabSpace, rows, cols, blocks) -> csc_array:
    """Sum spatial entries with their (q+1)x(q+1) temporal blocks into the slab
    matrix (temporal mode fastest), dropping entries on nodes without a DOF."""
    rows, cols, blocks = (np.concatenate(x) for x in (rows, cols, blocks))
    ok = (rows >= 0) & (cols >= 0)
    m = space.q + 1
    modes = np.arange(m)
    R = np.broadcast_to((rows[ok] * m)[:, None, None] + modes[:, None], (int(ok.sum()), m, m))
    C = np.broadcast_to((cols[ok] * m)[:, None, None] + modes, R.shape)
    n = space.n_cols
    # the conversion to CSC sums the duplicate entries, once
    return coo_array((blocks[ok].ravel(), (R.ravel(), C.ravel())), shape=(n, n)).tocsc()


def assemble_slab(
    space: SlabSpace,
    setup: Setup,
    prev_trace,
    *,
    include_upwind: bool = True,
) -> SlabSystem:
    """Assemble the sparse system of one slab.

    ``prev_trace`` is the trace of the solution from below at the slab's start
    (the initial data for the first slab), as a callable of position.
    """
    geom = space.geom
    disc = setup.disc
    q = disc.q
    mu = geom.mu
    t0, t1, k = geom.t_start, geom.t_end, geom.k
    lam0 = temporal_basis_values(q, t0, t1, t0)
    T1, T2 = _temporal_products(q, k)
    start = np.outer(lam0, lam0)  # slab-start mass (time jump / initial coupling)
    rows, cols, blocks = [], [], []

    def add_fixed(r, c, vals, weights):
        # entries at fixed positions: values (terms, entries) contracted with
        # the temporal weights (terms, q+1, q+1)
        rows.append(r)
        cols.append(c)
        blocks.append(np.einsum("te,tij->eij", vals, weights))

    def add_pointwise(r, c, vals, weights):
        # entries that move between points: (points, entries), each point
        # with its own temporal weight (points, q+1, q+1)
        rows.append(r.ravel())
        cols.append(c.ravel())
        blocks.append((vals[:, :, None, None] * weights[:, None]).reshape(-1, q + 1, q + 1))

    # constant-in-time blocks: full-mesh P1 matrices of both meshes
    r, c, mv, kv, _ = _p1_entries(geom.bg_nodes)
    add_fixed(space.bg_dof[r], space.bg_dof[c], np.stack([mv, kv]), np.stack([T2 + start, T1]))
    r, c, mv, kv, dv = _p1_entries(geom.ov_positions(t0))
    add_fixed(
        space.ov_dof(r), space.ov_dof(c), np.stack([mv, kv - mu * dv]), np.stack([T2 + start, T1])
    )

    # covered-interval correction (at the slab start and on the panel Gauss
    # times) and interface point terms on the panel Gauss times
    times, wts = composite_time_rule(t0, t1, geom.events, _GL3)
    lam = temporal_basis_values(q, t0, t1, times)
    w_ll = wts[:, None, None] * lam[:, :, None] * lam[:, None, :]
    w_ld = wts[:, None, None] * lam[:, :, None] * temporal_basis_derivs(q, t0, t1)
    r, c, mv, kv = _covered_entries(space, geom.left(np.concatenate(([t0], times))))
    add_fixed(r, c, np.concatenate([mv, kv[1:]]), -np.concatenate([start[None], w_ld, w_ll]))
    points = _interface_data(space, times)
    add_pointwise(*_nitsche_entries(points, disc.gamma, disc.omega1, mu), w_ll)
    if include_upwind and mu != 0.0:
        add_pointwise(*_upwind_entries(points, mu), w_ll)

    # pairwise-exact gradient-jump stabilization
    stab = _stabilization_panels(geom)
    if stab is not None:
        pK, pc, c_lo0, c_hi0, breaks = stab
        tq = breaks[:, :-1, None] + np.diff(breaks, axis=1)[:, :, None] * _GL3.nodes
        wq = np.diff(breaks, axis=1)[:, :, None] * _GL3.weights
        tq = tq.reshape(len(pK), -1)
        wq = wq.reshape(len(pK), -1)
        L = _pair_lengths(geom.bg_nodes[pK], geom.bg_nodes[pK + 1], c_lo0, c_hi0, mu, t0, tq)
        lam_q = temporal_basis_values(q, t0, t1, tq)
        W = np.einsum("pt,pti,ptj->pij", wq * L, lam_q, lam_q)
        add_pointwise(*_stabilization_entries(space, pK, pc, geom.ov_positions(t0), 1.0), W)

    # right-hand side
    rhs_rule = midpoint() if q == 0 else lobatto3()
    times, wts = composite_time_rule(t0, t1, geom.events, rhs_rule)
    rhs = _f_load(space, times, wts, setup.problem.source)
    rhs += _trace_load(space, t0, prev_trace)[:, None] * lam0

    return SlabSystem(
        slab=geom.n, matrix=_slab_matrix(space, rows, cols, blocks), rhs=rhs.ravel(), space=space
    )


# ---------------------------------------------------------------------------
# direct application of the space-time form to evaluable functions
# ---------------------------------------------------------------------------
#
# These walk the quadrature by brute force through function evaluations and are
# meant for verification on small instances, not for assembly-scale work.  With
# panel breakpoints at every node crossing (extra_crossings) the quadrature is
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
    pts = part.xa[:, None] + part.lengths[:, None] * _GL3.nodes[None, :]
    wts = part.lengths[:, None] * _GL3.weights[None, :]
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
            fa = ws.eval(xs, t, side=side, deriv="dt")
            fb = vs.eval(xs, t, side=side)
        else:
            fa = ws.eval(xs, t, side=side)
            fb = -vs.eval(xs, t, side=side, deriv="dt")
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
        gw = ws.eval(mids, t, side=side, deriv="dx")
        gv = vs.eval(mids, t, side=side, deriv="dx")
        total += float(np.sum(part.lengths[m] * gw * gv))
    return total


def _stabilization_pairing(ws, vs, t):
    seg = overlap_segments(ws.geom, t)
    if len(seg) == 0:
        return 0.0
    mids = 0.5 * (seg.xa + seg.xb)
    jw = ws.eval(mids, t, side=1, deriv="dx") - ws.eval(mids, t, side=2, deriv="dx")
    jv = vs.eval(mids, t, side=1, deriv="dx") - vs.eval(mids, t, side=2, deriv="dx")
    return float(np.sum(seg.lengths * jw * jv))


def _point_pairing(ws, vs, t, gamma, omega1, form, include_upwind):
    geom = ws.geom
    nodes = geom.bg_nodes
    mu = geom.mu
    mu_bar = float(np.hypot(mu, 1.0))
    sym = 0.0
    upwind = 0.0
    for label, s, n1 in geom.interfaces(t):
        w1 = float(ws.eval(s, t, side=1)[0])
        w2 = float(ws.eval(s, t, side=2)[0])
        v1 = float(vs.eval(s, t, side=1)[0])
        v2 = float(vs.eval(s, t, side=2)[0])
        gw = omega1 * ws.interface_gradient(label, t, 1) + (1 - omega1) * ws.interface_gradient(
            label, t, 2
        )
        gv = omega1 * vs.interface_gradient(label, t, 1) + (1 - omega1) * vs.interface_gradient(
            label, t, 2
        )
        jw, jv = w1 - w2, v1 - v2
        c = int(np.clip(np.searchsorted(nodes, s, side="right") - 1, 0, len(nodes) - 2))
        h_K = float(nodes[c + 1] - nodes[c])
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
        breaks = quadrature_breakpoints(geom, extra_crossings=True)
        times, wts = composite_time_rule(geom.t_start, geom.t_end, breaks, _GL3)
        for t, wt in zip(times, wts):
            part = _volume_pairing(ws, vs, t, form)
            grad = _gradient_pairing(ws, vs, t)
            stab = _stabilization_pairing(ws, vs, t)
            sym, upw = _point_pairing(ws, vs, t, gamma, omega1, form, include_upwind)
            total += wt * (part + grad + stab + sym + upw)

    bp = setup.partition.breakpoints
    if form == "standard":
        w0 = w.trace(0, "+")
        v0 = v.trace(0, "+")
        total += _l2_pairing(
            w.slabs[0].geom,
            float(bp[0]),
            lambda x, s: w0(x, side=s),
            lambda x, s: v0(x, side=s),
        )
        for n in range(1, N):
            wp, wm = w.trace(n, "+"), w.trace(n, "-")
            vp = v.trace(n, "+")
            total += _l2_pairing(
                w.slabs[n - 1].geom,
                float(bp[n]),
                lambda x, s: wp(x, side=s) - wm(x, side=s),
                lambda x, s: vp(x, side=s),
            )
    else:
        for n in range(1, N):
            wm = w.trace(n, "-")
            vp, vm = v.trace(n, "+"), v.trace(n, "-")
            total += _l2_pairing(
                w.slabs[n - 1].geom,
                float(bp[n]),
                lambda x, s: wm(x, side=s),
                lambda x, s: vm(x, side=s) - vp(x, side=s),
            )
        wN, vN = w.trace(N, "-"), v.trace(N, "-")
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
        times, wts = composite_time_rule(geom.t_start, geom.t_end, geom.events, rhs_rule)
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
                        np.sum(half[m] * fv * vs.eval(xs[m], t, side=side))
                    )
    v0 = v.trace(0, "+")
    total += _l2_pairing(
        v.slabs[0].geom,
        float(setup.partition.breakpoints[0]),
        lambda x, s: np.asarray(problem.initial(x), dtype=float),
        lambda x, s: v0(x, side=s),
    )
    return total
