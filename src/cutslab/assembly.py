"""Slab system assembly.

The slab's ``SlabSpace`` record (built by ``spaces.build_slab_space``) holds
its DOF map, the composite Gauss rule on its crossing panels with the
temporal mode values there, its interface stencil and its stabilization
weights; ``assemble_slab`` reads them all from the record.

Nodes carry one global numbering: background nodes ``0..nb-1``, then overlap
nodes ``nb..nb+n_ov-1``.  Every piece of the slab form yields COO triplets in
that numbering, each spatial entry carrying a (q+1)x(q+1) block over the
temporal modes.  The slab's ``node -> DOF`` table (-1 for a dropped background
node) maps them to DOFs once, where the entries are summed into the CSC slab
matrix and where the load is gathered.  The pieces differ in their time
dependence:

* the full-mesh P1 mass, stiffness and drift entries of both meshes are
  constant.  The overlap mesh moves rigidly, so its entries depend only on the
  node offsets; they are built once per setup (``Setup.mesh_matrices``) and
  each slab contracts them with its exact temporal weights in one product;
* background volume terms over the uncovered region are the full-mesh matrices
  minus a correction over the covered interval, whose entries are piecewise
  polynomial in time between interface-node crossings;
* interface point terms (Nitsche coupling, penalty, upwind space-time jump)
  come from the record's stencil of both interface points at all panel Gauss
  times: seven nodes per point with jump, average-gradient and upwind-trace
  weights, piecewise polynomial between the same crossings;
* the overlap-region gradient-jump stabilization comes from the record's
  stabilization weights: pairwise over (cut background cell, overlap cell),
  the exact temporal weights of each pair's covered length with panels at
  their mutual crossings.  The energy norm reads the same weights.

Composite three-point Gauss rules on those panels integrate every piecewise
polynomial integrand exactly (degree <= 5), so the assembled matrix carries no
temporal quadrature error.

The source load uses the lower-order rules of the reference computation:
trapezoid in space, midpoint in time for piecewise-constant time elements and
three-point Lobatto for linear ones.  The time-jump load of a slab after the
first is the side-wise mass at the slab start (the full-mesh mass minus the
covered correction there, both already built for the matrix) applied to the
previous slab's end-time nodal values.  Both factors are P1 on every segment
of the start partition, so this is the exact L2 pairing of that trace with the
test functions.  The first slab integrates the initial data with three-point
Gauss per merged-partition segment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array

from .core import NumericalFailure, Setup
from .geometry import SlabGeometry, segment_cells, segment_points, spatial_partition
from .quadrature import GL3, composite_time_rule, lobatto3, midpoint
from .spaces import SlabSolution, SlabSpace, temporal_basis_derivs, temporal_basis_values


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
# spatial entries as COO triplets in the global node numbering
# ---------------------------------------------------------------------------


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


def _segment_mass_stiff(xa, xb, cell_lo, cell_hi):
    """Mass and stiffness entries (e00, e01, e11) of P1 cells restricted to
    [xa, xb], shaped (2, ..., 3, cells): the cells run along the last axis of
    the arguments."""
    h = cell_hi - cell_lo
    seg = xb - xa
    w1 = (xa[..., None] + seg[..., None] * GL3.nodes - cell_lo[..., None]) / h[..., None]
    w0 = 1.0 - w1
    wts = seg[..., None] * GL3.weights
    out = np.empty((2,) + seg.shape[:-1] + (3,) + seg.shape[-1:])
    out[0, ..., 0, :] = np.sum(wts * w0 * w0, axis=-1)
    out[0, ..., 1, :] = np.sum(wts * w0 * w1, axis=-1)
    out[0, ..., 2, :] = np.sum(wts * w1 * w1, axis=-1)
    k = seg / h**2
    out[1, ..., 0, :] = k
    out[1, ..., 1, :] = -k
    out[1, ..., 2, :] = k
    return out


def _covered_entries(geom: SlabGeometry, a: np.ndarray):
    """Mass/stiffness triplets of the background basis over the covered interval
    [a, a + L] for each left position in ``a``.

    rows and cols run over the background cells met at any of the positions;
    the values are shaped (positions, entries) and vanish where a cell lies
    outside that position's interval.
    """
    nodes = geom.bg_nodes
    last = len(nodes) - 2
    b = a + geom.overlap_length
    c_lo = max(0, min(last, int(np.searchsorted(nodes, a.min(), side="right")) - 1))
    c_hi = max(0, min(last, int(np.searchsorted(nodes, b.max(), side="left")) - 1))
    cells = np.arange(c_lo, c_hi + 1)
    xa = np.maximum(nodes[cells], a[:, None])
    xb = np.maximum(np.minimum(nodes[cells + 1], b[:, None]), xa)
    sym = _segment_mass_stiff(xa, xb, nodes[cells], nodes[cells + 1])
    rows, cols, (mv, kv) = _cell_entries(cells, cells + 1, sym)
    return rows, cols, mv, kv


def _point_entries(idx, vals, weights):
    """Triplets of entries that move between points: ``vals`` shaped
    (points, s, s) on the nodes ``idx`` (points, s), test node first, each
    point with its own temporal weights (points, q+1, q+1)."""
    n, s = idx.shape
    mm = weights.shape[1] * weights.shape[2]
    rows = np.repeat(idx, s, axis=1).ravel()
    cols = np.tile(idx, (1, s)).ravel()
    blocks = vals.reshape(n, s * s, 1) * weights.reshape(n, 1, mm)
    return rows, cols, blocks.reshape(n * s * s, mm)


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


def _hat_load(geom: SlabGeometry, part, x: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """Values ``fw`` (segments, points, modes) at the points ``x`` (segments,
    points) against the hats of each segment's own cell, summed per global
    node: shaped (nodes, modes)."""
    node, lo, hi = segment_cells(geom, part)
    w1 = ((x - lo[:, None]) / (hi - lo)[:, None])[:, :, None]
    m = fw.shape[2]
    per_end = np.concatenate([np.sum(fw * (1.0 - w1), axis=1), np.sum(fw * w1, axis=1)])
    key = np.concatenate([node, node + 1])[:, None] * m + np.arange(m)
    n_nodes = len(geom.bg_nodes) + len(geom.ov_offsets)
    return np.bincount(key.ravel(), per_end.ravel(), minlength=n_nodes * m).reshape(n_nodes, m)


def _f_load(geom: SlabGeometry, q: int, times: np.ndarray, weights: np.ndarray, source):
    """Load of the source against every node's hat and temporal mode, shaped
    (nodes, q+1): trapezoid per segment in space, the rule (times, weights)
    in time."""
    # a composite Lobatto rule repeats each inner panel endpoint
    ts, slot = np.unique(times, return_inverse=True)
    part = spatial_partition(geom, ts)
    wlam = np.bincount(slot, weights)[:, None] * temporal_basis_values(
        q, geom.t_start, geom.t_end, ts
    )
    x = np.array([part.xa, part.xb])
    fv = np.asarray(source(x, np.array([part.t, part.t])), dtype=float) * (0.5 * part.lengths)
    return _hat_load(geom, part, x.T, fv.T[:, :, None] * wlam[part.time_index][:, None, :])


def _trace_load(geom: SlabGeometry, t: float, func) -> np.ndarray:
    """Gauss-3-per-segment load of a scalar function of position at time t
    against every node's hat."""
    part = spatial_partition(geom, t)
    x, w = segment_points(part)
    fw = np.asarray(func(x.ravel()), dtype=float).reshape(x.shape) * w
    return _hat_load(geom, part, x, fw[:, :, None])[:, 0]


def _jump_load(setup: Setup, start_cov, prev: SlabSolution) -> np.ndarray:
    """The previous slab's end-time trace against every node's hat at the
    slab start: the side-wise start mass, i.e. the full-mesh mass minus the
    covered-correction mass triplets ``start_cov``, applied to its nodal
    values."""
    rows, cols, vals = setup.mesh_matrices
    r, c, mv = start_cov
    g = prev.geom
    u = prev.nodal() @ temporal_basis_values(prev.space.q, g.t_start, g.t_end, g.t_end)
    return np.bincount(
        np.concatenate([rows, r]),
        np.concatenate([vals[:, 0] * u[cols], -mv * u[c]]),
        minlength=len(u),
    )


def _slab_matrix(space: SlabSpace, parts) -> csc_array:
    """Sum triplets (global node rows, cols, (q+1)^2 temporal blocks) into the
    slab matrix (temporal mode fastest), dropping entries on nodes without a
    DOF."""
    rows, cols, blocks = (np.concatenate(x) for x in zip(*parts))
    rows, cols = space.node_dof[rows], space.node_dof[cols]
    ok = (rows >= 0) & (cols >= 0)
    m = space.q + 1
    n = space.n_cols
    modes = np.arange(m)
    # column-major position of block entry (i, j): row rows*m + i, column cols*m + j
    key = (cols[ok] * (m * n) + rows[ok] * m)[:, None, None] + modes[:, None] + n * modes
    key, slot = np.unique(key.ravel(), return_inverse=True)
    data = np.bincount(slot, blocks[ok].ravel())  # sums the duplicate entries, once
    indptr = np.searchsorted(key, np.arange(0, n * n + 1, n))
    return csc_array(
        (data, (key % n).astype(np.intc), indptr.astype(np.intc)), shape=(n, n)
    )


def assemble_slab(space: SlabSpace, setup: Setup, prev: SlabSolution | None) -> SlabSystem:
    """Assemble the sparse system of one slab.

    ``prev`` is the solution on the previous slab, whose end-time trace enters
    the load; for the first slab it is None and the initial data enters
    instead.
    """
    geom = space.geom
    q = space.q
    m = q + 1
    mu = geom.mu
    t0, t1, k = geom.t_start, geom.t_end, geom.k
    lam0 = temporal_basis_values(q, t0, t1, t0)
    T1, T2 = _temporal_products(q, k)
    start = np.outer(lam0, lam0)  # slab-start mass (time jump / initial coupling)

    # constant-in-time blocks: full-mesh mass, stiffness and drift of both meshes
    rows, cols, vals = setup.mesh_matrices
    parts = [(rows, cols, vals @ np.stack([T2 + start, T1, -mu * T1]).reshape(3, m * m))]

    # covered-interval correction, at the slab start and on the panel Gauss times
    wts, lam = space.weights[:, None, None], space.lam
    w_ll = wts * lam[:, :, None] * lam[:, None, :]
    w_ld = wts * lam[:, :, None] * temporal_basis_derivs(q, t0, t1)
    rows, cols, mv, kv = _covered_entries(geom, geom.left(np.concatenate(([t0], space.times))))
    weights = np.concatenate([start[None], w_ld, w_ll]).reshape(-1, m * m)
    parts.append((rows, cols, -(np.concatenate([mv, kv[1:]]).T @ weights)))
    start_cov = (rows, cols, mv[0])

    # interface point terms on the panel Gauss times:
    # -n1 (J_i G_j + G_i J_j) + penalty J_i J_j + upwind trace_i J_j
    st = space.stencil
    J = st.jump
    n1G = st.n1[:, None] * st.grad
    pen = (float(np.hypot(mu, 1.0)) * setup.disc.gamma / st.h_K)[:, None]
    vals = J[:, :, None] * (pen * J - n1G)[:, None, :]
    vals += (st.upwind - n1G)[:, :, None] * J[:, None, :]
    parts.append(_point_entries(st.idx, vals, np.concatenate([w_ll, w_ll])))

    # pairwise-exact gradient-jump stabilization
    if space.stab is not None:
        idx, g, W = space.stab
        parts.append(_point_entries(idx, g[:, :, None] * g[:, None, :], W))

    # right-hand side
    rhs_rule = midpoint() if q == 0 else lobatto3()
    times, wts = composite_time_rule(t0, t1, geom.events, rhs_rule)
    load = _f_load(geom, q, times, wts, setup.problem.source)
    if prev is None:
        load += _trace_load(geom, t0, setup.problem.initial)[:, None] * lam0
    else:
        load += _jump_load(setup, start_cov, prev)[:, None] * lam0

    return SlabSystem(
        slab=geom.n,
        matrix=_slab_matrix(space, parts),
        rhs=load[space.dof_node].ravel(),
        space=space,
    )
