"""Slab system assembly, for a chunk of consecutive slabs at once.

Slab n sees slab n-1 only through the time-jump load.  So ``assemble_slab``,
given the ``SlabSpaces`` of a chunk of slabs, builds everything else, the
matrices, the source loads and the time-jump maps, for all of them in one
pass over flat arrays of the chunk's (slab, time) rows and (slab, entry)
triplets, reading the columns of the chunk's records (``spaces.SlabSpaces``).
The result, ``SlabSystems``, is the chunk's block lower-bidiagonal system: the
first slab's load holds the trace of the solution before the chunk (the
initial data for slab 1), and ``SlabSystems.system`` adds the previous
slab's end-time trace to each later slab's load, one product of its jump
map, once that slab is solved.

A slab whose matrix repeats the previous slab's, known from the time
partition (``Setup.repeats``: a run of stationary slabs), gets no triplets:
it reads those of the slab it repeats, also across chunks, so a stationary
march builds one matrix in all.  Its loads and jump map are its own.

Nodes carry one global numbering: background nodes ``0..nb-1``, then overlap
nodes ``nb..nb+n_ov-1``.  Every piece of the slab form yields COO triplets in
that numbering, each spatial entry carrying a (q+1)x(q+1) block over the
temporal modes.  A ``node -> row`` table (``_node_rows``, from the records'
``node_dof``; -1 for a dropped background node) maps them once to each
slab's rows, its DOFs, which the records number by position, so the
solver's bands are banded.  The triplets go to the solver unsummed, slab
after slab, and the loads and jump maps in the same rows.  A CSC matrix is
built, with ``scipy.sparse``, only when one is read.  The pieces differ in
their time dependence:

* the full-mesh P1 mass, stiffness and drift entries of both meshes are
  constant.  The overlap mesh moves rigidly, so its entries depend only on the
  node offsets; they are built once per setup (``Setup.mesh_matrices``) and
  contracted with every slab's exact temporal weights in one product;
* background volume terms over the uncovered region are the full-mesh matrices
  minus a correction over the covered interval, whose entries are piecewise
  polynomial in time between interface-node crossings; each slab's are
  integrated at its own panel times;
* interface point terms (Nitsche coupling, penalty, upwind space-time jump)
  come from the records' interface stencils, a row of both points per panel
  Gauss time: seven nodes per point with jump, average-gradient and
  upwind-trace weights, piecewise polynomial between the same crossings;
* the overlap-region gradient-jump stabilization comes from the records'
  stabilization weights: pairwise over (cut background cell, overlap cell),
  the exact temporal weights of each pair's covered length with panels at
  their mutual crossings.  The energy norm reads the same weights.

Composite three-point Gauss rules on those panels integrate every piecewise
polynomial integrand exactly (degree <= 5), so the assembled matrix carries no
temporal quadrature error.

The source load uses the lower-order rules of the reference computation:
trapezoid in space, midpoint in time for piecewise-constant time elements and
three-point Lobatto for linear ones.  Its spatial sums carry no temporal mode.
One merged partition at every distinct (slab, time) of the chunk's rule gives
each segment two scalar hat weights, for the two nodes of its own cell, from
the source at the segment's ends; two ``bincount`` calls sum them per time
and node.  One product per chunk then weights each slab's times by their
rule weights and mode values.  A chunk thus makes one partition and one call
of the source, which sees each breakpoint of each distinct time once, and no
spatial temporary has a mode axis: the modes enter only that product, of
slabs x (most distinct times of a slab) x nodes x (q+1) multiply-adds.

The time-jump load of a slab after the first is the side-wise mass at the
slab start (the full-mesh mass minus the covered correction there)
applied to the previous slab's end-time trace (``_jump_maps``); the first
slab integrates the initial data with three-point Gauss per merged-partition
segment, through the same hat sums.  The covered start mass is one row per
slab, zero-padded to the most cells of any slab of the chunk: a slab that
repeats another reads that slab's row, the first slab of a chunk perhaps the
row the previous chunk handed on.

A chunk's temporaries (its triplets, the merged partitions of its source
load, its covered-cell products) grow with its slab count; the march's cap
on a chunk (``solver.CHUNK_ENTRIES``) bounds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import NumericalFailure, Setup, pointwise
from .geometry import (
    SlabGeometry,
    partition_at,
    ragged_arange,
    segment_cells,
    segment_points,
    spatial_partition,
)
from .quadrature import GL3, composite_time_rule, lobatto3, midpoint
from .spaces import (
    N1, SlabSolution, SlabSpace, SlabSpaces, temporal_basis_derivs, temporal_modes
)


@dataclass(eq=False)
class SlabSystem:
    """The system of one slab, as ``SlabSystems.system`` builds it: the
    matrix as ``triplets`` (rows, cols, vals) in the slab's DOFs with
    duplicates unsummed, and the load ``rhs``.  ``matrix``, a scipy.sparse
    CSC array, is built only when read, off the march path.  ``repeats``
    tells that the matrix is the previous slab's (``Setup.repeats``).
    ``memo`` is the march's ``solver.FactorMemo``, shared by its slabs,
    which then holds that slab's factor (None factors afresh), and ``band``
    the matrix's ``solver.Band`` (None builds it from the triplets).
    """

    slab: int
    space: SlabSpace
    triplets: tuple
    rhs: np.ndarray
    repeats: bool = False
    memo: object = None
    band: object = None

    @cached_property
    def matrix(self):
        return _csc(*self.triplets, len(self.rhs))


# ---------------------------------------------------------------------------
# spatial entries as COO triplets in the global node numbering
# ---------------------------------------------------------------------------


def _segment_mass_stiff(xa, xb, cell_lo, cell_hi):
    """Mass and stiffness entries (e00, e01, e11) of P1 cells restricted to
    [xa, xb], shaped (2, ..., 3, cells): the cells run along the last axis of
    the arguments.  The mass is summed one Gauss point at a time, so no
    temporary is larger than the arguments."""
    h = cell_hi - cell_lo
    seg = xb - xa
    out = np.zeros((2,) + seg.shape[:-1] + (3,) + seg.shape[-1:])
    for node, weight in zip(GL3.nodes, GL3.weights):
        w1 = (xa + seg * node - cell_lo) / h
        w0 = 1.0 - w1
        wt = seg * weight
        out[0, ..., 0, :] += wt * w0 * w0
        out[0, ..., 1, :] += wt * w0 * w1
        out[0, ..., 2, :] += wt * w1 * w1
    k = seg / h**2
    out[1, ..., 0, :] = k
    out[1, ..., 1, :] = -k
    out[1, ..., 2, :] = k
    return out


def _covered_entries(geom, a: np.ndarray, slab: np.ndarray, active: np.ndarray):
    """Mass/stiffness of the background basis over the covered interval
    [a, a + L] at each left position of ``a``, where ``slab``
    (nondecreasing) gives the position's slab.

    Each slab's entries run over the background cells met at any of its
    positions, only those with a node in ``active`` (slabs, background
    nodes), padded to the most cells of any slab by repeating one of its
    cells.  Returns the cells (slabs, cells), which of them are the slab's
    own, and the (e00, e01, e11) mass and stiffness shaped (2, positions, 3,
    cells); they vanish where a cell lies outside that position's interval.
    """
    nodes = geom.bg_nodes
    last = len(nodes) - 2
    b = a + geom.overlap_length
    at = np.flatnonzero(np.diff(slab, prepend=-1))  # each slab's first position
    # not snapped: these cells only bound the loop of the exact integral over [a, a + L]
    c_lo = np.clip(np.searchsorted(nodes, np.minimum.reduceat(a, at), side="right") - 1, 0, last)
    c_hi = np.clip(np.searchsorted(nodes, np.maximum.reduceat(b, at), side="left") - 1, 0, last)
    cells = c_lo[:, None] + np.arange((c_hi - c_lo).max() + 1)
    own = cells <= c_hi[:, None]
    cells = np.minimum(cells, c_hi[:, None])
    s = np.arange(len(cells))[:, None]
    own &= active[s, cells] | active[s, cells + 1]
    # the kept cells first, in order, and as few columns as any slab needs
    by = np.argsort(~own, axis=1, kind="stable")[:, : max(own.sum(axis=1).max(), 1)]
    cells, own = np.take_along_axis(cells, by, 1), np.take_along_axis(own, by, 1)
    lo, hi = nodes[cells][slab], nodes[cells + 1][slab]
    xa = np.maximum(lo, a[:, None])
    xb = np.maximum(np.minimum(hi, b[:, None]), xa)
    return cells, own, _segment_mass_stiff(xa, xb, lo, hi)


# ---------------------------------------------------------------------------
# slab assembly
# ---------------------------------------------------------------------------


def _temporal_products(q: int, k: np.ndarray):
    """Exact integrals of mode products over slabs of lengths ``k``, shaped
    (slabs, q+1, q+1): T1 = lam_i lam_j, T2 = lam_i lam_j' (test index
    first)."""
    k = k[:, None, None]
    if q == 0:
        return k * np.ones((1, 1)), np.zeros((len(k), 1, 1))
    T1 = k * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    T2 = np.broadcast_to([[-0.5, 0.5], [-0.5, 0.5]], T1.shape)
    return T1, T2


def _hat_sums(geom, part, points, row, n_rows: int) -> np.ndarray:
    """Weighted values against the two hats of each segment's own cell,
    summed per row and global node: shaped (n_rows, nodes).  ``points``
    holds a pair (x, fw) per quadrature point of a segment, each an array
    over the segments: the point's position and the value times its weight;
    ``row`` gives each segment's row."""
    node, lo, hi = segment_cells(geom, part)
    total = right = 0.0
    for x, fw in points:
        total = total + fw
        right = right + fw * (x - lo)
    right /= hi - lo
    left = total - right
    n_nodes = len(geom.bg_nodes) + len(geom.ov_offsets)
    key = row * n_nodes + node
    size = n_rows * n_nodes
    g = np.bincount(key, left, minlength=size)
    g += np.bincount(key + 1, right, minlength=size)
    return g.reshape(n_rows, n_nodes)


def _f_load(geoms, q: int, slab: np.ndarray, times: np.ndarray, weights: np.ndarray, source):
    """Load of the source against every node's hat and temporal mode of each
    slab of ``geoms``, shaped (slabs, nodes, q+1): trapezoid per segment in
    space, the rule (times, weights) in time, each slab's times in order,
    where ``slab`` (nondecreasing) gives the position in ``geoms`` of each
    time's slab.  ``source`` is called once.

    The hat sums carry no mode axis: they are formed once per distinct
    (slab, time), and one product per chunk weights them by each time's
    rule weight and mode values."""
    # a composite Lobatto rule repeats each inner panel endpoint of a slab,
    # and composite_time_rule emits each slab's times in order, so the
    # repeats are neighbours
    new = np.ones(len(times), dtype=bool)
    new[1:] = (times[1:] != times[:-1]) | (slab[1:] != slab[:-1])
    slot = np.cumsum(new) - 1
    ts, ss = times[new], slab[new]
    # each slab's distinct times, padded with zero weights to the most of any slab
    S = len(geoms)
    rank = np.arange(len(ts)) - np.searchsorted(ss, ss)
    P = int(rank.max()) + 1
    t0, t1 = geoms.t_start, geoms.t_end
    # the trapezoid's factor 1/2 rides on the temporal weights
    wlam = np.zeros((S, P, q + 1))
    tau = (ts - t0[ss]) / (t1[ss] - t0[ss])
    wlam[ss, rank] = 0.5 * np.bincount(slot, weights)[:, None] * temporal_modes(q, tau)
    part = partition_at(geoms, ts, geoms.left(ss, ts))
    # the segments of one time tile the domain, so the source is evaluated
    # at each segment's left end and at the right end of each time's last one
    row = part.time_index
    last = np.append(row[1:] != row[:-1], True)
    n = len(part)
    f = pointwise(
        source, np.concatenate([part.xa, part.xb[last]]), np.concatenate([part.t, part.t[last]])
    )
    length = part.lengths
    fa = f[:n] * length
    fb = np.empty(n)
    fb[:-1] = f[1:n]
    fb[last] = f[n:]
    fb *= length
    points = [(part.xa, fa), (part.xb, fb)]
    g = _hat_sums(geoms, part, points, (ss * P + rank)[row], S * P)
    return np.matmul(wlam.transpose(0, 2, 1), g.reshape(S, P, -1)).transpose(0, 2, 1)


def _trace_load(geom: SlabGeometry, t: float, func) -> np.ndarray:
    """Gauss-3-per-segment load of a scalar function of position at time t
    against every node's hat."""
    part = spatial_partition(geom, t)
    x, w = segment_points(part)
    fw = pointwise(func, x.ravel()).reshape(x.shape) * w
    return _hat_sums(geom, part, zip(x, fw), part.time_index, 1)[0]


def _dof_triplets(dofs, m: int, at, rows, cols, blocks):
    """COO triplets in the DOFs of a chunk of slabs of (q+1)^2 temporal
    ``blocks`` on global node ``rows`` and ``cols``, without the entries on
    nodes that carry no DOF.  ``dofs`` gives for each (slab, node), flattened,
    the chunk row of the node's first temporal mode or -1, and ``at`` the
    offset of each entry's slab in it (broadcast against ``rows``)."""
    rows, cols = dofs[at + rows].ravel(), dofs[at + cols].ravel()
    ok = (rows >= 0) & (cols >= 0)
    shape = (int(ok.sum()), m, m)
    modes = np.arange(m, dtype=np.intc)
    # block entry (i, j): row rows + i, column cols + j, temporal mode fastest
    r = np.broadcast_to(rows[ok][:, None, None] + modes[:, None], shape).ravel()
    c = np.broadcast_to(cols[ok][:, None, None] + modes, shape).ravel()
    return r, c, blocks.reshape(-1, m * m)[ok].ravel()


def _covered_part(geoms, t_slab, times, start, w_ld, w_ll, active):
    """Triplets (slab, rows, cols, blocks) of the covered-interval
    correction, at each slab start and on its panel Gauss times (``t_slab``
    gives each time's slab): mass against the start trace and lam_i lam_j',
    stiffness against lam_i lam_j; and the covered mass (rows, cols, values)
    at each slab start, shaped (slabs, 4 * cells), 0 off the slab's own
    cells.  Only the cells with a node in ``active`` (slabs, background
    nodes) give triplets: the others give none that a slab's DOFs keep."""
    S, mm = len(geoms), start.size
    # positions: each slab's start, then its times; the product below pads
    # each slab's to the most of any slab with zeros
    count = np.bincount(t_slab, minlength=S) + 1
    slab, p = np.repeat(np.arange(S), count), ragged_arange(count)
    t = geoms.t_start[slab]
    t[p > 0] = times
    cells, own, (mv, kv) = _covered_entries(geoms, geoms.left(slab, t), slab, active)
    P = count.max()
    sym = np.zeros((S, 2 * P, mv[0].size))
    sym[slab, p], sym[slab, P + p] = mv.reshape(len(p), -1), kv.reshape(len(p), -1)
    weights = np.zeros((S, 2, P, mm))
    weights[:, 0, 0] = start.ravel()
    weights[t_slab, 0, p[p > 0]] = w_ld
    weights[t_slab, 1, p[p > 0]] = w_ll
    sym = (np.swapaxes(sym, 1, 2) @ weights.reshape(S, 2 * P, mm)).reshape(S, 3, -1, mm)
    # entry (e00, e01, e10, e11) of each cell
    pick = [0, 1, 1, 2]
    rows = np.stack([cells, cells, cells + 1, cells + 1], axis=1)
    cols = np.stack([cells, cells + 1, cells, cells + 1], axis=1)
    own = np.broadcast_to(own[:, None], rows.shape)
    slab = np.broadcast_to(np.arange(S)[:, None, None], own.shape)[own]
    mv = np.where(own, mv[p == 0][:, pick], 0.0)  # at the slab starts
    flat = (x.reshape(S, -1) for x in (rows, cols, mv))
    return (slab, rows[own], cols[own], -sym[:, pick][own]), tuple(flat)


def _interface_part(st, slab, mu, gamma: float, w_ll):
    """Triplets of the interface point terms of the stencil ``st`` on the
    panel Gauss times, where ``slab`` gives each time's slab and ``mu`` each
    slab's velocity: -n1 (J_i G_j + G_i J_j) + penalty J_i J_j + upwind
    trace_i J_j."""
    # every term pairs a trace slot (0, 1 or 4) with a slot: the entries
    # (i, j) between two gradient-only slots are zero and left out
    trace = np.isin(np.arange(7), [0, 1, 4])
    i, j = np.nonzero(trace[:, None] | trace)
    J = st.jump
    n1G = N1[:, None] * st.grad
    pen = (np.hypot(mu[slab], 1.0)[:, None] * gamma / st.h_K)[..., None]
    vals = J[..., i] * (pen * J[..., j] - n1G[..., j]) + (st.upwind - n1G)[..., i] * J[..., j]
    blocks = (vals[..., None] * w_ll[:, None, None, :]).reshape(2 * len(slab), len(i), -1)
    # a row per point, each time's left point and then its right one: left
    # (times, 2, pairs), the gathers of _dof_triplets took 25 % longer on a
    # long_march chunk
    idx = st.idx.reshape(-1, 7)
    return np.repeat(slab, 2)[:, None], idx[:, i], idx[:, j], blocks


def _stabilization_part(spaces):
    """Triplets of the pairwise-exact gradient-jump stabilization, or None
    when no slab has a stabilized pair."""
    idx, g, W = spaces.stab
    if not len(idx):
        return None
    i, j = np.indices((4, 4)).reshape(2, -1)
    blocks = (g[:, i] * g[:, j])[:, :, None] * W.reshape(len(W), 1, -1)
    return spaces.slab_index("stab")[:, None], idx[:, i], idx[:, j], blocks


def _node_rows(spaces) -> np.ndarray:
    """The rows of the unknowns of consecutive slabs ``spaces``, slab after
    slab: the row of each node's first temporal mode (slabs, nodes), its
    slab's first row plus (q+1) times its DOF, or -1 for a node without DOF.
    """
    start = np.cumsum(spaces.slab_cols) - spaces.slab_cols
    node_dof = spaces.node_dof
    return np.where(node_dof >= 0, start[:, None] + (spaces.q + 1) * node_dof, -1).astype(np.intc)


def _slab_matrices(spaces, setup: Setup):
    """The triplets (rows, cols, vals) of the slab matrices of ``spaces``
    with duplicates unsummed, slab i's from entry ``at[i]`` on and in its own
    rows; ``at``; and the covered start mass of each slab (``_covered_part``).
    Raises ``NumericalFailure`` naming the first slab with a non-finite entry.
    """
    S = len(spaces)
    geoms = spaces.geoms
    q = spaces.q
    m = q + 1
    k, mu = geoms.k, geoms.mu
    slab_ids = np.arange(S)
    node_row = _node_rows(spaces)
    dofs = node_row.ravel()
    at = slab_ids * node_row.shape[1]

    def to_rows(slab, rows, cols, blocks):
        return _dof_triplets(dofs, m, at[slab], rows, cols, blocks)

    # constant-in-time blocks: full-mesh mass, stiffness and drift of both meshes
    # (every slab's start trace reads off its first mode)
    lam0 = temporal_modes(q, 0.0)
    start = np.outer(lam0, lam0)  # slab-start mass (time jump / initial coupling)
    T1, T2 = _temporal_products(q, k)
    rows, cols, vals = setup.mesh_matrices
    C = np.stack([T2 + start, T1, -mu[:, None, None] * T1], axis=1).reshape(S, 3, m * m)
    triplets = [to_rows(slab_ids[:, None], rows, cols, vals @ C)]

    # temporal weights on the panel Gauss times
    t_slab = spaces.slab_index("tau")
    wts = spaces.weights[:, None, None]
    lam = spaces.lam
    dlam = temporal_basis_derivs(q, k[t_slab])
    w_ll = (wts * lam[:, :, None] * lam[:, None, :]).reshape(-1, m * m)
    w_ld = (wts * lam[:, :, None] * dlam[:, None, :]).reshape(-1, m * m)
    active = spaces.node_dof[:, : len(geoms.bg_nodes)] >= 0
    covered, start_cov = _covered_part(geoms, t_slab, spaces.times, start, w_ld, w_ll, active)
    triplets.append(to_rows(*covered))
    triplets.append(to_rows(*_interface_part(spaces.stencil, t_slab, mu, setup.disc.gamma, w_ll)))
    stab = _stabilization_part(spaces)
    if stab is not None:
        triplets.append(to_rows(*stab))
    del covered, stab  # the raw triplets; only the chunk-row ones are kept
    rows, cols, vals = (np.concatenate(x) for x in zip(*triplets))
    del triplets
    # every piece runs slab after slab, so a stable sort by slab keeps the
    # order in which each entry's duplicates are summed
    slab = np.repeat(np.arange(S, dtype=rows.dtype), spaces.slab_cols)[rows]
    if not np.isfinite(vals).all():
        bad = slab[np.argmin(np.isfinite(vals))]
        raise NumericalFailure(f"non-finite matrix entries in slab {geoms.n[bad]}")
    count = np.bincount(slab, minlength=S)
    by = np.argsort(slab, kind="stable")
    del slab
    # one array at a time: a chunk's triplets are its largest arrays
    vals = vals[by]
    rows = rows[by]
    cols = cols[by]
    del by
    start = np.repeat((np.cumsum(spaces.slab_cols) - spaces.slab_cols).astype(rows.dtype), count)
    rows -= start
    cols -= start
    return rows, cols, vals, [0] + np.cumsum(count).tolist(), start_cov


def _chunk_matrices(spaces, setup: Setup, new: np.ndarray, held):
    """``_slab_matrices`` of the slabs of ``spaces`` with ``new`` true, on
    their own: their triplets, each slab's in its own rows, and ``at``; and
    the covered start mass of every slab (``_covered_part``).  Any other
    slab starts where the slab it repeats starts, with the same DOFs, so its
    covered mass is that slab's: in the chunk, or for the first slab
    ``held``'s."""
    rows = cols = np.empty(0, dtype=np.intc)
    vals, at = np.empty(0), [0]
    cover = (np.empty((0, 0), dtype=int),) * 2 + (np.empty((0, 0)),)
    made = np.flatnonzero(new)
    if len(made):
        rows, cols, vals, at, cover = _slab_matrices(spaces.take(made), setup)
        if len(made) == len(new):
            return rows, cols, vals, at, cover
    # each slab reads the row of the assembled slab it is or repeats; with
    # ``held``, the row of the slab before the chunk comes first, and every
    # row is padded with zeros to the longest
    source = np.cumsum(new) - 1
    if held is not None:
        source += 1
        joined = []
        for h, c in zip(held[1], cover):
            x = np.zeros((len(c) + 1, max(len(h), c.shape[1])), dtype=c.dtype)
            x[0, : len(h)], x[1:, : c.shape[1]] = h, c
            joined.append(x)
        cover = joined
    return rows, cols, vals, at, tuple(x[source] for x in cover)


def _jump_maps(setup: Setup, row, prev_dof, start_cov, q: int):
    """The time-jump maps of consecutive slabs: triplets (rows, cols, vals),
    each shaped (slabs, entries), from the previous slab's coefficients
    (``cols``, its DOFs) to each slab's load (``rows``, its own rows).

    The map is the side-wise mass at the slab start, the full-mesh mass minus
    the covered mass ``start_cov`` (``_covered_part``), between the slab's
    start-mode test functions and the previous slab's end-time trace: both
    P1 on every segment of the start partition, so the pairing is exact.
    ``row`` (slabs, nodes) gives each node's first row in its slab,
    ``prev_dof`` the previous slab's DOF of its first mode, each a negative
    number for a node without one; an entry on a node without either is a
    zero on row and column 0.
    """
    S = len(row)
    rows, cols, vals = setup.mesh_matrices
    cr, cc, cv = start_cov
    s = np.arange(S)[:, None]
    r = np.concatenate([row[:, rows], row[s, cr]], axis=1)
    c = np.concatenate([prev_dof[:, cols], prev_dof[s, cc]], axis=1)
    v = np.concatenate([np.broadcast_to(vals[:, 0], (S, len(rows))), -cv], axis=1)
    drop = (r < 0) | (c < 0)
    r[drop], c[drop], v[drop] = 0, 0, 0.0
    # the modes are nodal in time: the slab's first mode is its start value,
    # the previous slab's last mode its end value
    return r, c + q, v


def _apply(jump, i: int, coeffs: np.ndarray, n: int) -> np.ndarray:
    """The load of slab i's jump map on the previous slab's ``coeffs``."""
    rows, cols, vals = jump
    return np.bincount(rows[i], vals[i] * coeffs[cols[i]], minlength=n)


def _csc(rows, cols, vals, n: int):
    """The n x n CSC array of the triplets, each entry's duplicates summed
    in their order, as ``np.bincount`` sums them into a band."""
    from scipy.sparse import csc_array

    keys, at = np.unique(cols.astype(np.int64) * n + rows, return_inverse=True)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return csc_array((np.bincount(at, vals), (keys % n).astype(np.intc), indptr), shape=(n, n))


@dataclass(frozen=True)
class SlabSystems:
    """The system of consecutive slabs, block lower bidiagonal in time.

    Slab i's unknowns, its DOFs, are the chunk rows ``first[i]`` to
    ``first[i + 1]``.  The diagonal blocks, the slab matrices, come as
    triplets with duplicates to be summed, each slab's in its own rows
    (``triplets``).  A slab with ``new`` true was assembled: the j-th such
    slab's triplets are ``rows``, ``cols``, ``vals`` from entry ``at[j]``
    to ``at[j + 1]``.  Any other slab repeats the slab before it and reads
    its triplets, the first slab those in ``held``, the previous chunk's
    ``handoff``.  ``matrix`` builds them all into one block-diagonal CSC
    array when it is read.  ``loads`` holds each row's source load; the
    first slab's also holds the trace of the solution before the chunk (or
    the initial data).  Below the diagonal, ``jump`` takes the
    solution on slab i-1 to slab i's time-jump load, so the slabs are solved
    one after the other: ``system(i, prev)`` is slab i's system once
    ``prev``, the solution on slab i-1, is known.
    """

    spaces: SlabSpaces
    first: list
    new: np.ndarray
    held: tuple | None
    at: list
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    loads: np.ndarray
    jump: tuple  # (rows, cols, vals), each (slabs, entries): see _jump_maps
    # when the slab after the chunk repeats its last: copies of that slab's
    # triplets and of its row of covered start mass (rows, cols, values),
    # which the next chunk's ``assemble_slab`` reads as ``held``
    handoff: tuple | None

    @cached_property
    def source(self) -> list:
        """The assembled slab each slab is or repeats, counted over the
        assembled ones (-1: ``held``'s)."""
        return (np.cumsum(self.new) - 1).tolist()

    def triplets(self, i: int) -> tuple:
        """Slab i's matrix triplets (rows, cols, vals) in its own rows."""
        j = self.source[i]
        if j < 0:
            return self.held[0]
        a, b = self.at[j], self.at[j + 1]
        return self.rows[a:b], self.cols[a:b], self.vals[a:b]

    def group_triplets(self, lo: int, hi: int) -> tuple:
        """The matrix triplets of slab lo, or of the assembled slabs lo to
        hi - 1, in their rows counted from row ``first[lo]``."""
        if hi - lo == 1:
            return self.triplets(lo)
        j = self.source[lo]
        at = self.at[j : j + hi - lo + 1]
        shift = np.repeat(np.array(self.first[lo:hi]) - self.first[lo], np.diff(at))
        a, b = at[0], at[-1]
        return self.rows[a:b] + shift, self.cols[a:b] + shift, self.vals[a:b]

    @cached_property
    def matrix(self):
        """The block-diagonal CSC array of the slab matrices, slab i's block
        from row and column ``first[i]`` on."""
        blocks = (self.triplets(i) for i in range(len(self.spaces)))
        shifted = ((f + r, f + c, v) for f, (r, c, v) in zip(self.first, blocks))
        rows, cols, vals = (np.concatenate(x) for x in zip(*shifted))
        return _csc(rows, cols, vals, self.first[-1])

    def system(self, i: int, prev, memo=None, band=None) -> SlabSystem:
        """The system of slab i (0-based in the chunk); ``prev``, the
        solution on slab i - 1 (a ``SlabSolution``) or its coefficients, is
        read for i > 0 only.  ``memo`` and ``band`` are handed on to the
        solve (``SlabSystem.memo`` and ``SlabSystem.band``)."""
        f, k = self.first[i], self.first[i + 1]
        load = self.loads[f:k]
        if i > 0:
            load = load + _apply(self.jump, i, getattr(prev, "coeffs", prev), k - f)
        n, space = int(self.spaces.geoms.n[i]), self.spaces[i]
        return SlabSystem(n, space, self.triplets(i), load, not self.new[i], memo, band)


def assemble_slab(
    spaces: SlabSpaces, setup: Setup, prev: SlabSolution | None, held=None
) -> SlabSystems:
    """The matrices, source loads and time-jump maps of the consecutive slabs
    ``spaces``, built at once.

    ``prev`` is the solution on the slab before them, whose end-time trace
    enters the first slab's load; before slab 1 it is None and the initial
    data enters instead.

    A slab that repeats the slab before it (``Setup.repeats``) gets no matrix
    of its own: it reads the triplets of the slab it repeats, in the chunk
    or, for the first slab, in ``held``, the previous chunk's
    ``SlabSystems.handoff``.  Without ``held`` the first slab is assembled.
    Its loads and jump map are its own, as every slab's.
    """
    S = len(spaces)
    q = spaces.q
    m = q + 1
    geoms = spaces.geoms
    first = [0] + np.cumsum(spaces.slab_cols).tolist()
    new = ~setup.repeats[geoms.n - 1]
    new[0] |= held is None
    held = None if new[0] else held
    rows, cols, vals, at, start_cov = _chunk_matrices(spaces, setup, new, held)

    t0, t1 = geoms.t_start, geoms.t_end
    rule = midpoint() if q == 0 else lobatto3()
    times, wts = composite_time_rule(t0, t1, geoms.events, rule, geoms.counts[:, 0])
    panels = geoms.counts[:, 0] + 1
    slab = np.repeat(np.arange(S), len(rule.nodes) * panels)
    F = _f_load(geoms, q, slab, times, wts, setup.problem.source)
    if prev is None:
        trace = _trace_load(geoms[0], t0[0], setup.problem.initial)
        F[0] += np.outer(trace, temporal_modes(q, 0.0))
    node_row = _node_rows(spaces)
    slab, node = np.nonzero(node_row >= 0)
    loads = np.empty(first[-1])
    loads[(node_row[slab, node][:, None] + np.arange(m)).ravel()] = F[slab, node].ravel()

    # each slab's rows, and the previous slab's, of every node's first mode
    row = m * spaces.node_dof
    prev_dof = np.empty_like(row)
    prev_dof[1:] = row[:-1]
    prev_dof[0] = -1 if prev is None else m * prev.space.node_dof
    jump = _jump_maps(setup, row, prev_dof, start_cov, q)
    if prev is not None:
        loads[: first[1]] += _apply(jump, 0, prev.coeffs, first[1])
    handoff = None
    if geoms.n[-1] < len(setup.repeats) and setup.repeats[geoms.n[-1]]:
        # the slab after the chunk repeats its last: copies of what it reads
        matrix = tuple(x[at[-2] :].copy() for x in (rows, cols, vals)) if len(at) > 1 else held[0]
        handoff = (matrix, tuple(x[-1].copy() for x in start_cov))
    return SlabSystems(spaces, first, new, held, at, rows, cols, vals, loads, jump, handoff)
