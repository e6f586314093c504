"""Slab system assembly, for a chunk of consecutive slabs at once.

Slab n sees slab n-1 only through the time-jump load.  So ``assemble_slab``,
given the ``SlabSpaces`` of a chunk of slabs, builds everything else, the
matrices and the source loads, for all of them in one pass over flat arrays
of the chunk's (slab, time) rows and (slab, entry) triplets, each carrying
its slab's index.  It reads the chunk's records (``spaces.build_slab_space``):
each slab's DOF map, the composite Gauss rule on its crossing panels with the
temporal mode values there, its interface stencil and its stabilization
weights.  The result, ``SlabSystems``, is the chunk's block lower-bidiagonal
system: the first slab's load holds the trace of the solution before the
chunk (the initial data for slab 1), and ``SlabSystems.system`` adds the
previous slab's end-time trace to each later slab's load once that slab is
solved; the march calls it slab by slab, between the solves.  Given one
``SlabSpace``, ``assemble_slab`` runs the same code on a chunk of that slab
and returns its ``SlabSystem``.

Nodes carry one global numbering: background nodes ``0..nb-1``, then overlap
nodes ``nb..nb+n_ov-1``.  Every piece of the slab form yields COO triplets in
that numbering, each spatial entry carrying a (q+1)x(q+1) block over the
temporal modes.  The chunk's ``node -> DOF`` table (-1 for a dropped
background node) maps them to DOFs once, numbering the chunk's DOFs slab
after slab.  One sparse sum over the chunk then gives a block-diagonal
matrix whose diagonal blocks are the CSC slab matrices, and the loads are
gathered per slab and node the same way.  The pieces differ in their time
dependence:

* the full-mesh P1 mass, stiffness and drift entries of both meshes are
  constant.  The overlap mesh moves rigidly, so its entries depend only on the
  node offsets; they are built once per setup (``Setup.mesh_matrices``) and
  contracted with every slab's exact temporal weights in one product;
* background volume terms over the uncovered region are the full-mesh matrices
  minus a correction over the covered interval, whose entries are piecewise
  polynomial in time between interface-node crossings;
* interface point terms (Nitsche coupling, penalty, upwind space-time jump)
  come from the records' stencils of both interface points at all panel Gauss
  times: seven nodes per point with jump, average-gradient and upwind-trace
  weights, piecewise polynomial between the same crossings;
* the overlap-region gradient-jump stabilization comes from the records'
  stabilization weights: pairwise over (cut background cell, overlap cell),
  the exact temporal weights of each pair's covered length with panels at
  their mutual crossings.  The energy norm reads the same weights.

Composite three-point Gauss rules on those panels integrate every piecewise
polynomial integrand exactly (degree <= 5), so the assembled matrix carries no
temporal quadrature error.

The source load uses the lower-order rules of the reference computation:
trapezoid in space, midpoint in time for piecewise-constant time elements and
three-point Lobatto for linear ones, with one call of the source for the
whole chunk.  The time-jump load of a slab after the
first is the side-wise mass at the slab start (the full-mesh mass minus the
covered correction there, both already built for the matrix) applied to the
previous slab's end-time nodal values.  Both factors are P1 on every segment
of the start partition, so this is the exact L2 pairing of that trace with the
test functions.  The first slab integrates the initial data with three-point
Gauss per merged-partition segment.

A chunk's temporaries (its triplets, the merged partitions of its source
load, its covered-cell products) grow with its slab count; the march's cap
on a chunk (``solver.CHUNK_ENTRIES``) bounds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, csc_array

from .core import NumericalFailure, Setup
from .geometry import (
    SlabGeometry,
    left_at,
    partition_at,
    ragged_arange,
    segment_cells,
    segment_points,
    spatial_partition,
)
from .quadrature import GL3, composite_time_rule, lobatto3, midpoint
from .spaces import (
    InterfaceStencil,
    SlabSolution,
    SlabSpace,
    SlabSpaces,
    temporal_basis_derivs,
    temporal_basis_values,
)


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


def _covered_entries(geom: SlabGeometry, a: np.ndarray):
    """Mass/stiffness of the background basis over the covered interval
    [a, a + L] at the left positions ``a``, shaped (slabs, positions).

    Each slab's entries run over the background cells met at any of its
    positions, padded to the most cells of any slab by repeating its last
    cell.  Returns the cells (slabs, cells), which of them are the slab's
    own, and the (e00, e01, e11) mass and stiffness shaped (2, slabs,
    positions, 3, cells); they vanish where a cell lies outside that
    position's interval.
    """
    nodes = geom.bg_nodes
    last = len(nodes) - 2
    b = a + geom.overlap_length
    c_lo = np.clip(np.searchsorted(nodes, a.min(axis=1), side="right") - 1, 0, last)
    c_hi = np.clip(np.searchsorted(nodes, b.max(axis=1), side="left") - 1, 0, last)
    cells = c_lo[:, None] + np.arange((c_hi - c_lo).max() + 1)
    own = cells <= c_hi[:, None]
    cells = np.minimum(cells, c_hi[:, None])
    lo, hi = nodes[cells][:, None], nodes[cells + 1][:, None]
    xa = np.maximum(lo, a[:, :, None])
    xb = np.maximum(np.minimum(hi, b[:, :, None]), xa)
    return cells, own, _segment_mass_stiff(xa, xb, lo, hi)


def _point_entries(idx, vals, weights):
    """Triplets of entries that move between points: ``vals`` shaped
    (points, s, s) on the nodes ``idx`` (points, s), test node first, each
    point with its own temporal weights (points, q+1, q+1).  The rows and
    cols come back shaped (points, s*s), the blocks (points, s*s, (q+1)^2)."""
    n, s = idx.shape
    mm = weights.shape[1] * weights.shape[2]
    rows = np.repeat(idx, s, axis=1)
    cols = np.tile(idx, (1, s))
    return rows, cols, vals.reshape(n, s * s, 1) * weights.reshape(n, 1, mm)


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


def _hat_load(geom: SlabGeometry, part, x, fw, slab, n_slabs: int) -> np.ndarray:
    """Values ``fw`` (segments, points, modes) at the points ``x`` (segments,
    points) against the hats of each segment's own cell, summed per slab
    (``slab`` gives each segment's) and global node: shaped (slabs, nodes,
    modes)."""
    node, lo, hi = segment_cells(geom, part)
    w1 = ((x - lo[:, None]) / (hi - lo)[:, None])[:, :, None]
    m = fw.shape[2]
    n_nodes = len(geom.bg_nodes) + len(geom.ov_offsets)
    per_end = np.concatenate([np.sum(fw * (1.0 - w1), axis=1), np.sum(fw * w1, axis=1)])
    node = node + slab * n_nodes
    key = np.concatenate([node, node + 1])[:, None] * m + np.arange(m)
    return np.bincount(key.ravel(), per_end.ravel(), minlength=n_slabs * n_nodes * m).reshape(
        n_slabs, n_nodes, m
    )


def _f_load(geoms, q: int, slab: np.ndarray, times: np.ndarray, weights: np.ndarray, source):
    """Load of the source against every node's hat and temporal mode of each
    slab of ``geoms``, shaped (slabs, nodes, q+1): trapezoid per segment in
    space, the rule (times, weights) in time, where ``slab`` gives the
    position in ``geoms`` of each time's slab.  ``source`` is called once."""
    # a composite Lobatto rule repeats each inner panel endpoint of a slab
    order = np.lexsort((times, slab))
    ts, ss = times[order], slab[order]
    new = np.ones(len(ts), dtype=bool)
    new[1:] = (ts[1:] != ts[:-1]) | (ss[1:] != ss[:-1])
    slot = np.empty(len(ts), dtype=int)
    slot[order] = np.cumsum(new) - 1
    ts, ss = ts[new], ss[new]
    t0, t1 = np.array([(g.t_start, g.t_end) for g in geoms]).T
    part = partition_at(geoms[0], ts, left_at(geoms, ss, ts))
    wlam = np.bincount(slot, weights)[:, None] * temporal_basis_values(q, t0[ss], t1[ss], ts)
    # the segments of one time tile the domain, so the source is evaluated
    # at each segment's left end and at the right end of each time's last one
    row = part.time_index
    last = np.append(row[1:] != row[:-1], True)
    f = np.asarray(
        source(np.concatenate([part.xa, part.xb[last]]), np.concatenate([part.t, part.t[last]])),
        dtype=float,
    )
    fv = np.empty((2, len(part)))
    fv[0] = f[: len(part)]
    fv[1, :-1] = f[1 : len(part)]
    fv[1, last] = f[len(part) :]
    fw = (fv * (0.5 * part.lengths)).T[:, :, None] * wlam[row][:, None, :]
    del f, fv  # not needed by the hat sums, which are the chunk's largest temporaries
    return _hat_load(geoms[0], part, np.array([part.xa, part.xb]).T, fw, ss[row], len(geoms))


def _trace_load(geom: SlabGeometry, t: float, func) -> np.ndarray:
    """Gauss-3-per-segment load of a scalar function of position at time t
    against every node's hat."""
    part = spatial_partition(geom, t)
    x, w = segment_points(part)
    fw = np.asarray(func(x.ravel()), dtype=float).reshape(x.shape) * w
    return _hat_load(geom, part, x, fw[:, :, None], np.zeros(len(part), dtype=int), 1)[0, :, 0]


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


def _covered_part(geoms, t_slab, times, start, w_ld, w_ll):
    """Triplets (slab, rows, cols, blocks) of the covered-interval
    correction, at each slab start and on its panel Gauss times (``t_slab``
    gives each time's slab): mass against the start trace and lam_i lam_j',
    stiffness against lam_i lam_j; and each slab's covered mass triplets at
    its start."""
    S, mm = len(geoms), start.size
    t0, mu, a0 = np.array([(g.t_start, g.mu, g.a_start) for g in geoms]).T
    # positions: each slab's start, then its times, padded with its start
    # (whose temporal weights stay zero)
    p = np.arange(len(times)) - np.searchsorted(t_slab, t_slab) + 1
    t = np.repeat(t0[:, None], p.max() + 1, axis=1)
    t[t_slab, p] = times
    P = t.shape[1]
    cells, own, (mv, kv) = _covered_entries(geoms[0], a0[:, None] + mu[:, None] * (t - t0[:, None]))
    weights = np.zeros((S, 2, P, mm))
    weights[:, 0, 0] = start.ravel()
    weights[t_slab, 0, p] = w_ld
    weights[t_slab, 1, p] = w_ll
    sym = np.concatenate([mv, kv], axis=1).reshape(S, 2 * P, -1)
    sym = (np.swapaxes(sym, 1, 2) @ weights.reshape(S, 2 * P, mm)).reshape(S, 3, -1, mm)
    # (slab, entry, cell) triplets of each slab's own cells
    pick = [0, 1, 1, 2]
    own = np.broadcast_to(own[:, None], (S, 4, own.shape[1]))
    slab = np.broadcast_to(np.arange(S)[:, None, None], own.shape)[own]
    rows = np.stack([cells, cells, cells + 1, cells + 1], axis=1)[own]
    cols = np.stack([cells, cells + 1, cells, cells + 1], axis=1)[own]
    start_mv = mv[:, 0][:, pick][own]
    end = np.cumsum(np.bincount(slab, minlength=S)).tolist()
    start_cov = [(rows[i:j], cols[i:j], start_mv[i:j]) for i, j in zip([0] + end[:-1], end)]
    return (slab, rows, cols, -sym[:, pick][own]), start_cov


def _interface_part(spaces, nt, mu, gamma: float, w_ll):
    """Triplets of the interface point terms on the panel Gauss times:
    -n1 (J_i G_j + G_i J_j) + penalty J_i J_j + upwind trace_i J_j."""
    m = spaces[0].q + 1
    st = InterfaceStencil(*(np.concatenate(f) for f in zip(*(sp.stencil for sp in spaces))))
    slab = np.repeat(np.arange(len(spaces)), 2 * nt)
    time = (np.cumsum(nt) - nt)[slab] + ragged_arange(2 * nt) % nt[slab]
    J = st.jump
    n1G = st.n1[:, None] * st.grad
    pen = (np.hypot(mu[slab], 1.0) * gamma / st.h_K)[:, None]
    vals = J[:, :, None] * (pen * J - n1G)[:, None, :]
    vals += (st.upwind - n1G)[:, :, None] * J[:, None, :]
    return (slab[:, None], *_point_entries(st.idx, vals, w_ll[time].reshape(-1, m, m)))


def _stabilization_part(spaces):
    """Triplets of the pairwise-exact gradient-jump stabilization, or None
    when no slab has a stabilized pair."""
    stab = [(s, sp.stab) for s, sp in enumerate(spaces) if sp.stab is not None]
    if not stab:
        return None
    idx, g, W = (np.concatenate(x) for x in zip(*(st for _, st in stab)))
    slab = np.repeat([s for s, _ in stab], [len(st[0]) for _, st in stab])
    return (slab[:, None], *_point_entries(idx, g[:, :, None] * g[:, None, :], W))


def _slab_matrices(spaces, setup: Setup):
    """The block-diagonal matrix of the slabs ``spaces``, the first row of
    each slab's block in it and each slab's covered mass triplets at its
    start.

    Each piece of the form yields triplets of the chunk, mapped to the
    chunk's DOFs (slab after slab) as it is made; one sparse sum over the
    chunk gives the block-diagonal matrix.
    """
    S = len(spaces)
    geoms = [sp.geom for sp in spaces]
    q = spaces[0].q
    m = q + 1
    t0, t1, mu = np.array([(g.t_start, g.t_end, g.mu) for g in geoms]).T
    slab_ids = np.arange(S)
    n = np.array([sp.n_cols for sp in spaces])
    first = np.cumsum(n) - n
    node_dof = np.stack([sp.node_dof for sp in spaces])
    dofs = np.where(node_dof >= 0, first[:, None] + m * node_dof, -1).astype(np.intc).ravel()
    at = slab_ids * node_dof.shape[1]

    def to_dofs(slab, rows, cols, blocks):
        return _dof_triplets(dofs, m, at[slab], rows, cols, blocks)

    # constant-in-time blocks: full-mesh mass, stiffness and drift of both meshes
    # (every slab's start trace reads off its first mode)
    lam0 = temporal_basis_values(q, 0.0, 1.0, 0.0)
    start = np.outer(lam0, lam0)  # slab-start mass (time jump / initial coupling)
    T1, T2 = _temporal_products(q, t1 - t0)
    rows, cols, vals = setup.mesh_matrices
    C = np.stack([T2 + start, T1, -mu[:, None, None] * T1], axis=1).reshape(S, 3, m * m)
    triplets = [to_dofs(slab_ids[:, None], rows, cols, vals @ C)]

    # temporal weights on the panel Gauss times
    nt = np.array([len(sp.times) for sp in spaces])
    t_slab = np.repeat(slab_ids, nt)
    wts = np.concatenate([sp.weights for sp in spaces])[:, None, None]
    lam = np.concatenate([sp.lam for sp in spaces])
    dlam = temporal_basis_derivs(q, t0[t_slab], t1[t_slab])
    w_ll = (wts * lam[:, :, None] * lam[:, None, :]).reshape(-1, m * m)
    w_ld = (wts * lam[:, :, None] * dlam[:, None, :]).reshape(-1, m * m)
    times = np.concatenate([sp.times for sp in spaces])
    covered, start_cov = _covered_part(geoms, t_slab, times, start, w_ld, w_ll)
    triplets.append(to_dofs(*covered))
    triplets.append(to_dofs(*_interface_part(spaces, nt, mu, setup.disc.gamma, w_ll)))
    stab = _stabilization_part(spaces)
    if stab is not None:
        triplets.append(to_dofs(*stab))
    del covered, stab  # the raw triplets; the sum below needs only the DOF ones
    rows, cols, data = (np.concatenate(x) for x in zip(*triplets))
    del triplets
    total = int(n.sum())
    A = coo_array((data, (rows, cols)), shape=(total, total)).tocsc()  # sums the duplicates, once
    return A, first.tolist(), start_cov


def _start_load(setup: Setup, space: SlabSpace, start_cov, prev: SlabSolution | None):
    """The previous slab's end-time trace (the initial data when ``prev`` is
    None) against every node's hat and temporal mode at the slab start."""
    geom = space.geom
    lam0 = temporal_basis_values(space.q, geom.t_start, geom.t_end, geom.t_start)
    if prev is None:
        trace = _trace_load(geom, geom.t_start, setup.problem.initial)
    else:
        trace = _jump_load(setup, start_cov, prev)
    return trace[:, None] * lam0


@dataclass(frozen=True)
class SlabSystems:
    """The system of consecutive slabs, block lower bidiagonal in time.

    The diagonal blocks are the slab matrices; ``matrix`` holds them as one
    block-diagonal matrix, slab i's block from row ``first[i]`` on.  Below
    the diagonal, the time jump feeds each slab's end-time trace into the
    load of the next one, so the slabs are solved one after the other:
    ``system(i, prev)`` is slab i's system once ``prev``, the solution on
    slab i-1, is known.  The first slab's load already holds the trace of
    the solution before the chunk (or the initial data).
    """

    spaces: SlabSpaces
    setup: Setup
    matrix: csc_array
    first: list
    loads: list  # per slab (nodes, q+1): the source load, for slab 0 with its trace
    start_cov: list  # per slab: the covered mass triplets at its start

    def system(self, i: int, prev: SlabSolution | None) -> SlabSystem:
        """The system of slab i (0-based in the chunk); ``prev`` is read for
        i > 0 only."""
        space, A, f = self.spaces[i], self.matrix, self.first[i]
        k = space.n_cols
        lo, hi = A.indptr[f], A.indptr[f + k]
        block = (A.data[lo:hi], A.indices[lo:hi] - f, A.indptr[f : f + k + 1] - lo)
        load = self.loads[i]
        if i > 0:
            load = load + _start_load(self.setup, space, self.start_cov[i], prev)
        return SlabSystem(
            slab=space.geom.n,
            matrix=csc_array(block, shape=(k, k)),
            rhs=load[space.dof_node].ravel(),
            space=space,
        )


def assemble_slab(
    space: SlabSpace | SlabSpaces, setup: Setup, prev: SlabSolution | None
) -> SlabSystem | SlabSystems:
    """Assemble the sparse system of one slab.

    ``prev`` is the solution on the previous slab, whose end-time trace enters
    the load; for the first slab it is None and the initial data enters
    instead.  For the ``SlabSpaces`` of consecutive slabs, their matrices
    and source loads are built at once and come back as ``SlabSystems``,
    with ``prev`` (the solution on the slab before them) in the first load.
    """
    spaces = SlabSpaces((space,) if isinstance(space, SlabSpace) else space)
    A, first, start_cov = _slab_matrices(spaces, setup)
    geoms = [sp.geom for sp in spaces]
    q = spaces[0].q
    t0, t1 = np.array([(g.t_start, g.t_end) for g in geoms]).T
    rule = midpoint() if q == 0 else lobatto3()
    times, wts = composite_time_rule(t0, t1, [g.events for g in geoms], rule)
    panels = np.array([len(g.events) + 1 for g in geoms])
    slab = np.repeat(np.arange(len(geoms)), len(rule.nodes) * panels)
    loads = list(_f_load(geoms, q, slab, times, wts, setup.problem.source))
    loads[0] = loads[0] + _start_load(setup, spaces[0], start_cov[0], prev)
    systems = SlabSystems(spaces, setup, A, first, loads, start_cov)
    return systems.system(0, prev) if isinstance(space, SlabSpace) else systems
