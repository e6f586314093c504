"""The temporal basis, the slab records, and the coefficients and values of a
space-time solution.  ``build_slab_space`` builds the records of a chunk of
consecutive slabs at once, as columns (``SlabSpaces``): DOF maps, time
rules, interface stencils and stabilization weights; a slab that repeats the
slab before it shares that slab's record.  ``assemble_slab`` and the energy
norm in ``norms`` read the columns and rebuild none of them.  ``SlabSpace``
and ``SlabSolution`` are views of one slab; the march's ``SlabSolutions``
holds one column of the coefficients of all slabs.

A slab numbers its spatial DOFs by position, so its matrix is banded: every
term of the slab form is local in x.  The assembly, the banded solve and the
norm all read this one order; ``nodal_values`` maps coefficients to nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Discretization, Setup
from .geometry import (
    Columns, Slab, SlabGeometries, SlabGeometry, ragged_arange, share, sigma_side, snap
)
from .quadrature import GL3, composite_time_rule


def temporal_modes(q: int, tau) -> np.ndarray:
    """Values of the q+1 temporal modes at the slab-relative times ``tau``
    in [0, 1], shaped ``np.shape(tau) + (q+1,)``.

    q=0 is the constant mode; q=1 is the nodal Lagrange pair at the slab
    endpoints, so traces at the endpoints read off single modes.  Slabs whose
    rules share their relative times share these values bit for bit.
    """
    if q == 0:
        return np.ones(np.shape(tau) + (1,))
    tau = np.asarray(tau, dtype=float)
    return np.stack([1.0 - tau, tau], axis=-1)


def temporal_basis_derivs(q: int, k) -> np.ndarray:
    """Time derivatives of the q+1 temporal modes on slabs of length ``k``,
    shaped ``np.shape(k) + (q+1,)``."""
    k = np.asarray(k, dtype=float)
    if q == 0:
        return np.zeros(k.shape + (1,))
    return np.stack([-1.0 / k, 1.0 / k], axis=-1)


# the spatial normal of the uncovered side at the left and the right point
N1 = np.array([1.0, -1.0])


class InterfaceStencil(NamedTuple):
    """Both interface points at each of several times, shaped (times, 2,
    ...): side 0 is the left point, side 1 the right one, whose spatial
    normals are ``N1``.

    ``idx`` gives seven global node indices per point: the background cell
    holding the point (value), the background cell on the uncovered side
    (one-sided gradient, also when the point sits on a node), the overlap
    node at the point (value) and the overlap end cell (gradient).  The
    weights on those nodes, shaped like ``idx``, give the trace jump (side 1
    minus side 2), the weighted average gradient
    ``omega1 * grad_1 + (1 - omega1) * grad_2``, and the upwind-side trace
    (see ``sigma_side``) times its signed weight ``n1 * mu``.
    """

    idx: np.ndarray
    jump: np.ndarray
    grad: np.ndarray
    upwind: np.ndarray
    x: np.ndarray  # position
    h_K: np.ndarray  # size of the background cell holding the point


def interface_stencil(
    geoms, slab: np.ndarray, times: np.ndarray, omega1: float
) -> InterfaceStencil:
    """The interface stencils of the slabs ``geoms`` (``SlabGeometries``) at
    the 1-D array ``times``, where ``slab`` gives the position in ``geoms``
    of each time's slab: one row per time, so a slab's stencil is the slice
    of its times' rows."""
    nodes, off = geoms.bg_nodes, geoms.ov_offsets
    nb, n_ov = len(nodes), len(off)
    mu = geoms.mu[slab]
    a = geoms.left(slab, times)
    x = np.stack([a, a + geoms.overlap_length], axis=1)
    # value cell: the cell holding the true point, so the weights interpolate
    # the P1 function there, as SlabSolution.eval does.  The cell of h_K (the
    # one holding the point, right of its node when on one) and the gradient
    # cell (the cell on the uncovered side, left of the left point and right
    # of the right one) are looked up at the snapped point
    xs = snap(nodes, x)
    cells = np.empty((3,) + x.shape, dtype=int)
    cells[0] = np.searchsorted(nodes, x, side="right")
    cells[1] = cells[2] = np.searchsorted(nodes, xs, side="right")
    cells[2, :, 0] = np.searchsorted(nodes, xs[:, 0], side="left")
    c, cK, c1 = np.clip(cells - 1, 0, nb - 2)
    h = nodes[c + 1] - nodes[c]
    w1 = (x - nodes[c]) / h
    g1 = omega1 / (nodes[c1 + 1] - nodes[c1])
    g2 = (1.0 - omega1) / (off[[1, -1]] - off[[0, -2]])  # first and last overlap cell
    ov_cell = np.array([nb, nb + n_ov - 2])

    idx = np.empty(x.shape + (7,), dtype=int)
    jump, grad, upwind = np.zeros((3,) + x.shape + (7,))
    idx[..., 0], idx[..., 1], idx[..., 2], idx[..., 3] = c, c + 1, c1, c1 + 1
    idx[..., 4], idx[..., 5], idx[..., 6] = [nb, nb + n_ov - 1], ov_cell, ov_cell + 1
    jump[..., 0], jump[..., 1], jump[..., 4] = 1.0 - w1, w1, -1.0
    grad[..., 2], grad[..., 3], grad[..., 5], grad[..., 6] = -g1, g1, -g2, g2
    for side, label in enumerate(("left", "right")):
        sigma, w = sigma_side(label, mu)
        upwind[:, side, :2] = np.where((sigma == 1)[:, None], w[:, None] * jump[:, side, :2], 0.0)
        upwind[:, side, 4] = np.where(sigma == 1, 0.0, w)
    return InterfaceStencil(idx, jump, grad, upwind, x, nodes[cK + 1] - nodes[cK])


def _search_rows(a: np.ndarray, off: np.ndarray, v: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(a[i] + off, v[i], side)`` for every i: a search of
    ``v - a`` in ``off``, moved by one where rounding put ``v - a`` on the
    other side of a node than ``v`` is of ``a + off``."""
    j = np.searchsorted(off, v - a, side=side)
    top = len(off) - 1

    def before(y):  # y would come before v
        return y <= v if side == "right" else y < v

    j += (j <= top) & before(a + off[np.minimum(j, top)])
    j -= (j > 0) & ~before(a + off[np.maximum(j - 1, 0)])
    return j


class Stab(NamedTuple):
    """Stabilized pairs (``stabilization_weights``)."""

    idx: np.ndarray
    g: np.ndarray
    W: np.ndarray


def stabilization_weights(geoms: SlabGeometries, q: int) -> tuple[Stab, np.ndarray]:
    """The gradient-jump stabilization of the slabs ``geoms``, pairwise over
    (cut background cell, overlap cell) pairs that meet at some slab time.

    Returns the pairs of every slab, slab after slab, and how many each slab
    has.  ``idx`` (pairs, 4) holds the pair's global nodes (background cell, then
    overlap cell), ``g`` (pairs, 4) the weights on them of the gradient jump
    (background minus overlap gradient), and ``W`` (pairs, q+1, q+1) the slab
    integral of the pair's covered length times ``lam_i lam_j``.  That length
    is piecewise linear in time with breaks at the pair's endpoint crossings,
    so three-point Gauss per panel makes ``W`` exact.
    """
    nodes, off = geoms.bg_nodes, geoms.ov_offsets
    t0, t1, k, mu, a0 = geoms.t_start, geoms.t_end, geoms.k, geoms.mu, geoms.a_start
    K = geoms.cut_cells
    s = geoms.slab_index("cut_cells")
    # overlap cells meeting each cut cell at some slab time
    shift = mu * (t1 - t0)
    g0 = _search_rows(a0[s], off, nodes[K] - np.maximum(shift, 0.0)[s], "right") - 1
    g1 = _search_rows(a0[s], off, nodes[K + 1] - np.minimum(shift, 0.0)[s], "left") - 1
    g0, g1 = np.maximum(0, g0), np.minimum(len(off) - 2, g1)
    count = np.maximum(g1 - g0 + 1, 0)
    n = int(count.sum())
    pK = np.repeat(K, count)
    ps = np.repeat(s, count)
    pc = np.repeat(g0, count) + ragged_arange(count)
    idx = np.concatenate([pK[:, None] + [0, 1], len(nodes) + pc[:, None] + [0, 1]], axis=1)
    x = np.empty((n, 4))  # K_lo, K_hi, c_lo, c_hi at the slab start
    x[:, :2] = nodes[idx[:, :2]]
    x[:, 2:] = a0[ps, None] + off[pc[:, None] + [0, 1]]  # overlap nodes at the slab start
    g = np.array([-1.0, 1.0, 1.0, -1.0]) / (x[:, [1, 1, 3, 3]] - x[:, [0, 0, 2, 2]])
    # the panels in slab-relative time, from the pair's endpoint crossings
    pk, pmu = k[ps, None], mu[ps, None]
    breaks = np.zeros((n, 6))
    breaks[:, 5] = 1.0
    moving = pmu != 0.0
    cross = (x[:, [0, 1, 0, 1]] - x[:, [2, 2, 3, 3]]) / np.where(moving, pmu * pk, 1.0)
    breaks[:, 1:5] = np.where(moving, np.sort(np.clip(cross, 0.0, 1.0), axis=1), 0.0)
    panel = np.diff(breaks, axis=1)[:, :, None]
    points = 5 * len(GL3.nodes)  # per pair: five panels
    tau = (breaks[:, :-1, None] + panel * GL3.nodes).reshape(n, points)
    wq = pk * (panel * GL3.weights).reshape(n, points)
    drift = pmu * pk * tau
    L = np.minimum(x[:, [1]], x[:, [3]] + drift) - np.maximum(x[:, [0]], x[:, [2]] + drift)
    lam = temporal_modes(q, tau)
    W = np.einsum("pt,pti,ptj->pij", wq * np.maximum(L, 0.0), lam, lam)
    return Stab(idx, g, W), np.bincount(ps, minlength=len(geoms))


class SlabSpace(Slab):
    """The record of one slab, a view of its ``SlabSpaces``: its DOF map and
    the quadrature data shared by the slab form and the energy norm.

    Background DOFs sit on interior background nodes whose support meets the
    uncovered region at some slab time or touches a slab-cut cell; every
    overlap-mesh node carries a DOF.  Ordering: by position, background nodes
    at their coordinate and overlap nodes at the slab midpoint, ties by
    global node; temporal mode fastest.

    Nodes carry one global numbering: background nodes ``0..nb-1``, then
    overlap nodes ``nb..nb+n_ov-1``.  ``node_dof`` maps it to the spatial
    DOFs and ``dof_node`` back.  ``times``/``weights`` are the composite
    three-point Gauss rule on the panels between interface-node crossings;
    ``stab`` is None when the slab has no stabilized pair.
    """

    geom = property(lambda self: self.columns.geoms[self.i])
    times = property(lambda self: self.geom.t_start + self.geom.k * self.tau)
    stab = property(lambda self: Slab.__getattr__(self, "stab") if self.counts[1] else None)
    active_bg = property(lambda self: np.flatnonzero(self.node_dof[: len(self.geom.bg_nodes)] >= 0))
    dof_node = property(lambda self: np.argsort(self.node_dof)[-self.n_spatial :])
    n_active_bg = property(lambda self: len(self.active_bg))
    n_ov = property(lambda self: len(self.geom.ov_offsets))
    n_spatial = property(lambda self: self.n_active_bg + self.n_ov)
    n_cols = property(lambda self: self.n_spatial * (self.q + 1))


@dataclass(frozen=True)
class SlabSpaces(Columns):
    """The records of consecutive slabs, as columns (``Columns``): per slab
    its ``node_dof`` row (global node -> spatial DOF, -1 if none); the rule
    ``tau`` (slab-relative times), ``weights`` and mode values ``lam`` (times,
    q+1) and interface ``stencil`` (times, 2, ...) of every slab, slab after
    slab; and the ``stab`` pairs of each slab.  ``counts`` (slabs, 2) gives
    each slab's times and pairs."""

    geoms: SlabGeometries
    q: int
    node_dof: np.ndarray
    tau: np.ndarray
    weights: np.ndarray
    lam: np.ndarray
    stencil: InterfaceStencil
    stab: Stab
    counts: np.ndarray

    PER_SLAB = ("node_dof", "counts")
    RAGGED = {"tau": 0, "weights": 0, "lam": 0, "stencil": 0, "stab": 1}
    VIEW = SlabSpace

    @property
    def times(self) -> np.ndarray:
        """The rule times of every slab, slab after slab."""
        slab = self.slab_index("tau")
        return self.geoms.t_start[slab] + self.geoms.k[slab] * self.tau

    @cached_property
    def slab_cols(self) -> np.ndarray:
        """The columns (unknowns) of each slab."""
        return (self.node_dof >= 0).sum(axis=1) * (self.q + 1)

    n_cols = property(lambda self: int(self.slab_cols.sum()))


def build_slab_space(geoms: SlabGeometries, disc: Discretization, held=None) -> SlabSpaces:
    """The records of the consecutive slabs ``geoms`` under the
    discretization ``disc``, built at once.  A slab that repeats the slab
    before it (``geoms.repeats``) shares that slab's record, which is not
    built again; the first slab shares that of ``held``'s last slab."""
    if geoms.repeats.all():
        return share(None, held, geoms.repeats, geoms=geoms)
    made = geoms.take(np.flatnonzero(~geoms.repeats))  # the slabs built here
    S = len(made)
    nb, n_ov = len(geoms.bg_nodes), len(geoms.ov_offsets)
    dead = np.zeros((S, nb - 1), dtype=bool)
    dead[made.slab_index("covered_cells"), made.covered_cells] = True
    # a node is dropped only when both support cells are covered for the whole slab
    active = ~(dead[:, :-1] & dead[:, 1:])  # interior nodes 1..nb-2
    # the DOFs by position: background nodes at their coordinate, overlap
    # nodes at the slab midpoint, ties by node; a node without DOF after them
    x = np.full((S, nb + n_ov), np.inf)
    x[:, 1 : nb - 1] = np.where(active, geoms.bg_nodes[1:-1], np.inf)
    t0, t1 = made.t_start, made.t_end
    x[:, nb:] = np.add.outer(made.a_start + made.mu * (0.5 * (t0 + t1) - t0), geoms.ov_offsets)
    rank = np.arange(nb + n_ov)
    n_dofs = active.sum(axis=1) + n_ov
    node_dof = np.empty((S, nb + n_ov), dtype=np.intc)
    by = np.argsort(x, axis=1, kind="stable")
    np.put_along_axis(node_dof, by, np.where(rank < n_dofs[:, None], rank, -1), axis=1)

    # the rule in slab-relative time: slabs without events share it bit for bit
    e, n_events = made.slab_index("events"), made.counts[:, 0]
    events = (made.events - made.t_start[e]) / made.k[e]
    tau, weights = composite_time_rule(np.zeros(S), np.ones(S), events, GL3, n_events)
    nt = len(GL3.nodes) * (n_events + 1)
    slab = np.repeat(np.arange(S), nt)
    weights *= made.k[slab]
    stencil = interface_stencil(made, slab, made.t_start[slab] + made.k[slab] * tau, disc.omega1)
    stab, pairs = stabilization_weights(made, disc.q)
    counts = np.stack([nt, pairs], axis=1)
    lam = temporal_modes(disc.q, tau)
    built = SlabSpaces(made, disc.q, node_dof, tau, weights, lam, stencil, stab, counts)
    return share(built, held, geoms.repeats, geoms=geoms)


def nodal_values(node_dof: np.ndarray, coeffs: np.ndarray, q: int) -> np.ndarray:
    """Per-mode nodal values of consecutive slabs with the DOF maps
    ``node_dof`` (slabs, nodes) and the coefficient column ``coeffs``, slab
    after slab, in the global node numbering: shaped (slabs, q+1, nodes),
    0 on a node without DOF."""
    m = q + 1
    has = node_dof >= 0
    n = has.sum(axis=1)
    start = m * (np.cumsum(n) - n)
    # a node without DOF reads the first coefficient, then is set to 0: a
    # padded copy of the column, one more array the size of the values,
    # raised the norm's peak RSS on long_march by 0.6 MiB
    vals = coeffs[np.where(has, start[:, None] + m * node_dof, 0)[:, None] + np.arange(m)[:, None]]
    vals.transpose(0, 2, 1)[~has] = 0.0
    return vals


@dataclass(frozen=True)
class SlabSolution:
    """Coefficients of one slab, shaped (spatial DOFs, temporal modes)."""

    space: SlabSpace
    coeffs: np.ndarray  # flat, length n_cols

    @property
    def geom(self) -> SlabGeometry:
        return self.space.geom

    @property
    def by_mode(self) -> np.ndarray:
        return self.coeffs.reshape(self.space.n_spatial, self.space.q + 1)

    def nodal(self) -> np.ndarray:
        """Per-mode nodal values in the global node numbering, shaped
        (background + overlap nodes, q+1); dropped background DOFs are 0."""
        return nodal_values(self.space.node_dof[None], self.coeffs, self.space.q)[0].T.copy()

    def eval(self, x, t: float) -> np.ndarray:
        """The value at the points ``x`` and the time t in the slab, from the
        representation that covers each point: the overlap's strictly inside
        the moving interval, the background's elsewhere."""
        geom = self.geom
        if not geom.contains_time(t):
            raise ValueError(f"t={t} outside slab {geom.n}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lam = temporal_modes(self.space.q, (t - geom.t_start) / (geom.t_end - geom.t_start))
        a = float(geom.left(t))
        on2 = (x > a) & (x < a + geom.overlap_length)
        nodal = self.nodal()
        nb = len(geom.bg_nodes)
        pos = geom.ov_positions(t)
        out = np.empty_like(x)
        for on, nodes, vals in ((~on2, geom.bg_nodes, nodal[:nb]), (on2, pos, nodal[nb:])):
            if on.any():
                c = np.clip(np.searchsorted(nodes, x[on], side="right") - 1, 0, len(nodes) - 2)
                w1 = (x[on] - nodes[c]) / (nodes[c + 1] - nodes[c])
                u = vals @ lam
                out[on] = (1.0 - w1) * u[c] + w1 * u[c + 1]
        return out


class SlabSolutions:
    """The solutions of consecutive slabs, as the records ``spaces``
    (``SlabSpaces``) and one column of all their coefficients, slab after
    slab; slab i's ``SlabSolution`` is a view of both."""

    def __init__(self, spaces: SlabSpaces, coeffs: np.ndarray):
        self.spaces, self.coeffs = spaces, coeffs
        self.first = np.concatenate([[0], np.cumsum(spaces.slab_cols)]).tolist()

    def __len__(self) -> int:
        return len(self.spaces)

    def __getitem__(self, i: int) -> SlabSolution:
        i = range(len(self))[i]
        return SlabSolution(self.spaces[i], self.coeffs[self.first[i] : self.first[i + 1]])


@dataclass(frozen=True)
class SpaceTimeSolution:
    """The solution on every slab, as records and one coefficient column
    (``SlabSolutions``), plus the setup needed to evaluate it."""

    setup: Setup
    slabs: SlabSolutions

    def slab_index(self, t: float) -> int:
        """Slab n with t in (t_{n-1}, t_n]; t=0 maps to slab 1."""
        bp = self.setup.partition.breakpoints
        if t <= bp[0]:
            return 1
        n = int(np.searchsorted(bp, t, side="left"))
        return min(n, len(self.slabs))

    def eval(self, x, t: float) -> np.ndarray:
        """The value at the points ``x`` and the time t (``SlabSolution.eval``
        on the slab ``slab_index(t)``)."""
        return self.slabs[self.slab_index(t) - 1].eval(x, t)
