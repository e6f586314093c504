"""The temporal basis, the per-slab record ``SlabSpace``, and the coefficients
and evaluation of a space-time solution.  ``build_slab_space`` builds each
slab's record once, for a chunk of consecutive slabs at once: its DOF map,
time rule, interface stencil and stabilization weights.  ``assemble_slab``
and the energy norm in ``norms`` read them there and rebuild none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Discretization, Setup
from .geometry import (
    DEGENERATE_FRACTION,
    SlabGeometries,
    SlabGeometry,
    left_at,
    ragged_arange,
    sigma_side,
)
from .quadrature import GL3, composite_time_rule


def temporal_basis_values(q: int, t_start: float, t_end: float, t) -> np.ndarray:
    """Values of the q+1 temporal modes at t, shaped ``np.shape(t) + (q+1,)``.

    q=0 is the constant mode; q=1 is the nodal Lagrange pair at the slab
    endpoints, so traces at the endpoints read off single modes.
    """
    if q == 0:
        return np.ones(np.shape(t) + (1,))
    k = t_end - t_start
    lam = np.array([(t_end - t) / k, (t - t_start) / k])
    return np.moveaxis(lam, 0, -1) if lam.ndim > 1 else lam


def temporal_basis_derivs(q: int, t_start, t_end) -> np.ndarray:
    """Time derivatives of the q+1 temporal modes, shaped
    ``np.shape(t_start) + (q+1,)``."""
    if q == 0:
        return np.zeros(np.shape(t_start) + (1,))
    k = t_end - t_start
    d = np.array([-1.0 / k, 1.0 / k])
    return np.moveaxis(d, 0, -1) if d.ndim > 1 else d


class InterfaceStencil(NamedTuple):
    """Both interface points at each of ``nt`` times: rows ``0..nt-1`` hold
    the left point, rows ``nt..2nt-1`` the right one.

    ``idx`` gives seven global node indices per row: the background cell
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
    n1: np.ndarray  # spatial normal of the uncovered side
    h_K: np.ndarray  # size of the background cell holding the point


def interface_stencil(
    geoms, slab: np.ndarray, times: np.ndarray, omega1: float
) -> InterfaceStencil:
    """The interface stencils of the slabs ``geoms`` at the 1-D array
    ``times``, where ``slab`` (nondecreasing) gives the position in ``geoms``
    of each time's slab.  The rows run slab by slab, each slab's left points
    and then its right points, so one slab's stencil is a slice of rows."""
    nodes, off = geoms[0].bg_nodes, geoms[0].ov_offsets
    nb, n_ov = len(nodes), len(off)
    nt = len(times)
    mu = np.array([g.mu for g in geoms])[slab]
    a = left_at(geoms, slab, times)
    x = np.concatenate([a, a + geoms[0].overlap_length])
    # value cell: the cell holding the point; gradient cell: the cell on the
    # uncovered side, left of the left point and right of the right one
    cells = np.empty((2, 2 * nt), dtype=int)
    cells[0] = np.searchsorted(nodes, x, side="right")
    cells[1, :nt] = np.searchsorted(nodes, a, side="left")
    cells[1, nt:] = cells[0, nt:]
    c, c1 = np.clip(cells - 1, 0, nb - 2)
    h = nodes[c + 1] - nodes[c]
    w1 = (x - nodes[c]) / h
    g1 = omega1 / (nodes[c1 + 1] - nodes[c1])
    g2 = (1.0 - omega1) / (off[[1, -1]] - off[[0, -2]])  # first and last overlap cell

    idx = np.empty((2 * nt, 7), dtype=int)
    jump, grad, upwind = np.zeros((3, 2 * nt, 7))
    idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3] = c, c + 1, c1, c1 + 1
    jump[:, 0], jump[:, 1], jump[:, 4] = 1.0 - w1, w1, -1.0
    grad[:, 2], grad[:, 3] = -g1, g1
    for rows, label, ov_node, ov_cell, g in (
        (slice(0, nt), "left", nb, nb, g2[0]),
        (slice(nt, None), "right", nb + n_ov - 1, nb + n_ov - 2, g2[1]),
    ):
        idx[rows, 4:] = ov_node, ov_cell, ov_cell + 1
        grad[rows, 5:] = -g, g
        sigma, w = sigma_side(label, mu)
        upwind[rows, :2] = np.where((sigma == 1)[:, None], w[:, None] * jump[rows, :2], 0.0)
        upwind[rows, 4] = np.where(sigma == 1, 0.0, w)

    # from all left rows, then all right rows, to slab by slab
    count = np.bincount(slab, minlength=len(geoms))
    left = (np.cumsum(count) - count)[slab] + np.arange(nt)
    order = np.empty(2 * nt, dtype=int)
    order[left] = np.arange(nt)
    order[left + count[slab]] = np.arange(nt, 2 * nt)
    return InterfaceStencil(
        idx=idx[order],
        jump=jump[order],
        grad=grad[order],
        upwind=upwind[order],
        x=x[order],
        n1=np.repeat([1.0, -1.0], nt)[order],
        h_K=h[order],
    )


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


def stabilization_weights(geoms, q: int) -> list:
    """The gradient-jump stabilization of each slab of ``geoms``, pairwise
    over (cut background cell, overlap cell) pairs that meet at some slab
    time.

    Returns per slab ``(idx, g, W)``, or None when no such pair exists:
    ``idx`` (pairs, 4) holds the pair's global nodes (background cell, then
    overlap cell), ``g`` (pairs, 4) the weights on them of the gradient jump
    (background minus overlap gradient), and ``W`` (pairs, q+1, q+1) the slab
    integral of the pair's covered length times ``lam_i lam_j``.  That length
    is piecewise linear in time with breaks at the pair's endpoint crossings,
    so three-point Gauss per panel makes ``W`` exact.
    """
    nodes, off = geoms[0].bg_nodes, geoms[0].ov_offsets
    t0, t1, mu, a0 = np.array([(g.t_start, g.t_end, g.mu, g.a_start) for g in geoms]).T
    K = geoms.cut_cells
    s = geoms.slab_index("cut_cells")
    # overlap cells meeting each cut cell at some slab time
    shift = mu * (t1 - t0)
    g0 = _search_rows(a0[s], off, nodes[K] - np.maximum(shift, 0.0)[s], "right") - 1
    g1 = _search_rows(a0[s], off, nodes[K + 1] - np.minimum(shift, 0.0)[s], "left") - 1
    g0, g1 = np.maximum(0, g0), np.minimum(len(off) - 2, g1)
    count = np.maximum(g1 - g0 + 1, 0)
    n = int(count.sum())
    if n == 0:
        return [None] * len(geoms)
    pK = np.repeat(K, count)
    ps = np.repeat(s, count)
    pc = np.repeat(g0, count) + ragged_arange(count)
    idx = np.concatenate([pK[:, None] + [0, 1], len(nodes) + pc[:, None] + [0, 1]], axis=1)
    x = np.empty((n, 4))  # K_lo, K_hi, c_lo, c_hi at the slab start
    x[:, :2] = nodes[idx[:, :2]]
    x[:, 2:] = a0[ps, None] + off[pc[:, None] + [0, 1]]  # overlap nodes at the slab start
    g = np.array([-1.0, 1.0, 1.0, -1.0]) / (x[:, [1, 1, 3, 3]] - x[:, [0, 0, 2, 2]])
    pt0, pt1, pmu = t0[ps, None], t1[ps, None], mu[ps, None]
    breaks = np.repeat(pt0, 6, axis=1)
    breaks[:, 5] = pt1[:, 0]
    moving = pmu != 0.0
    cross = pt0 + (x[:, [0, 1, 0, 1]] - x[:, [2, 2, 3, 3]]) / np.where(moving, pmu, 1.0)
    breaks[:, 1:5] = np.where(moving, np.sort(np.clip(cross, pt0, pt1), axis=1), pt0)
    panel = np.diff(breaks, axis=1)[:, :, None]
    tq = (breaks[:, :-1, None] + panel * GL3.nodes).reshape(n, -1)
    wq = (panel * GL3.weights).reshape(n, -1)
    drift = pmu * (tq - pt0)
    L = np.minimum(x[:, [1]], x[:, [3]] + drift) - np.maximum(x[:, [0]], x[:, [2]] + drift)
    lam = temporal_basis_values(q, pt0, pt1, tq)
    W = np.einsum("pt,pti,ptj->pij", wq * np.maximum(L, 0.0), lam, lam)
    end = np.cumsum(np.bincount(ps, minlength=len(geoms)))
    return [
        (idx[i:j], g[i:j], W[i:j]) if j > i else None
        for i, j in zip(np.concatenate(([0], end[:-1])).tolist(), end.tolist())
    ]


@dataclass(frozen=True)
class SlabSpace:
    """The record of one slab: its DOF map and the quadrature data shared by
    the slab form and the energy norm.

    Background DOFs sit on interior background nodes whose support meets the
    uncovered region at some slab time or touches a slab-cut cell; every
    overlap-mesh node carries a DOF.  Ordering: background nodes ascending,
    then overlap nodes ascending, temporal mode fastest.

    Nodes carry one global numbering: background nodes ``0..nb-1``, then
    overlap nodes ``nb..nb+n_ov-1``.  ``node_dof`` maps it to the spatial
    DOFs and ``dof_node`` back.  ``times``/``weights`` are the composite
    three-point Gauss rule on the panels between interface-node crossings.
    """

    geom: SlabGeometry
    q: int
    active_bg: np.ndarray  # background node indices with DOFs
    node_dof: np.ndarray  # global node index -> spatial DOF index, -1 if none
    times: np.ndarray
    weights: np.ndarray
    lam: np.ndarray  # temporal mode values at the times, (times, q+1)
    stencil: InterfaceStencil  # at the times
    stab: tuple | None  # stabilization_weights

    @property
    def dof_node(self) -> np.ndarray:
        """Spatial DOF index -> global node index."""
        nb = len(self.geom.bg_nodes)
        return np.concatenate([self.active_bg, nb + np.arange(self.n_ov)])

    @property
    def n_active_bg(self) -> int:
        return len(self.active_bg)

    @property
    def n_ov(self) -> int:
        return len(self.geom.ov_offsets)

    @property
    def n_spatial(self) -> int:
        return self.n_active_bg + self.n_ov

    @property
    def n_cols(self) -> int:
        return self.n_spatial * (self.q + 1)


class SlabSpaces(tuple):
    """The records of consecutive slabs, in order; ``n_cols`` counts the
    columns of all of them."""

    @property
    def n_cols(self) -> int:
        return sum(sp.n_cols for sp in self)


def build_slab_space(
    geom: SlabGeometry | SlabGeometries, disc: Discretization
) -> SlabSpace | SlabSpaces:
    """The record of slab ``geom`` under the discretization ``disc``.

    For the ``SlabGeometries`` of consecutive slabs, the records of all of
    them come back as one ``SlabSpaces``, built at once.
    """
    geoms = SlabGeometries((geom,) if isinstance(geom, SlabGeometry) else geom)
    S = len(geoms)
    nb, n_ov = len(geoms[0].bg_nodes), len(geoms[0].ov_offsets)
    dead = np.zeros((S, nb - 1), dtype=bool)
    dead[geoms.slab_index("covered_cells"), geoms.covered_cells] = True
    # a node is dropped only when both support cells are covered for the whole slab
    active = ~(dead[:, :-1] & dead[:, 1:])  # interior nodes 1..nb-2
    n_active = active.sum(axis=1)
    node_dof = np.full((S, nb + n_ov), -1, dtype=np.intc)
    node_dof[:, 1 : nb - 1] = np.where(active, np.cumsum(active, axis=1) - 1, -1)
    node_dof[:, nb:] = n_active[:, None] + np.arange(n_ov)
    active_bg = np.split(active.nonzero()[1] + 1, np.cumsum(n_active)[:-1])

    t0, t1 = np.array([(g.t_start, g.t_end) for g in geoms]).T
    times, weights = composite_time_rule(t0, t1, [g.events for g in geoms], GL3)
    nt = len(GL3.nodes) * (np.array([len(g.events) for g in geoms]) + 1)
    slab = np.repeat(np.arange(S), nt)
    lam = temporal_basis_values(disc.q, t0[slab], t1[slab], times)
    stencil = interface_stencil(geoms, slab, times, disc.omega1)
    stab = stabilization_weights(geoms, disc.q)
    end = np.cumsum(nt).tolist()
    spaces = SlabSpaces(
        SlabSpace(
            geom=g,
            q=disc.q,
            active_bg=active_bg[s],
            node_dof=node_dof[s],
            times=times[i:j],
            weights=weights[i:j],
            lam=lam[i:j],
            stencil=InterfaceStencil(*(f[2 * i : 2 * j] for f in stencil)),
            stab=stab[s],
        )
        for s, (g, i, j) in enumerate(zip(geoms, [0] + end[:-1], end))
    )
    return spaces[0] if isinstance(geom, SlabGeometry) else spaces


def _hat_eval(nodes: np.ndarray, x: np.ndarray):
    """Cell index and the two nodal P1 basis values/slopes at each x."""
    x = np.asarray(x, dtype=float)
    c = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    h = nodes[c + 1] - nodes[c]
    v1 = (x - nodes[c]) / h
    return c, 1.0 - v1, v1, -1.0 / h, 1.0 / h


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
        vals = np.zeros((len(self.space.node_dof), self.space.q + 1))
        vals[self.space.dof_node] = self.by_mode
        return vals

    def eval(self, x, t: float, side="auto", deriv="value"):
        """Side-wise evaluation at time t in the slab.

        side "auto" picks the covering representation; forcing side 1 evaluates
        the background polynomial (its natural extension inside the moving
        interval), forcing side 2 the overlap representation, which must be
        evaluated within the closure of the moving interval.
        """
        geom, space = self.geom, self.space
        if not geom.contains_time(t):
            raise ValueError(f"t={t} outside slab {geom.n}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lam = temporal_basis_values(space.q, geom.t_start, geom.t_end, t)
        dlam = temporal_basis_derivs(space.q, geom.t_start, geom.t_end)
        a = float(geom.left(t))
        b = a + geom.overlap_length
        if side == "auto":
            on2 = (x > a) & (x < b)
        elif side == 1:
            on2 = np.zeros_like(x, dtype=bool)
        elif side == 2:
            tol = DEGENERATE_FRACTION * (geom.bg_nodes[-1] - geom.bg_nodes[0])
            if np.any((x < a - tol) | (x > b + tol)):
                raise ValueError("side-2 evaluation outside the moving interval")
            on2 = np.ones_like(x, dtype=bool)
        else:
            raise ValueError(f"side must be 'auto', 1, or 2, got {side!r}")

        out = np.empty_like(x)
        nodal = self.nodal()
        nb = len(geom.bg_nodes)
        if np.any(~on2):
            out[~on2] = _eval_rep(geom.bg_nodes, nodal[:nb], lam, dlam, x[~on2], deriv, mu=0.0)
        if np.any(on2):
            pos = geom.ov_positions(t)
            out[on2] = _eval_rep(pos, nodal[nb:], lam, dlam, x[on2], deriv, mu=geom.mu)
        return out


def _eval_rep(nodes, nodal, lam, dlam, x, deriv, mu):
    c, w0, w1, s0, s1 = _hat_eval(nodes, x)
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


@dataclass(frozen=True)
class SpaceTimeSolution:
    """Per-slab coefficient vectors plus the geometry needed to evaluate them."""

    setup: Setup
    slabs: tuple

    def slab_index(self, t: float) -> int:
        """Slab n with t in (t_{n-1}, t_n]; t=0 maps to slab 1."""
        bp = self.setup.partition.breakpoints
        if t <= bp[0]:
            return 1
        n = int(np.searchsorted(bp, t, side="left"))
        return min(n, len(self.slabs))

    def eval(self, x, t: float, side="auto", deriv="value"):
        return self.slabs[self.slab_index(t) - 1].eval(x, t, side=side, deriv=deriv)
