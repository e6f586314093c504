"""The temporal basis, the per-slab record ``SlabSpace``, and the coefficients
and evaluation of a space-time solution.  ``build_slab_space`` builds each
slab's record once: its DOF map, time rule, interface stencil and
stabilization weights.  ``assemble_slab`` and the energy norm in ``norms``
read them there and rebuild none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Discretization, Setup
from .geometry import DEGENERATE_FRACTION, SlabGeometry, sigma_side
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


def temporal_basis_derivs(q: int, t_start: float, t_end: float) -> np.ndarray:
    if q == 0:
        return np.array([0.0])
    k = t_end - t_start
    return np.array([-1.0 / k, 1.0 / k])


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


def interface_stencil(geom: SlabGeometry, times: np.ndarray, omega1: float) -> InterfaceStencil:
    """The interface stencil of a slab at the 1-D array ``times``."""
    nodes, off = geom.bg_nodes, geom.ov_offsets
    nb, n_ov = len(nodes), len(off)
    nt = len(times)
    a = geom.left(times)
    x = np.concatenate([a, a + geom.overlap_length])
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
        sigma, w = sigma_side(label, geom.mu)
        if sigma == 1:
            upwind[rows, :2] = w * jump[rows, :2]
        else:
            upwind[rows, 4] = w
    return InterfaceStencil(
        idx=idx,
        jump=jump,
        grad=grad,
        upwind=upwind,
        x=x,
        n1=np.repeat([1.0, -1.0], nt),
        h_K=h,
    )


def stabilization_weights(geom: SlabGeometry, q: int):
    """The gradient-jump stabilization of a slab, pairwise over (cut background
    cell, overlap cell) pairs that meet at some slab time.

    Returns ``(idx, g, W)``, or None when no such pair exists: ``idx`` (pairs,
    4) holds the pair's global nodes (background cell, then overlap cell),
    ``g`` (pairs, 4) the weights on them of the gradient jump (background
    minus overlap gradient), and ``W`` (pairs, q+1, q+1) the slab integral of
    the pair's covered length times ``lam_i lam_j``.  That length is piecewise
    linear in time with breaks at the pair's endpoint crossings, so three-point
    Gauss per panel makes ``W`` exact.
    """
    nodes = geom.bg_nodes
    t0, t1, mu = geom.t_start, geom.t_end, geom.mu
    y0 = geom.ov_positions(t0)
    K = geom.cut_cells
    # overlap cells meeting each cut cell at some slab time
    shift = mu * geom.k
    g0 = np.maximum(0, np.searchsorted(y0, nodes[K] - max(shift, 0.0), side="right") - 1)
    g1 = np.minimum(len(y0) - 2, np.searchsorted(y0, nodes[K + 1] - min(shift, 0.0)) - 1)
    count = np.maximum(g1 - g0 + 1, 0)
    n = int(count.sum())
    if n == 0:
        return None
    pK = np.repeat(K, count)
    pc = np.repeat(g0 - np.cumsum(count) + count, count) + np.arange(n)
    idx = np.concatenate([pK[:, None] + [0, 1], len(nodes) + pc[:, None] + [0, 1]], axis=1)
    x = np.concatenate([nodes, y0])[idx]  # K_lo, K_hi, c_lo, c_hi at the slab start
    g = np.array([-1.0, 1.0, 1.0, -1.0]) / (x[:, [1, 1, 3, 3]] - x[:, [0, 0, 2, 2]])
    breaks = np.full((n, 6), t0)
    breaks[:, 5] = t1
    if mu != 0.0:
        cross = t0 + (x[:, [0, 1, 0, 1]] - x[:, [2, 2, 3, 3]]) / mu
        breaks[:, 1:5] = np.sort(np.clip(cross, t0, t1), axis=1)
    panel = np.diff(breaks, axis=1)[:, :, None]
    tq = (breaks[:, :-1, None] + panel * GL3.nodes).reshape(n, -1)
    wq = (panel * GL3.weights).reshape(n, -1)
    drift = mu * (tq - t0)
    L = np.minimum(x[:, [1]], x[:, [3]] + drift) - np.maximum(x[:, [0]], x[:, [2]] + drift)
    lam = temporal_basis_values(q, t0, t1, tq)
    W = np.einsum("pt,pti,ptj->pij", wq * np.maximum(L, 0.0), lam, lam)
    return idx, g, W


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


def build_slab_space(geom: SlabGeometry, disc: Discretization) -> SlabSpace:
    """The record of slab ``geom`` under the discretization ``disc``."""
    n_nodes = len(geom.bg_nodes)
    dead = np.zeros(n_nodes - 1, dtype=bool)
    dead[geom.covered_cells] = True
    interior = np.arange(1, n_nodes - 1)
    # a node is dropped only when both support cells are covered for the whole slab
    active = interior[~(dead[interior - 1] & dead[interior])]
    node_dof = np.full(n_nodes + len(geom.ov_offsets), -1, dtype=int)
    node_dof[active] = np.arange(len(active))
    node_dof[n_nodes:] = np.arange(len(active), len(active) + len(geom.ov_offsets))
    times, weights = composite_time_rule(geom.t_start, geom.t_end, geom.events, GL3)
    return SlabSpace(
        geom=geom,
        q=disc.q,
        active_bg=active,
        node_dof=node_dof,
        times=times,
        weights=weights,
        lam=temporal_basis_values(disc.q, geom.t_start, geom.t_end, times),
        stencil=interface_stencil(geom, times, disc.omega1),
        stab=stabilization_weights(geom, disc.q),
    )


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
