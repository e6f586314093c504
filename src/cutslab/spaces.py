"""DOF management and basis evaluation for the broken space on one slab, and
the per-slab coefficient storage for a full space-time solution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Setup
from .geometry import SlabGeometry


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


@dataclass(frozen=True)
class SlabSpace:
    """DOF map for one slab.

    Background DOFs sit on interior background nodes whose support meets the
    uncovered region at some slab time or touches a slab-cut cell; every
    overlap-mesh node carries a DOF.  Ordering: background nodes ascending,
    then overlap nodes ascending, temporal mode fastest.

    Nodes carry one global numbering: background nodes ``0..nb-1``, then
    overlap nodes ``nb..nb+n_ov-1``.  ``node_dof`` maps it to the spatial
    DOFs and ``dof_node`` back.
    """

    geom: SlabGeometry
    q: int
    active_bg: np.ndarray  # background node indices with DOFs
    node_dof: np.ndarray  # global node index -> spatial DOF index, -1 if none

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


def build_slab_space(geom: SlabGeometry, q: int) -> SlabSpace:
    n_nodes = len(geom.bg_nodes)
    dead = np.zeros(n_nodes - 1, dtype=bool)
    dead[geom.covered_cells] = True
    interior = np.arange(1, n_nodes - 1)
    # a node is dropped only when both support cells are covered for the whole slab
    active = interior[~(dead[interior - 1] & dead[interior])]
    node_dof = np.full(n_nodes + len(geom.ov_offsets), -1, dtype=int)
    node_dof[active] = np.arange(len(active))
    node_dof[n_nodes:] = np.arange(len(active), len(active) + len(geom.ov_offsets))
    return SlabSpace(geom=geom, q=q, active_bg=active, node_dof=node_dof)


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

    geom: SlabGeometry
    space: SlabSpace
    coeffs: np.ndarray  # flat, length n_cols

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
            tol = 1e-12 * (geom.bg_nodes[-1] - geom.bg_nodes[0])
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

    def trace(self, n: int, sign: str):
        """Callable evaluating the trace at t_n from above ('+') or below ('-')."""
        bp = self.setup.partition.breakpoints
        t = float(bp[n])
        if sign == "+":
            if n >= len(self.slabs):
                raise ValueError(f"no slab above t_{n}")
            slab = self.slabs[n]
        elif sign == "-":
            if n < 1:
                raise ValueError("no slab below t_0")
            slab = self.slabs[n - 1]
        else:
            raise ValueError("sign must be '+' or '-'")
        return lambda x, side="auto", deriv="value": slab.eval(x, t, side=side, deriv=deriv)

    def scaled(self, factor: float) -> "SpaceTimeSolution":
        return SpaceTimeSolution(
            setup=self.setup,
            slabs=tuple(
                SlabSolution(s.geom, s.space, factor * s.coeffs) for s in self.slabs
            ),
        )
