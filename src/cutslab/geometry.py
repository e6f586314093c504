"""Per-slab cut geometry: interface trajectories, node-crossing events, spatial
partitions with their per-segment cells and Gauss points, and the upwind side
of the moving-interface jump."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GeometryViolation, Setup
from .quadrature import GL3

# Segments shorter than this fraction of the domain are dropped; a cell cut by
# less than this is classified uncut at that instant.
DEGENERATE_FRACTION = 1e-12
EVENT_DEDUP_FRACTION = 1e-14


@dataclass(frozen=True)
class SlabGeometry:
    """Cut topology of one space-time slab.

    ``events`` are the times in the open slab interval at which an interface
    coincides with a background node, i.e. where the cut configuration changes.
    ``cut_cells`` are the background cells crossed by an interface at some time
    in the slab; ``covered_cells`` are the background cells inside the moving
    interval for the whole slab (cut cells excluded).
    """

    n: int
    t_start: float
    t_end: float
    mu: float
    a_start: float
    overlap_length: float
    bg_nodes: np.ndarray
    ov_offsets: np.ndarray
    events: np.ndarray
    cut_cells: np.ndarray
    covered_cells: np.ndarray

    @property
    def k(self) -> float:
        return self.t_end - self.t_start

    def left(self, t):
        """Left interface position."""
        return self.a_start + self.mu * (np.asarray(t) - self.t_start)

    def ov_positions(self, t: float) -> np.ndarray:
        """Overlap-mesh node positions at time t."""
        return self.left(t) + self.ov_offsets

    def contains_time(self, t: float) -> bool:
        return self.t_start <= t <= self.t_end


@dataclass(frozen=True)
class SpatialPartition:
    """Segments tiling the domain at a fixed time (or at each of several times,
    with ``t`` then giving each segment's time and ``time_index`` its position
    in the times asked for), tagged with side and cell indices.

    Breakpoints include every background node, every overlap-mesh node, and the
    two interface points.  ``side`` is 1 outside the moving interval and 2 inside;
    ``ov_cell`` is -1 on side-1 segments.
    """

    t: float | np.ndarray
    time_index: np.ndarray
    xa: np.ndarray
    xb: np.ndarray
    side: np.ndarray
    bg_cell: np.ndarray
    ov_cell: np.ndarray

    @property
    def lengths(self) -> np.ndarray:
        return self.xb - self.xa

    def __len__(self) -> int:
        return len(self.xa)


def _interface_crossings(p0: float, mu: float, nodes: np.ndarray, t0: float, t1: float):
    """Times in the open slab interval where p0 + mu (t - t0) hits a node."""
    if mu == 0.0:
        return np.empty(0)
    p1 = p0 + mu * (t1 - t0)
    lo, hi = min(p0, p1), max(p0, p1)
    i0 = np.searchsorted(nodes, lo, side="right")
    i1 = np.searchsorted(nodes, hi, side="left")
    hit = nodes[i0:i1]
    t = t0 + (hit - p0) / mu
    eps = EVENT_DEDUP_FRACTION * (t1 - t0)
    return t[(t > t0 + eps) & (t < t1 - eps)]


def _swept_cut_cells(p0: float, p1: float, nodes: np.ndarray, tol: float) -> np.ndarray:
    """Cells whose interior is visited by an interface sweeping [p0, p1]."""
    lo, hi = min(p0, p1), max(p0, p1)
    cells = np.arange(len(nodes) - 1)
    return cells[(nodes[:-1] < hi - tol) & (nodes[1:] > lo + tol)]


def build_slab_geometry(setup: Setup, n: int) -> SlabGeometry:
    """Cut geometry of slab n (1-based)."""
    if not 1 <= n <= setup.partition.n_slabs:
        raise ValueError(f"slab index {n} out of range")
    t0, t1 = setup.partition.slab_interval(n)
    mu = float(setup.partition.velocities[n - 1])
    a0 = float(setup.a_breaks[n - 1])
    a1 = float(setup.a_breaks[n])
    length = float(setup.overlap.length)
    nodes = setup.bg_nodes
    lo, hi = float(nodes[0]), float(nodes[-1])
    if min(a0, a1) <= lo or max(a0, a1) + length >= hi:
        raise GeometryViolation(f"interface touches the domain boundary in slab {n}")

    tol = DEGENERATE_FRACTION * (hi - lo)
    events = np.concatenate(
        [
            _interface_crossings(a0, mu, nodes, t0, t1),
            _interface_crossings(a0 + length, mu, nodes, t0, t1),
        ]
    )
    events = np.sort(events)
    if len(events) > 1:
        keep = np.concatenate(([True], np.diff(events) > EVENT_DEDUP_FRACTION * (t1 - t0)))
        events = events[keep]

    cut = np.union1d(
        _swept_cut_cells(a0, a1, nodes, tol),
        _swept_cut_cells(a0 + length, a1 + length, nodes, tol),
    )
    a_max, b_min = max(a0, a1), min(a0, a1) + length
    cells = np.arange(len(nodes) - 1)
    covered = cells[(nodes[:-1] >= a_max - tol) & (nodes[1:] <= b_min + tol)]
    covered = np.setdiff1d(covered, cut)

    return SlabGeometry(
        n=n,
        t_start=t0,
        t_end=t1,
        mu=mu,
        a_start=a0,
        overlap_length=length,
        bg_nodes=nodes,
        ov_offsets=setup.ov_offsets,
        events=events,
        cut_cells=cut,
        covered_cells=covered,
    )


def spatial_partition(geom: SlabGeometry, t) -> SpatialPartition:
    """Merged partition of the domain at time t in [t_start, t_end].

    For a 1-D array of times the partitions at all of them come back as one,
    in the order of the times; ``t`` holds the time of each segment and
    ``time_index`` the index of that time.
    """
    times = np.array(t, dtype=float, ndmin=1)
    if not (times.min() >= geom.t_start and times.max() <= geom.t_end):
        raise ValueError(f"t={t} outside slab {geom.n}")
    nodes, offsets = geom.bg_nodes, geom.ov_offsets
    nb = len(nodes)
    a = geom.left(times)
    pts = np.empty((len(times), nb + len(offsets)))
    pts[:, :nb] = nodes
    pts[:, nb:] = a[:, None] + offsets
    pts.sort(axis=1)
    tol = DEGENERATE_FRACTION * (nodes[-1] - nodes[0])
    keep = np.empty(pts.shape, dtype=bool)
    keep[:, 0] = True
    np.greater(pts[:, 1:] - pts[:, :-1], tol, out=keep[:, 1:])
    row = keep.nonzero()[0]
    pts = pts[keep]
    # consecutive kept breakpoints of one time bound a segment
    xa, xb = pts[:-1], pts[1:]
    seg = (row[1:] == row[:-1]) & ((xb - xa) > tol)
    xa, xb, row = xa[seg], xb[seg], row[1:][seg]
    mid = 0.5 * (xa + xb)
    a = a[row]
    side = np.where((mid > a) & (mid < a + geom.overlap_length), 2, 1)
    # a midpoint lies strictly inside the domain, and on side 2 strictly
    # inside the moving interval, so neither cell index needs clipping
    bg_cell = np.searchsorted(nodes, mid) - 1
    ov_cell = np.where(side == 2, np.searchsorted(offsets, mid - a) - 1, -1)
    return SpatialPartition(
        t=times[row] if np.ndim(t) else t,
        time_index=row,
        xa=xa,
        xb=xb,
        side=side,
        bg_cell=bg_cell,
        ov_cell=ov_cell,
    )


def segment_cells(geom: SlabGeometry, part: SpatialPartition):
    """Each segment's own cell on its side: the global index of the cell's
    left node (background nodes first, then overlap nodes) and the cell's end
    positions at the segment's time."""
    nb = len(geom.bg_nodes)
    on2 = part.side == 2
    # ov_cell is -1 on side 1: the overlap lookups there are in range and unused
    a = geom.left(part.t)
    off_lo = a + geom.ov_offsets[part.ov_cell]
    off_hi = a + geom.ov_offsets[part.ov_cell + 1]
    node = np.where(on2, nb + part.ov_cell, part.bg_cell)
    lo = np.where(on2, off_lo, geom.bg_nodes[part.bg_cell])
    hi = np.where(on2, off_hi, geom.bg_nodes[part.bg_cell + 1])
    return node, lo, hi


def segment_points(part: SpatialPartition):
    """Three-point Gauss points and weights on every segment of a partition,
    shaped (segments, 3)."""
    pts = part.xa[:, None] + part.lengths[:, None] * GL3.nodes
    wts = part.lengths[:, None] * GL3.weights
    return pts, wts


def sigma_side(interface: str, mu: float) -> tuple[int, float]:
    """Upwind side index and signed temporal weight of the moving-interface jump term.

    For an interface point with spatial normal n1 of the uncovered side, the
    space-time jump term reduces per interface point to
    ``integral over the slab of w * [trial] * test_sigma dt`` with w = n1 * mu.
    Sigma is the side occupying the point immediately after time t.
    """
    if interface == "left":
        n1 = 1.0
    elif interface == "right":
        n1 = -1.0
    else:
        raise ValueError(f"interface must be 'left' or 'right', got {interface!r}")
    w = n1 * mu
    sigma = 1 if w >= 0 else 2
    return sigma, float(w)
