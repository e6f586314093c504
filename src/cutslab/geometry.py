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
    a: np.ndarray  # left interface position at each segment's time

    @property
    def lengths(self) -> np.ndarray:
        return self.xb - self.xa

    def __len__(self) -> int:
        return len(self.xa)


def ragged_arange(counts) -> np.ndarray:
    """The concatenation of ``arange(c)`` for every c in ``counts``."""
    counts = np.asarray(counts)
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _by_slab(values: np.ndarray, slab: np.ndarray, gap: np.ndarray) -> list[np.ndarray]:
    """``values`` grouped by their ``slab`` into one sorted array per entry of
    ``gap``, dropping each value within ``gap[slab]`` of the one before it."""
    order = np.lexsort((values, slab))
    values, slab = values[order], slab[order]
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = (slab[1:] != slab[:-1]) | (np.diff(values) > gap[slab[1:]])
    return np.split(values[keep], np.cumsum(np.bincount(slab[keep], minlength=len(gap)))[:-1])


def left_at(geoms, slab: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Left interface position at each time ``t`` in the slab ``geoms[slab]``."""
    a0, mu, t0 = np.array([(g.a_start, g.mu, g.t_start) for g in geoms]).T
    return a0[slab] + mu[slab] * (t - t0[slab])


class SlabGeometries(tuple):
    """The geometries of consecutive slabs, in order.  ``events``,
    ``cut_cells`` and ``covered_cells`` join those of every slab, slab after
    slab, and ``slab_index`` gives the position of each entry's slab."""

    @property
    def events(self) -> np.ndarray:
        return np.concatenate([g.events for g in self])

    @property
    def cut_cells(self) -> np.ndarray:
        return np.concatenate([g.cut_cells for g in self])

    @property
    def covered_cells(self) -> np.ndarray:
        return np.concatenate([g.covered_cells for g in self])

    def slab_index(self, field: str) -> np.ndarray:
        """The position of the slab of each entry of the joined ``field``."""
        return np.repeat(np.arange(len(self)), [len(getattr(g, field)) for g in self])


def build_slab_geometry(setup: Setup, n: int | range) -> SlabGeometry | SlabGeometries:
    """Cut geometry of slab n (1-based).

    For a range of consecutive slab numbers, the geometries of all of them
    come back as one ``SlabGeometries``, built at once.
    """
    slabs = n if isinstance(n, range) else range(n, n + 1)
    n_slabs = setup.partition.n_slabs
    if not (len(slabs) and slabs.step == 1 and 1 <= slabs[0] and slabs[-1] <= n_slabs):
        raise ValueError(f"slab index {n} out of range")
    num = np.arange(slabs.start, slabs.stop)
    t0 = setup.partition.breakpoints[num - 1]
    t1 = setup.partition.breakpoints[num]
    k = t1 - t0
    mu = setup.partition.velocities[num - 1]
    a0, a1 = setup.a_breaks[num - 1], setup.a_breaks[num]
    length = float(setup.overlap.length)
    nodes = setup.bg_nodes
    lo, hi = float(nodes[0]), float(nodes[-1])
    bad = (np.minimum(a0, a1) <= lo) | (np.maximum(a0, a1) + length >= hi)
    if bad.any():
        raise GeometryViolation(f"interface touches the domain boundary in slab {num[bad][0]}")
    tol = DEGENERATE_FRACTION * (hi - lo)
    n_cells = len(nodes) - 1
    S = len(num)
    s2 = np.tile(np.arange(S), 2)  # rows 0..S-1: left interface, S..2S-1: right

    # events: the times in the open slab at which an interface hits a node
    p0 = np.concatenate([a0, a0 + length])
    p1 = p0 + mu[s2] * k[s2]
    i0 = np.searchsorted(nodes, np.minimum(p0, p1), side="right")
    i1 = np.searchsorted(nodes, np.maximum(p0, p1), side="left")
    count = np.where(mu[s2] == 0.0, 0, np.maximum(i1 - i0, 0))
    row = np.repeat(np.arange(2 * S), count)
    s = s2[row]
    t = t0[s] + (nodes[i0[row] + ragged_arange(count)] - p0[row]) / mu[s]
    eps = EVENT_DEDUP_FRACTION * k
    keep = (t > t0[s] + eps[s]) & (t < t1[s] - eps[s])
    events = _by_slab(t[keep], s[keep], eps)

    # cut cells: the cells whose interior an interface visits, a range of
    # cells [lo_cell, hi_cell) per interface
    p1 = np.concatenate([a1, a1 + length])
    lo_cell = np.maximum(np.searchsorted(nodes, np.minimum(p0, p1) + tol, side="right") - 1, 0)
    hi_cell = np.minimum(np.searchsorted(nodes, np.maximum(p0, p1) - tol, side="left"), n_cells)
    count = np.maximum(hi_cell - lo_cell, 0)
    cell = np.repeat(lo_cell, count) + ragged_arange(count)
    cut = _by_slab(cell, np.repeat(s2, count), np.zeros(S))

    # covered cells: inside the moving interval for the whole slab, not cut
    c_lo = np.searchsorted(nodes, np.maximum(a0, a1) - tol, side="left")
    c_hi = np.searchsorted(nodes, np.minimum(a0, a1) + length + tol, side="right") - 1
    c_hi = np.minimum(c_hi, n_cells)
    count = np.maximum(c_hi - c_lo, 0)
    s = np.repeat(np.arange(S), count)
    cell = np.repeat(c_lo, count) + ragged_arange(count)
    in_cut = np.zeros(len(cell), dtype=bool)
    for side in (s, s + S):
        in_cut |= (cell >= lo_cell[side]) & (cell < hi_cell[side])
    covered = _by_slab(cell[~in_cut], s[~in_cut], np.zeros(S))

    geoms = SlabGeometries(
        SlabGeometry(
            n=int(n_), t_start=t0_, t_end=t1_, mu=mu_, a_start=a_, overlap_length=length,
            bg_nodes=nodes, ov_offsets=setup.ov_offsets, events=ev, cut_cells=c, covered_cells=cv,
        )
        for n_, t0_, t1_, mu_, a_, ev, c, cv in zip(
            num.tolist(), t0.tolist(), t1.tolist(), mu.tolist(), a0.tolist(), events, cut, covered
        )
    )
    return geoms if isinstance(n, range) else geoms[0]


def spatial_partition(geom: SlabGeometry, t) -> SpatialPartition:
    """Merged partition of the domain at time t in [t_start, t_end].

    For a 1-D array of times the partitions at all of them come back as one,
    in the order of the times; ``t`` holds the time of each segment and
    ``time_index`` the index of that time.
    """
    times = np.array(t, dtype=float, ndmin=1)
    if not (times.min() >= geom.t_start and times.max() <= geom.t_end):
        raise ValueError(f"t={t} outside slab {geom.n}")
    return partition_at(geom, times, geom.left(times), None if np.ndim(t) else t)


def partition_at(geom: SlabGeometry, times: np.ndarray, a: np.ndarray, t=None) -> SpatialPartition:
    """Merged partitions of the domain with the left interface at each
    position in ``a``, at the matching ``times``, as one partition in the
    order of the rows.  ``geom`` gives the meshes and the overlap length, so
    the rows may belong to different slabs of one setup.  A scalar ``t``, if
    given, is stored as the partition's time instead of one per segment."""
    nodes, offsets = geom.bg_nodes, geom.ov_offsets
    nb = len(nodes)
    pts = np.empty((len(a), nb + len(offsets)))
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
        t=times[row] if t is None else t,
        time_index=row,
        xa=xa,
        xb=xb,
        side=side,
        bg_cell=bg_cell,
        ov_cell=ov_cell,
        a=a,
    )


def segment_cells(geom: SlabGeometry, part: SpatialPartition):
    """Each segment's own cell on its side: the global index of the cell's
    left node (background nodes first, then overlap nodes) and the cell's end
    positions at the segment's time."""
    nb = len(geom.bg_nodes)
    on2 = part.side == 2
    # ov_cell is -1 on side 1: the overlap lookups there are in range and unused
    off_lo = part.a + geom.ov_offsets[part.ov_cell]
    off_hi = part.a + geom.ov_offsets[part.ov_cell + 1]
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


def sigma_side(interface: str, mu):
    """Upwind side index and signed temporal weight of the moving-interface
    jump term, for a velocity or an array of them.

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
    w = n1 * np.asarray(mu, dtype=float)
    return np.where(w >= 0, 1, 2), w
