"""Per-slab cut geometry: interface trajectories, node-crossing events, spatial
partitions with their per-segment cells and Gauss points, and the upwind side
of the moving-interface jump.  ``snap`` alone decides which points lie on a
background node, for every cell lookup that classifies a point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GeometryViolation, Setup
from .quadrature import GL3

# A point within this fraction of the domain length of a background node is on
# it (``snap``): a cell cut by less is uncut, and a sliver that thin is no segment.
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
    k: float  # slab length, in TimePartition.lengths: the temporal modes and rules scale by it
    mu: float
    a_start: float
    overlap_length: float
    bg_nodes: np.ndarray
    ov_offsets: np.ndarray
    events: np.ndarray
    cut_cells: np.ndarray
    covered_cells: np.ndarray

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


def snap(nodes: np.ndarray, x) -> np.ndarray:
    """``x`` with each point within ``DEGENERATE_FRACTION`` of the domain
    length of its nearest node in ``nodes`` moved onto that node."""
    tol = DEGENERATE_FRACTION * (nodes[-1] - nodes[0])
    # the first node not below x - tol is the only one that can lie within tol
    near = nodes[np.minimum(np.searchsorted(nodes, x - tol), len(nodes) - 1)]
    return np.where(np.abs(near - x) <= tol, near, x)


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


def build_slab_geometry(setup: Setup, slabs: range) -> SlabGeometries:
    """The cut geometries of the consecutive slabs ``slabs`` (a range of
    1-based slab numbers), built at once."""
    n_slabs = setup.partition.n_slabs
    if not (len(slabs) and slabs.step == 1 and 1 <= slabs[0] and slabs[-1] <= n_slabs):
        raise ValueError(f"slab {slabs} out of range")
    num = np.arange(slabs.start, slabs.stop)
    t0 = setup.partition.breakpoints[num - 1]
    t1 = setup.partition.breakpoints[num]
    k = t1 - t0
    mu = setup.partition.velocities[num - 1]
    ks = setup.partition.lengths[num - 1]
    a0, a1 = setup.a_breaks[num - 1], setup.a_breaks[num]
    length = float(setup.overlap.length)
    nodes = setup.bg_nodes
    lo, hi = float(nodes[0]), float(nodes[-1])
    bad = (np.minimum(a0, a1) <= lo) | (np.maximum(a0, a1) + length >= hi)
    if bad.any():
        raise GeometryViolation(f"interface touches the domain boundary in slab {num[bad][0]}")
    S = len(num)
    s2 = np.tile(np.arange(S), 2)  # rows 0..S-1: left interface, S..2S-1: right

    # each interface sweeps [p_lo, p_hi] in the slab; i0..i1-1 are the nodes
    # strictly inside it once its ends are snapped onto the nodes they lie on
    p0 = np.concatenate([a0, a0 + length])
    p1 = np.concatenate([a1, a1 + length])
    i0 = np.searchsorted(nodes, snap(nodes, np.minimum(p0, p1)), side="right")
    i1 = np.searchsorted(nodes, snap(nodes, np.maximum(p0, p1)), side="left")
    # events: the times at which an interface passes one of those nodes
    count = np.maximum(i1 - i0, 0)
    row = np.repeat(np.arange(2 * S), count)
    s = s2[row]
    t = t0[s] + (nodes[i0[row] + ragged_arange(count)] - p0[row]) / mu[s]
    events = _by_slab(t, s, EVENT_DEDUP_FRACTION * k)

    # cut cells: the cells whose interior an interface visits, [i0 - 1, i1)
    count = i1 - i0 + 1
    cell = np.repeat(i0 - 1, count) + ragged_arange(count)
    cut = _by_slab(cell, np.repeat(s2, count), np.zeros(S))

    # covered cells: right of the left sweep and left of the right one, so
    # disjoint from the cut cells
    count = np.maximum(i0[S:] - 1 - i1[:S], 0)
    cell = np.repeat(i1[:S], count) + ragged_arange(count)
    covered = np.split(cell, np.cumsum(count)[:-1])

    return SlabGeometries(
        SlabGeometry(
            n=int(n_), t_start=t0_, t_end=t1_, k=k_, mu=mu_, a_start=a_, overlap_length=length,
            bg_nodes=nodes, ov_offsets=setup.ov_offsets, events=ev, cut_cells=c, covered_cells=cv,
        )
        for n_, t0_, t1_, k_, mu_, a_, ev, c, cv in zip(
            num.tolist(), t0.tolist(), t1.tolist(), ks.tolist(), mu.tolist(), a0.tolist(),
            events, cut, covered,
        )
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
    pts[:, nb:] = snap(nodes, a[:, None] + offsets)
    pts.sort(axis=1)
    keep = np.empty(pts.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(pts[:, 1:], pts[:, :-1], out=keep[:, 1:])
    row = keep.nonzero()[0]
    pts = pts[keep]
    # consecutive kept breakpoints of one time bound a segment
    xa, xb = pts[:-1], pts[1:]
    seg = row[1:] == row[:-1]
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
