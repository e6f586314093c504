"""Per-slab cut geometry: interface trajectories, node-crossing events, spatial
partitions with their per-segment cells and Gauss points, and the upwind side
of the moving-interface jump.  ``snap`` alone decides which points lie on a
background node, for every cell lookup that classifies a point.

The fields of a chunk of slabs are kept as columns (``Columns``): one entry
per slab, or the entries of every slab joined slab after slab, with each
slab's count (``counts``) and first entry (``offsets``).  ``join`` takes and
joins slabs of columns, and a ``Slab`` such as ``SlabGeometry`` views one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .core import GeometryViolation, Setup
from .quadrature import GL3

# A point within this fraction of the domain length of a background node is on
# it (``snap``): a cell cut by less is uncut, and a sliver that thin is no segment.
DEGENERATE_FRACTION = 1e-12
EVENT_DEDUP_FRACTION = 1e-14


class Slab:
    """Slab ``i`` of the columns ``columns`` (``Columns``): a per-slab field
    reads as the slab's entry, a ragged one as the slab's part of it, and any
    other field as the columns'."""

    def __init__(self, columns, i: int):
        self.columns, self.i = columns, i

    def __getattr__(self, name):
        if name.startswith("__"):
            raise AttributeError(name)
        c = self.columns
        value, j = getattr(c, name), c.RAGGED.get(name)
        if j is not None:
            s = slice(*c.offsets[self.i : self.i + 2, j])
            return type(value)(*(v[s] for v in value)) if isinstance(value, tuple) else value[s]
        if name in c.PER_SLAB:
            return value[self.i].item() if value.ndim == 1 else value[self.i]
        return value


class SlabGeometry(Slab):
    """Cut topology of one space-time slab, a view of its ``SlabGeometries``.

    ``events`` are the times in the open slab interval at which an interface
    coincides with a background node, i.e. where the cut configuration changes.
    ``cut_cells`` are the background cells crossed by an interface at some time
    in the slab; ``covered_cells`` are the background cells inside the moving
    interval for the whole slab (cut cells excluded).
    """

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


def _by_slab(values: np.ndarray, slab: np.ndarray, gap: np.ndarray):
    """``values`` sorted within their ``slab``, slab after slab, dropping each
    value within ``gap[slab]`` of the one before it; and how many each of the
    ``len(gap)`` slabs keeps."""
    order = np.lexsort((values, slab))
    values, slab = values[order], slab[order]
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = (slab[1:] != slab[:-1]) | (np.diff(values) > gap[slab[1:]])
    return values[keep], np.bincount(slab[keep], minlength=len(gap))


def snap(nodes: np.ndarray, x) -> np.ndarray:
    """``x`` with each point within ``DEGENERATE_FRACTION`` of the domain
    length of its nearest node in ``nodes`` moved onto that node."""
    tol = DEGENERATE_FRACTION * (nodes[-1] - nodes[0])
    # the first node not below x - tol is the only one that can lie within tol
    near = nodes[np.minimum(np.searchsorted(nodes, x - tol), len(nodes) - 1)]
    return np.where(np.abs(near - x) <= tol, near, x)


class Columns:
    """The fields of consecutive slabs, as a dataclass of columns.  A field
    named in ``PER_SLAB`` holds one entry per slab along its first axis; one
    named in ``RAGGED`` (an array or a tuple of arrays) joins the entries of
    every slab, slab after slab, ``counts[i, RAGGED[name]]`` of them for slab
    i; any other field is shared by all slabs.  ``columns[i]`` is slab i's
    view (``VIEW``), and ``columns[lo:hi]`` the columns of those slabs."""

    PER_SLAB: tuple = ("counts",)
    RAGGED: dict = {}
    VIEW = Slab

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        return self.VIEW(self, range(len(self))[i])

    @cached_property
    def offsets(self) -> np.ndarray:
        """The first entry of each slab in each ragged field, and the total."""
        return np.concatenate([np.zeros((1, self.counts.shape[1]), int), np.cumsum(self.counts, 0)])

    def slab_index(self, field: str) -> np.ndarray:
        """The position of the slab of each entry of the ragged ``field``."""
        return np.repeat(np.arange(len(self)), self.counts[:, self.RAGGED[field]])

    def take(self, idx):
        """The columns of the slabs at the positions ``idx``, in that order."""
        return self if np.array_equal(idx, np.arange(len(self))) else join([(self, idx)])


def join(parts, **given):
    """One columns object of the slabs at the positions ``idx`` (None: all of
    them) of each ``(columns, idx)`` of ``parts``, in turn, with the fields
    ``given`` instead of joined ones."""
    entries = {}  # (part, count column) -> the entries of its slabs

    def pick(v, p, j):
        c, idx = parts[p]
        if idx is None or j is None:
            return v if idx is None else v[idx]
        if (p, j) not in entries:
            count = c.counts[idx, j]
            entries[p, j] = np.repeat(c.offsets[idx, j], count) + ragged_arange(count)
        return v[entries[p, j]]

    def column(values, j):  # one array of every part, joined
        picked = [pick(v, p, j) for p, v in enumerate(values)]
        return picked[0] if len(picked) == 1 else np.concatenate(picked)

    head, out = parts[0][0], dict(given)
    for f in fields(head):
        if f.name in given:
            continue
        got, j = [getattr(c, f.name) for c, _ in parts], head.RAGGED.get(f.name)
        if isinstance(got[0], Columns):  # nested columns
            out[f.name] = join([(g, idx) for g, (_, idx) in zip(got, parts)])
        elif f.name not in head.PER_SLAB and j is None:
            out[f.name] = got[0]
        elif isinstance(got[0], tuple):
            out[f.name] = type(got[0])(*(column(c, j) for c in zip(*got)))
        else:
            out[f.name] = column(got, j)
    return type(head)(**out)


def share(built, held, repeats: np.ndarray, /, **given):
    """The columns of consecutive slabs from ``built``, those of the slabs
    whose ``repeats`` is false (None if there is none), with the fields
    ``given``: any other slab takes those of the slab before it, the first
    ones those of ``held``'s last."""
    if not repeats.any():
        return replace(built, **given)
    source = np.cumsum(~repeats) - 1  # in ``built``; -1: held's last
    parts = [(held, np.full(np.count_nonzero(source < 0), len(held) - 1))] if repeats[0] else []
    return join(parts + ([(built, source[source >= 0])] if built is not None else []), **given)


@dataclass(frozen=True)
class SlabGeometries(Columns):
    """The cut geometries of consecutive slabs, as columns (``Columns``).

    Per slab: its number ``n``, ``t_start``, ``t_end``, its length ``k``
    (in ``TimePartition.lengths``: the temporal modes and rules scale by
    it), velocity ``mu``, left interface position ``a_start`` at t_start,
    and whether it ``repeats`` the slab before it (``Setup.repeats``).  The
    ``events``, ``cut_cells`` and ``covered_cells`` (see ``SlabGeometry``)
    of every slab, slab after slab, with ``counts`` (slabs, 3) of them."""

    n: np.ndarray
    t_start: np.ndarray
    t_end: np.ndarray
    k: np.ndarray
    mu: np.ndarray
    a_start: np.ndarray
    repeats: np.ndarray
    overlap_length: float
    bg_nodes: np.ndarray
    ov_offsets: np.ndarray
    events: np.ndarray
    cut_cells: np.ndarray
    covered_cells: np.ndarray
    counts: np.ndarray

    PER_SLAB = ("n", "t_start", "t_end", "k", "mu", "a_start", "repeats", "counts")
    RAGGED = {"events": 0, "cut_cells": 1, "covered_cells": 2}
    VIEW = SlabGeometry

    def left(self, slab: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Left interface position at each time ``t`` in the slab ``slab``."""
        return self.a_start[slab] + self.mu[slab] * (t - self.t_start[slab])


def build_slab_geometry(setup: Setup, slabs: range, held: SlabGeometries | None = None):
    """The cut geometries (``SlabGeometries``) of the consecutive slabs
    ``slabs`` (a range of 1-based slab numbers), built at once.  A slab that
    repeats the slab before it (``Setup.repeats``) shares that slab's events
    and cells, which are not built again; the first slab shares those of
    ``held``'s last slab (the slab before ``slabs``) when ``held`` is given."""
    if not (len(slabs) and slabs.step == 1 and 1 <= slabs[0] <= slabs[-1] <= len(setup.repeats)):
        raise ValueError(f"slab {slabs} out of range")
    num = np.arange(slabs.start, slabs.stop)
    t, a, nodes = setup.partition.breakpoints, setup.a_breaks, setup.bg_nodes
    length = float(setup.overlap.length)
    lo, hi = np.minimum(a[num - 1], a[num]), np.maximum(a[num - 1], a[num]) + length
    bad = (lo <= nodes[0]) | (hi >= nodes[-1])
    if bad.any():
        raise GeometryViolation(f"interface touches the domain boundary in slab {num[bad][0]}")
    repeats = setup.repeats[num - 1]
    repeats[0] &= held is not None
    built = None
    if not repeats.all():
        made = num[~repeats]  # the slabs built here
        t0, t1, a0, a1 = t[made - 1], t[made], a[made - 1], a[made]
        mu = setup.partition.velocities[made - 1]
        S = len(made)
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
        ts = t0[s] + (nodes[i0[row] + ragged_arange(count)] - p0[row]) / mu[s]
        events, n_events = _by_slab(ts, s, EVENT_DEDUP_FRACTION * (t1 - t0))

        # cut cells: the cells whose interior an interface visits, [i0 - 1, i1)
        count = i1 - i0 + 1
        cell = np.repeat(i0 - 1, count) + ragged_arange(count)
        cut, n_cut = _by_slab(cell, np.repeat(s2, count), np.zeros(S))

        # covered cells: right of the left sweep and left of the right one, so
        # disjoint from the cut cells
        n_covered = np.maximum(i0[S:] - 1 - i1[:S], 0)
        covered = np.repeat(i1[:S], n_covered) + ragged_arange(n_covered)
        counts = np.stack([n_events, n_cut, n_covered], 1)
        built = SlabGeometries(
            made, t0, t1, setup.partition.lengths[made - 1], mu, a0, np.zeros(S, bool), length,
            nodes, setup.ov_offsets, events, cut, covered, counts,
        )
    return share(built, held, repeats, n=num, t_start=t[num - 1], t_end=t[num], repeats=repeats)


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
    node = np.where(on2, nb + part.ov_cell, part.bg_cell)
    lo = np.where(on2, part.a + geom.ov_offsets[part.ov_cell], geom.bg_nodes[part.bg_cell])
    hi = np.where(on2, part.a + geom.ov_offsets[part.ov_cell + 1], geom.bg_nodes[part.bg_cell + 1])
    return node, lo, hi


def segment_points(part: SpatialPartition):
    """Three-point Gauss points and weights on every segment of a partition,
    shaped (3, segments): a row per point, so per-segment values broadcast
    along the rows."""
    length = part.lengths
    return part.xa + GL3.nodes[:, None] * length, GL3.weights[:, None] * length


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
