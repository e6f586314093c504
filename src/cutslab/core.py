"""Problem data, discretization parameters, and the manufactured test problem.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

INTERIOR_MARGIN = 1e-12


class GeometryViolation(Exception):
    """The moving subdomain left the interior of the background domain."""


class NumericalFailure(Exception):
    """Assembly or linear solve failed (singular system, bad residual)."""


def _require_real(obj, *names) -> None:
    """Raise ValueError naming the first field of ``obj`` among ``names`` that
    is not a real number; a bool is an int, but not a number here."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def pointwise(func, x, *args) -> np.ndarray:
    """``func(x, *args)`` of a data callable, as a float array shaped like the
    points ``x``.

    The callables are evaluated elementwise on arrays, so a constant one may
    return a scalar, which is broadcast to the points; a result of any other
    shape raises.
    """
    v = np.asarray(func(x, *args), dtype=float)
    if v.shape == np.shape(x):
        return v
    if v.ndim == 0:
        return np.full(np.shape(x), v)
    raise ValueError(f"a data callable returned shape {v.shape} for points shaped {np.shape(x)}")


@dataclass(frozen=True)
class ExactSolution:
    """A known solution and its two first derivatives, for error measurement.

    ``u(x, t)``, ``u_x(x, t)`` and ``u_t(x, t)`` are evaluated elementwise on
    arrays: ``t`` is a scalar or an array shaped like ``x``.  The error norm
    passes arrays of times, one per point, so a callable that assumes a scalar
    ``t`` is not enough.  A constant may be returned as a scalar.
    """

    u: Callable[[float, float], float]
    u_x: Callable[[float, float], float]
    u_t: Callable[[float, float], float]


@dataclass(frozen=True)
class ProblemSpec:
    """Heat equation data on a fixed interval with homogeneous Dirichlet BCs.

    ``source(x, t)`` and ``initial(x)`` are evaluated elementwise on arrays;
    ``t`` is a scalar or an array shaped like ``x``.  A constant may be
    returned as a scalar.
    """

    x_lo: float
    x_hi: float
    final_time: float
    source: Callable[[float, float], float]
    initial: Callable[[float], float]
    exact: Optional[ExactSolution] = None

    def __post_init__(self):
        _require_real(self, "x_lo", "x_hi", "final_time")
        for name in ("x_lo", "x_hi", "final_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.x_lo < self.x_hi:
            raise ValueError(f"need x_lo < x_hi, got [{self.x_lo}, {self.x_hi}]")
        if not self.final_time > 0:
            raise ValueError(f"final time must be positive, got {self.final_time}")

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo


@dataclass(frozen=True)
class OverlapSpec:
    """Moving subdomain: a rigid interval of fixed length translating inside the domain.

    ``velocity`` is either a constant or a callable of time.  For a callable, the
    slabwise-constant discrete velocity is taken per ``velocity_mode``: the endpoint
    sample at the slab's right endpoint, or the slab average.
    """

    length: float
    initial_left: float
    velocity: Union[float, Callable[[float], float]]
    velocity_mode: str = "sample"  # "sample" | "average"

    def __post_init__(self):
        _require_real(self, "length", "initial_left")
        if not callable(self.velocity):
            _require_real(self, "velocity")
        if not (math.isfinite(self.length) and self.length > 0):
            raise ValueError(f"overlap length must be positive and finite, got {self.length}")
        if not math.isfinite(self.initial_left):
            raise ValueError(f"initial_left must be finite, got {self.initial_left}")
        if not callable(self.velocity) and not math.isfinite(self.velocity):
            raise ValueError(f"constant velocity must be finite, got {self.velocity}")
        if self.velocity_mode not in ("sample", "average"):
            raise ValueError(f"unknown velocity mode {self.velocity_mode!r}")


@dataclass(frozen=True)
class Discretization:
    """Mesh/time-step counts and the stabilization/averaging parameters."""

    n_background: int
    n_overlap: int
    n_slabs: int
    q: int = 0
    gamma: float = 10.0
    omega1: float = 0.5

    def __post_init__(self):
        for name in ("n_background", "n_overlap", "n_slabs", "q"):
            value = getattr(self, name)
            # bool is an int; a float, string or bool count would be truncated or fail later
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_background < 1 or self.n_overlap < 1 or self.n_slabs < 1:
            raise ValueError("cell and slab counts must be at least 1")
        if self.q not in (0, 1):
            raise ValueError(f"temporal degree must be 0 or 1, got {self.q}")
        _require_real(self, "gamma", "omega1")
        # gamma = 0 drops the Nitsche penalty and the form is not coercive
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.0 <= self.omega1 <= 1.0:
            raise ValueError("omega1 must lie in [0, 1]")


@dataclass(frozen=True)
class TimePartition:
    """Slab breakpoints t_0 < ... < t_N and the constant velocity of each slab."""

    breakpoints: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.breakpoints, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("need at least two time breakpoints")
        for name, v in (("breakpoints", t), ("velocities", self.velocities)):
            if not np.isfinite(np.asarray(v, dtype=float)).all():
                raise ValueError(f"time partition {name} must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("time breakpoints must be strictly increasing")
        if len(self.velocities) != len(t) - 1:
            raise ValueError("need one velocity per slab")

    @property
    def n_slabs(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def lengths(self) -> np.ndarray:
        """The length of each slab, which its temporal modes and time rules
        scale by.  A uniform partition (the breakpoints of ``np.linspace``,
        bit for bit) gives every slab the one length (t_N - t_0) / N, where
        the breakpoint differences vary in the last bits, so that slabs alike
        but for their start get bit-identical matrices."""
        t, n = self.breakpoints, self.n_slabs
        if np.array_equal(t, np.linspace(t[0], t[-1], n + 1)):
            return np.full(n, (t[-1] - t[0]) / n)
        return np.diff(t)

    def slab_interval(self, n: int) -> tuple[float, float]:
        """Interval (t_{n-1}, t_n] of slab n (1-based)."""
        return float(self.breakpoints[n - 1]), float(self.breakpoints[n])


def make_uniform_mesh(interval: tuple[float, float], n_cells: int) -> np.ndarray:
    """Sorted node positions of a uniform mesh with ``n_cells`` cells."""
    lo, hi = interval
    if n_cells < 1:
        raise ValueError(f"n_cells must be at least 1, got {n_cells}")
    if not lo < hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return np.linspace(lo, hi, n_cells + 1)


def p1_triplets(nodes: np.ndarray):
    """COO triplets of the full-mesh P1 matrices of a mesh: rows, cols, and
    values shaped (entries, 3) holding the mass, the stiffness and the drift
    (integral of phi_trial' phi_test) entries."""
    i = np.arange(len(nodes) - 1)
    h = np.diff(nodes)
    half = np.full_like(h, 0.5)
    rows = np.concatenate([i, i, i + 1, i + 1])
    cols = np.concatenate([i, i + 1, i, i + 1])
    vals = np.empty((len(rows), 3))
    vals[:, 0] = np.concatenate([h / 3, h / 6, h / 6, h / 3])
    vals[:, 1] = np.concatenate([1 / h, -1 / h, -1 / h, 1 / h])
    vals[:, 2] = np.concatenate([-half, half, -half, half])
    return rows, cols, vals


def manufactured_problem(final_time: float = 1.0) -> ProblemSpec:
    """sin^2(pi x) e^(-t/2) on the unit interval, with the matching source term."""

    def u(x, t):
        return np.sin(np.pi * x) ** 2 * np.exp(-t / 2)

    def u_x(x, t):
        return np.pi * np.sin(2 * np.pi * x) * np.exp(-t / 2)

    def u_t(x, t):
        return -0.5 * u(x, t)

    def source(x, t):
        # u_t - u_xx in closed form
        return np.exp(-t / 2) * (
            -0.5 * np.sin(np.pi * x) ** 2 - 2 * np.pi**2 * np.cos(2 * np.pi * x)
        )

    return ProblemSpec(
        x_lo=0.0,
        x_hi=1.0,
        final_time=final_time,
        source=source,
        initial=lambda x: np.sin(np.pi * x) ** 2,
        exact=ExactSolution(u=u, u_x=u_x, u_t=u_t),
    )


def zero_problem(final_time: float = 1.0) -> ProblemSpec:
    """Zero source and zero initial data; the solution is identically zero."""
    zero2 = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    return ProblemSpec(
        x_lo=0.0,
        x_hi=1.0,
        final_time=final_time,
        source=zero2,
        initial=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        exact=ExactSolution(u=zero2, u_x=zero2, u_t=zero2),
    )


# 5-point Gauss-Legendre on [0,1] in closed form, for slab averages of a smooth velocity
_GL5_R = np.sqrt(5.0 + np.array([2.0, -2.0]) * np.sqrt(10.0 / 7.0)) / 6.0  # outer, inner nodes
_GL5_X = np.concatenate([0.5 - _GL5_R, [0.5], 0.5 + _GL5_R[::-1]])
_GL5_W = np.array([322 - 13 * np.sqrt(70), 322 + 13 * np.sqrt(70), 512.0])[[0, 1, 2, 1, 0]] / 1800


def slab_velocity(spec: OverlapSpec, t_start: float, t_end: float) -> float:
    """Constant discrete velocity for the slab (t_start, t_end]."""
    if not callable(spec.velocity):
        return float(spec.velocity)
    if spec.velocity_mode == "sample":
        return float(spec.velocity(t_end))
    k = t_end - t_start
    ts = t_start + k * _GL5_X
    return float(np.sum(_GL5_W * np.asarray([spec.velocity(t) for t in ts])))


def build_time_partition(spec: OverlapSpec, final_time: float, n_slabs: int) -> TimePartition:
    """Uniform partition of (0, T] with the slabwise discrete velocities."""
    t = np.linspace(0.0, final_time, n_slabs + 1)
    mu = np.array([slab_velocity(spec, t[n], t[n + 1]) for n in range(n_slabs)])
    return TimePartition(breakpoints=t, velocities=mu)


def interface_path(spec: OverlapSpec, partition: TimePartition) -> np.ndarray:
    """Left interface position at every slab breakpoint (continuous, piecewise linear)."""
    k = np.diff(partition.breakpoints)
    a = np.empty(len(partition.breakpoints))
    a[0] = spec.initial_left
    a[1:] = spec.initial_left + np.cumsum(partition.velocities * k)
    return a


def check_interior(problem: ProblemSpec, spec: OverlapSpec, partition: TimePartition) -> None:
    """Abort if the moving subdomain ever touches the outer boundary.

    The interface path is piecewise linear, so its extremes over [0, T] are
    attained at slab breakpoints.
    """
    a = interface_path(spec, partition)
    left = a <= problem.x_lo + INTERIOR_MARGIN
    right = a + spec.length >= problem.x_hi - INTERIOR_MARGIN
    bad = np.flatnonzero(left | right)
    if len(bad):
        # breakpoint i ends slab i (1-based), and breakpoint 0 starts slab 1
        i = int(bad[0])
        if left[i]:
            side, x, edge = "left", a[i], problem.x_lo
        else:
            side, x, edge = "right", a[i] + spec.length, problem.x_hi
        raise GeometryViolation(
            f"{side} interface reaches {x:.6g} in slab {max(i, 1)}, touching the boundary {edge}"
        )


@dataclass(frozen=True)
class Setup:
    """Everything fixed for one solve: problem, overlap motion, meshes, time partition."""

    problem: ProblemSpec
    overlap: OverlapSpec
    disc: Discretization
    partition: TimePartition
    bg_nodes: np.ndarray
    ov_offsets: np.ndarray  # node offsets within the moving interval, 0 .. length
    a_breaks: np.ndarray  # left interface position at slab breakpoints

    @classmethod
    def build(cls, problem: ProblemSpec, overlap: OverlapSpec, disc: Discretization) -> "Setup":
        partition = build_time_partition(overlap, problem.final_time, disc.n_slabs)
        check_interior(problem, overlap, partition)
        bg_nodes = make_uniform_mesh((problem.x_lo, problem.x_hi), disc.n_background)
        ov_offsets = make_uniform_mesh((0.0, overlap.length), disc.n_overlap)
        a_breaks = interface_path(overlap, partition)
        return cls(problem, overlap, disc, partition, bg_nodes, ov_offsets, a_breaks)

    @cached_property
    def repeats(self) -> np.ndarray:
        """Whether each slab's matrix repeats the previous slab's bit for bit
        (entry n - 1 for slab n), known from the time partition alone: slab
        n >= 2 does when both it and slab n - 1 are stationary (velocity
        exactly 0.0), ``TimePartition.lengths`` gives them one length, and
        they start at the same position.  With mu = 0 a slab's geometry,
        record and matrix read nothing else of it: every position in it is
        its start, and its temporal modes and rules are slab-relative."""
        mu, k, a = self.partition.velocities, self.partition.lengths, self.a_breaks[:-1]
        out = np.zeros(len(mu), dtype=bool)
        out[1:] = (mu[1:] == 0.0) & (mu[:-1] == 0.0) & (k[1:] == k[:-1]) & (a[1:] == a[:-1])
        return out

    @cached_property
    def mesh_matrices(self):
        """The full-mesh P1 mass, stiffness and drift matrices of both meshes
        in the global node numbering (background nodes, then overlap nodes):
        rows, cols and values shaped (entries, 3) of the 3n - 2 entries of
        each mesh of n nodes, each cell's share summed, in row order.

        The overlap mesh moves rigidly, so its entries depend only on the node
        offsets.  The background mesh is fixed and gets no drift.  Built on
        first use, once per setup.
        """
        nb = len(self.bg_nodes)
        n = nb + len(self.ov_offsets)
        r1, c1, v1 = p1_triplets(self.bg_nodes)
        v1[:, 2] = 0.0
        r2, c2, v2 = p1_triplets(self.ov_offsets)
        keys = np.concatenate([r1 * n + c1, (r2 + nb) * n + c2 + nb])
        keys, at = np.unique(keys, return_inverse=True)
        vals = np.stack([np.bincount(at, v) for v in np.concatenate([v1, v2]).T], axis=1)
        return keys // n, keys % n, vals
