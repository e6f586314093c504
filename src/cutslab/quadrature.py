"""1D quadrature rules on the reference interval [0, 1] and composite rules in time."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rule1D:
    nodes: np.ndarray  # in [0, 1]
    weights: np.ndarray  # sum to 1


def lobatto3() -> Rule1D:
    """Three-point Lobatto rule; exact for polynomials of degree <= 3."""
    return Rule1D(
        nodes=np.array([0.0, 0.5, 1.0]),
        weights=np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0]),
    )


def gauss_legendre3() -> Rule1D:
    """Three-point Gauss-Legendre rule; exact for polynomials of degree <= 5."""
    r = np.sqrt(3.0 / 5.0)
    return Rule1D(
        nodes=np.array([(1.0 - r) / 2.0, 0.5, (1.0 + r) / 2.0]),
        weights=np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0]),
    )


GL3 = gauss_legendre3()


def midpoint() -> Rule1D:
    return Rule1D(nodes=np.array([0.5]), weights=np.array([1.0]))


def composite_time_rule(
    t_start, t_end, events, base: Rule1D, counts
) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``base`` on every panel between consecutive breakpoints of each
    of several slabs.

    ``t_start`` and ``t_end`` hold one entry per slab, and ``events`` the
    sorted times strictly inside (t_start, t_end) of every slab, slab after
    slab, ``counts`` of them for each.  Returns flat arrays of times and
    weights, the slabs' rules one after the other; each slab's weights sum
    to its length.
    """
    count = np.asarray(counts, dtype=int) + 2  # breakpoints per slab
    last = np.cumsum(count) - 1
    breaks = np.empty(last[-1] + 1)
    breaks[last - count + 1] = t_start
    breaks[last] = t_end
    inner = np.ones(len(breaks), dtype=bool)
    inner[last] = inner[last - count + 1] = False
    breaks[inner] = events
    # a panel starts at every breakpoint but the last of each slab
    starts = np.ones(len(breaks) - 1, dtype=bool)
    starts[last[:-1]] = False
    lo = breaks[:-1][starts, None]
    length = np.diff(breaks)[starts, None]
    if np.any(length <= 0):
        raise ValueError("events must be sorted and strictly inside the slab")
    times = (lo + length * base.nodes[None, :]).ravel()
    weights = (length * base.weights[None, :]).ravel()
    return times, weights
