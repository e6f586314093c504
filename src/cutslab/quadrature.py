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
    t_start: float, t_end: float, events: np.ndarray, base: Rule1D
) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``base`` on every panel between consecutive breakpoints of the slab.

    ``events`` must be sorted times strictly inside (t_start, t_end).  Returns
    flat arrays of times and weights; the weights sum to the slab length.
    """
    events = np.asarray(events, dtype=float)
    breaks = np.concatenate(([t_start], events, [t_end]))
    if np.any(np.diff(breaks) <= 0):
        raise ValueError("events must be sorted and strictly inside the slab")
    lo = breaks[:-1, None]
    length = np.diff(breaks)[:, None]
    times = (lo + length * base.nodes[None, :]).ravel()
    weights = (length * base.weights[None, :]).ravel()
    return times, weights
