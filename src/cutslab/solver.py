"""Slab-by-slab time marching and the sparse linear solve behind it."""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SlabSystem, assemble_slab
from .core import Discretization, NumericalFailure, OverlapSpec, ProblemSpec, Setup
from .geometry import build_slab_geometry
from .spaces import SlabSolution, SpaceTimeSolution, build_slab_space

PIVOT_FRACTION = 1e-14
RESIDUAL_TOL = 1e-10


def _singular(system: SlabSystem) -> NumericalFailure:
    A = system.matrix
    cond = float(np.linalg.cond(A.toarray(), 1)) if A.count_nonzero() else np.inf
    return NumericalFailure(
        f"singular slab system (slab {system.slab}, {system.space.n_cols} unknowns, "
        f"{system.space.n_active_bg} background DOFs, condition estimate {cond:.3e})"
    )


def solve_slab(system: SlabSystem) -> np.ndarray:
    """Solve one slab system by sparse LU with partial pivoting, with sanity checks."""
    A, b = system.matrix, system.rhs
    # ||A||_inf: absolute row sums (CSC indices are row indices)
    scale = float(np.max(np.bincount(A.indices, np.abs(A.data), minlength=A.shape[0])))
    if scale == 0.0:
        raise _singular(system)
    try:
        lu = splu(A)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise _singular(system) from exc
    if np.min(np.abs(lu.U.diagonal())) <= PIVOT_FRACTION * scale:
        raise _singular(system)
    x = lu.solve(b)
    denom = scale * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf)
    if denom > 0:
        rel = np.linalg.norm(A @ x - b, np.inf) / denom
        if rel > RESIDUAL_TOL:
            raise NumericalFailure(
                f"slab {system.slab} solve left relative residual {rel:.3e}"
            )
    return x


def march(
    problem: ProblemSpec, overlap: OverlapSpec, disc: Discretization
) -> SpaceTimeSolution:
    """March the discrete system through all slabs and collect the solution."""
    setup = Setup.build(problem, overlap, disc)
    prev = None
    slabs = []
    for n in range(1, disc.n_slabs + 1):
        geom = build_slab_geometry(setup, n)
        space = build_slab_space(geom, disc)
        coeffs = solve_slab(assemble_slab(space, setup, prev))
        prev = SlabSolution(space=space, coeffs=coeffs)
        slabs.append(prev)
    return SpaceTimeSolution(setup=setup, slabs=tuple(slabs))
