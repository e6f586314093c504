"""Slab-by-slab time marching and the sparse linear solve behind it.

``march`` takes the slabs in chunks of consecutive slabs.  For a chunk it
builds the geometry (``build_slab_geometry`` on a range of slabs), the slab
records (``build_slab_space``) and the matrices and source loads
(``assemble_slab``) of all its slabs at once, since none of them reads the
previous slab.  The result is the chunk's block lower-bidiagonal system
(``assembly.SlabSystems``), solved slab after slab: the loop over the
chunk's slabs keeps only what reads the previous slab, the time-jump load of
its end-time trace and the ``SlabSystem`` with its finiteness check
(``SlabSystems.system``), and ``solve_slab`` with its pivot floor and
residual bound.  A failure there names its slab, and no later slab is
solved.

``CHUNK_ENTRIES`` caps a chunk: it holds as many slabs as keep the entries
of their constant mesh blocks within the cap, and at least one.  The
chunk's temporaries grow about in proportion, so the cap bounds the memory
that batching adds; the per-slab records and solutions that the march
returns are the same as when it built one slab at a time.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import SlabSystem, assemble_slab
from .core import Discretization, NumericalFailure, OverlapSpec, ProblemSpec, Setup
from .geometry import build_slab_geometry
from .spaces import SlabSolution, SpaceTimeSolution, build_slab_space

PIVOT_FRACTION = 1e-14
RESIDUAL_TOL = 1e-10
# A chunk holds as many slabs as keep its constant mesh blocks (mesh
# triplets times (q+1)^2 temporal entries, summed over the slabs) within this
# many entries, and at least one slab.  At this value slabs of 512 + 128
# cells with q = 1 go two to a chunk, enough to spread the batched code's
# fixed cost per chunk, and a chunk's temporaries stay within about 2 MB.
CHUNK_ENTRIES = 20480


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


def chunk_length(setup: Setup) -> int:
    """Slabs per chunk of the march under ``CHUNK_ENTRIES``."""
    per_slab = len(setup.mesh_matrices[0]) * (setup.disc.q + 1) ** 2
    return max(1, CHUNK_ENTRIES // per_slab)


def march(
    problem: ProblemSpec, overlap: OverlapSpec, disc: Discretization
) -> SpaceTimeSolution:
    """March the discrete system through all slabs and collect the solution."""
    setup = Setup.build(problem, overlap, disc)
    step = chunk_length(setup)
    prev = None
    slabs = []
    for first in range(1, disc.n_slabs + 1, step):
        geoms = build_slab_geometry(setup, range(first, min(first + step, disc.n_slabs + 1)))
        spaces = build_slab_space(geoms, disc)
        systems = assemble_slab(spaces, setup, prev)
        for i, space in enumerate(spaces):
            coeffs = solve_slab(systems.system(i, prev))
            prev = SlabSolution(space=space, coeffs=coeffs)
            slabs.append(prev)
    return SpaceTimeSolution(setup=setup, slabs=tuple(slabs))
