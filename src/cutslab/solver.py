"""Slab-by-slab time marching and the banded linear solve behind it.

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

Every term of the slab form is local in x: P1 cells on both meshes, the
interface stencil and the gradient-jump pairs.  With its DOFs sorted by
position, background nodes at their coordinate and overlap nodes at their
position at the slab midpoint (temporal modes kept together), a slab matrix
is banded, and ``solve_slab`` factors it by LAPACK's banded LU with partial
pivoting (``dgbtrf``/``dgbtrs``) in O(n b^2) for n unknowns and bandwidth b.
The bandwidth grows with (q+1) times the interface-node crossings per slab,
since the interface stencil couples the overlap's end nodes to every
background node the interface passes during the slab, and with the ratio of
the mesh sizes, since a stabilized pair couples a cut background cell to all
overlap cells that meet it.  On the benchmark workloads b is 3-4
(``long_march``), 7 (``stationary``) and 15-17 (``wide_slab``).  The order
changes only the speed of the solve: any symmetric permutation gives the same
solution, up to rounding.  ``_bands`` builds the band storage of all slabs of
a chunk at once from the chunk's block-diagonal CSC matrix; the band layout
is known to this module alone.

A march factors a slab matrix only when it differs from the previous slab's.
When slab n's band repeats slab n-1's bit for bit, as under a stationary
overlap, ``solve_slab`` reuses slab n-1's factor from the march's one-entry
``FactorMemo`` and skips ``dgbtrf`` and the pivot floor: the floor belongs to
the shared factor and was checked when it was made.  Every slab still gets
its own solve, the finiteness check of its coefficients and the residual
bound.  The coefficients are those of a fresh factor, bit for bit: the LU
factors equal bands alike.

``CHUNK_ENTRIES`` caps a chunk: it holds as many slabs as keep the entries
of their constant mesh blocks within the cap, and at least one.  The
chunk's temporaries grow about in proportion, so the cap bounds the memory
that batching adds; the per-slab records and solutions that the march
returns are the same as when it built one slab at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgbmv
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs
from scipy.sparse import csc_array

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


class Band(NamedTuple):
    """A slab matrix A in LAPACK band storage, its rows and columns in
    position order: ``order[i]`` is the slab DOF of band row and column i,
    and A[order[i], order[j]] sits at ``ab[kl + ku + i - j, j]``.  The first
    ``kl`` rows of ``ab`` are zero, room for the fill of the LU factor."""

    ab: np.ndarray  # (2 kl + ku + 1, n), Fortran order
    kl: int
    ku: int
    order: np.ndarray
    scale: float  # ||A||_inf


def _bands(A: csc_array, spaces) -> list:
    """The ``Band`` of every slab of a chunk, from the chunk's block-diagonal
    matrix ``A``, slab after slab as ``spaces`` gives them.  Raises
    ``NumericalFailure`` naming the first slab with a non-finite entry."""
    m = spaces[0].q + 1
    n = np.array([sp.n_cols for sp in spaces])
    first = np.cumsum(n) - n
    # the slab and position of each chunk row (temporal mode fastest)
    geom = spaces[0].geom
    nb = len(geom.bg_nodes)
    mid = [sp.geom.left(0.5 * (sp.geom.t_start + sp.geom.t_end)) for sp in spaces]
    x = np.empty((len(spaces), nb + len(geom.ov_offsets)))
    x[:, :nb] = geom.bg_nodes
    x[:, nb:] = np.add.outer(mid, geom.ov_offsets)
    slab, node = np.nonzero(np.stack([sp.node_dof for sp in spaces]) >= 0)
    pos = np.repeat(x[slab, node], m)
    slab = np.repeat(slab, m)
    count = np.diff(A.indptr)
    col = np.repeat(np.arange(len(count)), count)  # the column of each entry
    finite = np.isfinite(A.data)
    if not finite.all():
        bad = slab[col[np.argmin(finite)]]
        raise NumericalFailure(f"non-finite entries in slab {spaces[bad].geom.n} system")

    # band row and column of each chunk row: its place in (slab, position) order
    order = np.lexsort((pos, slab))
    local = np.empty_like(order)
    local[order] = np.arange(len(order))
    local -= first[slab]
    # each entry's band column, band row minus band column, and slab
    c = local[col]
    d = local[A.indices] - c
    s = slab[col]
    start = A.indptr[first]
    has = A.indptr[first + n] > start
    kl = np.where(has, np.maximum(np.maximum.reduceat(np.append(d, 0), start), 0), 0)
    ku = np.where(has, np.maximum(np.maximum.reduceat(np.append(-d, 0), start), 0), 0)
    ld = 2 * kl + ku + 1
    size = ld * n
    at = np.cumsum(size) - size
    flat = np.bincount(at[s] + (kl + ku)[s] + d + c * ld[s], A.data, minlength=int(size.sum()))
    scale = np.maximum.reduceat(np.bincount(A.indices, np.abs(A.data), minlength=len(count)), first)
    return [
        Band(flat[a : a + z].reshape((r, k), order="F"), lo, up, order[f : f + k] - f, w)
        for a, z, r, k, lo, up, f, w in zip(
            *(v.tolist() for v in (at, size, ld, n, kl, ku, first, scale))
        )
    ]


@dataclass
class FactorMemo:
    """The last band that one march factored and its LU factor (``lu``,
    ``ipiv``).  ``march`` makes one and hands it to every slab system."""

    band: Band | None = None
    lu: np.ndarray | None = None
    ipiv: np.ndarray | None = None

    def holds(self, band: Band) -> bool:
        """Whether ``band`` is the factored band, bit for bit.  The band of a
        moving slab mostly differs in ||A||_inf already, which is compared
        first, without a pass over the band."""
        B = self.band
        return (
            B is not None
            and (B.kl, B.ku, B.scale) == (band.kl, band.ku, band.scale)
            and np.array_equal(B.ab, band.ab)
        )


def _singular(
    system: SlabSystem, band: Band, factor=None, pivot_ratio: float | None = None
) -> NumericalFailure:
    """The failure of a singular slab system.  The condition estimate is
    LAPACK's 1-norm estimate from the band ``factor`` (lu, ipiv), or inf
    when there is none (a zero matrix or an exactly zero pivot)."""
    cond = np.inf
    if factor is not None:
        norm1 = float(np.max(np.abs(band.ab).sum(axis=0)))
        rcond, _ = dgbcon(band.kl, band.ku, *factor, norm1)
        cond = 1.0 / rcond if rcond > 0 else np.inf
    floor = (
        ""
        if pivot_ratio is None
        else f"pivot ratio min|U_jj|/||A||_inf {pivot_ratio:.3e} "
        f"not above PIVOT_FRACTION {PIVOT_FRACTION:.0e}, "
    )
    return NumericalFailure(
        f"singular slab system (slab {system.slab}, {system.space.n_cols} unknowns, "
        f"{system.space.n_active_bg} background DOFs, {floor}condition estimate {cond:.3e})"
    )


def _factor(system: SlabSystem, band: Band) -> tuple[np.ndarray, np.ndarray]:
    """The banded LU factor (lu, ipiv) of the slab matrix, which must pass the
    pivot floor min|U_jj| > PIVOT_FRACTION ||A||_inf."""
    if band.scale == 0.0:
        raise _singular(system, band)
    lu, ipiv, info = dgbtrf(band.ab, band.kl, band.ku)
    if info > 0:  # U_jj exactly zero
        raise _singular(system, band)
    pivot = np.min(np.abs(lu[band.kl + band.ku]))  # the diagonal of U
    if not pivot > PIVOT_FRACTION * band.scale:
        raise _singular(system, band, (lu, ipiv), pivot / band.scale)
    return lu, ipiv


def solve_slab(system: SlabSystem) -> np.ndarray:
    """Solve one slab system by banded LU with partial pivoting, with sanity checks.

    The solve reads ``system.band``, or the band built from
    ``system.matrix`` when it has none.  The band is factored unless
    ``system.memo`` holds it bit for bit; then the memo's factor, which
    passed the pivot floor when it was made, is reused.  A new factor
    replaces the memo's.  Whichever factor is used, the coefficients must be
    finite and meet the residual bound
    ||A x - b||_inf <= RESIDUAL_TOL (||A||_inf ||x||_inf + ||b||_inf).
    """
    band = system.band if system.band is not None else _bands(system.matrix, [system.space])[0]
    memo = system.memo if system.memo is not None else FactorMemo()
    if not memo.holds(band):
        memo.band = memo.lu = memo.ipiv = None  # never hold two factors at once
        memo.lu, memo.ipiv = _factor(system, band)
        # a copy: a view would keep its chunk's whole band storage alive
        memo.band = band._replace(ab=band.ab.copy(order="F"))
    b = system.rhs[band.order]
    y, _ = dgbtrs(memo.lu, band.kl, band.ku, b, memo.ipiv)
    y_inf = np.abs(y).max()  # NaN or inf when any coefficient is
    if not np.isfinite(y_inf):
        raise NumericalFailure(f"slab {system.slab} solve gave non-finite coefficients")
    denom = band.scale * y_inf + np.abs(b).max()
    if denom > 0:
        # A y - b on the unfactored band, whose kl zero rows widen its upper
        # band; scipy's dgbmv asks for at least as many rows as band rows, so
        # a small slab gets zero rows below its last one
        n, rows = len(y), max(len(y), band.ab.shape[0])
        r = np.zeros(rows)
        r[:n] = b
        r = dgbmv(rows, n, band.kl, band.kl + band.ku, 1.0, band.ab, y, beta=-1.0, y=r)
        rel = np.abs(r).max() / denom
        if not rel <= RESIDUAL_TOL:
            raise NumericalFailure(
                f"slab {system.slab} solve left relative residual {rel:.3e}, "
                f"above RESIDUAL_TOL {RESIDUAL_TOL:.0e}"
            )
    x = np.empty_like(y)
    x[band.order] = y
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
    memo = FactorMemo()
    slabs = []
    for first in range(1, disc.n_slabs + 1, step):
        geoms = build_slab_geometry(setup, range(first, min(first + step, disc.n_slabs + 1)))
        spaces = build_slab_space(geoms, disc)
        systems = assemble_slab(spaces, setup, prev)
        bands = _bands(systems.matrix, spaces)
        for i, space in enumerate(spaces):
            coeffs = solve_slab(systems.system(i, prev, memo, bands[i]))
            prev = SlabSolution(space=space, coeffs=coeffs)
            slabs.append(prev)
        # free them before the next chunk builds its own: wide bands take far
        # more room than the chunk's matrix
        del bands
    return SpaceTimeSolution(setup=setup, slabs=tuple(slabs))
