"""Slab-by-slab time marching and the banded linear solve behind it.

``march`` takes the slabs in chunks of consecutive slabs.  For a chunk it
builds the geometry (``build_slab_geometry`` on a range of slabs), the slab
records (``build_slab_space``) and the matrix triplets, source loads and
time-jump maps (``assemble_slab``) of all its slabs at once, as columns,
since none of them reads the previous slab.  The loop over the chunk's
slabs keeps only what does: one jump product on the previous coefficients
(``SlabSystems.system``), then ``solve_slab``: ``dgbtrf`` with the pivot
floor unless the factor is reused and ``dgbtrs``, into the march's one
coefficient column, of which each ``SlabSolution`` is a view.

The other checks run once per group of slabs (``_chunk_bands``), after the
group's solves (``_check``): the finiteness of the loads and of the
coefficients, and the residual bound, with one ``bincount`` over the
group's triplets.  A failure names the first slab in slab order that trips
and the quantity that tripped, also when a later slab of the group failed
its pivot floor first, and no later slab is solved.  A slab whose source
load is not finite is not solved either.

Every term of the slab form is local in x, so with its DOFs numbered by
position (``spaces.build_slab_space``) a slab matrix is banded, and
``solve_slab`` factors it by LAPACK's banded LU with partial pivoting in
O(n b^2) for n unknowns and bandwidth b.  The bandwidth grows with (q+1)
times the interface-node crossings per slab, since the interface stencil
couples the overlap's end nodes to every background node the interface
passes, and with the ratio of the mesh sizes, since a stabilized pair
couples a cut background cell to all overlap cells that meet it.  On the
benchmark workloads b is 3-4 (``long_march``), 7 (``stationary``) and 15-17
(``wide_slab``).

The four LAPACK routines (``dgbtrf``, ``dgbtrs``, ``dlangb``, ``dgbcon``) are
scipy's f2py wrappers, taken from the extension ``scipy.linalg._flapack``
that ``banded_lapack`` loads on its own, so ``import cutslab`` loads neither
the ``scipy.linalg`` nor the ``scipy.sparse`` package.

The bands come straight from the chunk's triplets: kl and ku follow from
them, and one ``bincount`` sums each entry's duplicates into its band slot.
The band layout is known to this module alone.  A group holds as many consecutive slabs as keep their band
storage within 8 ``CHUNK_ENTRIES`` entries, and at least one; it is built
once the slabs before it are solved, and ``dgbtrf`` writes each factor over
its band, so a chunk of wide bands holds one band at a time.

A march factors a slab matrix only when it differs from the previous slab's,
which the time partition tells before anything is assembled: slab n repeats
slab n-1 when both are stationary, of one length and at one position
(``Setup.repeats``).  Such a slab gets no triplets of its own, no band and
no factor: it reuses slab n-1's factor from the march's one-entry
``FactorMemo``, whose pivot floor was checked when it was made, and it is a
group of its own.  When the first slab of a chunk repeats the previous
chunk's last, that chunk hands on copies of its last slab's triplets
(``SlabSystems.handoff``), so the first slab is not assembled either.  Every
slab still gets its own solve and the checks of its coefficients; the
residual reads the shared triplets.  The coefficients are those of a fresh
factor, bit for bit.

``CHUNK_ENTRIES`` caps a chunk: it holds as many slabs as keep 4 (q+1)^2
entries per mesh cell within the cap, and at least one.  The chunk's
temporaries grow about in proportion, so the cap bounds the memory that
batching adds.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from typing import NamedTuple

import numpy as np

from .assembly import SlabSystem, assemble_slab
from .core import Discretization, NumericalFailure, OverlapSpec, ProblemSpec, Setup
from .geometry import build_slab_geometry, join
from .spaces import SlabSolution, SlabSolutions, SpaceTimeSolution, build_slab_space


def banded_lapack(scipy_dir: str | None = None) -> tuple:
    """LAPACK's ``dgbcon``, ``dgbtrf``, ``dgbtrs`` and ``dlangb``, as scipy's
    f2py routines.

    They live in the extension ``scipy.linalg._flapack``, which is loaded
    from the ``linalg`` directory of ``scipy_dir`` (scipy's own, found
    without importing it, by default) on its own: importing the
    ``scipy.linalg`` package would take most of ``import cutslab``.  The
    extension is registered under its qualified name, so a later ``import
    scipy.linalg`` reuses it.  When the directory, the extension or a
    routine is missing, or the extension does not load alone, the routines
    come from ``scipy.linalg.lapack``."""
    names = ("dgbcon", "dgbtrf", "dgbtrs", "dlangb")
    qualified = "scipy.linalg._flapack"
    module = sys.modules.get(qualified)
    if module is None:
        if scipy_dir is None:
            spec = find_spec("scipy")
            if spec is not None and spec.submodule_search_locations:
                scipy_dir = spec.submodule_search_locations[0]
        if scipy_dir is not None:
            spec = PathFinder.find_spec(qualified, [os.path.join(scipy_dir, "linalg")])
            if spec is not None:
                try:
                    module = module_from_spec(spec)
                    spec.loader.exec_module(module)
                except ImportError:
                    module = None
    if module is not None and all(hasattr(module, name) for name in names):
        sys.modules.setdefault(qualified, module)
    else:
        from scipy.linalg import lapack as module
    return tuple(getattr(module, name) for name in names)


dgbcon, dgbtrf, dgbtrs, dlangb = banded_lapack()

PIVOT_FRACTION = 1e-14
RESIDUAL_TOL = 1e-10
# A chunk holds as many slabs as keep 4 (q+1)^2 entries per mesh cell (the
# temporal blocks of a P1 cell matrix), summed over the slabs, within this
# many, and at least one slab.  At this value slabs of 512 + 128 cells with
# q = 1 go two to a chunk, enough to spread the batched code's fixed cost per
# chunk, and a chunk's temporaries stay within about 2 MB; so do its bands,
# built in groups of at most 8 times as many entries.
CHUNK_ENTRIES = 20480


class Band(NamedTuple):
    """A slab matrix A in LAPACK band storage: A[i, j] sits at
    ``ab[kl + ku + i - j, j]``.  The first ``kl`` rows of ``ab`` are zero,
    room for the fill of the LU factor, which ``dgbtrf`` writes over A."""

    ab: np.ndarray  # (2 kl + ku + 1, n), Fortran order
    kl: int
    ku: int


def _half_bandwidths(rows, cols, at) -> tuple[np.ndarray, np.ndarray]:
    """kl and ku of each of consecutive slabs from their triplets, slab i's
    from entry ``at[i]`` to ``at[i + 1]``."""
    if not len(rows):
        return np.zeros((2, len(at) - 1), dtype=np.intp)
    kl = np.maximum.reduceat(rows - cols, at[:-1])
    ku = np.maximum.reduceat(cols - rows, at[:-1])
    return np.maximum(kl, 0).astype(np.intp), np.maximum(ku, 0).astype(np.intp)


def _groups(kl, ku, n):
    """Runs (lo, hi) of consecutive slabs whose band storage, (2 kl + ku + 1)
    n entries each, stays within 8 CHUNK_ENTRIES (1.3 MB), and at least one
    slab each."""
    size = np.cumsum((2 * kl + ku + 1) * n)
    lo = 0
    while lo < len(n):
        limit = (size[lo - 1] if lo else 0) + 8 * CHUNK_ENTRIES
        hi = max(lo + 1, int(np.searchsorted(size, limit, "right")))
        yield lo, hi
        lo = hi


def _bands(rows, cols, vals, at, kl, ku, n) -> list:
    """The ``Band`` of each of consecutive slabs from their triplets, slab
    i's from entry ``at[i]`` to ``at[i + 1]`` in its own rows, duplicates
    summed in their order: one ``bincount`` into the storage of all of
    them."""
    ld = 2 * kl + ku + 1
    size = ld * n
    start = np.cumsum(size) - size  # of each band in the storage
    # entry (r, c) of slab i sits at start[i] + kl + ku + r - c + c ld[i]
    count = np.diff(at)
    slot = np.repeat(start + kl + ku, count) + rows + cols * np.repeat(ld - 1, count)
    flat = np.bincount(slot, vals, minlength=int(size.sum()))
    fields = (v.tolist() for v in (start, size, ld, n, kl, ku))
    return [
        Band(flat[f : f + z].reshape((w, k), order="F"), lo, up)
        for f, z, w, k, lo, up in zip(*fields)
    ]


def _band(triplets, n: int) -> Band:
    """The ``Band`` of one n x n slab matrix from its triplets."""
    at = [0, len(triplets[2])]
    return _bands(*triplets, at, *_half_bandwidths(*triplets[:2], at), np.array([n]))[0]


@dataclass
class FactorMemo:
    """The band LU factor (``lu``, ``ipiv``, the band's kl, ku and
    ||A||_inf) of the last slab matrix one march factored.  ``march`` makes
    one and hands it to every slab system."""

    factor: tuple | None = None

    def clear(self) -> None:
        self.factor = None


def _norm(norm: str, band: Band) -> float:
    """LAPACK's ``norm`` ("I" or "1") of the matrix of ``band``, whose kl
    zero rows widen its upper band."""
    return dlangb(norm, band.kl, band.kl + band.ku, band.ab)


def _singular(
    system: SlabSystem, band: Band, triplets=None, factor=None, pivot_ratio: float | None = None
) -> NumericalFailure:
    """The failure of a singular slab system.  The condition estimate is
    LAPACK's 1-norm estimate from the band ``factor`` (lu, ipiv) of the
    matrix ``triplets``, or inf when there is none (a zero matrix or an
    exactly zero pivot)."""
    cond = np.inf
    if factor is not None:
        A = _band(triplets, band.ab.shape[1])  # the factor overwrote the band
        rcond, _ = dgbcon(band.kl, band.ku, *factor, _norm("1", A))
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


def _factor(system: SlabSystem, triplets, band: Band) -> tuple:
    """The banded LU factor (lu, ipiv, kl, ku, ||A||_inf) of the slab matrix
    ``triplets``, written over ``band.ab``; it must pass the pivot floor
    min|U_jj| > PIVOT_FRACTION ||A||_inf."""
    scale = _norm("I", band)
    if scale == 0.0:
        raise _singular(system, band)
    lu, ipiv, info = dgbtrf(band.ab, band.kl, band.ku, overwrite_ab=1)
    if info > 0:  # U_jj exactly zero
        raise _singular(system, band)
    pivot = np.abs(lu[band.kl + band.ku]).min()  # the diagonal of U
    if not pivot > PIVOT_FRACTION * scale:
        raise _singular(system, band, triplets, (lu, ipiv), pivot / scale)
    return lu, ipiv, band.kl, band.ku, scale


def _chunk_bands(systems, memo: FactorMemo):
    """Yields (lo, bands) for each group of slabs of the chunk ``systems``:
    the band of each slab of the group, the first being slab lo.

    A slab that repeats the slab before it (``SlabSystems.new`` false) will
    reuse that slab's factor: it is a group alone, of band None.  The bands
    of each run of assembled slabs are built a group at a time (``_groups``),
    each group once the slabs before it are solved; the memo lets go of its
    factor first, since no slab of the group reuses it."""
    rows, cols, vals, at, new = systems.rows, systems.cols, systems.vals, systems.at, systems.new
    n = np.diff(systems.first)
    S = len(n)
    kl, ku = _half_bandwidths(rows, cols, at)  # of the assembled slabs
    i = s = 0  # s: the assembled slabs before slab i
    while i < S:
        j = i + 1
        if not new[i]:
            yield i, [None]
        else:
            while j < S and new[j]:
                j += 1
            for lo, hi in _groups(kl[s : s + j - i], ku[s : s + j - i], n[i:j]):
                memo.clear()
                a, b = at[s + lo], at[s + hi]
                where = [f - a for f in at[s + lo : s + hi + 1]]
                group = (rows[a:b], cols[a:b], vals[a:b], where)
                bands = _bands(*group, kl[s + lo : s + hi], ku[s + lo : s + hi], n[i + lo : i + hi])
                yield i + lo, bands
                del bands  # not to be held while the next group's are built
            s += j - i
        i = j


def _check(slabs, first, b: np.ndarray, y: np.ndarray, triplets, scale: list) -> None:
    """Raise ``NumericalFailure`` for the first of consecutive slabs, in slab
    order, whose load is not finite or, among the first ``len(scale)`` (the
    solved ones), whose coefficients are not finite or leave ||A y - b||_inf
    above RESIDUAL_TOL (||A||_inf ||y||_inf + ||b||_inf).  Slab i, numbered
    ``slabs[i]``, owns rows ``first[i]`` to ``first[i + 1]`` of the loads
    ``b`` and coefficients ``y``; its matrix is in ``triplets``, in these
    rows, and ||A||_inf in ``scale``."""
    at, n = np.asarray(first[:-1]), len(scale)
    bad, rel = np.zeros((3, len(at)), dtype=bool), np.zeros(len(at))  # load, coefficients, residual
    with np.errstate(all="ignore"):  # inf and NaN are what is looked for
        b_inf = np.maximum.reduceat(np.abs(b), at)
        bad[0] = ~np.isfinite(b_inf)
        if n:
            rows, cols, vals = triplets
            r = np.bincount(rows, vals * y[cols], minlength=len(y)) - b[: len(y)]
            y_inf = np.maximum.reduceat(np.abs(y), at[:n])
            denom = np.asarray(scale) * y_inf + b_inf[:n]
            rel[:n] = np.maximum.reduceat(np.abs(r), at[:n]) / np.where(denom > 0, denom, 1.0)
            bad[1, :n] = ~np.isfinite(y_inf)
            bad[2, :n] = (denom > 0) & ~(rel[:n] <= RESIDUAL_TOL)
    if bad.any():
        i = int(np.flatnonzero(bad.any(axis=0))[0])
        raise NumericalFailure((
            f"non-finite load in slab {slabs[i]}",
            f"slab {slabs[i]} solve gave non-finite coefficients",
            f"slab {slabs[i]} solve left relative residual {rel[i]:.3e}, "
            f"above RESIDUAL_TOL {RESIDUAL_TOL:.0e}",
        )[int(np.argmax(bad[:, i]))])


def solve_slab(system: SlabSystem) -> np.ndarray:
    """Solve one slab system by banded LU with partial pivoting.

    The solve reads the system's triplets, load and band, and builds the
    band from the triplets when there is none.  The band is factored, over
    its storage, unless the slab repeats the previous one
    (``system.repeats``) and ``system.memo`` holds that slab's factor, which
    passed the pivot floor when it was made; then that factor is reused.  A
    new factor replaces the memo's.  The finiteness of the load and of the
    coefficients and the residual bound are left to the caller (``_check``):
    the march checks a group of slabs at once, after their solves.
    """
    triplets, band, b = system.triplets, system.band, system.rhs
    memo = system.memo if system.memo is not None else FactorMemo()
    if not (system.repeats and memo.factor is not None):
        memo.clear()  # never hold two factors at once
        if band is None:
            band = _band(triplets, len(b))
        memo.factor = _factor(system, triplets, band)
    lu, ipiv, kl, ku, _ = memo.factor
    x, _ = dgbtrs(lu, kl, ku, b, ipiv)
    return x


def _solve_group(systems, lo: int, bands: list, memo: FactorMemo, x, coeffs, loads, stop: int):
    """Solve the slabs of the chunk ``systems`` from slab lo on, one per band
    of ``bands``, given ``x``, the coefficients of the slab before; write
    their coefficients into ``coeffs`` and loads into ``loads``, then check
    them at once.  Slab ``stop``, whose source
    load is not finite, is not solved.  Returns the last coefficients."""
    first, scale = systems.first, []
    loaded = solved = lo
    try:
        with np.errstate(all="ignore"):  # a slab after a non-finite one reads it
            for i, band in enumerate(bands, lo):
                system = systems.system(i, x, memo, band)
                loads[first[i] : first[i + 1]] = system.rhs
                loaded += 1
                if i == stop:
                    break
                x = coeffs[first[i] : first[i + 1]] = solve_slab(system)
                scale.append(memo.factor[4])
                solved += 1
    finally:  # also after a pivot floor trips: an earlier slab's failure comes first
        a = first[lo]
        triplets = systems.group_triplets(lo, solved) if solved > lo else None
        slabs, rows = systems.spaces.geoms.n[lo:loaded], np.subtract(first[lo : loaded + 1], a)
        _check(slabs, rows, loads[a : first[loaded]], coeffs[a : first[solved]], triplets, scale)
    return x


def chunk_length(setup: Setup) -> int:
    """Slabs per chunk of the march under ``CHUNK_ENTRIES``."""
    cells = len(setup.bg_nodes) + len(setup.ov_offsets) - 2
    return max(1, CHUNK_ENTRIES // (4 * cells * (setup.disc.q + 1) ** 2))


def march(
    problem: ProblemSpec, overlap: OverlapSpec, disc: Discretization
) -> SpaceTimeSolution:
    """March the discrete system through all slabs and collect the solution."""
    setup = Setup.build(problem, overlap, disc)
    step = chunk_length(setup)
    spaces = prev = held = None
    memo = FactorMemo()
    chunks, used = [], 0
    # one coefficient column, sized for every interior background node and
    # overlap node of every slab; the pages no slab writes are never touched
    nodes = len(setup.bg_nodes) - 2 + len(setup.ov_offsets)
    column = np.empty(disc.n_slabs * nodes * (disc.q + 1))
    for first in range(1, disc.n_slabs + 1, step):
        slabs = range(first, min(first + step, disc.n_slabs + 1))
        geoms = build_slab_geometry(setup, slabs, None if spaces is None else spaces.geoms)
        spaces = build_slab_space(geoms, disc, spaces)
        systems = assemble_slab(spaces, setup, prev, held)
        held = systems.handoff
        coeffs, loads = column[used : used + systems.first[-1]], np.empty(systems.first[-1])
        # the first slab whose source load is not finite, if any, is not solved
        ok = np.logical_and.reduceat(np.isfinite(systems.loads), systems.first[:-1])
        stop, x = int(np.argmin(ok)) if not ok.all() else len(ok), None
        for group in _chunk_bands(systems, memo):
            x = _solve_group(systems, *group, memo, x, coeffs, loads, stop)
            del group  # not to be held while the next group's bands are built
        prev = SlabSolution(spaces[-1], coeffs[systems.first[-2] :])
        chunks.append(spaces)
        used += len(coeffs)
        del systems  # nor this chunk's triplets while the next chunk's are
    slabs = SlabSolutions(join([(c, None) for c in chunks]), column[:used])
    return SpaceTimeSolution(setup=setup, slabs=slabs)
