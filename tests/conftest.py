"""Shared fixtures, the one-slab helpers over the chunk builders, and the
acceptance-criteria reporting hook."""

import numpy as np
import pytest

from cutslab.assembly import assemble_slab
from cutslab.core import (
    Discretization,
    OverlapSpec,
    Setup,
    manufactured_problem,
    zero_problem,
)
from cutslab.geometry import build_slab_geometry, join
from cutslab.spaces import SlabSolution, SlabSolutions, SpaceTimeSolution, build_slab_space

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_RESULTS = []


def record_acceptance(criterion: int, passed: bool, detail: str):
    ACCEPTANCE_RESULTS.append((criterion, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {criterion}: {status} - {detail}")


def make_setup(
    n0=8,
    nG=2,
    N=3,
    q=0,
    mu=0.6,
    a0=0.125,
    length=0.25,
    T=1.0,
    gamma=10.0,
    omega1=0.5,
    zero=False,
):
    problem = zero_problem(final_time=T) if zero else manufactured_problem(final_time=T)
    overlap = OverlapSpec(length=length, initial_left=a0, velocity=mu)
    disc = Discretization(
        n_background=n0, n_overlap=nG, n_slabs=N, q=q, gamma=gamma, omega1=omega1
    )
    return Setup.build(problem, overlap, disc)


def oscillating_setup(q):
    """The overlap translates right, then back: slabs differ in mu, its sign
    and their event count."""
    problem = manufactured_problem(final_time=3.0)
    overlap = OverlapSpec(
        length=6.0 / 21.0,
        initial_left=0.125,
        velocity=lambda t: 0.5 * np.sin(2.0 * np.pi * t / 3.0),
    )
    disc = Discretization(n_background=21, n_overlap=6, n_slabs=10, q=q)
    return Setup.build(problem, overlap, disc)


def slab_geometry(setup, n):
    """Slab n's geometry, from the chunk builder on slab n alone."""
    return build_slab_geometry(setup, range(n, n + 1))[0]


def slab_space(setup, n, disc=None):
    """Slab n's record under ``disc`` (the setup's by default), from the
    chunk builders on slab n alone."""
    return build_slab_space(build_slab_geometry(setup, range(n, n + 1)), disc or setup.disc)[0]


def slab_system(space, setup, prev=None):
    """The system of the slab of the record ``space``, from ``assemble_slab``
    on that slab alone; ``prev`` is the solution on the slab before it (None:
    the initial data enters the load)."""
    return assemble_slab(space.columns[space.i : space.i + 1], setup, prev).system(0, prev)


def discrete_solution(setup, slabs) -> SpaceTimeSolution:
    """The solution of the ``SlabSolution``s ``slabs``, one per slab in
    order, with their records and coefficients joined into the columns that
    ``march`` keeps (``SlabSolutions``)."""
    spaces = join([(s.space.columns, [s.space.i]) for s in slabs])
    coeffs = np.concatenate([s.coeffs for s in slabs])
    return SpaceTimeSolution(setup=setup, slabs=SlabSolutions(spaces, coeffs))


def random_discrete(setup, rng) -> SpaceTimeSolution:
    """Random coefficients on every slab of a setup."""
    geoms = build_slab_geometry(setup, range(1, setup.disc.n_slabs + 1))
    slabs = [
        SlabSolution(space, rng.standard_normal(space.n_cols))
        for space in build_slab_space(geoms, setup.disc)
    ]
    return discrete_solution(setup, slabs)


def scaled(sol, factor) -> SpaceTimeSolution:
    """``sol`` with every coefficient multiplied by ``factor``."""
    slabs = SlabSolutions(sol.slabs.spaces, factor * sol.slabs.coeffs)
    return SpaceTimeSolution(setup=sol.setup, slabs=slabs)


def nodal_interpolant(setup, func) -> SpaceTimeSolution:
    """Interpolate func(x) nodally on both meshes, constant in time."""
    slabs = []
    for n in range(1, setup.disc.n_slabs + 1):
        space = slab_space(setup, n)
        geom = space.geom
        q = setup.disc.q
        nb = len(setup.bg_nodes)
        coeffs = np.zeros((space.n_spatial, q + 1))
        bg_vals = func(setup.bg_nodes[space.active_bg])
        for m in range(q + 1):
            coeffs[space.node_dof[space.active_bg], m] = bg_vals
        # overlap nodes move: for q=1 each temporal mode carries the nodal
        # values at its own endpoint so the interpolant tracks the motion
        for m in range(q + 1):
            t = geom.t_start if (q == 1 and m == 0) else geom.t_end
            if q == 0:
                t = geom.t_start  # constant mode; caller must use mu=0 for exactness
            coeffs[space.node_dof[nb:], m] = func(geom.ov_positions(t))
        slabs.append(SlabSolution(space, coeffs.ravel()))
    return discrete_solution(setup, slabs)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
