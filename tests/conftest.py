"""Shared fixtures and the acceptance-criteria reporting hook."""

import numpy as np
import pytest

from cutslab.core import (
    Discretization,
    OverlapSpec,
    Setup,
    manufactured_problem,
    zero_problem,
)
from cutslab.geometry import build_slab_geometry
from cutslab.spaces import SlabSolution, SpaceTimeSolution, build_slab_space

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


def random_discrete(setup, rng) -> SpaceTimeSolution:
    """Random coefficients on every slab of a setup."""
    geoms = build_slab_geometry(setup, range(1, setup.disc.n_slabs + 1))
    slabs = [
        SlabSolution(space, rng.standard_normal(space.n_cols))
        for space in build_slab_space(geoms, setup.disc)
    ]
    return SpaceTimeSolution(setup=setup, slabs=tuple(slabs))


def scaled(sol, factor) -> SpaceTimeSolution:
    """``sol`` with every coefficient multiplied by ``factor``."""
    slabs = tuple(SlabSolution(s.space, factor * s.coeffs) for s in sol.slabs)
    return SpaceTimeSolution(setup=sol.setup, slabs=slabs)


def nodal_interpolant(setup, func) -> SpaceTimeSolution:
    """Interpolate func(x) nodally on both meshes, constant in time."""
    slabs = []
    for n in range(1, setup.disc.n_slabs + 1):
        geom = build_slab_geometry(setup, n)
        space = build_slab_space(geom, setup.disc)
        q = setup.disc.q
        coeffs = np.zeros((space.n_spatial, q + 1))
        bg_vals = func(setup.bg_nodes[space.active_bg])
        for m in range(q + 1):
            coeffs[: space.n_active_bg, m] = bg_vals
        # overlap nodes move: for q=1 each temporal mode carries the nodal
        # values at its own endpoint so the interpolant tracks the motion
        for m in range(q + 1):
            t = geom.t_start if (q == 1 and m == 0) else geom.t_end
            if q == 0:
                t = geom.t_start  # constant mode; caller must use mu=0 for exactness
            coeffs[space.n_active_bg :, m] = func(geom.ov_positions(t))
        slabs.append(SlabSolution(space, coeffs.ravel()))
    return SpaceTimeSolution(setup=setup, slabs=tuple(slabs))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
