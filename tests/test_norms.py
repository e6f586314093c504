import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutslab.norms
from cutslab.core import Discretization, OverlapSpec, manufactured_problem
from cutslab.norms import lls_slope, xnorm_error
from cutslab.solver import march
from cutslab.spaces import SlabSolution

from conftest import (
    discrete_solution,
    make_setup,
    oscillating_setup,
    random_discrete,
    scaled,
    slab_geometry,
    slab_space,
)
from oracles import (
    _GL10_W,
    _GL10_X,
    _stab_integral,
    _time_panels,
    anorm_sq,
    evaluate,
    oracle_bnorm_sq,
    pointwise_xnorm_error,
)

EXACT = manufactured_problem().exact
# shifts that keep a point within the degeneracy tolerance (1e-12 on the unit
# domain) of a node
NEAR_NODE_SHIFTS = {
    "above": 1e-13,
    "below": -1e-13,
    "0.9 tol above": 9e-13,
    "0.9 tol below": -9e-13,
}
# placements of a point relative to a node; 2e-12 lies just beyond the tolerance
PLACEMENTS = {
    "on": 0.0,
    **NEAR_NODE_SHIFTS,
    "beyond above": 2e-12,
    "beyond below": -2e-12,
    "mid": 1 / 32,
}


def assert_breakdowns_agree(batched, pointwise):
    """All ten components to 1e-12 relative, plus 1e-12 x^2 absolute for the
    components near zero."""
    floor = 1e-12 * pointwise.x_sq
    for f in dataclasses.fields(pointwise):
        got, want = getattr(batched, f.name), getattr(pointwise, f.name)
        assert abs(got - want) <= 1e-12 * abs(want) + floor, (f.name, got, want)


def _zero_solution(setup):
    slabs = []
    for n in range(1, setup.disc.n_slabs + 1):
        space = slab_space(setup, n)
        slabs.append(SlabSolution(space, np.zeros(space.n_cols)))
    return discrete_solution(setup, slabs)


class TestAnorm:
    def test_zero_function(self):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.15)
        geom = slab_geometry(setup, 1)
        fn = lambda x, side, deriv: np.zeros_like(np.asarray(x, dtype=float))
        assert anorm_sq(fn, geom, 0.5) == 0.0

    def test_affine_hand_value(self):
        # globally affine beta*x + alpha: broken gradient beta^2 over |0,1|,
        # average flux beta at both interfaces, no jumps, no stabilization:
        # total = beta^2 * (1 + 2 h)
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.15)
        geom = slab_geometry(setup, 1)
        beta = 1.7

        def fn(x, side, deriv):
            x = np.asarray(x, dtype=float)
            return beta * x + 0.4 if deriv == "value" else np.full_like(x, beta)

        expected = beta**2 * (1.0 + 2.0 * (1.0 / 8))
        assert anorm_sq(fn, geom, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_moving_weight(self):
        # with motion the interface terms scale by sqrt(mu^2 + 1)
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6)
        geom = slab_geometry(setup, 1)
        beta = 1.0

        def fn(x, side, deriv):
            x = np.asarray(x, dtype=float)
            return beta * x if deriv == "value" else np.full_like(x, beta)

        mu_bar = np.hypot(0.6, 1.0)
        expected = beta**2 * (1.0 + 2.0 * mu_bar * (1.0 / 8))
        assert anorm_sq(fn, geom, 0.2) == pytest.approx(expected, rel=1e-12)

    def test_homogeneity(self, rng):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6)
        space = slab_space(setup, 1)
        geom = space.geom
        slab = SlabSolution(space, rng.standard_normal(space.n_cols))
        t = 0.23
        fn = lambda x, side, deriv: evaluate(slab, x, t, side=side, deriv=deriv)
        base = anorm_sq(fn, geom, t)
        scaled = anorm_sq(lambda x, side, deriv: 3.0 * fn(x, side, deriv), geom, t)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)


class TestXnormError:
    def test_zero_solution_zero_data(self):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, zero=True)
        bd = xnorm_error(_zero_solution(setup))
        assert bd.x_sq == 0.0 and bd.b_sq == 0.0

    def test_b_below_x(self, rng):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, q=1, zero=True)
        bd = xnorm_error(random_discrete(setup, rng))
        assert bd.b_sq <= bd.x_sq
        assert bd.x_sq > 0.0

    def test_scaling(self, rng):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, q=1, zero=True)
        sol = random_discrete(setup, rng)
        bd = xnorm_error(sol)
        bd2 = xnorm_error(scaled(sol, 2.0))
        assert bd2.x_sq == pytest.approx(4.0 * bd.x_sq, rel=1e-12)
        assert bd2.moving_jump_sq == pytest.approx(4.0 * bd.moving_jump_sq, rel=1e-12)
        assert bd2.stab_sq == pytest.approx(4.0 * bd.stab_sq, rel=1e-12)

    def test_stationary_has_no_moving_term(self, rng):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.0, a0=0.2, zero=True)
        bd = xnorm_error(random_discrete(setup, rng))
        assert bd.moving_jump_sq == 0.0
        assert bd.stab_sq > 0.0  # interfaces cut cells, so the jump term is live

    @pytest.mark.parametrize("q", [0, 1])
    def test_bnorm_matches_oracle(self, q, rng):
        # the event-panel quadrature must be exact for discrete functions:
        # compare with a from-scratch high-order integrator
        setup = make_setup(n0=6, nG=2, N=2, mu=0.6, a0=0.1, q=q, zero=True)
        sol = random_discrete(setup, rng)
        bd = xnorm_error(sol)
        ref = oracle_bnorm_sq(sol)
        assert bd.b_sq == pytest.approx(ref, rel=1e-11)

    def test_quadrature_refinement_consistency(self):
        # measuring a smooth error: the default quadrature must already be
        # close to a heavily refined one
        setup = make_setup(n0=8, nG=2, N=4, mu=0.6, q=1)
        u_h = march(setup.problem, setup.overlap, setup.disc)
        exact = manufactured_problem().exact
        base = xnorm_error(u_h, exact)
        fine = pointwise_xnorm_error(u_h, exact, time_refine=8, space_refine=8)
        assert base.x == pytest.approx(fine.x, rel=1e-5)

    def test_error_of_discrete_solution_is_moderate(self):
        setup = make_setup(n0=16, nG=4, N=8, mu=0.6, q=1)
        u_h = march(setup.problem, setup.overlap, setup.disc)
        bd = xnorm_error(u_h, manufactured_problem().exact)
        assert 0.0 < bd.x < 1.0


class TestBatchedMatchesPointwise:
    """The batched norm against the per-time-point loop it replaced."""

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu, a0", [(0.6, 0.125), (-0.4, 0.55), (0.0, 0.2)])
    def test_error_of_discrete_solution(self, q, mu, a0):
        setup = make_setup(n0=16, nG=4, N=4, mu=mu, a0=a0, q=q, T=0.5)
        u_h = march(setup.problem, setup.overlap, setup.disc)
        assert_breakdowns_agree(xnorm_error(u_h, EXACT), pointwise_xnorm_error(u_h, EXACT))

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu, a0", [(0.6, 0.125), (-0.4, 0.55), (0.0, 0.2)])
    def test_random_discrete_function(self, q, mu, a0, rng):
        setup = make_setup(n0=16, nG=4, N=3, mu=mu, a0=a0, q=q, T=0.5, zero=True)
        sol = random_discrete(setup, rng)
        assert_breakdowns_agree(xnorm_error(sol), pointwise_xnorm_error(sol))

    @settings(max_examples=30, deadline=None)
    @given(
        node=st.integers(2, 9),
        place=st.sampled_from(list(PLACEMENTS)),
        mu=st.sampled_from([0.6, -0.4, 0.0]),
        q=st.integers(0, 1),
        omega1=st.sampled_from([0.5, 0.2, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_initial_left_near_a_node(self, node, place, mu, q, omega1, seed):
        # n0 = 16: node j sits at j/16, and over T = 0.25 the overlap stays inside
        a0 = node / 16 + PLACEMENTS[place]
        setup = make_setup(n0=16, nG=4, N=2, mu=mu, a0=a0, q=q, T=0.25, omega1=omega1)
        sol = random_discrete(setup, np.random.default_rng(seed))
        assert_breakdowns_agree(xnorm_error(sol, EXACT), pointwise_xnorm_error(sol, EXACT))


class TestStabilizationTerm:
    """``stab_sq`` against the oracle's per-segment gradient jump integrated
    over every node-crossing panel with 10-point Gauss, which shares nothing
    with the assembly's stabilization weights."""

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu, a0", [(0.6, 0.125), (-0.4, 0.55), (0.0, 0.2)])
    def test_matches_oracle_time_integral(self, q, mu, a0, rng):
        setup = make_setup(n0=16, nG=4, N=3, mu=mu, a0=a0, q=q, T=0.5, zero=True)
        sol = random_discrete(setup, rng)
        ref = 0.0
        for slab in sol.slabs:
            panels = _time_panels(slab.geom)
            for lo, hi in zip(panels[:-1], panels[1:]):
                for t, w in zip(lo + (hi - lo) * _GL10_X, (hi - lo) * _GL10_W):
                    ref += w * _stab_integral(slab.geom, t, slab, slab)
        assert ref > 0.0
        assert xnorm_error(sol).stab_sq == pytest.approx(ref, rel=1e-12)


def _near_node_error(initial_left, norm=xnorm_error):
    problem = manufactured_problem()
    overlap = OverlapSpec(0.4, initial_left, 0.0)
    u_h = march(problem, overlap, Discretization(40, 16, 16, q=1))
    return norm(u_h, problem.exact).x


class TestNearNodeInterface:
    def test_batched_norm_reproduces_pointwise_value(self):
        # the defect below is in the solve: both norms measure the same error
        assert _near_node_error(0.3) == pytest.approx(
            _near_node_error(0.3, pointwise_xnorm_error), rel=1e-12
        )

    def test_decimal_position_matches_its_node_value(self):
        # 0.3 lies within 1e-12 of, but not on, the node 12/40 (0.30000000000000004)
        assert _near_node_error(0.3) == pytest.approx(
            _near_node_error(0.30000000000000004), rel=1e-12
        )

    @pytest.mark.parametrize("nG", [1, 4])
    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu", [0.0, 0.6, -0.5])
    def test_interface_within_the_tolerance_is_on_the_node(self, mu, q, nG):
        # n0 = 16 and k = 1/8: at mu = -0.5 the interface moves one cell per
        # slab, so every slab starts and ends near a node
        problem = manufactured_problem(final_time=0.25)
        disc = Discretization(16, nG, 2, q=q)

        def error(a0):
            return xnorm_error(march(problem, OverlapSpec(0.25, a0, mu), disc), problem.exact).x

        on = error(0.25)
        for shift in NEAR_NODE_SHIFTS.values():
            assert error(0.25 + shift) == pytest.approx(on, rel=1e-8), shift


class TestChunkedNorm:
    """The norm takes its rows in chunks under ``norms.CHUNK_ROW_NODES``;
    the chunking must not change the result."""

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize(
        "config",
        [
            dict(mu=0.6),
            dict(mu=-0.5, a0=0.55),  # mu * k = h
            dict(mu=0.0, a0=0.2),
            dict(mu=0.6, nG=1),
            dict(mu=0.6, N=1),
            "oscillating",
        ],
    )
    def test_result_does_not_depend_on_the_cap(self, config, q, monkeypatch):
        if config == "oscillating":
            setup = oscillating_setup(q)
        else:
            setup = make_setup(**{"n0": 16, "nG": 4, "N": 4, "T": 0.5, "q": q, **config})
        sol = march(setup.problem, setup.overlap, setup.disc)
        nodes = len(setup.bg_nodes) + len(setup.ov_offsets)
        # every slab has at least three rule times, so two rows per chunk
        # split the first slab's times across two chunks
        assert min(len(s.space.times) for s in sol.slabs) >= 3
        runs = []
        for cap in (1, 2 * nodes, 10**12):  # one row per chunk, two, unlimited
            monkeypatch.setattr(cutslab.norms, "CHUNK_ROW_NODES", cap)
            runs.append(xnorm_error(sol, setup.problem.exact))
        for bd in runs[:2]:
            for f in dataclasses.fields(bd):
                got, want = getattr(bd, f.name), getattr(runs[2], f.name)
                assert abs(got - want) <= 1e-13 * (abs(want) + runs[2].x_sq), (f.name, got, want)

    def test_one_partition_per_chunk(self, monkeypatch):
        # the norm partitions a chunk of rows at once, not a slab or a
        # breakpoint at a time (which made 2N + 1 partitions)
        import sys

        calls = []

        def counting(fn):
            def wrapped(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapped

        setup = make_setup(n0=64, nG=16, N=64, mu=0.6, q=0)
        sol = march(setup.problem, setup.overlap, setup.disc)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("cutslab"):
                for name in ("partition_at", "spatial_partition"):
                    if hasattr(mod, name):
                        monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
        xnorm_error(sol, setup.problem.exact)
        per_chunk = cutslab.norms.CHUNK_ROW_NODES // (len(setup.bg_nodes) + len(setup.ov_offsets))
        rows = sum(len(s.space.times) for s in sol.slabs)
        chunks = -(-rows // per_chunk) + -(-(setup.disc.n_slabs + 1) // per_chunk)
        assert 0 < len(calls) <= chunks < setup.disc.n_slabs // 4

    @pytest.mark.parametrize(
        "n0,nG,N,q", [(512, 128, 16, 1), (64, 16, 512, 0)], ids=["wide_slab", "long_march"]
    )
    def test_norm_stays_under_the_memory_cap(self, n0, nG, N, q):
        # the benchmark's configs: the cap bounds a chunk's temporaries, so
        # the norm's peak is its per-slab arrays plus one chunk's, 0.8-1.2 MB
        import tracemalloc

        setup = make_setup(n0=n0, nG=nG, N=N, q=q, mu=0.6, T=0.25)
        sol = march(setup.problem, setup.overlap, setup.disc)
        xnorm_error(sol, setup.problem.exact)
        tracemalloc.start()
        try:
            xnorm_error(sol, setup.problem.exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


# Every NormBreakdown component of the march's error on small configs,
# recorded at commit 50a0beb.  A rewrite of the norm kernel must reproduce
# these, not only agree with the pointwise oracle to its own tolerance.
# The stationary configs put both interfaces mid-cell: 0.15625 and 0.40625
# are the midpoints of background cells 2 and 6.
GOLDEN_NORMS = {
    "moving_q1": (
        dict(n0=16, nG=4, N=4, T=0.5, q=1, mu=0.6),
        {
            "material_bg_sq": 0.00010905226409753757,
            "material_ov_sq": 0.0005776310690076772,
            "grad_sq": 0.02647402735654696,
            "flux_sq": 0.003712450051118098,
            "iface_jump_sq": 0.00010320583969333116,
            "stab_sq": 0.0038443000261902133,
            "time_jump_sq": 0.00015615720639367667,
            "final_sq": 6.499159112580612e-05,
            "initial_sq": 3.294983841338031e-05,
            "moving_jump_sq": 3.3186854035970386e-06,
        },
    ),
    "many_slabs_q0": (
        dict(n0=16, nG=4, N=48, q=0, mu=0.6),
        {
            "material_bg_sq": 0.0007354480189149715,
            "material_ov_sq": 0.0063956766190762055,
            "grad_sq": 0.0422872601763357,
            "flux_sq": 0.006210794430707602,
            "iface_jump_sq": 0.0013991166843266688,
            "stab_sq": 0.0025962286333257724,
            "time_jump_sq": 0.0068189436601079085,
            "final_sq": 4.80101504883113e-05,
            "initial_sq": 0.0001514904393993075,
            "moving_jump_sq": 4.49899747146191e-05,
        },
    ),
    "stationary_nG1_q1": (
        dict(n0=16, nG=1, N=4, T=0.5, q=1, mu=0.0, a0=0.15625),
        {
            "material_bg_sq": 8.958976720261898e-06,
            "material_ov_sq": 7.0687955203831755e-06,
            "grad_sq": 0.040883371978552054,
            "flux_sq": 0.01159712326898529,
            "iface_jump_sq": 0.0001231629620616195,
            "stab_sq": 0.004619647446827332,
            "time_jump_sq": 4.57822740433147e-07,
            "final_sq": 0.00010720538191601298,
            "initial_sq": 0.00013024753979807712,
            "moving_jump_sq": 0.0,
        },
    ),
    "stationary_nG4_q0": (
        dict(n0=16, nG=4, N=4, T=0.5, q=0, mu=0.0, a0=0.15625),
        {
            "material_bg_sq": 0.00341426412543434,
            "material_ov_sq": 0.0011967047299243194,
            "grad_sq": 0.02640673143894349,
            "flux_sq": 0.0010889508860739716,
            "iface_jump_sq": 1.2516414323413428e-05,
            "stab_sq": 0.0014264564691961112,
            "time_jump_sq": 0.0028696030462588657,
            "final_sq": 0.0002991329877894179,
            "initial_sq": 0.0006872996143051403,
            "moving_jump_sq": 0.0,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_NORMS))
def test_breakdown_matches_recorded_values(name):
    config, want = GOLDEN_NORMS[name]
    setup = make_setup(**config)
    sol = march(setup.problem, setup.overlap, setup.disc)
    bd = xnorm_error(sol, setup.problem.exact)
    assert [f.name for f in dataclasses.fields(bd)] == list(want)
    for f, value in want.items():
        assert abs(getattr(bd, f) - value) <= 1e-12 * abs(value), (f, getattr(bd, f), value)


class TestLlsSlope:
    def test_exact_first_order(self):
        assert lls_slope([(1, 10), (10, 100)]) == pytest.approx(1.0)

    def test_exact_second_order(self):
        assert lls_slope([(1, 2), (2, 8), (4, 32)]) == pytest.approx(2.0)

    def test_window_is_one_based_inclusive(self):
        pts = [(1, 1), (2, 4), (4, 16), (8, 300)]
        assert lls_slope(pts, window=(1, 3)) == pytest.approx(2.0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            lls_slope([(1, 1), (2, 2)], window=(2, 5))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lls_slope([(1, 0.0), (2, 1.0)])

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            lls_slope([(1, 1)])
