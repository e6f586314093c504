import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutslab.core import (
    Discretization,
    GeometryViolation,
    OverlapSpec,
    ProblemSpec,
    Setup,
    TimePartition,
    build_time_partition,
    check_interior,
    interface_path,
    make_uniform_mesh,
    manufactured_problem,
    pointwise,
    slab_velocity,
    zero_problem,
)


def _zero(*args):
    return 0.0


class TestMakeUniformMesh:
    def test_four_cells(self):
        assert np.allclose(make_uniform_mesh((0.0, 1.0), 4), [0, 0.25, 0.5, 0.75, 1.0])

    def test_single_cell(self):
        assert np.allclose(make_uniform_mesh((0.125, 0.375), 1), [0.125, 0.375])

    def test_ten_cells_spacing(self):
        h = np.diff(make_uniform_mesh((0.0, 1.0), 10))
        assert np.max(np.abs(h - 0.1)) <= 1e-15

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError):
            make_uniform_mesh((0.0, 1.0), 0)


class TestManufacturedProblem:
    def test_peak_value(self):
        prob = manufactured_problem()
        assert prob.exact.u(0.5, 0.0) == pytest.approx(1.0)

    def test_boundary_values(self):
        prob = manufactured_problem()
        for t in (0.0, 0.3, 1.0):
            assert abs(prob.exact.u(0.0, t)) < 1e-14
            assert abs(prob.exact.u(1.0, t)) < 1e-14

    def test_source_at_center(self):
        prob = manufactured_problem()
        assert prob.source(0.5, 0.0) == pytest.approx(-0.5 + 2 * np.pi**2, rel=1e-12)

    def test_source_matches_finite_differences(self):
        # f must equal u_t - u_xx; check with central differences
        prob = manufactured_problem()
        rng = np.random.default_rng(7)
        x = rng.uniform(0.05, 0.95, 1000)
        t = rng.uniform(0.0, 1.0, 1000)
        d = 1e-4
        u = prob.exact.u
        u_t = (u(x, t + d) - u(x, t - d)) / (2 * d)
        u_xx = (u(x + d, t) - 2 * u(x, t) + u(x - d, t)) / d**2
        assert np.max(np.abs(prob.source(x, t) - (u_t - u_xx))) < 1e-5

    def test_initial_matches_exact(self):
        prob = manufactured_problem()
        x = np.linspace(0, 1, 17)
        assert np.allclose(prob.initial(x), prob.exact.u(x, 0.0))


class TestSlabVelocity:
    def test_constant(self):
        spec = OverlapSpec(length=0.25, initial_left=0.125, velocity=0.6)
        assert slab_velocity(spec, 0.0, 0.1) == 0.6

    def test_sampled_sine(self):
        spec = OverlapSpec(
            length=0.25,
            initial_left=0.125,
            velocity=lambda t: 0.5 * np.sin(2 * np.pi * t / 3),
        )
        assert slab_velocity(spec, 0.45, 0.75) == pytest.approx(0.5)

    def test_zero_callable(self):
        spec = OverlapSpec(length=0.25, initial_left=0.125, velocity=lambda t: 0.0)
        assert slab_velocity(spec, 0.0, 1.0) == 0.0

    def test_average_of_linear_is_midpoint_value(self):
        spec = OverlapSpec(
            length=0.25,
            initial_left=0.125,
            velocity=lambda t: 0.3 * t,
            velocity_mode="average",
        )
        assert slab_velocity(spec, 0.2, 0.6) == pytest.approx(0.3 * 0.4)

    def test_closed_form_gauss5_matches_leggauss(self):
        from cutslab.core import _GL5_W, _GL5_X

        x, w = np.polynomial.legendre.leggauss(5)
        assert np.max(np.abs(_GL5_X - 0.5 * (x + 1.0))) <= 1e-15
        assert np.max(np.abs(_GL5_W - 0.5 * w)) <= 1e-15


class TestInterfacePath:
    def test_continuous_piecewise_linear(self):
        spec = OverlapSpec(
            length=0.25,
            initial_left=0.125,
            velocity=lambda t: 0.5 * np.sin(2 * np.pi * t / 3),
        )
        part = build_time_partition(spec, 3.0, 10)
        a = interface_path(spec, part)
        # each breakpoint value continues from the previous slab's endpoint
        k = np.diff(part.breakpoints)
        for n in range(10):
            assert a[n + 1] == pytest.approx(a[n] + part.velocities[n] * k[n])

    def test_interior_violation_detected(self):
        prob = manufactured_problem()
        spec = OverlapSpec(length=0.25, initial_left=0.125, velocity=-0.3)
        part = build_time_partition(spec, 1.0, 4)
        # the left interface is at 0.05 after slab 1 and at -0.025 after slab 2
        with pytest.raises(GeometryViolation, match=r"left interface reaches -0\.025 in slab 2,"):
            check_interior(prob, spec, part)

    def test_interior_violation_names_the_first_slab(self):
        prob = manufactured_problem()
        # right end 1 - 1e-13 at the start, inside the margin: slab 1
        spec = OverlapSpec(length=0.25, initial_left=0.75 - 1e-13, velocity=-0.3)
        with pytest.raises(GeometryViolation, match="right interface .* in slab 1,"):
            check_interior(prob, spec, build_time_partition(spec, 1.0, 4))
        # right end 0.975 after slab 1, then 1.05, 1.125 and 1.2
        spec = OverlapSpec(length=0.25, initial_left=0.65, velocity=0.3)
        with pytest.raises(GeometryViolation, match=r"right interface reaches 1\.05 in slab 2,"):
            check_interior(prob, spec, build_time_partition(spec, 1.0, 4))


class TestValidation:
    def test_problem_bad_interval(self):
        z = lambda *a: 0.0
        with pytest.raises(ValueError):
            ProblemSpec(x_lo=1.0, x_hi=0.0, final_time=1.0, source=z, initial=z)

    def test_problem_bad_final_time(self):
        z = lambda *a: 0.0
        with pytest.raises(ValueError):
            ProblemSpec(x_lo=0.0, x_hi=1.0, final_time=0.0, source=z, initial=z)

    @pytest.mark.parametrize(
        "field,value",
        [("x_lo", -np.inf), ("x_hi", np.inf), ("x_hi", np.nan), ("final_time", np.inf),
         ("final_time", np.nan), ("final_time", 1e400)],
    )
    def test_problem_non_finite(self, field, value):
        # an infinite final time used to reach assembly and fail there
        z = lambda *a: 0.0
        kwargs = dict(x_lo=0.0, x_hi=1.0, final_time=1.0, source=z, initial=z)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ProblemSpec(**kwargs)

    def test_discretization_bad_q(self):
        with pytest.raises(ValueError):
            Discretization(n_background=4, n_overlap=2, n_slabs=2, q=2)

    @pytest.mark.parametrize("field", ["n_background", "n_overlap", "n_slabs", "q"])
    @pytest.mark.parametrize("value", [8.5, 1.0, "1", True, np.float64(1.0)])
    def test_discretization_non_integer_count(self, field, value):
        # 8.5 cells used to build and fail later inside the geometry
        kwargs = dict(n_background=4, n_overlap=2, n_slabs=2, q=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Discretization(**kwargs)

    @pytest.mark.parametrize("kind", [int, np.int64, np.int32])
    def test_discretization_integer_types(self, kind):
        disc = Discretization(kind(4), kind(2), kind(2), q=kind(1))
        assert (disc.n_background, disc.n_overlap, disc.n_slabs, disc.q) == (4, 2, 2, 1)

    def test_discretization_bad_omega(self):
        with pytest.raises(ValueError):
            Discretization(n_background=4, n_overlap=2, n_slabs=2, omega1=1.5)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
    def test_discretization_bad_gamma(self, gamma):
        with pytest.raises(ValueError):
            Discretization(n_background=4, n_overlap=2, n_slabs=2, gamma=gamma)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("length", np.nan),
            ("length", np.inf),
            ("initial_left", np.nan),
            ("initial_left", -np.inf),
            ("velocity", np.nan),
            ("velocity", np.inf),
        ],
    )
    def test_overlap_non_finite(self, field, value):
        kwargs = dict(length=0.25, initial_left=0.1, velocity=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            OverlapSpec(**kwargs)

    @pytest.mark.parametrize("value", [True, False, "0.6", None, 1j, np.True_])
    @pytest.mark.parametrize(
        "build,field",
        [
            (lambda v: ProblemSpec(v, 1.0, 1.0, _zero, _zero), "x_lo"),
            (lambda v: ProblemSpec(-1.0, v, 1.0, _zero, _zero), "x_hi"),
            (lambda v: ProblemSpec(0.0, 1.0, v, _zero, _zero), "final_time"),
            (lambda v: OverlapSpec(v, 0.125, 0.0), "length"),
            (lambda v: OverlapSpec(0.25, v, 0.0), "initial_left"),
            (lambda v: OverlapSpec(0.25, 0.125, v), "velocity"),
            (lambda v: Discretization(8, 4, 4, gamma=v), "gamma"),
            (lambda v: Discretization(8, 4, 4, omega1=v), "omega1"),
        ],
        ids=["x_lo", "x_hi", "final_time", "length", "initial_left", "velocity", "gamma", "omega1"],
    )
    def test_non_real_field(self, build, field, value):
        # True used to pass as 1 (an overlap of length 1, gamma 1, T = 1),
        # and a string or None failed with a bare TypeError
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            build(value)

    @pytest.mark.parametrize("kind", [int, float, np.float32, np.float64, np.int64])
    def test_real_field_types(self, kind):
        assert OverlapSpec(0.25, kind(0), kind(0)).velocity == 0
        assert Discretization(8, 4, 4, gamma=kind(10), omega1=kind(1)).gamma == 10

    def test_overlap_bad_mode(self):
        with pytest.raises(ValueError):
            OverlapSpec(length=0.25, initial_left=0.1, velocity=0.0, velocity_mode="x")

    def test_partition_not_increasing(self):
        with pytest.raises(ValueError):
            TimePartition(breakpoints=np.array([0.0, 0.5, 0.5]), velocities=np.zeros(2))

    @pytest.mark.parametrize("field", ["breakpoints", "velocities"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_partition_non_finite(self, field, value):
        # np.diff(t) <= 0 is False for NaN, so the order check alone let
        # NaN breakpoints through
        kwargs = dict(breakpoints=np.array([0.0, 0.5, 1.0]), velocities=np.zeros(2))
        kwargs[field] = kwargs[field].copy()
        kwargs[field][1] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TimePartition(**kwargs)

    def test_partition_from_a_non_finite_velocity_callable(self):
        spec = OverlapSpec(length=0.25, initial_left=0.3, velocity=lambda t: np.nan)
        with pytest.raises(ValueError, match="velocities must be finite"):
            build_time_partition(spec, 1.0, 4)

    def test_partition_lengths(self):
        # a uniform partition: one length for every slab, though the
        # breakpoint differences of T = 1, N = 6 differ in the last bits
        t = np.linspace(0.0, 1.0, 7)
        assert len(set(np.diff(t).tolist())) > 1
        lengths = TimePartition(breakpoints=t, velocities=np.zeros(6)).lengths
        assert lengths.tolist() == [1.0 / 6] * 6
        # any other partition: the breakpoint differences
        t = np.array([0.0, 0.25, 0.5, 1.0])
        lengths = TimePartition(breakpoints=t, velocities=np.zeros(3)).lengths
        assert lengths.tolist() == [0.25, 0.25, 0.5]

    def test_zero_problem_is_zero(self):
        prob = zero_problem()
        x = np.linspace(0, 1, 9)
        assert not np.any(prob.source(x, 0.3))
        assert not np.any(prob.initial(x))


@given(
    n0=st.integers(8, 40),
    nG=st.integers(1, 8),
    N=st.integers(1, 12),
)
@settings(max_examples=25, deadline=None)
def test_setup_mesh_sizes(n0, nG, N):
    prob = manufactured_problem()
    ov = OverlapSpec(length=0.25, initial_left=0.125, velocity=0.6)
    disc = Discretization(n_background=n0, n_overlap=nG, n_slabs=N)
    setup = Setup.build(prob, ov, disc)
    assert np.diff(setup.bg_nodes) == pytest.approx(1.0 / n0)
    assert np.diff(setup.ov_offsets) == pytest.approx(0.25 / nG)
    assert len(setup.a_breaks) == N + 1


class TestPointwise:
    def test_scalar_is_broadcast(self):
        x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        v = pointwise(lambda x, t: 2.0, x, 0.5)
        assert v.shape == x.shape and np.all(v == 2.0)

    def test_array_passes_through(self):
        x = np.linspace(0.0, 1.0, 5)
        assert np.array_equal(pointwise(lambda x: x**2, x), x**2)

    def test_wrong_shape_raises(self):
        with pytest.raises(ValueError, match=r"returned shape \(2,\)"):
            pointwise(lambda x: np.ones(2), np.zeros(5))
