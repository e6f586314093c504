import numpy as np
import pytest
from scipy.sparse import csc_array

from cutslab.assembly import assemble_slab
from cutslab.core import (
    Discretization,
    NumericalFailure,
    OverlapSpec,
    Setup,
    manufactured_problem,
    zero_problem,
)
from cutslab.geometry import build_slab_geometry
from cutslab.norms import xnorm_error
from cutslab.solver import march, solve_slab
from cutslab.spaces import SlabSolution, build_slab_space

from conftest import make_setup


def _naive_gauss(A, b):
    """Plain Gaussian elimination with partial pivoting, no library calls."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for col in range(n):
        p = col + int(np.argmax(np.abs(A[col:, col])))
        if p != col:
            A[[col, p]] = A[[p, col]]
            b[[col, p]] = b[[p, col]]
        for r in range(col + 1, n):
            f = A[r, col] / A[col, col]
            A[r, col:] -= f * A[col, col:]
            b[r] -= f * b[col]
    x = np.zeros(n)
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - A[r, r + 1 :] @ x[r + 1 :]) / A[r, r]
    return x


class TestSolveSlab:
    @pytest.mark.parametrize("q", [0, 1])
    def test_matches_naive_elimination(self, q):
        setup = make_setup(n0=8, nG=2, N=3, mu=0.6, q=q)
        space = build_slab_space(build_slab_geometry(setup, 1), setup.disc)
        system = assemble_slab(space, setup, None)
        x = solve_slab(system)
        ref = _naive_gauss(system.matrix.toarray(), system.rhs)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(x - ref)) <= 1e-10 * scale

    def test_zero_rhs_gives_zero(self):
        setup = make_setup(n0=8, nG=2, N=3, mu=0.6)
        space = build_slab_space(build_slab_geometry(setup, 1), setup.disc)
        system = assemble_slab(space, setup, None)
        from cutslab.assembly import SlabSystem

        zsys = SlabSystem(
            slab=1, matrix=system.matrix, rhs=np.zeros_like(system.rhs), space=space
        )
        assert not np.any(solve_slab(zsys))

    def test_singular_matrix_detected(self):
        setup = make_setup(n0=8, nG=2, N=3, mu=0.6)
        space = build_slab_space(build_slab_geometry(setup, 1), setup.disc)
        from cutslab.assembly import SlabSystem

        n = space.n_cols
        bad = SlabSystem(slab=1, matrix=csc_array((n, n)), rhs=np.zeros(n), space=space)
        with pytest.raises(NumericalFailure):
            solve_slab(bad)

    def test_rank_deficient_detected(self):
        setup = make_setup(n0=8, nG=2, N=3, mu=0.6)
        space = build_slab_space(build_slab_geometry(setup, 1), setup.disc)
        system = assemble_slab(space, setup, None)
        from cutslab.assembly import SlabSystem

        A = system.matrix.toarray()
        A[3] = A[4]  # duplicate row
        bad = SlabSystem(slab=1, matrix=csc_array(A), rhs=system.rhs, space=space)
        with pytest.raises(NumericalFailure):
            solve_slab(bad)


    def _system(self, q=0, mu=0.6):
        setup = make_setup(n0=8, nG=2, N=3, mu=mu, q=q)
        space = build_slab_space(build_slab_geometry(setup, 1), setup.disc)
        return assemble_slab(space, setup, None)

    def test_near_singular_column_trips_pivot_floor(self):
        from cutslab.assembly import SlabSystem

        system = self._system()
        A = system.matrix.toarray()
        A[:, 5] *= 1e-16
        bad = SlabSystem(slab=1, matrix=csc_array(A), rhs=system.rhs, space=system.space)
        with pytest.raises(NumericalFailure, match="singular slab system"):
            solve_slab(bad)

    def test_exactly_singular_factor_reported(self):
        from cutslab.assembly import SlabSystem

        system = self._system()
        A = system.matrix.toarray()
        A[:, 2] = 0.0
        bad = SlabSystem(slab=1, matrix=csc_array(A), rhs=system.rhs, space=system.space)
        with pytest.raises(NumericalFailure) as exc:
            solve_slab(bad)
        msg = str(exc.value)
        assert "slab 1" in msg
        assert f"{system.space.n_cols} unknowns" in msg
        assert f"{system.space.n_active_bg} background DOFs" in msg
        assert "condition estimate" in msg

    def test_residual_guard(self, monkeypatch):
        import cutslab.solver

        monkeypatch.setattr(cutslab.solver, "RESIDUAL_TOL", 0.0)
        with pytest.raises(NumericalFailure, match="relative residual"):
            solve_slab(self._system())

    def test_non_finite_matrix_rejected(self):
        from cutslab.assembly import SlabSystem

        system = self._system()
        A = system.matrix.copy()
        A.data[0] = np.nan
        with pytest.raises(NumericalFailure, match="non-finite"):
            SlabSystem(slab=1, matrix=A, rhs=system.rhs, space=system.space)

    def test_dense_matrix_rejected(self):
        from cutslab.assembly import SlabSystem

        system = self._system()
        with pytest.raises(TypeError):
            SlabSystem(
                slab=1, matrix=system.matrix.toarray(), rhs=system.rhs, space=system.space
            )

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu", [0.0, 0.6])
    def test_matches_dense_solve(self, q, mu):
        system = self._system(q=q, mu=mu)
        x = solve_slab(system)
        ref = np.linalg.solve(system.matrix.toarray(), system.rhs)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestMarch:
    def test_zero_data_gives_zero_solution(self):
        problem = zero_problem()
        overlap = OverlapSpec(length=0.25, initial_left=0.125, velocity=0.6)
        disc = Discretization(n_background=8, n_overlap=2, n_slabs=3, q=1)
        sol = march(problem, overlap, disc)
        for slab in sol.slabs:
            assert np.max(np.abs(slab.coeffs)) < 1e-14

    def test_march_evaluates_no_slab_solution(self, monkeypatch):
        # the previous slab enters through its nodal values, not by evaluation
        calls = []
        original = SlabSolution.eval

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SlabSolution, "eval", counting)
        setup = make_setup(n0=8, nG=2, N=4, mu=0.6, q=1)
        sol = march(setup.problem, setup.overlap, setup.disc)
        assert calls == []
        sol.slabs[0].eval(0.5, 0.1)
        assert len(calls) == 1

    def test_slab_record_is_built_once_per_slab(self, monkeypatch):
        # the march builds each slab's time rule, interface stencil and
        # stabilization weights once; assembly and the norm both read them
        import sys

        from cutslab.quadrature import GL3

        names = ["interface_stencil", "stabilization_weights", "composite_time_rule"]
        calls = dict.fromkeys(names, 0)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                if name != "composite_time_rule" or np.array_equal(args[3].nodes, GL3.nodes):
                    calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("cutslab"):
                for name in calls:
                    if hasattr(mod, name):
                        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        setup = make_setup(n0=8, nG=2, N=4, mu=0.6, q=1)
        sol = march(setup.problem, setup.overlap, setup.disc)
        xnorm_error(sol, setup.problem.exact)
        assert calls == dict.fromkeys(calls, 4)

    def test_deterministic(self):
        setup = make_setup(n0=12, nG=3, N=4, mu=0.6, q=1)
        s1 = march(setup.problem, setup.overlap, setup.disc)
        s2 = march(setup.problem, setup.overlap, setup.disc)
        for a, b in zip(s1.slabs, s2.slabs):
            assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("q", [0, 1])
    def test_error_decreases_under_refinement(self, q):
        exact = manufactured_problem().exact
        errs = []
        for n0, nG, N in ((8, 2, 4), (16, 4, 8)):
            setup = make_setup(n0=n0, nG=nG, N=N, mu=0.6, q=q)
            sol = march(setup.problem, setup.overlap, setup.disc)
            errs.append(xnorm_error(sol, exact).x)
        assert errs[1] < errs[0]

    def test_oscillating_velocity_round_trip(self):
        # overlap translates right then back; interface path returns to its
        # starting point and the solve stays healthy throughout
        problem = manufactured_problem(final_time=3.0)
        overlap = OverlapSpec(
            length=6.0 / 21.0,
            initial_left=0.125,
            velocity=lambda t: 0.5 * np.sin(2.0 * np.pi * t / 3.0),
        )
        disc = Discretization(n_background=21, n_overlap=6, n_slabs=10, q=0)
        sol = march(problem, overlap, disc)
        a = sol.setup.a_breaks
        assert a[-1] == pytest.approx(a[0], abs=1e-12)
        assert a.max() > a[0] + 0.3
        for slab in sol.slabs:
            assert np.all(np.isfinite(slab.coeffs))
        # the decaying manufactured solution keeps values in a physical range
        x = np.linspace(0.05, 0.95, 19)
        vals = sol.eval(x, 3.0)
        assert np.max(np.abs(vals)) < 1.5

    def test_solution_tracks_exact_solution(self):
        setup = make_setup(n0=32, nG=8, N=8, mu=0.6, q=1)
        sol = march(setup.problem, setup.overlap, setup.disc)
        exact = manufactured_problem().exact
        x = np.linspace(0.1, 0.9, 9)
        for t in (0.5, 1.0):
            assert np.max(np.abs(sol.eval(x, t) - exact.u(x, t))) < 0.02
