import numpy as np
import pytest
from scipy.sparse import csc_array

import cutslab.solver
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


def _cap_chunk(monkeypatch, setup, slabs):
    """Set the march's chunk cap to hold ``slabs`` slabs of ``setup``."""
    per_slab = len(setup.mesh_matrices[0]) * (setup.disc.q + 1) ** 2
    monkeypatch.setattr(cutslab.solver, "CHUNK_ENTRIES", slabs * per_slab)
    assert cutslab.solver.chunk_length(setup) == slabs


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
        # the march builds the time rule, interface stencil and stabilization
        # weights of a chunk of slabs in one call each and evaluates the source
        # once per chunk; the norm reads the records and rebuilds none of them
        import dataclasses
        import sys

        from cutslab.quadrature import GL3

        names = ["interface_stencil", "stabilization_weights", "composite_time_rule"]
        calls = dict.fromkeys(names + ["source"], 0)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                if name != "composite_time_rule" or np.array_equal(args[3].nodes, GL3.nodes):
                    calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("cutslab"):
                for name in names:
                    if hasattr(mod, name):
                        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
        setup = make_setup(n0=8, nG=2, N=7, mu=0.6, q=1)
        problem = dataclasses.replace(
            setup.problem, source=counting("source", setup.problem.source)
        )
        for slabs in (None, 3, 1):
            if slabs is not None:
                _cap_chunk(monkeypatch, setup, slabs)
            n_chunks = -(-setup.disc.n_slabs // cutslab.solver.chunk_length(setup))
            calls.update(dict.fromkeys(calls, 0))
            sol = march(problem, setup.overlap, setup.disc)
            assert all(0 < c <= n_chunks for c in calls.values()), (slabs, calls)
            if slabs == 1:
                assert calls == dict.fromkeys(calls, setup.disc.n_slabs)
            calls.update(dict.fromkeys(calls, 0))
            xnorm_error(sol, setup.problem.exact)
            assert calls == dict.fromkeys(calls, 0)

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize(
        "config",
        [
            dict(mu=0.6, a0=0.125, T=1.0, N=12),
            dict(mu=-0.5, a0=0.55, T=1.0, N=8),  # mu k = -h: one cell per slab
            dict(mu=0.0, a0=0.3, T=1.0, N=6),
            dict(mu=0.6, a0=0.125, T=1.0, N=8, nG=1),
            "oscillating",
        ],
        ids=["moving", "node_steps", "stationary", "nG1", "oscillating"],
    )
    def test_chunked_march_matches_slab_by_slab(self, config, q, monkeypatch):
        # slabs built in chunks of three (a chunk boundary mid-march) or all
        # at once give the same slab systems and solution as one by one, to
        # rounding: not bit for bit, since the covered-cell product runs over
        # positions padded to the chunk's longest slab
        if config == "oscillating":
            # as in test_oscillating_velocity_round_trip: slabs differ in mu,
            # its sign and their event count
            problem = manufactured_problem(final_time=3.0)
            overlap = OverlapSpec(
                length=6.0 / 21.0,
                initial_left=0.125,
                velocity=lambda t: 0.5 * np.sin(2.0 * np.pi * t / 3.0),
            )
            disc = Discretization(n_background=21, n_overlap=6, n_slabs=10, q=q)
            setup = Setup.build(problem, overlap, disc)
            mus = setup.partition.velocities
            assert np.any(mus > 0) and np.any(mus < 0)
        else:
            setup = make_setup(**{"n0": 16, "nG": 4, "q": q, **config})
        runs = []
        for slabs in (1, 3, setup.disc.n_slabs):
            _cap_chunk(monkeypatch, setup, slabs)
            systems = []
            original = cutslab.solver.solve_slab

            def recording(system):
                systems.append(system)
                return original(system)

            monkeypatch.setattr(cutslab.solver, "solve_slab", recording)
            sol = march(setup.problem, setup.overlap, setup.disc)
            monkeypatch.setattr(cutslab.solver, "solve_slab", original)
            runs.append((systems, sol))
        if config == "oscillating":
            events = [len(s.geom.events) for s in runs[0][1].slabs]
            assert len(set(events)) > 1
        ref_systems, ref_sol = runs[0]
        for systems, sol in runs[1:]:
            assert [s.slab for s in systems] == list(range(1, setup.disc.n_slabs + 1))
            for a, b, x, y in zip(ref_systems, systems, ref_sol.slabs, sol.slabs):
                A, B = a.matrix.toarray(), b.matrix.toarray()
                assert np.array_equal(a.matrix.indptr, b.matrix.indptr)
                assert np.array_equal(a.matrix.indices, b.matrix.indices)
                assert np.max(np.abs(A - B)) <= 1e-14 * np.max(np.abs(A))
                assert np.max(np.abs(a.rhs - b.rhs)) <= 1e-14 * np.max(np.abs(a.rhs))
                assert np.max(np.abs(x.coeffs - y.coeffs)) <= 1e-14 * np.max(np.abs(x.coeffs))

    @pytest.mark.parametrize("q", [0, 1])
    def test_bad_source_in_a_chunk_names_its_slab(self, q, monkeypatch):
        # one chunk holds slabs 1-5; the source is NaN at slab 3's times only
        import dataclasses

        setup = make_setup(n0=8, nG=2, N=5, mu=0.6, q=q)
        assert cutslab.solver.chunk_length(setup) >= 5
        t2, t3 = setup.partition.breakpoints[2:4]
        base = setup.problem.source

        def source(x, t):
            return np.where((t > t2) & (t < t3), np.nan, base(x, t))

        problem = dataclasses.replace(setup.problem, source=source)
        solved = []
        original = cutslab.solver.solve_slab

        def recording(system):
            solved.append(system.slab)
            return original(system)

        monkeypatch.setattr(cutslab.solver, "solve_slab", recording)
        with pytest.raises(NumericalFailure, match="slab 3"):
            march(problem, setup.overlap, setup.disc)
        assert solved == [1, 2]

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
