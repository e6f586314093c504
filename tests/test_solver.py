import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array, csc_array
from scipy.sparse.linalg import splu

import cutslab.assembly
import cutslab.core
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

from conftest import make_setup, oscillating_setup, slab_space, slab_system


def _cap_chunk(monkeypatch, setup, slabs):
    """Set the march's chunk cap to hold ``slabs`` slabs of ``setup``."""
    cells = len(setup.bg_nodes) + len(setup.ov_offsets) - 2
    per_slab = 4 * cells * (setup.disc.q + 1) ** 2
    monkeypatch.setattr(cutslab.solver, "CHUNK_ENTRIES", slabs * per_slab)
    assert cutslab.solver.chunk_length(setup) == slabs


def _slab_bands(systems):
    """(i, band) for each slab i of the chunk ``systems``, from the groups
    of ``solver._chunk_bands``."""
    groups = cutslab.solver._chunk_bands(systems, cutslab.solver.FactorMemo())
    return [(i, band) for lo, bands in groups for i, band in enumerate(bands, lo)]


def _same_matrix(A, B):
    return all(np.array_equal(getattr(A, k), getattr(B, k)) for k in ("indptr", "indices", "data"))


def _count_factors(monkeypatch):
    """Record the bands the solver passes to LAPACK's ``dgbtrf``: one per
    factorization."""
    calls = []
    original = cutslab.solver.dgbtrf

    def counting(ab, *args, **kwargs):
        calls.append(ab)
        return original(ab, *args, **kwargs)

    monkeypatch.setattr(cutslab.solver, "dgbtrf", counting)
    return calls


def _fresh(system):
    """``system`` with no band, memo or repeat: its band is built from its
    triplets and factored afresh."""
    return dataclasses.replace(system, repeats=False, memo=None, band=None)


def _with(system, A=None, rhs=None):
    """``_fresh(system)`` with its matrix replaced by ``A`` (dense or
    scipy.sparse) and its load by ``rhs``."""
    triplets = system.triplets
    if A is not None:
        A = coo_array(A)
        triplets = (A.row, A.col, A.data)
    rhs = system.rhs if rhs is None else rhs
    return dataclasses.replace(_fresh(system), triplets=triplets, rhs=rhs)


def _solve_and_check(system):
    """``solve_slab``, then the checks that the march runs on its slabs
    after their solves (``solver._check``), on this slab alone."""
    memo = cutslab.solver.FactorMemo()
    x = solve_slab(dataclasses.replace(system, memo=memo))
    b, scale = system.rhs, memo.factor[4]
    cutslab.solver._check([system.slab], [0, len(b)], b, x, system.triplets, [scale])
    return x


def _record_solves(monkeypatch, before=None):
    """Record every system the march hands to ``solve_slab``; ``before(system)``
    runs ahead of each solve."""
    systems = []
    original = cutslab.solver.solve_slab

    def recording(system):
        if before is not None:
            before(system)
        systems.append(system)
        return original(system)

    monkeypatch.setattr(cutslab.solver, "solve_slab", recording)
    return systems


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
    @staticmethod
    def _system(q=0, mu=0.6):
        setup = make_setup(n0=8, nG=2, N=3, mu=mu, q=q)
        return slab_system(slab_space(setup, 1), setup)

    @pytest.mark.parametrize("q", [0, 1])
    def test_matches_naive_elimination(self, q):
        system = self._system(q=q)
        x = solve_slab(system)
        ref = _naive_gauss(system.matrix.toarray(), system.rhs)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(x - ref)) <= 1e-10 * scale

    def test_zero_rhs_gives_zero(self):
        system = self._system()
        assert not np.any(solve_slab(_with(system, rhs=np.zeros_like(system.rhs))))

    def test_singular_matrix_detected(self):
        system = self._system()
        n = system.space.n_cols
        bad = _with(system, csc_array((n, n)), np.zeros(n))
        with pytest.raises(NumericalFailure):
            solve_slab(bad)

    def test_rank_deficient_detected(self):
        system = self._system()
        A = system.matrix.toarray()
        A[3] = A[4]  # duplicate row
        with pytest.raises(NumericalFailure):
            solve_slab(_with(system, A))

    def test_near_singular_column_trips_pivot_floor(self):
        system = self._system()
        A = system.matrix.toarray()
        A[:, 5] *= 1e-16
        with pytest.raises(NumericalFailure, match="singular slab system") as exc:
            solve_slab(_with(system, A))
        # the message gives the pivot ratio against its floor
        ratio = float(str(exc.value).split("||A||_inf ")[1].split()[0])
        assert 0 < ratio <= cutslab.solver.PIVOT_FRACTION
        assert f"PIVOT_FRACTION {cutslab.solver.PIVOT_FRACTION:.0e}" in str(exc.value)

    def test_exactly_singular_factor_reported(self):
        system = self._system()
        A = system.matrix.toarray()
        A[:, 2] = 0.0
        with pytest.raises(NumericalFailure) as exc:
            solve_slab(_with(system, A))
        msg = str(exc.value)
        assert "slab 1" in msg
        assert f"{system.space.n_cols} unknowns" in msg
        assert f"{system.space.n_active_bg} background DOFs" in msg
        assert "condition estimate inf" in msg  # an exactly zero pivot

    def test_condition_estimate_tracks_dense_condition(self):
        # the estimate comes from LAPACK's band factor, not from a dense
        # inverse; on a near-singular slab it is within 10x of the dense
        # 1-norm condition number
        system = self._system()
        A = system.matrix.toarray()
        A[:, 5] *= 1e-16
        with pytest.raises(NumericalFailure, match="pivot ratio") as exc:
            solve_slab(_with(system, A))
        estimate = float(str(exc.value).split("condition estimate ")[1].rstrip(")"))
        dense = np.linalg.cond(A, 1)
        assert dense / 10 <= estimate <= 10 * dense

    @pytest.mark.parametrize("nG", [1, 4])
    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu", [0.0, 0.5, -0.5, 0.6])
    def test_condition_stays_bounded_near_a_node(self, mu, q, nG):
        # the left interface on the node 0.25, or inside or just beyond the
        # snap tolerance (DEGENERATE_FRACTION) of it on either side, where a
        # cut cell is a sliver: slab 1's dense 1-norm condition number stays
        # within 4x that of a mid-cell interface, 0.25 + h/2

        def cond(a0):
            setup = make_setup(n0=16, nG=nG, N=8, mu=mu, a0=a0, q=q, T=0.25, length=0.25)
            return np.linalg.cond(slab_system(slab_space(setup, 1), setup).matrix.toarray(), 1)

        mid = cond(0.25 + 1.0 / 32.0)
        for d in (0.0, 1e-13, -1e-13, 0.9e-12, -0.9e-12, 2e-12, -2e-12):
            assert cond(0.25 + d) <= 4.0 * mid, d

    def test_residual_guard(self, monkeypatch):
        monkeypatch.setattr(cutslab.solver, "RESIDUAL_TOL", 0.0)
        with pytest.raises(
            NumericalFailure, match=r"slab 1 solve left relative residual \S+, above RESIDUAL_TOL 0e\+00"
        ):
            _solve_and_check(self._system())

    def test_non_finite_solution_rejected(self):
        # a finite load so large that the solve overflows to inf and NaN; the
        # residual bound alone lets NaN through, into the next slab's load
        system = self._system(q=0, mu=0.6)
        huge = _with(system, rhs=np.full_like(system.rhs, 1e308))
        with pytest.raises(NumericalFailure, match="slab 1 solve gave non-finite coefficients"):
            _solve_and_check(huge)

    def test_non_finite_source_names_its_slab(self):
        # the load of slab 5, (0.5, 0.625], is the first to read the NaN
        setup = make_setup(n0=16, nG=4, N=8, q=1)
        base = setup.problem.source
        problem = dataclasses.replace(
            setup.problem, source=lambda x, t: np.where(t > 0.5, np.nan, base(x, t))
        )
        with pytest.raises(NumericalFailure, match="non-finite load in slab 5"):
            march(problem, setup.overlap, setup.disc)

    def test_non_finite_mesh_entry_names_slab_1(self, monkeypatch):
        # one NaN in the overlap mesh's stiffness, which every slab reads
        original = cutslab.core.p1_triplets

        def poisoned(nodes):
            rows, cols, vals = original(nodes)
            if len(nodes) == 5:  # the overlap mesh: every node carries a DOF
                vals[1, 1] = np.nan
            return rows, cols, vals

        monkeypatch.setattr(cutslab.core, "p1_triplets", poisoned)
        setup = make_setup(n0=16, nG=4, N=8, q=1)
        with pytest.raises(NumericalFailure, match="non-finite matrix entries in slab 1") as exc:
            march(setup.problem, setup.overlap, setup.disc)
        assert exc.traceback[-1].name == "_slab_matrices"

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

    @pytest.mark.parametrize("config", ["moving", "stationary_nG1_q1", "stationary_nG4_q0"])
    def test_slab_record_is_built_once_per_slab(self, config, monkeypatch):
        # the march builds the time rule, interface stencil and stabilization
        # weights of a chunk of slabs in one call each and evaluates the source
        # once per chunk; the norm reads the records and rebuilds none of them.
        # A stationary march builds the geometry and record of its first slab
        # only: the slabs that repeat it share them, also across chunks, and
        # its norm is the recorded one
        import sys

        from cutslab.quadrature import GL3
        from test_norms import GOLDEN_NORMS

        names = ["interface_stencil", "stabilization_weights", "composite_time_rule", "_by_slab"]
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
        stationary = config != "moving"
        cfg = GOLDEN_NORMS[config][0] if stationary else dict(n0=8, nG=2, N=7, mu=0.6, q=1)
        setup = make_setup(**cfg)
        problem = dataclasses.replace(
            setup.problem, source=counting("source", setup.problem.source)
        )
        for slabs in (None, 3, 1):
            if slabs is not None:
                _cap_chunk(monkeypatch, setup, slabs)
            n_chunks = -(-setup.disc.n_slabs // cutslab.solver.chunk_length(setup))
            calls.update(dict.fromkeys(calls, 0))
            sol = march(problem, setup.overlap, setup.disc)
            built = {name: 2 if name == "_by_slab" else 1 for name in names}
            if stationary:  # one record; the source load is every chunk's own
                assert calls == {**built, "source": n_chunks}, (slabs, calls)
            else:  # _by_slab sorts the events and the cut cells of each chunk
                once = {name: c for name, c in calls.items() if name != "_by_slab"}
                assert all(0 < c <= n_chunks for c in once.values()), (slabs, calls)
                assert 0 < calls["_by_slab"] <= 2 * n_chunks, (slabs, calls)
            if slabs == 1 and not stationary:
                assert calls == {**dict.fromkeys(calls, setup.disc.n_slabs), "_by_slab": 2 * n_chunks}
            calls.update(dict.fromkeys(calls, 0))
            norm = xnorm_error(sol, setup.problem.exact)
            assert calls == dict.fromkeys(calls, 0)
            for name, value in (GOLDEN_NORMS[config][1] if stationary else {}).items():
                assert abs(getattr(norm, name) - value) <= 1e-12 * abs(value), (slabs, name)

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
            setup = oscillating_setup(q)
            mus = setup.partition.velocities
            assert np.any(mus > 0) and np.any(mus < 0)
        else:
            setup = make_setup(**{"n0": 16, "nG": 4, "q": q, **config})
        runs = []
        original = cutslab.solver.solve_slab
        for slabs in (1, 3, setup.disc.n_slabs):
            _cap_chunk(monkeypatch, setup, slabs)
            systems = _record_solves(monkeypatch)
            sol = march(setup.problem, setup.overlap, setup.disc)
            monkeypatch.setattr(cutslab.solver, "solve_slab", original)
            runs.append((systems, sol))
            # a reused factor solves as a fresh one would, bit for bit
            for system, slab in zip(systems, sol.slabs):
                assert np.array_equal(solve_slab(_fresh(system)), slab.coeffs)
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
    @pytest.mark.parametrize("quantity", ["load", "coefficients", "residual", None])
    def test_group_check_names_a_slab_before_a_later_pivot_failure(self, quantity, q, monkeypatch):
        # slabs 1-5 form one band group, checked after its solves; slab 4
        # trips its pivot floor while slab 2's load, coefficients or residual
        # is bad: the error names slab 2 and its quantity, else slab 4's pivot
        setup = make_setup(n0=8, nG=2, N=5, mu=0.6, q=q)
        system_of = cutslab.assembly.SlabSystems.system

        def spoiled(self, i, *args, **kwargs):
            system = system_of(self, i, *args, **kwargs)
            if quantity == "load" and system.slab == 2:
                system.rhs = np.where(np.arange(len(system.rhs)) == 0, np.nan, system.rhs)
            if system.slab == 4:
                system.band.ab[:, 0] *= 1e-30  # its first column nearly zero
            return system

        original = cutslab.solver.solve_slab

        def solving(system):
            x = original(system)
            if system.slab == 2 and quantity == "coefficients":
                x[0] = np.inf
            if system.slab == 2 and quantity == "residual":
                x[0] += 1e-3 * np.max(np.abs(x))
            solved.append(system.slab)
            return x

        solved = []
        monkeypatch.setattr(cutslab.assembly.SlabSystems, "system", spoiled)
        monkeypatch.setattr(cutslab.solver, "solve_slab", solving)
        want = {
            "load": "non-finite load in slab 2",
            "coefficients": "slab 2 solve gave non-finite coefficients",
            "residual": "slab 2 solve left relative residual",
            None: r"singular slab system \(slab 4, .*pivot ratio",
        }[quantity]
        with pytest.raises(NumericalFailure, match=want):
            march(setup.problem, setup.overlap, setup.disc)
        assert solved == [1, 2, 3]  # slab 4 failed at its factor

    def test_march_views_read_the_solved_coefficients(self, monkeypatch):
        # every slab solution of a march is a view of its coefficient column
        # and records: they give what the solve and the slab-alone builders
        # gave, slab by slab
        setup = make_setup(n0=16, nG=4, N=10, mu=0.6, q=1)
        _cap_chunk(monkeypatch, setup, 4)
        original, solved = cutslab.solver.solve_slab, {}

        def solving(system):
            solved[system.slab] = original(system)
            return solved[system.slab]

        monkeypatch.setattr(cutslab.solver, "solve_slab", solving)
        sol = march(setup.problem, setup.overlap, setup.disc)
        assert sum(s.space.n_cols for s in sol.slabs) == len(sol.slabs.coeffs)
        assert sum(s.space.n_cols for s in sol.slabs) == sum(len(x) for x in solved.values())
        for n, s in enumerate(sol.slabs, 1):
            assert np.array_equal(s.coeffs, solved[n])
            assert np.shares_memory(s.coeffs, sol.slabs.coeffs)
            one = slab_space(setup, n)
            assert s.space.n_cols == one.n_cols
            for name in ("n", "t_start", "t_end", "k", "mu", "a_start", "overlap_length"):
                assert getattr(s.geom, name) == getattr(one.geom, name)
            for name in ("events", "cut_cells", "covered_cells", "bg_nodes", "ov_offsets"):
                assert np.array_equal(getattr(s.geom, name), getattr(one.geom, name))

    @staticmethod
    def _march_with_bad_slab_3(setup, monkeypatch):
        """March with a source that is NaN at slab 3's times only; return the
        systems solved before the failure, which must name slab 3."""
        import dataclasses

        t2, t3 = setup.partition.breakpoints[2:4]
        base = setup.problem.source

        def source(x, t):
            return np.where((t > t2) & (t < t3), np.nan, base(x, t))

        problem = dataclasses.replace(setup.problem, source=source)
        systems = _record_solves(monkeypatch)
        with pytest.raises(NumericalFailure, match="slab 3"):
            march(problem, setup.overlap, setup.disc)
        return systems

    @pytest.mark.parametrize("q", [0, 1])
    def test_bad_source_in_a_chunk_names_its_slab(self, q, monkeypatch):
        # one chunk holds slabs 1-5
        setup = make_setup(n0=8, nG=2, N=5, mu=0.6, q=q)
        assert cutslab.solver.chunk_length(setup) >= 5
        systems = self._march_with_bad_slab_3(setup, monkeypatch)
        assert [s.slab for s in systems] == [1, 2]

    @pytest.mark.parametrize("q", [0, 1])
    def test_bad_source_on_a_reused_factor_names_its_slab(self, q, monkeypatch):
        # mu = 0: slab 3 repeats the matrix of slabs 1 and 2, gets none of
        # its own and would reuse their factor
        setup = make_setup(n0=8, nG=2, N=8, mu=0.0, q=q)
        systems = _record_solves(monkeypatch)
        march(setup.problem, setup.overlap, setup.disc)
        assert [s.repeats for s in systems[:3]] == [False, True, True]
        assert _same_matrix(systems[0].matrix, systems[2].matrix)
        assert _same_matrix(systems[1].matrix, systems[2].matrix)
        factors = _count_factors(monkeypatch)
        systems = self._march_with_bad_slab_3(setup, monkeypatch)
        assert [s.slab for s in systems] == [1, 2]
        assert len(factors) == 1

    @pytest.mark.parametrize("q", [0, 1])
    def test_residual_failure_on_a_reused_factor_names_its_slab(self, q, monkeypatch):
        # mu = 0: slabs 1-3 share one factor; the residual bound trips at slab 3
        setup = make_setup(n0=8, nG=2, N=8, mu=0.0, q=q)

        def tighten(system):
            if system.slab == 3:
                monkeypatch.setattr(cutslab.solver, "RESIDUAL_TOL", 0.0)

        systems = _record_solves(monkeypatch, tighten)
        factors = _count_factors(monkeypatch)
        with pytest.raises(NumericalFailure, match="slab 3 solve left relative residual"):
            march(setup.problem, setup.overlap, setup.disc)
        assert [s.slab for s in systems] == [1, 2, 3]
        assert systems[2].repeats
        assert len(factors) == 1

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu", [0.0, 0.6])
    def test_factors_each_new_matrix_once(self, q, mu, monkeypatch):
        self._check_factors(8, q, mu, monkeypatch)

    @pytest.mark.parametrize("q", [0, 1])
    def test_stationary_slabs_of_inexact_length_share_one_factor(self, q, monkeypatch):
        # k = 1/6 is no binary fraction: the breakpoints t_n = n k differ
        # from slab to slab in their last bits, the slab length does not
        self._check_factors(6, q, 0.0, monkeypatch)

    @staticmethod
    def _check_factors(N, q, mu, monkeypatch):
        # a slab that repeats the previous one (Setup.repeats, read off the
        # time partition) reuses its factor, and every other slab is
        # factored; every slab is still solved once.  The rule fires exactly
        # where the matrix repeats: the matrices read the temporal modes at
        # slab-relative times and one slab length, so every stationary slab
        # repeats the first one's
        setup = make_setup(n0=16, nG=4, N=N, mu=mu, q=q, T=1.0)
        systems = _record_solves(monkeypatch)
        factors = _count_factors(monkeypatch)
        march(setup.problem, setup.overlap, setup.disc)
        assert [s.slab for s in systems] == list(range(1, N + 1))
        same = [_same_matrix(a.matrix, b.matrix) for a, b in zip(systems, systems[1:])]
        assert setup.repeats.tolist() == [False] + same
        assert [s.repeats for s in systems] == setup.repeats.tolist()
        assert len(factors) == N - sum(same)
        assert len(factors) == (N if mu != 0.0 else 1)

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
        setup = oscillating_setup(0)
        sol = march(setup.problem, setup.overlap, setup.disc)
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


class TestRepeatRule:
    """``Setup.repeats``, the slabs whose matrix repeats the previous slab's,
    read off the time partition, against bit identity of the slab
    matrices; and the march, which gives those slabs no matrix and no
    factor of their own."""

    @settings(max_examples=25, deadline=None)
    @given(
        before=st.lists(st.sampled_from([0.25, -0.25, 0.4]), max_size=2),
        zeros=st.integers(2, 3),
        after=st.lists(st.sampled_from([0.0, 0.25, -0.25, 0.4]), max_size=2),
        N=st.sampled_from([6, 8, 12]),
        q=st.sampled_from([0, 1]),
        mode=st.sampled_from(["sample", "average"]),
        a0=st.sampled_from([0.3, 0.3125]),
        nG=st.sampled_from([2, 4]),
    )
    @example(before=[0.25], zeros=3, after=[-0.25], N=12, q=1, mode="average", a0=0.3, nG=4)
    @example(before=[], zeros=2, after=[0.4], N=8, q=0, mode="sample", a0=0.3125, nG=2)
    def test_rule_is_bit_identity(self, before, zeros, after, N, q, mode, a0, nG):
        # the velocity is constant on each of equal pieces of (0, 1], zero on
        # a run of them; k = 1/8 is binary, 1/6 and 1/12 are not
        pieces = np.array(before + [0.0] * zeros + after)
        edges = np.linspace(0.0, 1.0, len(pieces) + 1)[1:-1]
        overlap = OverlapSpec(0.25, a0, lambda t: pieces[np.searchsorted(edges, t)], mode)
        setup = Setup.build(manufactured_problem(1.0), overlap, Discretization(16, nG, N, q=q))
        spaces = [slab_space(setup, n) for n in range(1, N + 1)]

        # each slab assembled on its own: the rule says "repeats" exactly
        # where its triplets are the previous slab's, bit for bit
        bits = [
            tuple(x.tobytes() for x in system.triplets)
            for system in (slab_system(space, setup) for space in spaces)
        ]
        assert setup.repeats.tolist() == [False] + [a == b for a, b in zip(bits, bits[1:])]

        # the reference: each slab's own system, solved with a fresh factor
        ref, prev = [], None
        for space in spaces:
            prev = SlabSolution(space, solve_slab(slab_system(space, setup, prev)))
            ref.append(prev.coeffs)
        new = [n for n in range(1, N + 1) if not setup.repeats[n - 1]]
        original = cutslab.assembly._slab_matrices
        for slabs in (1, 3, N):
            made = []

            def recording(spaces, *args):
                made.extend(sp.geom.n for sp in spaces)
                return original(spaces, *args)

            with pytest.MonkeyPatch.context() as mp:
                _cap_chunk(mp, setup, slabs)
                mp.setattr(cutslab.assembly, "_slab_matrices", recording)
                factors = _count_factors(mp)
                sol = march(setup.problem, setup.overlap, setup.disc)
            # a repeated slab gets no matrix, also as a chunk's first slab
            assert made == new
            assert len(factors) == len(new)
            for x, slab in zip(ref, sol.slabs):
                if slabs == 1:
                    assert np.array_equal(slab.coeffs, x)
                else:
                    # chunks pad the covered-cell and load products
                    assert np.max(np.abs(slab.coeffs - x)) <= 1e-13 * np.max(np.abs(x))


class TestBands:
    """The bands the march builds straight from a chunk's triplets."""

    CONFIGS = [dict(mu=0.6), dict(mu=0.0, a0=0.3), dict(n0=16, nG=256, N=4, mu=0.6), "oscillating"]
    IDS = ["moving", "stationary", "wide", "oscillating"]

    @staticmethod
    def _spaces(q, config):
        """The setup of ``config`` and the records of all its slabs."""
        if config == "oscillating":
            setup = oscillating_setup(q)
        else:
            setup = make_setup(**{"n0": 16, "nG": 4, "N": 6, "q": q, **config})
        geoms = build_slab_geometry(setup, range(1, setup.disc.n_slabs + 1))
        return setup, build_slab_space(geoms, setup.disc)

    @staticmethod
    def _dense(band):
        """The matrix of a band."""
        n = band.ab.shape[1]
        A = np.zeros((n, n))
        i, j = np.indices((n, n))
        inside = (i - j <= band.kl) & (j - i <= band.ku)
        A[inside] = band.ab[band.kl + band.ku + (i - j)[inside], j[inside]]
        return A

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("config", CONFIGS, ids=IDS)
    def test_band_densifies_to_its_slab_matrix(self, q, config, monkeypatch):
        # in groups of slabs under the storage cap (one slab each for the
        # wide bands), against scipy's sum of the chunk's triplets
        from scipy.sparse import coo_array

        setup, spaces = self._spaces(q, config)
        systems = assemble_slab(spaces, setup, None)
        # a slab that repeats the one before gets no triplets of its own
        stationary = np.all(setup.partition.velocities == 0.0)
        assert systems.new.tolist() == [True] + [not stationary] * (len(spaces) - 1)
        assert len(systems.at) == 1 + systems.new.sum()
        kl, ku = cutslab.solver._half_bandwidths(systems.rows, systems.cols, systems.at)
        groups = list(cutslab.solver._groups(kl, ku, np.diff(systems.first)[systems.new]))
        wide = setup.disc.n_overlap == 256
        assert len(groups) == (len(spaces) if wide else 1)
        bands = _slab_bands(systems)
        assert [i for i, _ in bands] == list(range(len(spaces)))
        # nor a band: it reuses the factor of the slab it repeats
        assert all((band is None) == (stationary and i > 0) for i, band in bands)
        for i, band in bands[:1] if stationary else bands:
            rows, cols, vals = systems.triplets(i)
            n = systems.first[i + 1] - systems.first[i]
            ref = coo_array((vals, (rows, cols)), shape=(n, n)).toarray()
            A = self._dense(band)
            assert np.max(np.abs(A - ref)) <= 1e-14 * np.max(np.abs(ref))
            # nothing outside the band, and the fill rows stay zero
            assert not band.ab[: band.kl].any()

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("config", CONFIGS, ids=IDS)
    def test_dof_order_is_the_banded_order(self, q, config):
        # each slab's matrix as read, in its DOF order, has no entry outside
        # the half-bandwidths of the triplets its band is built from
        setup, spaces = self._spaces(q, config)
        for space in spaces:
            system = slab_system(space, setup)
            rows, cols, vals = system.triplets
            kl, ku = cutslab.solver._half_bandwidths(rows, cols, [0, len(vals)])
            A = system.matrix.tocoo()
            assert A.shape == (space.n_cols, space.n_cols)
            assert np.all(A.row - A.col <= kl[0]) and np.all(A.col - A.row <= ku[0])

    @pytest.mark.parametrize("q", [0, 1])
    def test_a_chunk_of_repeated_slabs_has_no_triplets(self, q):
        # slabs 2-6 of a stationary march repeat slab 1: given what slab 1's
        # chunk hands on, they are assembled as none, get no band, and still
        # read as full matrices; their jump maps are the slab-by-slab ones
        setup = make_setup(n0=16, nG=4, N=6, mu=0.0, a0=0.3, q=q)
        geoms = build_slab_geometry(setup, range(1, 7))
        spaces = build_slab_space(geoms, setup.disc)
        head = assemble_slab(spaces[:1], setup, None)
        one = head.system(0, None)
        prev = SlabSolution(spaces[0], solve_slab(one))
        matrix, cover = head.handoff
        assert all(np.array_equal(a, b) for a, b in zip(matrix, one.triplets))
        systems = assemble_slab(spaces[1:], setup, prev, head.handoff)
        assert not systems.new.any() and systems.at == [0]
        assert not len(systems.rows) and not len(systems.vals)
        assert all(systems.triplets(i) is matrix for i in range(5))
        # the slab after the chunk would repeat it, too: none here
        assert systems.handoff is None
        for i, space in enumerate(spaces[1:]):
            ref = slab_system(space, setup, prev).matrix  # nothing handed on: assembled
            assert _same_matrix(systems.system(i, prev).matrix, ref)
        for i in range(1, 5):
            pair = assemble_slab(spaces[i : i + 2], setup, prev)  # slabs i + 1, i + 2
            assert all(np.array_equal(a[i], b[1]) for a, b in zip(systems.jump, pair.jump))
        kl, ku = cutslab.solver._half_bandwidths(systems.rows, systems.cols, systems.at)
        assert kl.shape == ku.shape == (0,)
        bands = _slab_bands(systems)
        assert bands == [(i, None) for i in range(5)]
        A = one.matrix.toarray()
        blocks = systems.matrix.toarray()
        for i, f in enumerate(systems.first[:-1]):
            assert np.array_equal(blocks[f : f + len(A), f : f + len(A)], A)
        # without them, the first slab is assembled
        alone = assemble_slab(spaces[1:], setup, prev)
        assert alone.new.tolist() == [True, False, False, False, False]
        assert all(np.array_equal(a, b) for a, b in zip(alone.triplets(0), one.triplets))
        assert all(np.array_equal(a, b) for a, b in zip(alone.jump, systems.jump))

    def test_wide_bands_stay_under_the_memory_cap(self):
        # half-bandwidths 109-171 on 540 unknowns: one band takes 1.4-2.2 MB,
        # so the march holds one band at a time, and its factor only while a
        # later slab may reuse it
        import tracemalloc

        setup = make_setup(n0=16, nG=256, N=16, mu=0.6, q=1)
        march(setup.problem, setup.overlap, setup.disc)
        tracemalloc.start()
        try:
            march(setup.problem, setup.overlap, setup.disc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6


class TestReferenceSolver:
    """The banded solve against SuperLU, the tests' reference solver, on
    slabs whose bands are unusual: wide ones where many interface-node
    crossings or mesh-size ratios couple distant DOFs, and narrow ones."""

    @pytest.mark.parametrize(
        "config",
        [
            dict(n0=32, nG=8, N=8, mu=-0.5, a0=0.55, q=1),
            dict(n0=16, nG=1, N=8, mu=0.6, q=1),
            dict(n0=16, nG=256, N=4, mu=0.6, q=1),
            dict(n0=1024, nG=16, N=4, mu=0.6, q=1),
            dict(n0=512, nG=128, N=2, mu=0.6, q=1),
            "oscillating",
        ],
        ids=["mu_negative", "nG1", "fine_overlap", "coarse_overlap", "many_crossings", "oscillating"],
    )
    def test_matches_splu(self, config, monkeypatch):
        setup = oscillating_setup(0) if config == "oscillating" else make_setup(**config)
        systems = _record_solves(monkeypatch)
        sol = march(setup.problem, setup.overlap, setup.disc)
        assert len(systems) == setup.disc.n_slabs
        for system, slab in zip(systems, sol.slabs):
            ref = splu(system.matrix).solve(system.rhs)
            assert np.max(np.abs(slab.coeffs - ref)) <= 1e-9 * np.max(np.abs(ref))


def _fresh_process(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports cutslab from
    this checkout's sources."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cutslab.solver.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_loads_no_scipy_linalg_sparse_or_process_pool():
    # LAPACK comes from the extension alone (banded_lapack), SuperLU is the
    # tests' reference solver only, a CSC matrix is built only when asked
    # for, only a parallel convergence study needs a process pool, and the
    # 5-point Gauss rule of the slab velocities is written in closed form
    modules = ("scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "numpy.polynomial")
    code = (
        f"import sys, cutslab; print([m for m in {modules} if m in sys.modules]); "
        "import cutslab.cli; print('concurrent.futures.process' in sys.modules)"
    )
    assert _fresh_process(code).splitlines() == ["[]", "False"]


class TestBandedLapack:
    """The routines ``banded_lapack`` loads are scipy.linalg.lapack's."""

    NAMES = ("dgbcon", "dgbtrf", "dgbtrs", "dlangb")

    def test_a_later_scipy_linalg_import_reuses_the_loaded_routines(self):
        code = (
            "import sys, cutslab.solver as s; assert 'scipy.linalg' not in sys.modules; "
            "import scipy.linalg.lapack as L; "
            f"print(all(getattr(L, n) is getattr(s, n) for n in {self.NAMES}))"
        )
        assert _fresh_process(code) == "True"

    @pytest.mark.parametrize("kl,ku", [(3, 4), (4, 3), (7, 7), (15, 17), (17, 15), (60, 45)])
    def test_same_results_as_scipy_linalg_lapack(self, kl, ku):
        from scipy.linalg import lapack

        rng = np.random.default_rng(kl * 100 + ku)
        n = 3 * (kl + ku) + 5
        ab = np.zeros((2 * kl + ku + 1, n), order="F")
        ab[kl:] = rng.standard_normal((kl + ku + 1, n))
        ab[kl + ku] += 4.0  # the diagonal
        b = rng.standard_normal(n)
        results = []
        for lib in (cutslab.solver, lapack):
            norms = [lib.dlangb(norm, kl, kl + ku, ab) for norm in ("I", "1")]
            lu, ipiv, info = lib.dgbtrf(ab.copy(order="F"), kl, ku)
            x, info_s = lib.dgbtrs(lu, kl, ku, b, ipiv)
            rcond, info_c = lib.dgbcon(kl, ku, lu, ipiv, norms[1])
            results.append((*norms, lu, ipiv, info, x, info_s, rcond, info_c))
        assert results[0][4] == 0
        for mine, theirs in zip(*results):
            assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("stand_in", [None, "dgbtrf = dgbtrs = None\n"])
    def test_falls_back_to_scipy_linalg_lapack(self, stand_in, tmp_path, monkeypatch):
        # a scipy directory whose linalg holds no _flapack, or one that
        # lacks routines: the routines come from scipy.linalg.lapack, and the
        # stand-in is not registered
        import sys

        from scipy.linalg import lapack

        (tmp_path / "linalg").mkdir()
        if stand_in is not None:
            (tmp_path / "linalg" / "_flapack.py").write_text(stand_in)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        routines = cutslab.solver.banded_lapack(str(tmp_path))
        assert all(r is getattr(lapack, n) for r, n in zip(routines, self.NAMES))
        assert "scipy.linalg._flapack" not in sys.modules


class TestConstantCallables:
    """A data callable may return a constant as a scalar: the march and the
    norm broadcast it to the points they asked for."""

    @staticmethod
    def _solve(field, func):
        import dataclasses

        problem = manufactured_problem(final_time=0.5)
        if field in ("source", "initial"):
            problem = dataclasses.replace(problem, **{field: func})
        exact = problem.exact
        if field in ("u", "u_x", "u_t"):
            exact = dataclasses.replace(exact, **{field: func})
        sol = march(problem, OverlapSpec(0.25, 0.125, 0.6), Discretization(16, 4, 4, q=1))
        return sol, xnorm_error(sol, exact)

    @pytest.mark.parametrize("field", ["source", "initial", "u", "u_x", "u_t"])
    def test_constant_matches_its_full_array(self, field):
        if field == "initial":
            scalar, full = (lambda x: 0.5), (lambda x: np.full_like(x, 0.5))
        else:
            scalar, full = (lambda x, t: 0.5), (lambda x, t: np.full_like(x, 0.5))
        sol, norm = self._solve(field, scalar)
        ref_sol, ref_norm = self._solve(field, full)
        for a, b in zip(sol.slabs, ref_sol.slabs):
            assert np.array_equal(a.coeffs, b.coeffs)
        assert norm == ref_norm

    @pytest.mark.parametrize("field", ["source", "initial", "u", "u_x", "u_t"])
    def test_wrong_shape_raises(self, field):
        if field == "initial":
            func = lambda x: np.ones(3)
        else:
            func = lambda x, t: np.ones(np.shape(x) + (1,))
        with pytest.raises(ValueError, match="returned shape"):
            self._solve(field, func)
