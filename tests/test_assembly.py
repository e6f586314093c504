import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutslab.assembly import _trace_load, assemble_slab
from cutslab.core import (
    Discretization,
    OverlapSpec,
    Setup,
    zero_problem,
)
from cutslab.geometry import DEGENERATE_FRACTION, build_slab_geometry
from cutslab.solver import march
from cutslab.spaces import SlabSolution, build_slab_space

from conftest import make_setup, random_discrete
from oracles import (
    apply_Bh,
    apply_load,
    asm_bilinear,
    assemble_Aht,
    exact_trace_load,
    jump_load,
    mass_matrix,
    oracle_bilinear,
    upwind_matrix,
)


def _space(setup, n=1):
    return build_slab_space(build_slab_geometry(setup, n), setup.disc)


class TestPointwiseMatrices:
    def test_aht_symmetric(self):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6)
        space = _space(setup)
        for t in (0.0, 0.21, 0.5):
            A = assemble_Aht(space, t, gamma=10.0, omega1=0.5)
            assert np.max(np.abs(A - A.T)) < 1e-13

    def test_aht_without_cut_cells(self):
        # an aligned stationary overlap cuts no cell: no stabilized segment
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.25)
        space = _space(setup)
        A = assemble_Aht(space, 0.5, gamma=10.0, omega1=0.5)
        assert np.max(np.abs(A - A.T)) < 1e-13
        assert np.linalg.eigvalsh(A).min() > -1e-12

    def test_aht_positive_semidefinite_with_penalty(self):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, gamma=10.0)
        space = _space(setup)
        A = assemble_Aht(space, 0.3, gamma=10.0, omega1=0.5)
        eigs = np.linalg.eigvalsh(A)
        assert eigs.min() > -1e-12

    def test_aht_indefinite_without_penalty(self):
        # the unpenalized symmetric form is not coercive on the broken space
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6)
        space = _space(setup)
        A = assemble_Aht(space, 0.3, gamma=0.0, omega1=0.5)
        assert np.linalg.eigvalsh(A).min() < -1e-6

    def test_mass_symmetric_positive(self):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6)
        space = _space(setup)
        M = mass_matrix(space, 0.37)
        assert np.max(np.abs(M - M.T)) < 1e-14
        assert np.linalg.eigvalsh(M).min() > 0.0

    def test_upwind_zero_when_stationary(self):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.2)
        space = _space(setup)
        assert not np.any(upwind_matrix(space, 0.5))

    def test_upwind_nonzero_when_moving(self):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6)
        space = _space(setup)
        assert np.max(np.abs(upwind_matrix(space, 0.3))) > 0.01


class TestAssembledSystem:
    def test_zero_data_zero_rhs(self):
        problem = zero_problem()
        overlap = OverlapSpec(length=0.25, initial_left=0.125, velocity=0.6)
        disc = Discretization(n_background=8, n_overlap=2, n_slabs=2, q=1)
        setup = Setup.build(problem, overlap, disc)
        space = _space(setup)
        system = assemble_slab(space, setup, None)
        assert not np.any(system.rhs)
        assert system.matrix.shape == (space.n_cols, space.n_cols)

    def test_matrix_independent_of_data(self, rng):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, q=1)
        space1, space = _space(setup, 1), _space(setup, 2)
        zero = SlabSolution(space1, np.zeros(space1.n_cols))
        prev = SlabSolution(space1, rng.standard_normal(space1.n_cols))
        s1 = assemble_slab(space, setup, zero)
        s2 = assemble_slab(space, setup, prev)
        assert np.array_equal(s1.matrix.toarray(), s2.matrix.toarray())
        assert np.any(s1.rhs != s2.rhs)

    @pytest.mark.parametrize("q", [0, 1])
    def test_chunk_system_is_block_diagonal_of_slab_systems(self, q, rng):
        # the system of a chunk of slabs holds each slab's matrix on its
        # diagonal and nothing else; each slab's system, with the previous
        # slab's solution in its load, is the one assembled for that slab
        # alone (to rounding: the chunk pads its covered-cell products)
        setup = make_setup(n0=16, nG=4, N=5, mu=0.6, a0=0.125, q=q)
        spaces = build_slab_space(build_slab_geometry(setup, range(1, 6)), setup.disc)
        systems = assemble_slab(spaces, setup, None)
        blocks = np.zeros(systems.matrix.shape)
        prev = None
        for i, space in enumerate(spaces):
            system = systems.system(i, prev)
            alone = assemble_slab(space, setup, prev)
            k, f = space.n_cols, systems.first[i]
            A = system.matrix.toarray()
            assert np.array_equal(A, systems.matrix[f : f + k, f : f + k].toarray())
            blocks[f : f + k, f : f + k] = A
            assert np.max(np.abs(A - alone.matrix.toarray())) <= 1e-14 * np.max(np.abs(A))
            assert np.max(np.abs(system.rhs - alone.rhs)) <= 1e-14 * np.max(np.abs(alone.rhs))
            prev = SlabSolution(space, rng.standard_normal(k))
        assert np.array_equal(blocks, systems.matrix.toarray())


class TestTimeJumpLoad:
    """The time-jump load is the side-wise start mass applied to the previous
    slab's end-time nodal values; it must equal the quadrature of that trace
    against the test functions on the slab's start partition."""

    @given(
        q=st.sampled_from([0, 1]),
        mu=st.sampled_from([0.6, -0.4, 0.0]),
        shift=st.sampled_from([0.0, 1e-13, -1e-13, 1.0 / 32]),
        nG=st.sampled_from([1, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_start_mass_load_matches_trace_quadrature(self, q, mu, shift, nG):
        # 0.125 is a node of the 16-cell mesh; shift places the left interface
        # on it, 1e-13 to either side, or mid-cell
        setup = make_setup(n0=16, nG=nG, N=3, q=q, mu=mu, a0=0.125 + shift, T=0.25)
        sol = march(setup.problem, setup.overlap, setup.disc)
        for n in (2, 3):
            space = _space(setup, n)
            geom = space.geom
            prev = sol.slabs[n - 2]
            t_end = prev.geom.t_end
            got = jump_load(space, setup, prev)
            ref = _trace_load(geom, geom.t_start, lambda x: prev.eval(x, t_end))
            ref = ref[space.dof_node]
            scale = np.max(np.abs(ref))
            # the merged partition folds a sliver narrower than its tolerance
            # into the neighbouring segment, on that segment's side, so the
            # quadrature may misplace up to that width of the trace
            sliver = DEGENERATE_FRACTION * setup.problem.length
            slack = 2.0 * sliver * np.max(np.abs(prev.nodal()))
            assert np.max(np.abs(got - ref)) <= 1e-13 * scale + slack
            # against segments that keep such slivers the pairing is exact
            exact = exact_trace_load(
                space, geom.t_start, lambda x, s: prev.eval(x, t_end, side=s)
            )
            assert np.max(np.abs(got - exact)) <= 1e-13 * scale

    def test_rhs_carries_the_jump_load(self, rng):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, q=1)
        space1, space = _space(setup, 1), _space(setup, 2)
        zero = SlabSolution(space1, np.zeros(space1.n_cols))
        prev = SlabSolution(space1, rng.standard_normal(space1.n_cols))
        diff = assemble_slab(space, setup, prev).rhs - assemble_slab(space, setup, zero).rhs
        # the jump load tests the start-time mode only (q = 1 modes are nodal)
        expect = np.outer(jump_load(space, setup, prev), [1.0, 0.0]).ravel()
        assert np.max(np.abs(diff - expect)) <= 1e-14 * np.max(np.abs(expect))


class TestOracleAgreement:
    # the assembled global form must match a from-scratch integrator built on
    # independently detected panels and 10-point Gauss rules
    # omega1 weights the average flux of the interface stencil, which the
    # oracle integrates on its own
    @pytest.mark.parametrize("omega1", [0.5, 0.2, 1.0])
    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu", [0.0, 0.6])
    def test_matrix_matches_oracle(self, q, mu, omega1, rng):
        setup = make_setup(n0=6, nG=2, N=2, mu=mu, a0=0.1, q=q, omega1=omega1)
        w = random_discrete(setup, rng)
        v = random_discrete(setup, rng)
        ref = oracle_bilinear(w, v)
        got = asm_bilinear(w, v)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_oracle_matches_direct_application(self, rng):
        setup = make_setup(n0=6, nG=2, N=2, mu=0.6, a0=0.1, q=1)
        w = random_discrete(setup, rng)
        v = random_discrete(setup, rng)
        ref = oracle_bilinear(w, v)
        assert apply_Bh(w, v) == pytest.approx(ref, rel=1e-10, abs=1e-10)


class TestFormEquivalence:
    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu,a0", [(0.6, 0.125), (0.0, 0.2), (-0.3, 0.55)])
    def test_rearranged_form_agrees(self, q, mu, a0, rng):
        setup = make_setup(n0=8, nG=2, N=3, mu=mu, a0=a0, q=q)
        w = random_discrete(setup, rng)
        v = random_discrete(setup, rng)
        std = apply_Bh(w, v, form="standard")
        alt = apply_Bh(w, v, form="alternative")
        scale = max(abs(std), 1.0)
        assert abs(std - alt) <= 1e-11 * scale

    def test_moving_jump_term_closes_the_identity(self, rng):
        # dropping the moving-interface jump term breaks the equivalence of the
        # two writings exactly when the overlap moves
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, q=0)
        w = random_discrete(setup, rng)
        v = random_discrete(setup, rng)
        std = apply_Bh(w, v, form="standard", include_upwind=False)
        alt = apply_Bh(w, v, form="alternative", include_upwind=False)
        assert abs(std - alt) > 1e-6


class TestGalerkinIdentity:
    @pytest.mark.parametrize("q", [0, 1])
    def test_discrete_solution_annihilates_residual(self, q, rng):
        setup = make_setup(n0=8, nG=2, N=3, mu=0.6, q=q)
        u_h = march(setup.problem, setup.overlap, setup.disc)
        v = random_discrete(setup, rng)
        lhs = apply_Bh(u_h, v)
        rhs = apply_load(v)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


class TestStationaryAlignedEquivalence:
    """With a stationary overlap aligned to background nodes and matching mesh
    size, continuous functions live in both discretizations simultaneously."""

    def _aligned_setup(self, q):
        # h = 1/8 on both meshes, overlap [0.25, 0.5] aligned with nodes
        return make_setup(n0=8, nG=2, N=2, mu=0.0, a0=0.25, length=0.25, q=q)

    def _continuous_pair(self, setup, vals_by_slab):
        """Build a discrete function from interior background nodal values,
        copying matching values onto the overlap nodes."""
        from cutslab.spaces import SlabSolution, SpaceTimeSolution

        slabs = []
        for n in range(1, setup.disc.n_slabs + 1):
            geom = build_slab_geometry(setup, n)
            space = build_slab_space(geom, setup.disc)
            full = vals_by_slab[n - 1]  # (n_nodes, q+1) nodal values
            ov_idx = np.searchsorted(setup.bg_nodes, geom.ov_positions(0.0))
            coeffs = np.concatenate([full[space.active_bg], full[ov_idx]], axis=0)
            slabs.append(SlabSolution(space, coeffs.ravel()))
        return SpaceTimeSolution(setup=setup, slabs=tuple(slabs))

    def _single_mesh_form(self, setup, w_vals, v_vals):
        """Unfitted-free reference: standard dG(q)-in-time, P1-in-space form on
        the plain background mesh, from textbook element matrices."""
        h = 1.0 / setup.disc.n_background
        n = setup.disc.n_background
        q = setup.disc.q
        M = h / 6.0 * (4.0 * np.eye(n - 1) + np.eye(n - 1, k=1) + np.eye(n - 1, k=-1))
        K = (2.0 * np.eye(n - 1) - np.eye(n - 1, k=1) - np.eye(n - 1, k=-1)) / h
        bp = setup.partition.breakpoints
        total = 0.0
        prev_end = None
        for m in range(setup.disc.n_slabs):
            k = bp[m + 1] - bp[m]
            W = w_vals[m][1:-1]  # interior nodes, shape (n-1, q+1)
            V = v_vals[m][1:-1]
            if q == 0:
                T1 = np.array([[k]])
                T2 = np.array([[0.0]])
                lam0 = np.array([1.0])
            else:
                T1 = k * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
                T2 = np.array([[-0.5, -0.5], [0.5, 0.5]])  # T2[i][j] = int li' lj
                lam0 = np.array([1.0, 0.0])
            for i in range(q + 1):
                for j in range(q + 1):
                    total += T2[i, j] * float(V[:, j] @ M @ W[:, i])
                    total += T1[i, j] * float(V[:, j] @ K @ W[:, i])
            wp = W @ lam0
            vp = V @ lam0
            total += float(vp @ M @ wp)
            if prev_end is not None:
                total -= float(vp @ M @ prev_end)
            lam_end = np.array([1.0]) if q == 0 else np.array([0.0, 1.0])
            prev_end = W @ lam_end
        return total

    @pytest.mark.parametrize("q", [0, 1])
    def test_operator_agrees_on_continuous_functions(self, q, rng):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.0, a0=0.25, length=0.25, q=q)
        n_nodes = 9
        w_vals, v_vals = [], []
        for _ in range(setup.disc.n_slabs):
            wv = rng.standard_normal((n_nodes, q + 1))
            vv = rng.standard_normal((n_nodes, q + 1))
            wv[0] = wv[-1] = 0.0
            vv[0] = vv[-1] = 0.0
            w_vals.append(wv)
            v_vals.append(vv)
        w = self._continuous_pair(setup, w_vals)
        v = self._continuous_pair(setup, v_vals)
        ref = self._single_mesh_form(setup, w_vals, v_vals)
        got = asm_bilinear(w, v)
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("q", [0, 1])
    def test_solution_close_to_single_mesh(self, q):
        # the cut solve is not identical to the plain solve (the interface
        # coupling can excite the redundant jump modes at mesh-size level),
        # but the two must stay within a mesh-dependent small distance
        setup = make_setup(n0=16, nG=4, N=4, mu=0.0, a0=0.25, length=0.25, q=q)
        u_h = march(setup.problem, setup.overlap, setup.disc)

        # plain single-mesh solve with the same temporal scheme
        n = setup.disc.n_background
        h = 1.0 / setup.disc.n_background
        M = h / 6.0 * (4.0 * np.eye(n - 1) + np.eye(n - 1, k=1) + np.eye(n - 1, k=-1))
        K = (2.0 * np.eye(n - 1) - np.eye(n - 1, k=1) - np.eye(n - 1, k=-1)) / h
        xi = setup.bg_nodes[1:-1]
        bp = setup.partition.breakpoints
        u_prev = setup.problem.initial(xi)
        for m in range(setup.disc.n_slabs):
            t0, t1 = bp[m], bp[m + 1]
            k = t1 - t0
            if q == 0:
                A = k * K + M
                # midpoint rule in time, trapezoid (lumped h) in space
                b = k * h * setup.problem.source(xi, 0.5 * (t0 + t1)) + M @ u_prev
                u_prev = np.linalg.solve(A, b)
            else:
                T1 = k * np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
                T2 = np.array([[-0.5, -0.5], [0.5, 0.5]])
                A = np.zeros((2 * (n - 1), 2 * (n - 1)))
                for i in range(2):
                    for j in range(2):
                        A[j :: 2, i :: 2] += T2[i, j] * M + T1[i, j] * K
                A[0::2, 0::2] += M
                b = np.zeros(2 * (n - 1))
                for t, wt in (
                    (t0, k / 6),
                    (0.5 * (t0 + t1), 2 * k / 3),
                    (t1, k / 6),
                ):
                    lam = np.array([(t1 - t) / k, (t - t0) / k])
                    for i in range(2):
                        b[i::2] += wt * lam[i] * h * setup.problem.source(xi, t)
                b[0::2] += M @ u_prev
                sol = np.linalg.solve(A, b)
                u_prev = sol[1::2]
        cut_end = u_h.eval(xi, 1.0)
        assert np.max(np.abs(cut_end - u_prev)) < 1e-3
