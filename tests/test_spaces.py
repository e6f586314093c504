import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutslab.geometry import build_slab_geometry
from cutslab.spaces import (
    SlabSolution,
    SlabSpaces,
    _search_rows,
    build_slab_space,
    temporal_basis_derivs,
    temporal_basis_values,
)

from conftest import make_setup, nodal_interpolant, random_discrete, scaled
from oracles import interface_gradient, interfaces, trace


class TestTemporalBasis:
    def test_constant_mode(self):
        assert temporal_basis_values(0, 0.0, 0.5, 0.3) == pytest.approx([1.0])
        assert temporal_basis_derivs(0, 0.0, 0.5) == pytest.approx([0.0])

    def test_linear_nodal(self):
        vals = temporal_basis_values(1, 0.2, 0.7, 0.2)
        assert vals == pytest.approx([1.0, 0.0])
        vals = temporal_basis_values(1, 0.2, 0.7, 0.7)
        assert vals == pytest.approx([0.0, 1.0])
        assert temporal_basis_derivs(1, 0.2, 0.7) == pytest.approx([-2.0, 2.0])

    def test_linear_partition_of_unity(self):
        for t in np.linspace(0.2, 0.7, 7):
            assert np.sum(temporal_basis_values(1, 0.2, 0.7, t)) == pytest.approx(1.0)


class TestDofCounts:
    def test_aligned_exclusion(self):
        # overlap [0.15, 0.35] covers cells 3..6 of a 20-cell mesh, so the
        # three interior nodes 4, 5, 6 lose both support cells
        setup = make_setup(n0=20, nG=4, N=1, mu=0.0, a0=0.15, length=0.2)
        space = build_slab_space(build_slab_geometry(setup, 1), setup.disc)
        assert space.n_active_bg == 19 - 3
        assert set(np.setdiff1d(np.arange(1, 20), space.active_bg)) == {4, 5, 6}
        assert space.n_ov == 5
        assert space.n_cols == 21

    def test_q1_doubles_columns(self):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6)
        geom = build_slab_geometry(setup, 1)
        s0 = build_slab_space(geom, setup.disc)
        s1 = build_slab_space(geom, dataclasses.replace(setup.disc, q=1))
        assert s1.n_cols == 2 * s0.n_cols

    def test_cut_cells_keep_their_nodes(self):
        # moving overlap: any node touching a cut cell stays active
        setup = make_setup(n0=16, nG=4, N=2, mu=0.6, a0=0.13)
        geom = build_slab_geometry(setup, 1)
        space = build_slab_space(geom, setup.disc)
        for c in geom.cut_cells:
            for node in (c, c + 1):
                if 0 < node < 16:
                    assert space.node_dof[node] >= 0

    def test_dof_map_consistency(self):
        setup = make_setup(n0=12, nG=3, N=3, mu=0.35, a0=0.2, q=1)
        geom = build_slab_geometry(setup, 2)
        space = build_slab_space(geom, setup.disc)
        for i, node in enumerate(space.active_bg):
            assert space.node_dof[node] == i
        assert space.node_dof[len(geom.bg_nodes)] == space.n_active_bg
        assert np.array_equal(space.node_dof[space.dof_node], np.arange(space.n_spatial))


class TestChunkOfRecords:
    def test_chunk_gives_each_slab_record(self):
        # the records of a chunk of slabs, built at once, are those built
        # one slab at a time
        setup = make_setup(n0=16, nG=4, N=6, mu=0.6, a0=0.125, q=1)
        spaces = build_slab_space(build_slab_geometry(setup, range(1, 7)), setup.disc)
        assert isinstance(spaces, SlabSpaces)
        assert spaces.n_cols == sum(sp.n_cols for sp in spaces)
        for sp in spaces:
            one = build_slab_space(build_slab_geometry(setup, sp.geom.n), setup.disc)
            for name in ("active_bg", "node_dof", "times", "weights", "lam"):
                assert np.array_equal(getattr(sp, name), getattr(one, name))
            for a, b in zip(sp.stencil, one.stencil):
                assert np.array_equal(a, b)
            assert (sp.stab is None) == (one.stab is None)
            if sp.stab is not None:
                for a, b in zip(sp.stab, one.stab):
                    assert np.array_equal(a, b)

    def test_row_search_matches_searchsorted_at_ties(self):
        # a search of v - a in off must count the nodes a + off at or below
        # v exactly as a search in a + off does, also where v sits on a node
        # or one rounding step beside it
        rng = np.random.default_rng(7)
        off = np.linspace(0.0, 0.25, 17)
        a = np.repeat(rng.uniform(0.05, 0.7, 40), 3 * len(off))
        y = a + np.tile(off, 3 * 40)
        third = len(y) // 3
        v = np.concatenate(
            [y[:third], np.nextafter(y, -1.0)[third : 2 * third], np.nextafter(y, 2.0)[2 * third :]]
        )
        v += np.where(rng.random(len(v)) < 0.2, rng.normal(0.0, 0.05, len(v)), 0.0)
        for side in ("left", "right"):
            got = _search_rows(a, off, v, side)
            want = [np.searchsorted(ai + off, vi, side=side) for ai, vi in zip(a, v)]
            assert np.array_equal(got, want)


def _basis_function(space, spatial_dof, mode):
    """One tensor basis function as a slab solution (temporal mode fastest)."""
    coeffs = np.zeros(space.n_cols)
    coeffs[spatial_dof * (space.q + 1) + mode] = 1.0
    return SlabSolution(space, coeffs)


class TestEvalBasis:
    def test_background_value_and_slope(self):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.15)
        geom = build_slab_geometry(setup, 1)
        space = build_slab_space(geom, setup.disc)
        # first active node is node 1 at x=0.125
        phi = _basis_function(space, 0, 0)
        assert phi.eval(0.125, 0.5)[0] == pytest.approx(1.0)
        assert phi.eval(0.125, 0.5, deriv="dt")[0] == 0.0
        assert phi.eval(0.125, 0.5, deriv="Dt")[0] == 0.0
        assert phi.eval(0.0625, 0.5)[0] == pytest.approx(0.5)
        assert phi.eval(0.0625, 0.5, deriv="dx")[0] == pytest.approx(8.0)

    def test_overlap_peak_moves(self):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.6, a0=0.125, q=0)
        geom = build_slab_geometry(setup, 1)
        space = build_slab_space(geom, setup.disc)
        g = 1  # middle overlap node, offset 0.125
        phi = _basis_function(space, space.n_active_bg + g, 0)
        for t in (0.0, 0.4, 1.0):
            peak = geom.left(t) + 0.125
            assert phi.eval(peak, t, side=2)[0] == pytest.approx(1.0)

    def test_overlap_material_derivative(self):
        # riding along the trajectory, only the temporal mode varies
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, a0=0.125, q=1)
        geom = build_slab_geometry(setup, 1)
        space = build_slab_space(geom, setup.disc)
        dof = space.n_active_bg + 1
        t = 0.2
        x = geom.left(t) + 0.07
        for mode in (0, 1):
            phi = _basis_function(space, dof, mode)
            v, dx, dt, dtraj = (
                phi.eval(x, t, side=2, deriv=d)[0] for d in ("value", "dx", "dt", "Dt")
            )
            dlam = temporal_basis_derivs(1, geom.t_start, geom.t_end)[mode]
            lam = temporal_basis_values(1, geom.t_start, geom.t_end, t)[mode]
            assert dtraj == pytest.approx(v / lam * dlam)
            assert dt == pytest.approx(dtraj - geom.mu * dx)

    def test_out_of_slab_raises(self):
        setup = make_setup(N=2)
        geom = build_slab_geometry(setup, 1)
        space = build_slab_space(geom, setup.disc)
        with pytest.raises(ValueError):
            _basis_function(space, 0, 0).eval(0.3, 0.9)


class TestSlabSolution:
    def test_affine_reproduction(self):
        rng = np.random.default_rng(11)
        for mu, q in [(0.0, 0), (0.6, 1), (-0.25, 1)]:
            a0 = 0.55 if mu < 0 else 0.125
            setup = make_setup(n0=8, nG=2, N=2, mu=mu, a0=a0, q=q)
            f = lambda x: 0.7 + 1.3 * x
            sol = nodal_interpolant(setup, f)
            # boundary nodes carry no DOFs, so stay off the two boundary cells
            for _ in range(100):
                t = rng.uniform(0, 1)
                slab = sol.slabs[sol.slab_index(t) - 1]
                x = rng.uniform(0.125, 0.875)
                assert slab.eval(x, t)[0] == pytest.approx(f(x), abs=1e-12)
                assert slab.eval(x, t, deriv="dx")[0] == pytest.approx(1.3, abs=1e-10)
                # both representations agree at the interfaces: zero jump
                # (skip interfaces inside a boundary cell, where the missing
                # boundary DOF makes the nonzero affine unrepresentable)
                for lab, s, n1 in interfaces(slab.geom, t):
                    if not 0.125 <= s <= 0.875:
                        continue
                    v1 = slab.eval(s, t, side=1)[0]
                    v2 = slab.eval(s, t, side=2)[0]
                    assert v1 - v2 == pytest.approx(0.0, abs=1e-12)

    def test_q1_traces_are_nodal(self, rng):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, q=1)
        sol = random_discrete(setup, rng)
        slab = sol.slabs[0]
        geom = slab.geom
        x = np.array([0.05, 0.5, 0.93])
        # at the slab start only mode 0 contributes
        start = slab.eval(x, geom.t_start)
        only0 = SlabSolution(slab.space, _mask_mode(slab, keep=0))
        assert np.allclose(start, only0.eval(x, geom.t_start))
        end = slab.eval(x, geom.t_end)
        only1 = SlabSolution(slab.space, _mask_mode(slab, keep=1))
        assert np.allclose(end, only1.eval(x, geom.t_end))

    def test_forced_side_outside_interval_raises(self, rng):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.3)
        sol = random_discrete(setup, rng)
        with pytest.raises(ValueError):
            sol.slabs[0].eval(0.05, 0.5, side=2)

    def test_interface_gradient_matches_one_sided_eval(self, rng):
        # away from nodes the explicit interface gradient equals eval dx
        setup = make_setup(n0=8, nG=2, N=1, mu=0.6, a0=0.13, q=1)
        sol = random_discrete(setup, rng)
        slab = sol.slabs[0]
        t = 0.37
        for lab, s, n1 in interfaces(slab.geom, t):
            g1 = interface_gradient(slab, lab, t, 1)
            g2 = interface_gradient(slab, lab, t, 2)
            assert g1 == pytest.approx(slab.eval(s, t, side=1, deriv="dx")[0])
            assert g2 == pytest.approx(slab.eval(s, t, side=2, deriv="dx")[0])

    def test_interface_gradient_on_node_uses_correct_cell(self):
        # stationary aligned overlap: interfaces sit exactly on nodes, and the
        # side-1 gradient at the left interface must come from the left cell
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.25, q=0)
        geom = build_slab_geometry(setup, 1)
        space = build_slab_space(geom, setup.disc)
        f = lambda x: np.minimum(x, 0.25)  # kink exactly at the interface
        coeffs = np.concatenate([f(setup.bg_nodes[space.active_bg]), f(geom.ov_positions(0.0))])
        slab = SlabSolution(space, coeffs)
        assert interface_gradient(slab, "left", 0.5, 1) == pytest.approx(1.0)
        assert interface_gradient(slab, "left", 0.5, 2) == pytest.approx(0.0)

    def test_partition_of_unity(self, rng):
        # all-ones coefficients represent 1 wherever evaluation is admissible
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, q=1)
        for n in (1, 2):
            geom = build_slab_geometry(setup, n)
            space = build_slab_space(geom, setup.disc)
            slab = SlabSolution(space, np.ones(space.n_cols))
            for _ in range(20):
                t = rng.uniform(geom.t_start, geom.t_end)
                a = geom.left(t)
                b = a + geom.overlap_length
                x2 = rng.uniform(a, b)
                assert slab.eval(x2, t, side=2)[0] == pytest.approx(1.0)
                x1 = rng.uniform(0.125, 0.875)
                if not (a - 0.13 < x1 < b + 0.13):
                    assert slab.eval(x1, t, side=1)[0] == pytest.approx(1.0)


def _mask_mode(slab, keep):
    by = slab.by_mode.copy()
    by[:, 1 - keep] = 0.0
    return by.ravel()


class TestSpaceTimeSolution:
    def test_slab_index_right_closed(self):
        setup = make_setup(N=4, mu=0.0)
        sol = nodal_interpolant(setup, lambda x: x)
        assert sol.slab_index(0.0) == 1
        assert sol.slab_index(0.25) == 1
        assert sol.slab_index(0.2500001) == 2
        assert sol.slab_index(1.0) == 4

    def test_trace_signs(self):
        setup = make_setup(N=2, mu=0.0)
        sol = nodal_interpolant(setup, lambda x: np.sin(np.pi * x))
        up = trace(sol, 1, "+")
        dn = trace(sol, 1, "-")
        x = np.linspace(0.05, 0.95, 7)
        # a time-constant interpolant has no jump between slabs
        assert np.allclose(up(x), dn(x), atol=1e-12)
        with pytest.raises(ValueError):
            trace(sol, 0, "-")
        with pytest.raises(ValueError):
            trace(sol, 2, "+")

    def test_scaled(self, rng):
        setup = make_setup(N=2, mu=0.6)
        sol = random_discrete(setup, rng)
        doubled = scaled(sol, 2.0)
        assert np.allclose(doubled.eval(0.4, 0.7), 2 * sol.eval(0.4, 0.7))


@given(t=st.floats(0.0, 1.0), x=st.floats(0.125, 0.875))
@settings(max_examples=60, deadline=None)
def test_affine_reproduction_property(t, x):
    setup = make_setup(n0=8, nG=2, N=2, mu=0.6, q=1)
    sol = nodal_interpolant(setup, lambda y: 2.0 - 0.5 * y)
    assert sol.eval(x, t)[0] == pytest.approx(2.0 - 0.5 * x, abs=1e-11)
