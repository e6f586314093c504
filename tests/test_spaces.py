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
    interface_stencil,
    temporal_basis_derivs,
    temporal_modes,
)

from conftest import (
    make_setup, nodal_interpolant, oscillating_setup, random_discrete, scaled, slab_space
)
from oracles import evaluate, interface_gradient, interfaces, trace


class TestTemporalBasis:
    def test_constant_mode(self):
        assert temporal_modes(0, 0.6) == pytest.approx([1.0])
        assert temporal_basis_derivs(0, 0.5) == pytest.approx([0.0])

    def test_linear_nodal(self):
        # the modes take slab-relative time: 0 at the slab start, 1 at its end
        assert temporal_modes(1, 0.0) == pytest.approx([1.0, 0.0])
        assert temporal_modes(1, 1.0) == pytest.approx([0.0, 1.0])
        assert temporal_basis_derivs(1, 0.7 - 0.2) == pytest.approx([-2.0, 2.0])

    def test_linear_partition_of_unity(self):
        tau = np.linspace(0.0, 1.0, 7)
        assert temporal_modes(1, tau).shape == (7, 2)
        assert np.sum(temporal_modes(1, tau), axis=1) == pytest.approx(np.ones(7))


class TestDofCounts:
    def test_aligned_exclusion(self):
        # overlap [0.15, 0.35] covers cells 3..6 of a 20-cell mesh, so the
        # three interior nodes 4, 5, 6 lose both support cells
        setup = make_setup(n0=20, nG=4, N=1, mu=0.0, a0=0.15, length=0.2)
        space = slab_space(setup, 1)
        assert space.n_active_bg == 19 - 3
        assert set(np.setdiff1d(np.arange(1, 20), space.active_bg)) == {4, 5, 6}
        assert space.n_ov == 5
        assert space.n_cols == 21

    def test_q1_doubles_columns(self):
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6)
        s0 = slab_space(setup, 1)
        s1 = slab_space(setup, 1, dataclasses.replace(setup.disc, q=1))
        assert s1.n_cols == 2 * s0.n_cols

    def test_cut_cells_keep_their_nodes(self):
        # moving overlap: any node touching a cut cell stays active
        setup = make_setup(n0=16, nG=4, N=2, mu=0.6, a0=0.13)
        space = slab_space(setup, 1)
        geom = space.geom
        for c in geom.cut_cells:
            for node in (c, c + 1):
                if 0 < node < 16:
                    assert space.node_dof[node] >= 0

    def test_dof_map_consistency(self):
        # the spatial DOFs run by position: background nodes at their
        # coordinate, overlap nodes at the slab midpoint, ties by node
        setup = make_setup(n0=12, nG=3, N=3, mu=0.35, a0=0.2, q=1)
        space = slab_space(setup, 2)
        geom = space.geom
        nb = len(geom.bg_nodes)
        assert np.array_equal(space.node_dof[space.dof_node], np.arange(space.n_spatial))
        has_dof = np.flatnonzero(space.node_dof >= 0)
        assert np.array_equal(has_dof, np.concatenate([space.active_bg, nb + np.arange(space.n_ov)]))
        mid = 0.5 * (geom.t_start + geom.t_end)
        x = np.concatenate([geom.bg_nodes, geom.ov_positions(mid)])[space.dof_node]
        assert np.all(np.diff(x) >= 0.0)
        assert np.all(np.diff(space.dof_node)[np.diff(x) == 0.0] > 0)
        # not background nodes first: the overlap's DOFs sit among theirs
        assert space.node_dof[nb] < space.n_active_bg


class TestChunkOfRecords:
    def test_chunk_gives_each_slab_record(self):
        # the records of a chunk of slabs, built at once, are those built
        # one slab at a time
        setup = make_setup(n0=16, nG=4, N=6, mu=0.6, a0=0.125, q=1)
        spaces = build_slab_space(build_slab_geometry(setup, range(1, 7)), setup.disc)
        assert isinstance(spaces, SlabSpaces)
        assert spaces.n_cols == sum(sp.n_cols for sp in spaces)
        for sp in spaces:
            one = slab_space(setup, sp.geom.n)
            for name in ("active_bg", "node_dof", "times", "weights", "lam"):
                assert np.array_equal(getattr(sp, name), getattr(one, name))
            for a, b in zip(sp.stencil, one.stencil):
                assert np.array_equal(a, b)
            assert (sp.stab is None) == (one.stab is None)
            if sp.stab is not None:
                for a, b in zip(sp.stab, one.stab):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("config", ["moving", "oscillating"])
    def test_stencil_rows_follow_the_time_rows(self, q, config):
        # one stencil row per rule time, the left point then the right one,
        # and a slab's rows are its stencil at its own times
        if config == "moving":
            setup = make_setup(n0=16, nG=4, N=6, mu=0.6, a0=0.13, q=q)
        else:
            setup = oscillating_setup(q)
        geoms = build_slab_geometry(setup, range(1, setup.disc.n_slabs + 1))
        assert geoms.counts[:, 0].any()  # some slab has events
        spaces = build_slab_space(geoms, setup.disc)
        slab, times = spaces.slab_index("tau"), spaces.times
        a = geoms.left(slab, times)
        assert np.array_equal(spaces.stencil.x, np.stack([a, a + geoms.overlap_length], axis=1))
        for i, sp in enumerate(spaces):
            first = np.zeros(len(sp.times), dtype=int)
            alone = interface_stencil(geoms[i : i + 1], first, sp.times, setup.disc.omega1)
            for got, want in zip(sp.stencil, alone):
                assert np.array_equal(got, want)

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
        space = slab_space(setup, 1)
        geom = space.geom
        # first active node is node 1 at x=0.125
        phi = _basis_function(space, 0, 0)
        assert phi.eval(0.125, 0.5)[0] == pytest.approx(1.0)
        assert evaluate(phi, 0.125, 0.5, deriv="dt")[0] == 0.0
        assert evaluate(phi, 0.125, 0.5, deriv="Dt")[0] == 0.0
        assert phi.eval(0.0625, 0.5)[0] == pytest.approx(0.5)
        assert evaluate(phi, 0.0625, 0.5, deriv="dx")[0] == pytest.approx(8.0)

    def test_overlap_peak_moves(self):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.6, a0=0.125, q=0)
        space = slab_space(setup, 1)
        geom = space.geom
        g = 1  # middle overlap node, offset 0.125
        phi = _basis_function(space, space.node_dof[len(geom.bg_nodes) + g], 0)
        for t in (0.0, 0.4, 1.0):
            peak = geom.left(t) + 0.125
            assert evaluate(phi, peak, t, side=2)[0] == pytest.approx(1.0)

    def test_overlap_material_derivative(self):
        # riding along the trajectory, only the temporal mode varies
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, a0=0.125, q=1)
        space = slab_space(setup, 1)
        geom = space.geom
        dof = space.node_dof[len(geom.bg_nodes) + 1]
        t = 0.2
        x = geom.left(t) + 0.07
        for mode in (0, 1):
            phi = _basis_function(space, dof, mode)
            v, dx, dt, dtraj = (
                evaluate(phi, x, t, side=2, deriv=d)[0] for d in ("value", "dx", "dt", "Dt")
            )
            dlam = temporal_basis_derivs(1, geom.t_end - geom.t_start)[mode]
            lam = temporal_modes(1, (t - geom.t_start) / (geom.t_end - geom.t_start))[mode]
            assert dtraj == pytest.approx(v / lam * dlam)
            assert dt == pytest.approx(dtraj - geom.mu * dx)
            # the function is the one of overlap node 1: its mode value there
            assert evaluate(phi, geom.ov_positions(t)[1], t, side=2)[0] == pytest.approx(lam)

    def test_out_of_slab_raises(self):
        setup = make_setup(N=2)
        space = slab_space(setup, 1)
        geom = space.geom
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
                assert evaluate(slab, x, t, deriv="dx")[0] == pytest.approx(1.3, abs=1e-10)
                # both representations agree at the interfaces: zero jump
                # (skip interfaces inside a boundary cell, where the missing
                # boundary DOF makes the nonzero affine unrepresentable)
                for lab, s, n1 in interfaces(slab.geom, t):
                    if not 0.125 <= s <= 0.875:
                        continue
                    v1 = evaluate(slab, s, t, side=1)[0]
                    v2 = evaluate(slab, s, t, side=2)[0]
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

    @pytest.mark.parametrize("q", [0, 1])
    @pytest.mark.parametrize("mu, a0", [(0.6, 0.13), (0.0, 0.3)], ids=["moving", "stationary"])
    def test_eval_is_the_oracle_on_the_covering_side(self, rng, q, mu, a0):
        # the value-only eval, which the CLI's solution.csv reads, equals
        # the oracle's side-wise evaluator on the side covering each point:
        # at the nodes of both meshes, the interface points and mid-cell
        setup = make_setup(n0=16, nG=4, N=4, mu=mu, a0=a0, q=q)
        sol = random_discrete(setup, rng)
        for slab in sol.slabs:
            geom = slab.geom
            for t in np.linspace(geom.t_start, geom.t_end, 4):
                a = float(geom.left(t))
                b = a + geom.overlap_length
                nodes = np.sort(np.concatenate([geom.bg_nodes, geom.ov_positions(t), [a, b]]))
                x = np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])])
                got = slab.eval(x, t)
                assert np.array_equal(got, evaluate(slab, x, t))
                inside = (x > a) & (x < b)
                assert np.array_equal(got[inside], evaluate(slab, x[inside], t, side=2))
                assert np.array_equal(got[~inside], evaluate(slab, x[~inside], t, side=1))

    def test_forced_side_outside_interval_raises(self, rng):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.3)
        sol = random_discrete(setup, rng)
        with pytest.raises(ValueError):
            evaluate(sol.slabs[0], 0.05, 0.5, side=2)

    def test_interface_gradient_matches_one_sided_eval(self, rng):
        # away from nodes the explicit interface gradient equals eval dx
        setup = make_setup(n0=8, nG=2, N=1, mu=0.6, a0=0.13, q=1)
        sol = random_discrete(setup, rng)
        slab = sol.slabs[0]
        t = 0.37
        for lab, s, n1 in interfaces(slab.geom, t):
            g1 = interface_gradient(slab, lab, t, 1)
            g2 = interface_gradient(slab, lab, t, 2)
            assert g1 == pytest.approx(evaluate(slab, s, t, side=1, deriv="dx")[0])
            assert g2 == pytest.approx(evaluate(slab, s, t, side=2, deriv="dx")[0])

    def test_interface_gradient_on_node_uses_correct_cell(self):
        # stationary aligned overlap: interfaces sit exactly on nodes, and the
        # side-1 gradient at the left interface must come from the left cell;
        # side 2 has a slope of its own
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.25, q=0)
        space = slab_space(setup, 1)
        geom = space.geom
        f = lambda x: np.minimum(x, 0.25)  # kink exactly at the interface
        coeffs = np.concatenate([f(setup.bg_nodes), 2.0 * geom.ov_positions(0.0)])[space.dof_node]
        slab = SlabSolution(space, coeffs)
        assert interface_gradient(slab, "left", 0.5, 1) == pytest.approx(1.0)
        assert interface_gradient(slab, "left", 0.5, 2) == pytest.approx(2.0)

    def test_partition_of_unity(self, rng):
        # all-ones coefficients represent 1 wherever evaluation is admissible
        setup = make_setup(n0=8, nG=2, N=2, mu=0.6, q=1)
        for n in (1, 2):
            space = slab_space(setup, n)
            geom = space.geom
            slab = SlabSolution(space, np.ones(space.n_cols))
            for _ in range(20):
                t = rng.uniform(geom.t_start, geom.t_end)
                a = geom.left(t)
                b = a + geom.overlap_length
                x2 = rng.uniform(a, b)
                assert evaluate(slab, x2, t, side=2)[0] == pytest.approx(1.0)
                x1 = rng.uniform(0.125, 0.875)
                if not (a - 0.13 < x1 < b + 0.13):
                    assert evaluate(slab, x1, t, side=1)[0] == pytest.approx(1.0)


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
