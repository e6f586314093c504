import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutslab.core import GeometryViolation
from cutslab.geometry import SlabGeometries, build_slab_geometry, sigma_side, spatial_partition

from conftest import make_setup, slab_geometry
from oracles import overlap_segments


class TestBuildSlabGeometry:
    def test_no_events_short_sweep(self):
        # left interface 0.101 -> 0.131 and right 0.151 -> 0.181: neither
        # crosses a node of the 10-cell mesh during the first slab
        setup = make_setup(n0=10, nG=1, N=20, mu=0.6, a0=0.101, length=0.05)
        geom = slab_geometry(setup, 1)
        assert len(geom.events) == 0

    def test_event_at_node_crossing(self):
        # left interface 0.125 at speed 0.6 hits the node 0.2 after 0.125
        setup = make_setup(n0=10, nG=1, N=4, mu=0.6, a0=0.125, length=0.05, T=0.6)
        geom = slab_geometry(setup, 1)
        # slab length 0.15: left crossing at 0.125, right (0.175->0.265) at
        # (0.2-0.175)/0.6
        expected = sorted([0.125, (0.2 - 0.175) / 0.6])
        assert np.allclose(geom.events, expected, atol=1e-12)

    def test_stationary_no_events(self):
        setup = make_setup(mu=0.0, a0=0.11)
        for n in (1, 2, 3):
            assert len(slab_geometry(setup, n).events) == 0

    def test_events_are_node_hits(self):
        setup = make_setup(n0=16, nG=4, N=2, mu=0.55, a0=0.13)
        geom = slab_geometry(setup, 1)
        nodes = setup.bg_nodes
        for tau in geom.events:
            d = min(
                np.min(np.abs(nodes - geom.left(tau))),
                np.min(np.abs(nodes - geom.left(tau) - geom.overlap_length)),
            )
            assert d < 1e-12
        # between events no interface sits on a node, and each interface
        # stays within a single background cell
        breaks = np.concatenate(([geom.t_start], geom.events, [geom.t_end]))
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            mids = np.linspace(lo, hi, 5)[1:-1]
            for pos_fn in (geom.left, lambda t: geom.left(t) + geom.overlap_length):
                cells = np.searchsorted(nodes, [pos_fn(t) for t in mids]) - 1
                assert len(set(cells.tolist())) == 1
                for t in mids:
                    assert np.min(np.abs(nodes - pos_fn(t))) > 1e-12

    @pytest.mark.parametrize("shift", [1e-13, -1e-13, 9e-13, -9e-13])
    @pytest.mark.parametrize("mu", [0.6, -0.5])
    @pytest.mark.parametrize("interface", ["left", "right"])
    def test_interface_within_the_tolerance_is_on_the_node(self, interface, mu, shift):
        # n0 = 16, k = 1/8: one interface starts within the tolerance of the
        # node 0.25 or 0.5, the other mid-cell; at mu = -0.5 every slab starts
        # and ends near a node
        def geoms(d):
            a0, length = (0.25 + d, 0.21875) if interface == "left" else (0.21875, 0.28125 + d)
            setup = make_setup(n0=16, nG=4, N=2, mu=mu, a0=a0, length=length, T=0.25)
            return build_slab_geometry(setup, range(1, 3))

        for near, on in zip(geoms(shift), geoms(0.0)):
            assert len(near.events) == len(on.events)
            assert np.allclose(near.events, on.events, rtol=0.0, atol=1e-11)
            assert np.array_equal(near.cut_cells, on.cut_cells)
            assert np.array_equal(near.covered_cells, on.covered_cells)
            assert not set(near.cut_cells.tolist()) & set(near.covered_cells.tolist())

    def test_boundary_contact_raises(self):
        # leftward motion drives the left interface to -0.075 by t=1
        with pytest.raises(GeometryViolation):
            make_setup(mu=-0.2, a0=0.125)

    def test_range_gives_each_slab_geometry(self):
        # a range of slabs is built at once and gives each slab's geometry
        setup = make_setup(n0=16, nG=4, N=6, mu=0.6, a0=0.125)
        geoms = build_slab_geometry(setup, range(2, 6))
        assert isinstance(geoms, SlabGeometries)
        assert [g.n for g in geoms] == [2, 3, 4, 5]
        for g in geoms:
            one = slab_geometry(setup, g.n)
            for name in ("t_start", "t_end", "mu", "a_start"):
                assert getattr(g, name) == getattr(one, name)
            for name in ("events", "cut_cells", "covered_cells"):
                assert np.array_equal(getattr(g, name), getattr(one, name))
        for name in ("events", "cut_cells", "covered_cells"):
            joined = np.concatenate([getattr(g, name) for g in geoms])
            assert np.array_equal(getattr(geoms, name), joined)
            index = np.repeat(np.arange(4), [len(getattr(g, name)) for g in geoms])
            assert np.array_equal(geoms.slab_index(name), index)

    @pytest.mark.parametrize(
        "slabs",
        [
            pytest.param(range(0, 1), id="0"),
            pytest.param(range(7, 8), id="7"),
            range(3, 3),
            range(0, 2),
            range(5, 8),
            range(1, 5, 2),
        ],
    )
    def test_slab_out_of_range_raises(self, slabs):
        setup = make_setup(n0=16, nG=4, N=6, mu=0.6, a0=0.125)
        with pytest.raises(ValueError, match="out of range"):
            build_slab_geometry(setup, slabs)


class TestSpatialPartition:
    def test_hand_enumeration_four_cells(self):
        setup = make_setup(n0=4, nG=2, N=1, mu=0.0, a0=0.125)
        geom = slab_geometry(setup, 1)
        part = spatial_partition(geom, 0.5)
        # breakpoints: 0, 0.125, 0.25 (node and overlap mid), 0.375, 0.5, 0.75, 1
        assert np.allclose(part.xa, [0.0, 0.125, 0.25, 0.375, 0.5, 0.75])
        assert part.side.tolist() == [1, 2, 2, 1, 1, 1]

    def test_aligned_interfaces_leave_cells_uncut(self):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.25)
        geom = slab_geometry(setup, 1)
        assert len(geom.cut_cells) == 0
        assert set(geom.covered_cells.tolist()) == {2, 3}

    def test_overlap_measure(self):
        setup = make_setup(n0=16, nG=4, N=2, mu=0.6, a0=0.125)
        geom = slab_geometry(setup, 1)
        rng = np.random.default_rng(3)
        for t in rng.uniform(geom.t_start, geom.t_end, 100):
            part = spatial_partition(geom, float(t))
            on2 = part.side == 2
            assert np.sum(part.lengths[on2]) == pytest.approx(0.25, rel=1e-12)
            assert np.sum(part.lengths) == pytest.approx(1.0, rel=1e-12)


    @pytest.mark.parametrize("mu,a0", [(0.6, 0.125), (0.0, 0.3), (-0.3, 0.55)])
    def test_many_times_match_single_times(self, mu, a0):
        # event times put an interface exactly on a node
        setup = make_setup(n0=16, nG=4, N=2, mu=mu, a0=a0)
        geom = slab_geometry(setup, 1)
        times = np.sort(np.concatenate([np.linspace(geom.t_start, geom.t_end, 7), geom.events]))
        batch = spatial_partition(geom, times)
        singles = [spatial_partition(geom, float(t)) for t in times]
        for field in ("xa", "xb", "side", "bg_cell", "ov_cell"):
            expect = np.concatenate([getattr(p, field) for p in singles])
            assert np.array_equal(getattr(batch, field), expect)
        assert np.array_equal(batch.t, np.concatenate([np.full(len(p), p.t) for p in singles]))


class TestOverlapSegments:
    def test_stationary_cut_cells(self):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.15)
        geom = slab_geometry(setup, 1)
        # interfaces at 0.15 and 0.4 cut cells 1 and 3
        assert set(geom.cut_cells.tolist()) == {1, 3}
        seg = overlap_segments(geom, 0.3)
        covered = np.sum(seg.xb - seg.xa)
        # cell 1 contributes (0.15, 0.25), cell 3 contributes (0.375, 0.4)
        assert covered == pytest.approx(0.1 + 0.025, rel=1e-12)

    def test_swept_cells_at_slab_end(self):
        # left interface sweeps 0.15 -> 0.27 through node 0.25 during the slab,
        # so cells 0, 1, 2 are all cut at some slab time
        setup = make_setup(n0=4, nG=2, N=1, mu=0.12, a0=0.15, T=1.0)
        geom = slab_geometry(setup, 1)
        assert set(geom.cut_cells.tolist()) == {0, 1, 2}
        seg = overlap_segments(geom, 1.0)
        # at t=1 the overlap is (0.27, 0.52), entirely inside cut cells
        assert np.sum(seg.xb - seg.xa) == pytest.approx(0.25, rel=1e-12)
        assert set(seg.bg_cell.tolist()) == {1, 2}

    def test_uncut_covered_cell_contributes_nothing(self):
        setup = make_setup(n0=8, nG=2, N=1, mu=0.0, a0=0.15)
        geom = slab_geometry(setup, 1)
        seg = overlap_segments(geom, 0.5)
        assert 2 not in seg.bg_cell.tolist()  # cell [0.25,0.375] covered, uncut


class TestSigmaSide:
    def test_right_interface_moving_right(self):
        sigma, w = sigma_side("right", 0.6)
        assert sigma == 2
        assert w == pytest.approx(-0.6)

    def test_left_interface_moving_right(self):
        sigma, w = sigma_side("left", 0.6)
        assert sigma == 1
        assert w == pytest.approx(0.6)

    def test_stationary(self):
        _, w = sigma_side("left", 0.0)
        assert w == 0.0

    @given(
        a1=st.floats(-3, 3),
        a2=st.floats(-3, 3),
        b1=st.floats(-3, 3),
        b2=st.floats(-3, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_jump_identity(self, a1, a2, b1, b2):
        # a1 b1 - a2 b2 = [a] b_sigma + a_zeta [b] for either upwind choice
        ja, jb = a1 - a2, b1 - b2
        assert a1 * b1 - a2 * b2 == pytest.approx(ja * b1 + a2 * jb, abs=1e-9)
        assert a1 * b1 - a2 * b2 == pytest.approx(ja * b2 + a1 * jb, abs=1e-9)
