import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutslab.quadrature import (
    composite_time_rule,
    gauss_legendre3,
    lobatto3,
    midpoint,
)


def _integrate01(rule, f):
    return np.sum(rule.weights * f(rule.nodes))


class TestLobatto3:
    def test_cubic_exact(self):
        assert _integrate01(lobatto3(), lambda x: x**3) == pytest.approx(0.25, abs=1e-15)

    def test_constant(self):
        assert _integrate01(lobatto3(), lambda x: np.ones_like(x)) == pytest.approx(1.0)

    def test_quartic_value(self):
        # degree-3 rule applied to x^4: 2/3 * (1/2)^4 + 1/6 = 5/24, not the true 1/5
        val = _integrate01(lobatto3(), lambda x: x**4)
        assert val == pytest.approx(5.0 / 24.0, abs=1e-15)

    def test_nodes_weights(self):
        r = lobatto3()
        assert np.allclose(r.nodes, [0, 0.5, 1])
        assert np.allclose(r.weights, [1 / 6, 2 / 3, 1 / 6])


class TestGauss3:
    def test_quintic_exact(self):
        assert _integrate01(gauss_legendre3(), lambda x: x**5) == pytest.approx(
            1 / 6, abs=1e-15
        )

    def test_constant(self):
        assert _integrate01(gauss_legendre3(), lambda x: np.ones_like(x)) == pytest.approx(1.0)

    def test_degree_six_not_exact(self):
        val = _integrate01(gauss_legendre3(), lambda x: x**6)
        assert abs(val - 1 / 7) > 1e-6


class TestSimpleRules:
    def test_midpoint_linear(self):
        assert _integrate01(midpoint(), lambda x: x) == pytest.approx(0.5)


class TestCompositeTimeRule:
    def test_no_events(self):
        t, w = composite_time_rule([0.0], [0.5], np.empty(0), lobatto3(), [0])
        assert len(t) == 3
        assert np.sum(w) == pytest.approx(0.5)

    def test_one_event_panels(self):
        t, w = composite_time_rule([0.0], [0.15], np.array([0.125]), lobatto3(), [1])
        assert len(t) == 6
        assert np.sum(w[:3]) == pytest.approx(0.125)
        assert np.sum(w[3:]) == pytest.approx(0.025)

    def test_bad_events_rejected(self):
        with pytest.raises(ValueError):
            composite_time_rule([0.0], [1.0], np.array([0.5, 0.2]), lobatto3(), [2])
        with pytest.raises(ValueError):
            composite_time_rule([0.0], [1.0], np.array([1.5]), lobatto3(), [1])

    @given(
        events=st.lists(st.floats(0.05, 0.95), max_size=4, unique=True),
        c3=st.floats(-2, 2),
        c2=st.floats(-2, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_cubic_exact_any_events(self, events, c3, c2):
        ev = np.sort(np.asarray(events))
        t, w = composite_time_rule([0.0], [1.0], ev, lobatto3(), [len(ev)])
        val = np.sum(w * (c3 * t**3 + c2 * t**2))
        assert val == pytest.approx(c3 / 4 + c2 / 3, abs=1e-13)

    @given(events=st.lists(st.floats(0.1, 0.9), max_size=3, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_weights_positive_sum_to_length(self, events):
        ev = np.sort(np.asarray(events))
        t, w = composite_time_rule([0.0], [1.0], ev, gauss_legendre3(), [len(ev)])
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(1.0, rel=1e-14)


@given(
    a0=st.floats(-1, 1),
    a1=st.floats(-1, 1),
    b0=st.floats(-1, 1),
    b1=st.floats(-1, 1),
)
@settings(max_examples=50, deadline=None)
def test_gauss3_exact_for_affine_products(a0, a1, b0, b1):
    # products of two piecewise-affine functions are quadratic per segment
    f = lambda x: (a0 + a1 * x) * (b0 + b1 * x)
    exact = a0 * b0 + (a0 * b1 + a1 * b0) / 2 + a1 * b1 / 3
    assert _integrate01(gauss_legendre3(), f) == pytest.approx(exact, abs=1e-13)
