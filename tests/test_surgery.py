"""The second-derivative surgery primitive and the curves built on it.

Derivative consistency uses Richardson-extrapolated central differences,
(4 D(h/2) - D(h)) / 3 with D(h) = (f(t+h) - f(t-h)) / 2h, which are
accurate to O(h^4); plain central differences leave truncation errors of
order 1e-3 on the bump-heavy windows.
"""

import math

import numpy as np
import pytest

from warpbench import blocks as bk
from warpbench import curves as cv
from warpbench import feasibility as fs
from warpbench._util import unit_plateau
from warpbench.scenarios import DEFAULT_PIPELINE_PARAMS

RICHARDSON_TOL = 1e-5


def richardson(curve, t, k, h):
    def D(s):
        return (curve.eval(t + s, k) - curve.eval(t - s, k)) / (2.0 * s)
    return (4.0 * D(0.5 * h) - D(h)) / 3.0


def assert_derivatives_consistent(curve, lo, hi, points=49):
    """d/dt of order k matches order k+1 for k = 0, 1, 2 inside [lo, hi],
    relative to 1 + max |order k+1| there."""
    w = hi - lo
    ts = lo + w * np.linspace(0.02, 0.98, points)
    for k in range(3):
        fd = richardson(curve, ts, k, 1e-4 * w)
        exact = curve.eval(ts, k + 1)
        err = np.max(np.abs(fd - exact)) / (1.0 + np.max(np.abs(exact)))
        assert err < RICHARDSON_TOL, (k, err)


def _two_sines_join():
    left = cv.sine_curve(1.0, 1.0, 0.0, (-0.6, 1.2))
    right = cv.sine_curve(1.0, 0.9, 0.0, (-0.6, 1.4))
    return cv.smooth_join(left, right, (-0.3, 0.9), (-2.0, 2.0))


def _handle1_alpha():
    rep = bk.build_handle1(4, 0.9, lambda1=0.985, lambda2=0.99, eps1=0.01,
                           eps2=0.1, delta=0.05)
    return rep.aux["curves"]["alpha"]


def _handle2_f():
    P = DEFAULT_PIPELINE_PARAMS["handle2"]
    rep = bk.build_handle2(fs._default_collar_profile(), **P)
    return rep.aux["curves"]["f"]


# name -> (curve factory, window [lo, hi] where the primitive's curve lives)
B = DEFAULT_PIPELINE_PARAMS["handle2"]["b"]
WINDOWS = {
    "smooth_join": (_two_sines_join, (-0.3, 0.9)),
    "flatten_start": (_handle1_alpha, (0.01, 0.06)),
    "flatten_slope_end": (_handle2_f, (B + 0.5, B + 1.0)),
    "wu_blend": (lambda: bk.wu_family_check("blended", eps=0.1)
                 .aux["curves"]["h1"], (0.1, 0.95)),
    **{f"fibre_disc_t0={t0:.4g}":
       ((lambda t0=t0: bk.build_fibre_disc_warp(3, t0)[0]), (0.0, t0))
       for t0 in (math.pi / 2, 1.3, 2.5)},
}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_orders_1_to_3_consistent(name):
    factory, (lo, hi) = WINDOWS[name]
    assert_derivatives_consistent(factory(), lo, hi)


def test_flatten_start_rise_consistent():
    # the cut-off rises over 1e-3 of the 0.05 window: resolve that scale
    omega = 1e-3 * 0.05
    assert_derivatives_consistent(_handle1_alpha(), 0.01, 0.01 + 2 * omega)


class TestPrimitive:
    def _solve(self, u, value_end=None):
        def base2(t):
            return -np.sin(np.asarray(t, float))

        def base3(t):
            return -np.cos(np.asarray(t, float))

        plate = unit_plateau(0.0, u[-1])

        def tilt(v, k):
            g = (np.asarray(v, float) / u[-1] - 0.5) * plate(v, k)
            return plate(v) / u[-1] + g if k else g

        corr = [plate] if value_end is None else [plate, tilt]
        return cv.second_derivative_surgery(0.2, u, base2, base3, corr,
                                            (0.3, -0.1), 0.4, value_end)

    @pytest.mark.parametrize("uniform", [True, False])
    def test_slope_and_value_targets_met(self, uniform):
        x = np.linspace(0.0, 1.0, 1025)
        u = 0.7 * (x if uniform else x ** 2)
        curve, coef = self._solve(u, value_end=0.25)
        assert len(coef) == 2
        assert curve.domain == (0.2, 0.2 + 0.7)
        assert abs(curve.eval(0.2, 0) - 0.3) < 1e-15
        assert abs(curve.eval(0.2, 1) + 0.1) < 1e-15
        assert abs(curve.eval(0.9, 1) - 0.4) < 1e-12
        assert abs(curve.eval(0.9, 0) - 0.25) < 1e-12
        assert_derivatives_consistent(curve, 0.2, 0.9)

    def test_slope_target_alone(self):
        curve, coef = self._solve(np.linspace(0.0, 0.7, 1025))
        assert len(coef) == 1
        assert abs(curve.eval(0.9, 1) - 0.4) < 1e-12

    def test_node_table_holds_the_integrated_columns(self):
        u = np.linspace(0.0, 0.7, 513)
        curve, _ = self._solve(u, value_end=0.25)
        ts, cols = curve.nodes
        assert np.array_equal(ts, 0.2 + u)
        for k in range(4):
            assert np.allclose(cols[k], curve.eval(ts, k), rtol=0,
                               atol=1e-12)
