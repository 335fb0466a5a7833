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
from warpbench._util import unit_plateaus
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
        def base(t, orders):
            t = np.asarray(t, float)
            return [-np.sin(t) if k == 2 else -np.cos(t) for k in orders]

        plate = unit_plateaus([(0.0, u[-1])])

        def plate_and_tilt(v, orders):
            (p0, p1), = plate(v, (0, 1))
            lever = np.asarray(v, float) / u[-1] - 0.5
            return [[(p0, p1)[k] for k in orders],
                    [lever * p0 if k == 0 else p0 / u[-1] + lever * p1
                     for k in orders]]

        corr = plate if value_end is None else plate_and_tilt
        return cv.second_derivative_surgery(0.2, u, base, corr,
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


class TestNodeEvaluation:
    """At its window nodes the surgery calls the base once for orders 2
    and 3 and the corrections once for orders 0 and 1, so a window build
    looks each of its point sets up once per order: the blend step at the
    nodes, then the ramps of all the corrections' plateaus together in one
    ``plateau_orders`` call.  Evaluating an order, or a correction, at a
    time would repeat those lookups."""

    @staticmethod
    def counted(monkeypatch):
        """Lists that record (order, points) of every smooth_step call,
        the orders of every plateau_orders call, and (order, points) of
        every Leibniz fallback, which looks its points up again."""
        from warpbench import _util
        steps, plateaus, fallbacks = [], [], []
        step = _util.smooth_step
        plateau_orders = _util.plateau_orders
        product = _util._plateau_product

        def counted_step(x, k=0):
            steps.append((k, np.size(x)))
            return step(x, k)

        def counted_plateau(x, orders, rise=0.15):
            plateaus.append(tuple(orders))
            return plateau_orders(x, orders, rise)

        def counted_product(x, k, rise):
            fallbacks.append((k, np.size(x)))
            return product(x, k, rise)

        for module in (_util, cv, bk):
            if hasattr(module, "smooth_step"):
                monkeypatch.setattr(module, "smooth_step", counted_step)
        monkeypatch.setattr(_util, "plateau_orders", counted_plateau)
        monkeypatch.setattr(_util, "_plateau_product", counted_product)
        return steps, plateaus, fallbacks

    @staticmethod
    def assert_one_lookup_per_point_set(steps, plateaus, fallbacks, nodes):
        # the base's step and its slope on the nodes; the plateau ramps at
        # orders 0 and 1; then each fallback's two steps at every order up
        # to its own, on the few points where a ramp's density underflows
        assert steps[:2] == [(0, nodes), (1, nodes)]
        (k0, ramps0), (k1, ramps1) = steps[2:4]
        assert (k0, k1) == (0, 1) and ramps0 == ramps1 > 0
        assert steps[4:] == [(j, 2 * n) for k, n in fallbacks
                             for j in range(k + 1)]
        assert plateaus == [(0, 1)]

    def test_smooth_join(self, monkeypatch):
        left = cv.sine_curve(1.0, 1.0, 0.0, (-0.6, 1.2))
        right = cv.sine_curve(1.0, 0.9, 0.0, (-0.6, 1.4))
        counts = self.counted(monkeypatch)
        cv.smooth_join(left, right, (-0.3, 0.9), (-2.0, 2.0))
        self.assert_one_lookup_per_point_set(*counts, 2049)

    def test_flatten_start(self, monkeypatch):
        base = cv.poly_curve([0.1, 0.5, 0.3, 0.2], (0.0, 1.0))
        counts = self.counted(monkeypatch)
        bk._flatten_start(base, 0.1, 0.3)
        self.assert_one_lookup_per_point_set(*counts, 1665)
