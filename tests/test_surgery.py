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


def _handle1_curve(name):
    rep = bk.build_handle1(4, 0.9, lambda1=0.985, lambda2=0.99, eps1=0.01,
                           eps2=0.1, delta=0.05)
    return rep.aux["curves"][name]


def _handle2_curve(name):
    P = DEFAULT_PIPELINE_PARAMS["handle2"]
    rep = bk.build_handle2(fs._default_collar_profile(), **P)
    return rep.aux["curves"][name]


def _handle1_alpha():
    return _handle1_curve("alpha")


def _handle2_f():
    return _handle2_curve("f")


# name -> (curve factory, window [lo, hi] where the primitive's curve lives)
B = DEFAULT_PIPELINE_PARAMS["handle2"]["b"]
WINDOWS = {
    "smooth_join": (_two_sines_join, (-0.3, 0.9)),
    "flatten_start": (_handle1_alpha, (0.01, 0.06)),
    "flatten_slope_end": (_handle2_f, (B + 0.5, B + 1.0)),
    # the curves whose order 3 the boundary-profile jets read, each on a
    # window inside one piece: handle1's beta and concave profile f, and
    # handle2's beta and B_full (its cubic extension, then the profile B)
    "handle1_beta": (lambda: _handle1_curve("beta"),
                     (math.pi / 2, math.pi / 2 + 0.1)),
    "handle1_f": (lambda: _handle1_curve("f"), (-0.05, 2.0)),
    "handle2_f_raw": (_handle2_f, (0.0, B + 0.5)),
    "handle2_beta": (lambda: _handle2_curve("beta"), (0.0, B + 1.0)),
    "handle2_B_full_extension": (lambda: _handle2_curve("B_full"),
                                 (-0.013, 0.0)),
    "handle2_B_full_profile": (lambda: _handle2_curve("B_full"), (0.0, 1.0)),
    "wu_blend": (lambda: bk.wu_family_check("blended", eps=0.1)
                 .aux["curves"]["h1"], (0.1, 0.95)),
    **{f"fibre_disc_t0={t0:.4g}":
       ((lambda t0=t0: bk.build_fibre_disc_warp(3, t0).aux["curves"]["h"]),
        (0.0, t0))
       for t0 in (math.pi / 2, 1.3, 2.5)},
}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_orders_1_to_3_consistent(name):
    factory, (lo, hi) = WINDOWS[name]
    assert_derivatives_consistent(factory(), lo, hi)


def richardson_d(fn, ts, h, lo, hi):
    """d/dt of fn at ts, step h per point, from values on [lo, hi] only:
    the central differences above where [t - h, t + h] lies inside, else
    the one-sided (-3 f(t) + 4 f(t + h) - f(t + 2h)) / 2h toward the
    inside, extrapolated the same way (accurate to O(h^3))."""
    out = np.empty_like(ts)
    central = (ts - h >= lo) & (ts + h <= hi)
    forward = ~central & (ts + 2.0 * h <= hi)
    for mask, sign in ((central, 0.0), (forward, 1.0),
                       (~central & ~forward, -1.0)):
        t, step = ts[mask], h[mask]

        def D(q):
            if not sign:
                return (fn(t + q) - fn(t - q)) / (2.0 * q)
            return sign * (-3.0 * fn(t) + 4.0 * fn(t + sign * q)
                           - fn(t + 2.0 * sign * q)) / (2.0 * q)
        if mask.any():
            out[mask] = (4.0 * D(0.5 * step) - D(step)) / 3.0
    return out


class TestBoundaryProfileOrders:
    """Orders 1 and 2 of each handle face's warp profile, a table over
    the face's arc length r, at every node, against d/dr computed from
    the builder's curves: Richardson differences in the face's original
    parameter divided by the arc-length speed.  Order 1 differences the
    warp; order 2 differences its first derivative in r, written with the
    curves' exact first orders."""

    P = DEFAULT_PIPELINE_PARAMS

    @staticmethod
    def assert_orders(profile, ts, warp, warp_d, speed, domain, h):
        cols = profile.metric["warp"].nodes[1]
        refs = (richardson_d(warp, ts, h, *domain) / speed(ts),
                richardson_d(lambda s: warp_d(s) / speed(s), ts, h,
                             *domain) / speed(ts))
        for k, ref in zip((1, 2), refs):
            err = np.abs(cols[k] - ref)
            tol = RICHARDSON_TOL * (1.0 + np.max(np.abs(cols[k])))
            assert np.max(err) < tol, (k, int(np.argmax(err)),
                                       float(np.max(err)))

    @classmethod
    def handle1(cls):
        return bk.build_handle1(cls.P["q"], cls.P["K"], **cls.P["handle1"])

    @classmethod
    def handle1_face_profile(cls, rep, height, height_d):
        """The warp f(height(s)) K sin(s) of a handle1 face, whose speed
        is |(height', f(height))|."""
        f, K = rep.aux["curves"]["f"], cls.P["K"]

        def warp(s):
            return f.eval(height(s)) * K * np.sin(s)

        def warp_d(s):
            return K * (f.eval(height(s), 1) * height_d(s) * np.sin(s)
                        + f.eval(height(s)) * np.cos(s))

        def speed(s):
            return np.sqrt(height_d(s) ** 2 + f.eval(height(s)) ** 2)
        return warp, warp_d, speed

    def test_handle1_cap(self):
        rep = self.handle1()
        alpha = rep.aux["curves"]["alpha"]
        ss = rep.sweeps["cap_face"]["t"]
        # alpha rises from flat over 5e-5 at its start: steps shrink there
        h = np.clip(0.05 * (ss - alpha.t_lo), 1e-6, 1e-4)
        self.assert_orders(rep.boundary["cap"], ss, *self.handle1_face_profile(
            rep, alpha.eval, lambda s: alpha.eval(s, 1)), alpha.domain, h)

    def test_handle1_outer(self):
        rep = self.handle1()
        beta, top = rep.aux["curves"]["beta"], rep.aux["alpha_top"]
        so = rep.sweeps["outer_face"]["t"]
        h = np.full(so.shape, 1e-4)
        self.assert_orders(rep.boundary["outer"], so, *self.handle1_face_profile(
            rep, lambda s: beta.eval(s) + top, lambda s: beta.eval(s, 1)),
            beta.domain, h)

    @pytest.mark.parametrize("collar", ["assembled", "default"])
    def test_handle2_graph_face(self, collar):
        if collar == "assembled":       # as assemble_handle builds it
            rep1 = self.handle1()
            B = rep1.boundary["outer"].metric["warp"].metric_rescale(
                1.0 / (rep1.aux["f_scale_at_corner"] * self.P["K"]))
        else:
            B = fs._default_collar_profile()
        rep = bk.build_handle2(B, **self.P["handle2"])
        f, beta, B_full = (rep.aux["curves"][k]
                           for k in ("f", "beta", "B_full"))
        tf = rep.sweeps["face_metric"]["t"]

        def warp(t):
            return f.eval(t) * B_full.eval(beta.eval(t))

        def warp_d(t):
            bt = beta.eval(t)
            return (f.eval(t, 1) * B_full.eval(bt)
                    + f.eval(t) * B_full.eval(bt, 1) * beta.eval(t, 1))

        def speed(t):
            return np.sqrt(1.0 + (beta.eval(t, 1) * f.eval(t)) ** 2)
        h = np.full(tf.shape, 1e-4)
        self.assert_orders(rep.boundary["graph_face"], tf, warp, warp_d,
                           speed, beta.domain, h)


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
        return cv.second_derivative_surgery(0.2, cv.SurgeryWindow(u, corr),
                                            base, (0.3, -0.1), 0.4,
                                            value_end)

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


@pytest.mark.usefixtures("fresh_windows")
class TestNodeEvaluation:
    """At its window nodes the surgery calls the base once for orders 2
    and 3 and the corrections once for orders 0 and 1, so a window build
    looks each of its point sets up once per order: the ramps of all the
    corrections' plateaus together in one ``plateau_orders`` call, as the
    window is built, then the blend step at the nodes.  Evaluating an order, or a correction, at a
    time would repeat those lookups.  A window taken from its cache skips
    the corrections' lookups, so each test builds its windows."""

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
        # the plateau ramps at orders 0 and 1; each fallback's two steps
        # at every order up to its own, on the few points where a ramp's
        # density underflows; then the base's step and its slope on the
        # nodes
        (k0, ramps0), (k1, ramps1) = steps[:2]
        assert (k0, k1) == (0, 1) and ramps0 == ramps1 > 0
        assert steps[2:-2] == [(j, 2 * n) for k, n in fallbacks
                               for j in range(k + 1)]
        assert steps[-2:] == [(0, nodes), (1, nodes)]
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


def _flatten_start_curve():
    return bk._flatten_start(cv.poly_curve([0.1, 0.5, 0.3, 0.2], (0.0, 1.0)),
                             0.1, 0.3)


def _slope_end_curve():
    f = cv.make_concave_profile(0.01, 0.02, 0.01, t_max=3.0)
    return bk._flatten_slope_end(f.restrict(0.0, 2.5), 2.0, 2.5)


@pytest.mark.usefixtures("fresh_windows")
class TestSurgeryWindow:
    """The helpers whose window shape does not depend on the curve take
    their window from a cache keyed by that shape.  A cached window gives
    the curve a fresh one gives, bit for bit, and holds read-only arrays;
    the fibre disc and the Wu blend build theirs on each call."""

    HELPERS = {
        "smooth_join": (_two_sines_join, cv._join_window, (-0.3, 0.9)),
        "flatten_start": (_flatten_start_curve, bk._flatten_window,
                          (0.1, 0.4)),
        "flatten_slope_end": (_slope_end_curve, bk._slope_end_window,
                              (2.0, 2.5)),
    }

    @staticmethod
    def columns(curve, lo, hi):
        ts = np.concatenate([np.linspace(lo, hi, 4001), [lo, hi, np.nan]])
        return [curve.eval(ts, k) for k in range(4)]

    @pytest.mark.parametrize("name", sorted(HELPERS))
    def test_cached_window_gives_the_fresh_curve(self, name):
        build, factory, (lo, hi) = self.HELPERS[name]
        fresh = self.columns(build(), lo, hi)
        assert factory.cache_info().misses == 1
        cached = self.columns(build(), lo, hi)
        assert factory.cache_info().hits == 1
        for got, want in zip(cached, fresh):
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("name", sorted(HELPERS))
    def test_second_build_makes_no_plateau_lookup(self, name, monkeypatch):
        from warpbench import _util
        build, _, _ = self.HELPERS[name]
        build()
        calls = []
        plateau_orders = _util.plateau_orders

        def counted(x, orders, rise=0.15):
            calls.append(tuple(orders))
            return plateau_orders(x, orders, rise)

        monkeypatch.setattr(_util, "plateau_orders", counted)
        build()
        assert calls == []

    def test_windows_are_read_only_and_keyed_by_shape(self):
        windows = (cv._join_window(0.5),
                   bk._flatten_window(0.05, 5e-5), bk._slope_end_window(0.5))
        for window in windows:
            arrays = [window.u, window.mass_row, window.moment_row,
                      *(v for g in window.columns for v in g)]
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0
        assert cv._join_window(0.5) is cv._join_window(0.5)
        assert cv._join_window(0.5) is not cv._join_window(0.6)
        assert bk._flatten_window(0.05, 5e-5) is not bk._flatten_window(
            0.04, 4e-5)
        assert bk._slope_end_window(0.5) is not bk._slope_end_window(0.4)

    def test_window_keeps_its_nodes_writeable_for_their_owner(self):
        u = np.linspace(0.0, 1.0, 65)
        window = cv.SurgeryWindow(u, unit_plateaus([(0.0, 1.0)]))
        assert u.flags.writeable and not window.u.flags.writeable

    def test_fibre_disc_and_wu_blend_take_no_cached_window(self):
        bk.build_fibre_disc_warp(3, 1.3)
        bk.wu_family_check("blended", eps=0.1)
        for factory in (cv._join_window, bk._flatten_window,
                        bk._slope_end_window):
            info = factory.cache_info()
            assert info.hits == info.misses == 0
