import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpbench import blocks, scenarios
from warpbench import curves as cv
from warpbench import curvature as kv

PI = math.pi


def round_sphere_metric(p=2, q=2):
    f = cv.sine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
    h = cv.cosine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
    return kv.DoublyWarpedMetric(p, q, f, h, collapse_start="f",
                                 collapse_end="h")


def cylinder_metric():
    dom = (0.3, 1.2)
    f = cv.curve_from_derivs(dom,
                             lambda t: 1.2 + 0.3 * np.cos(t),
                             lambda t: -0.3 * np.sin(t),
                             lambda t: -0.3 * np.cos(t),
                             lambda t: 0.3 * np.sin(t))
    h = cv.curve_from_derivs(dom,
                             lambda t: 1.5 + 0.2 * np.sin(t),
                             lambda t: 0.2 * np.cos(t),
                             lambda t: -0.2 * np.sin(t),
                             lambda t: -0.2 * np.cos(t))
    return kv.DoublyWarpedMetric(2, 3, f, h)


def at(sweep, m, t, *args) -> dict:
    """The columns of ``sweep(m, [t], *args)``: one point as a one-element
    sweep."""
    return {k: v[0] for k, v in sweep(m, np.array([float(t)]), *args).items()}


class TestDoublyWarped:
    def test_round_sphere_interior_values(self):
        m = round_sphere_metric()
        cp = at(kv.doubly_warped_sweep, m, 0.7)
        for key in ("sec_tu", "sec_tv", "sec_uv", "sec_uu", "sec_vv"):
            assert abs(cp[key] - 1.0) < 1e-9
        assert abs(cp["ric_tt"] - 4.0) < 1e-9

    def test_round_sphere_collapse_endpoints(self):
        m = round_sphere_metric()
        for t in (0.0, PI / 2):
            cp = at(kv.doubly_warped_sweep, m, t)
            for key in ("sec_tu", "sec_tv", "sec_uv", "sec_uu", "sec_vv",
                        "ric_tt", "ric_uu", "ric_vv"):
                v = cp[key]
                assert abs(v - (4.0 if abs(v) > 2 else 1.0)) < 1e-9
            assert cp["f"] == m.f.eval(t) and cp["h"] == m.h.eval(t)

    def test_higher_dimensional_ricci(self):
        m = round_sphere_metric(3, 4)
        cp = at(kv.doubly_warped_sweep, m, 0.3)
        assert abs(cp["ric_tt"] - 7.0) < 1e-9

    def test_constant_warps_give_product_curvatures(self):
        dom = (0.0, 1.0)
        m = kv.DoublyWarpedMetric(2, 2,
                                  cv.constant_curve(0.5, dom),
                                  cv.constant_curve(2.0, dom))
        cp = at(kv.doubly_warped_sweep, m, 0.4)
        assert cp["sec_tu"] == 0.0
        assert cp["sec_uv"] == 0.0
        assert abs(cp["sec_uu"] - 1.0 / 0.25) < 1e-12
        assert abs(cp["sec_vv"] - 1.0 / 4.0) < 1e-12

    def test_scaled_round_family_has_constant_curvature(self):
        c = 1.7
        dom = (0.0, c * PI / 2)
        f = cv.sine_curve(c, 1.0 / c, 0.0, dom)
        h = cv.cosine_curve(c, 1.0 / c, 0.0, dom)
        m = kv.DoublyWarpedMetric(2, 2, f, h, collapse_start="f",
                                  collapse_end="h")
        ts = np.linspace(0.0, c * PI / 2, 2048)
        sweep = kv.doubly_warped_sweep(m, ts)
        for key in ("sec_tu", "sec_tv", "sec_uv", "sec_uu", "sec_vv"):
            assert np.max(np.abs(sweep[key] - 1.0 / c ** 2)) < 1e-8

    def test_endpoint_matches_interior_extrapolation(self):
        m = round_sphere_metric()
        cp0 = at(kv.doubly_warped_sweep, m, 0.0)
        eps = np.array([4e-4, 2e-4])
        for key in ("sec_uv", "ric_uu", "ric_vv"):
            vals = kv.doubly_warped_sweep(m, eps)[key]
            extrap = vals[1] + (vals[1] - vals[0])
            assert abs(extrap - cp0[key]) < 1e-5

    def test_undeclared_zero_rejected(self):
        f = cv.sine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
        h = cv.cosine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
        m = kv.DoublyWarpedMetric(2, 2, f, h)     # no collapse declared
        with pytest.raises(ValueError, match="warp vanishes without a "
                           "declared collapse"):
            at(kv.doubly_warped_sweep, m, 0.0)

    def test_declared_collapse_of_a_nonzero_warp_rejected(self):
        dom = (0.0, 1.0)
        m = kv.DoublyWarpedMetric(2, 2, cv.sine_curve(1.0, 1.0, 0.5, dom),
                                  cv.constant_curve(1.0, dom),
                                  collapse_end="h")
        with pytest.raises(ValueError, match=r"^declared collapse of h at "
                           r"t=1\.0 but warp is 1\.000e\+00$"):
            kv.doubly_warped_sweep(m, np.linspace(0.0, 1.0, 9))


def assert_one_point_sweeps_match_grid(sweep, grid, points):
    """For each t in points, the sweep over the one-point grid [t] equals,
    bitwise, the row of t in the sweep over grid."""
    rows = sweep(grid)
    for t in points:
        i = int(np.flatnonzero(grid == t)[0])
        point = sweep(np.array([t]))
        assert list(point) == list(rows)
        for key, col in rows.items():
            assert point[key].tobytes() == col[i:i + 1].tobytes(), (key, t)


def projective_metric(d, n, s):
    curves = blocks.projective_family_check(d, n, s, grid=512).aux["curves"]
    return kv.CohomogOneMetric(d, n, curves["f"], curves["h"])


class TestScalarEvaluatorsAreOnePointSweeps:
    """A point is evaluated as a one-element sweep, and that equals the
    point's row of a grid sweep, collapse ends included, so the collapse
    branches are covered on one-point grids too."""

    COLLAPSE_TS = [0.0, 1e-3, 0.3, 0.7, PI / 2 - 1e-3, PI / 2]
    CYLINDER_TS = [0.3, 0.45, 0.9, 1.2]

    @pytest.mark.parametrize("t", COLLAPSE_TS)
    def test_doubly_warped_with_collapse_ends(self, t):
        m = round_sphere_metric(3, 2)
        assert_one_point_sweeps_match_grid(
            lambda ts: kv.doubly_warped_sweep(m, ts),
            np.array(self.COLLAPSE_TS), [t])

    @pytest.mark.parametrize("t", CYLINDER_TS)
    def test_doubly_warped_without_collapse(self, t):
        m = cylinder_metric()
        assert_one_point_sweeps_match_grid(
            lambda ts: kv.doubly_warped_sweep(m, ts),
            np.array(self.CYLINDER_TS), [t])

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_cohomog1_projective_family(self, d, s):
        m = projective_metric(d, 2, s)
        ts = np.concatenate([[-1.0], np.linspace(-0.99, 0.99, 67), [1.0]])
        assert_one_point_sweeps_match_grid(
            lambda ts: kv.cohomog1_sweep(m, ts), ts, ts)

    def test_cohomog1_wu_family(self):
        f0 = cv.cosine_curve(2 / PI, PI / 2, 0.0, (-1.0, 1.0))
        h0 = cv.constant_curve(2 / PI, (-1.0, 1.0))
        m = kv.CohomogOneMetric(2, 2, f0, h0)
        ts = np.array([-1.0, -0.4, 0.0, 0.8, 1.0])
        assert_one_point_sweeps_match_grid(
            lambda ts: kv.cohomog1_sweep(m, ts, "wu"), ts, ts)

    def test_cohomog1_sweep_rejects_interior_zero(self):
        f0 = projective_metric(2, 2, 0.5).f
        h = cv.sine_curve(1.0, PI, 0.0, (-1.0, 1.0))   # vanishes at t = 0
        m = kv.CohomogOneMetric(2, 2, f0, h)
        with pytest.raises(ValueError, match="undeclared singularity"):
            kv.cohomog1_sweep(m, np.linspace(-1.0, 1.0, 9), "projective")


class TestSliceII:
    def test_constant_warps_are_totally_geodesic(self):
        dom = (0.0, 1.0)
        m = kv.DoublyWarpedMetric(2, 2, cv.constant_curve(1.0, dom),
                                  cv.constant_curve(2.0, dom))
        prof = kv.slice_II(m, 0.5)
        assert prof == {"sphere_p": 0.0, "sphere_q": 0.0}

    def test_round_sphere_slice_values(self):
        m = round_sphere_metric()
        prof = kv.slice_II(m, PI / 4)
        assert abs(prof["sphere_p"] - 1.0) < 1e-12
        assert abs(prof["sphere_q"] + 1.0) < 1e-12

    @given(R=st.floats(0.5, 3.0), x=st.floats(0.15, 0.85))
    @settings(max_examples=40, deadline=None)
    def test_rescaling_divides_eigenvalues_exactly(self, R, x):
        m = round_sphere_metric()
        t = x * PI / 2
        p1 = kv.slice_II(m, t)
        p2 = kv.slice_II(m.rescaled(R), R * t)
        for key in p1:
            assert abs(p2[key] - p1[key] / R) \
                <= 1e-12 * (1 + abs(p1[key] / R))

    def test_collapse_point_rejected(self):
        m = round_sphere_metric()
        with pytest.raises(ValueError, match="touches a collapse point"):
            kv.slice_II(m, 0.0)


def graph_at(f, R, alpha, s) -> dict:
    ss = np.array([float(s)])
    return {k: v[0] for k, v in kv.graph_ii_sweep(
        f, R, alpha.jet(ss, 2), ss).items()}


class TestGraphII:
    def test_constant_height_reduces_to_slice_data(self):
        f = cv.line_curve(1.0, 0.5, (0.0, 3.0))
        R = cv.sine_curve(1.0, 1.0, 0.0, (0.1, 1.4))
        alpha = cv.constant_curve(0.7, (0.1, 1.4))
        prof = graph_at(f, R, alpha, 0.8)
        fv, f1 = f(0.7), f(0.7, 1)
        assert abs(prof["radial"] - f1 * fv) < 1e-12
        assert abs(prof["sphere"] - f1 * fv) < 1e-12

    def test_cut_cone_linear_slope_vanishing_combination(self):
        lam1, eps1 = 0.9, 0.05
        f = cv.line_curve(1.0, lam1, (-0.5, 40.0))
        R = cv.sine_curve(0.9, 1.0, 0.0, (0.01, PI / 2))
        alpha = _cut_height(lam1, eps1)
        prof = graph_at(f, R, alpha, eps1)
        assert abs(prof["radial"]) < 1e-12

    def test_steeper_initial_slope_gives_positive_margin(self):
        lam1, lam2, eps1 = 0.9, 0.95, 0.05
        f = cv.make_concave_profile(lam1, lam2, 0.1, t_max=40.0)
        R = cv.sine_curve(0.9, 1.0, 0.0, (0.01, PI / 2))
        alpha = _cut_height(lam1, eps1)
        prof = graph_at(f, R, alpha, eps1)
        assert abs(prof["radial"] - (lam2 - lam1)) < 1e-12

    def test_down_orientation_flips_signs(self):
        """sgn = -1 (the normal toward decreasing t, as handle2's dug face
        takes it) flips both entries; the sweep is the sgn = +1 columns."""
        f = cv.line_curve(1.0, 0.5, (0.0, 3.0))
        R = cv.sine_curve(1.0, 1.0, 0.0, (0.1, 1.4))
        alpha = cv.constant_curve(0.7, (0.1, 1.4))
        ss = np.array([0.8, 1.1])
        a = alpha.eval(ss)
        cols = (f.eval(a), f.eval(a, 1), alpha.eval(ss, 1),
                alpha.eval(ss, 2), R.eval(ss), R.eval(ss, 1))
        up = kv.graph_ii_columns(*cols)
        down = kv.graph_ii_columns(*cols, sgn=-1.0)
        swept = kv.graph_ii_sweep(f, R, alpha.jet(ss, 2), ss)
        for key in ("radial", "sphere"):
            assert np.array_equal(up[key], -down[key])
            assert up[key].tobytes() == swept[key].tobytes()

    def test_read_columns_are_the_curves_eval(self):
        """f and f' at the height are bitwise the curve's eval, on
        handle1's flattened cut, and the sweep reads the height only from
        the jet it is given."""
        rep = blocks.build_handle1(4, 0.9, lambda1=0.985, lambda2=0.99,
                                   eps1=0.01, eps2=0.1, delta=0.05)
        f, alpha = rep.aux["curves"]["f"], rep.aux["curves"]["alpha"]
        ss = rep.sweeps["cap_face"]["t"]
        R = cv.sine_curve(0.9, 1.0, 0.0, (0.005, PI))
        got = kv.graph_ii_sweep(f, R, alpha.jet(ss, 3), ss)
        a = alpha.eval(ss)
        assert got["f"].tobytes() == f.eval(a).tobytes()
        assert got["f_d"].tobytes() == f.eval(a, 1).tobytes()
        assert got.keys() == {"radial", "sphere", "f", "f_d"}


def _cut_height(lam1, eps1):
    dom = (eps1, PI / 2)

    def x(s):
        return lam1 * (np.asarray(s, float) - eps1)

    return cv.curve_from_derivs(
        dom,
        lambda s: (1.0 / np.cos(x(s)) - 1.0) / lam1,
        lambda s: np.sin(x(s)) / np.cos(x(s)) ** 2,
        lambda s: lam1 * (1 + np.sin(x(s)) ** 2) / np.cos(x(s)) ** 3,
        lambda s: lam1 ** 2 * np.tan(x(s)) / np.cos(x(s))
        * (np.tan(x(s)) ** 2 + 5.0 / np.cos(x(s)) ** 2))


class TestBundleWarped:
    def test_trivial_bundle_equal_warps_reduce_to_doubly_warped(self):
        dom = (0.0, 1.0)
        f = cv.sine_curve(1.0, 1.0, 0.3, dom)
        mb = kv.BundleWarpedMetric(2, 3, f, f)
        md = kv.DoublyWarpedMetric(3, 2, f, f)
        bw = at(kv.bundle_warped_sweep, mb, 0.5)
        dw = at(kv.doubly_warped_sweep, md, 0.5)
        assert abs(bw["ric_tt"] - dw["ric_tt"]) < 1e-12
        assert abs(bw["ric_XX_lb"] - dw["ric_uu"]) < 1e-12
        assert abs(bw["ric_VV_lb"] - dw["ric_vv"]) < 1e-12
        assert bw["ric_XV_abs_ub"] == 0.0

    def test_constant_warps_leave_only_fibre_term(self):
        r = 0.37
        dom = (0.0, 1.0)
        m = kv.BundleWarpedMetric(
            2, 3, cv.constant_curve(1.0, dom), cv.constant_curve(r, dom),
            ricci_fibre_lb=0.8)
        cp = at(kv.bundle_warped_sweep, m, 0.5)
        assert abs(cp["ric_VV_lb"] - 0.8 * 1 / r ** 2) < 1e-12

    def test_mixed_bound_zero_for_trivial_bundles(self):
        dom = (0.0, 1.0)
        m = kv.BundleWarpedMetric(2, 2, cv.constant_curve(1.0, dom),
                                  cv.constant_curve(1.0, dom))
        assert at(kv.bundle_warped_sweep, m, 0.3)["ric_XV_abs_ub"] == 0.0

    def test_unfavorable_base_term_uses_sup(self):
        dom = (0.0, 1.0)
        plain = kv.BundleWarpedMetric(
            2, 3, cv.constant_curve(1.0, dom), cv.constant_curve(1.0, dom))
        bounded = kv.BundleWarpedMetric(
            2, 3, cv.constant_curve(1.0, dom), cv.constant_curve(1.0, dom),
            a_bounds=kv.ABounds(sup_AX2=0.5, sup_deltaA=0.25))
        a = at(kv.bundle_warped_sweep, plain, 0.5)
        b = at(kv.bundle_warped_sweep, bounded, 0.5)
        assert abs((a["ric_XX_lb"] - b["ric_XX_lb"]) - 2 * 0.5) < 1e-12
        assert abs(b["ric_XV_abs_ub"] - 0.25) < 1e-12

    def test_transfer_sweep_is_the_formula_with_every_a_term(
            self, monkeypatch):
        """On the default transfer block's metric and grid (its report's
        sweep) the sweep's columns are bitwise the formula with both
        A-terms kept: with a zero ABounds, whose terms the sweep drops, and
        with a nonzero one, whose terms it subtracts."""
        calls = capture_sweep(monkeypatch, "bundle_warped_sweep")
        params = scenarios.DEFAULT_PIPELINE_PARAMS["transfer"]
        rep = blocks.build_transfer_block(p=2, q=3, **params)
        ts = rep.sweeps["ricci"]["t"]
        m, grid = calls[-1]
        assert grid is ts
        assert m.a_bounds.trivial
        for ab in (m.a_bounds, kv.ABounds(0.5, 0.25)):
            bounded = kv.BundleWarpedMetric(m.p, m.q, m.f, m.h,
                                            m.ricci_base_lb,
                                            m.ricci_fibre_lb, ab)
            got = kv.bundle_warped_sweep(bounded, ts)
            assert_same_columns(got, bundle_formula(bounded, ts))
            if not ab.trivial:
                assert np.all(got["ric_XV_abs_ub"] > 0.0)
                plain = bundle_formula(m, ts)["ric_XX_lb"]
                assert np.all(got["ric_XX_lb"] < plain)

    def test_zero_bounds_drop_a_terms_that_would_be_nan(self):
        """Where fv^3 and fv^4 underflow the kept A-terms are inf * 0 =
        NaN; with a zero ABounds the sweep drops them, so the rows keep
        the other terms and a mixed bound of +0.0."""
        dom = (0.0, 1.0)
        m = kv.BundleWarpedMetric(2, 3, cv.constant_curve(1e-110, dom),
                                  cv.constant_curve(1.0, dom))
        ts = np.linspace(0.0, 1.0, 5)
        got = kv.bundle_warped_sweep(m, ts)
        kept = bundle_formula(m, ts)
        assert np.all(np.isnan(kept["ric_XX_lb"]))
        assert np.all(np.isnan(kept["ric_XV_abs_ub"]))
        assert np.all(got["ric_XX_lb"] == 2.0 / 1e-110 ** 2)
        assert got["ric_XV_abs_ub"].tobytes() == np.zeros(5).tobytes()


class TestSubmersionBounds:
    def test_product_case_positive_for_every_r(self):
        for r in (0.01, 0.5, 3.0, 50.0):
            cp = kv.submersion_shrink_bounds(1.0, 1.0, kv.ABounds(), r)
            assert cp["ric_vertical_lb"] > 0
            assert cp["ric_horizontal_lb"] > 0
            assert cp["ric_mixed_abs_ub"] == 0.0
            assert cp["r_star"] == math.inf

    def test_threshold_value(self):
        cp = kv.submersion_shrink_bounds(1.0, 1.0,
                                         kv.ABounds(sup_AX2=2.0), 0.1)
        assert abs(cp["r_star"] - 0.5) < 1e-15
        assert cp["ric_horizontal_lb"] == 1.0 - 4.0 * 0.01

    def test_mixed_bound_vanishes_as_r_shrinks(self):
        vals = [kv.submersion_shrink_bounds(
            1.0, 1.0, kv.ABounds(sup_deltaA=3.0), r)["ric_mixed_abs_ub"]
            for r in (0.1, 0.01, 0.001)]
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < 1e-5

    def test_threshold_absent_without_positive_bounds(self):
        cp = kv.submersion_shrink_bounds(-1.0, 1.0, kv.ABounds(), 0.5)
        assert "r_star" not in cp


class TestCohomogOne:
    def wu_metric(self):
        f0 = cv.cosine_curve(2 / PI, PI / 2, 0.0, (-1.0, 1.0))
        h0 = cv.constant_curve(2 / PI, (-1.0, 1.0))
        return kv.CohomogOneMetric(2, 2, f0, h0)

    def test_symmetric_family_diagonal_at_origin(self):
        cp = at(kv.cohomog1_sweep, self.wu_metric(), 0.0, "wu")
        assert abs(cp["ric_tt"] - (PI / 2) ** 2) < 1e-12
        assert abs(cp["ric_VV"] - 3 * (PI / 2) ** 2) < 1e-12
        assert abs(cp["ric_XX"] - PI ** 2 / 2) < 1e-12

    def test_projective_d2n2_matches_wu_formulas(self):
        m = self.wu_metric()
        ts = np.linspace(-0.9, 0.9, 20)
        wu = kv.cohomog1_sweep(m, ts, "wu")
        proj = kv.cohomog1_sweep(m, ts, "projective")
        for key in wu:
            assert np.max(np.abs(wu[key] - proj[key])) < 1e-12

    def test_symmetric_projective_metric_is_einstein(self):
        f0 = cv.cosine_curve(2 / PI, PI / 2, 0.0, (-1.0, 1.0))
        h0 = cv.sine_curve(4 / PI, PI / 4, PI / 4, (-1.0, 1.0))
        m = kv.CohomogOneMetric(2, 3, f0, h0)
        ts = np.concatenate([[-1.0], np.linspace(-0.95, 0.95, 21), [1.0]])
        sweep = kv.cohomog1_sweep(m, ts, "projective")
        for key in sweep:
            assert np.max(np.abs(sweep[key] - sweep["ric_tt"][0])) < 1e-9

    def test_equal_warps_match_single_warp_formula(self):
        dom = (-1.0, 1.0)
        f = cv.curve_from_derivs(
            dom,
            lambda t: 1.1 + 0.2 * np.cos(t),
            lambda t: -0.2 * np.sin(t),
            lambda t: -0.2 * np.cos(t),
            lambda t: 0.2 * np.sin(t))
        for d, n in ((2, 3), (4, 2)):
            m = kv.CohomogOneMetric(d, n, f, f)
            cp = at(kv.cohomog1_sweep, m, 0.4, "projective")
            nd = n * d
            fv, f1, f2 = f(0.4), f(0.4, 1), f(0.4, 2)
            single = -f2 / fv + (nd - 2) * (1 - f1 ** 2) / fv ** 2
            assert abs(cp["ric_VV"] - single) < 1e-12
            assert abs(cp["ric_XX"] - single) < 1e-12
            md = kv.DoublyWarpedMetric(d - 1, (n - 1) * d, f, f)
            dw = at(kv.doubly_warped_sweep, md, 0.4)
            assert abs(cp["ric_tt"] - dw["ric_tt"]) < 1e-12

    def test_wu_endpoints(self):
        cp = at(kv.cohomog1_sweep, self.wu_metric(), 1.0, "wu")
        assert abs(cp["ric_tt"] - (PI / 2) ** 2) < 1e-12
        assert abs(cp["ric_VV"] - (PI / 2) ** 2) < 1e-12
        assert abs(cp["ric_XX"] - PI ** 2) < 1e-12

    @pytest.mark.parametrize("family", ["projective", "wu"])
    def test_endpoints_read_orders_0_to_2_from_the_sweep(self, family):
        """The sweep evaluates each warp once on the grid, orders 0-2; an
        end adds only the third derivative of each warp it divides by."""
        log = []

        def logged(name, curve):
            def orders(t, ks):
                log.append((name, tuple(ks), np.shape(t)))
                return curve._at(t, ks)
            return cv.SmoothCurve(curve.t_lo, curve.t_hi, orders)

        f0 = cv.cosine_curve(2 / PI, PI / 2, 0.0, (-1.0, 1.0))
        h0 = (cv.sine_curve(4 / PI, PI / 4, PI / 4, (-1.0, 1.0))
              if family == "projective"
              else cv.constant_curve(2 / PI, (-1.0, 1.0)))
        m = kv.CohomogOneMetric(2, 2, logged("f", f0), logged("h", h0))
        ts = np.linspace(-1.0, 1.0, 9)
        got = kv.cohomog1_sweep(m, ts, family)
        want = kv.cohomog1_sweep(kv.CohomogOneMetric(2, 2, f0, h0), ts,
                                 family)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes()
        # each warp's jet: its orders 0-2 on the grid, then its third
        # derivative at each end where it vanishes
        want = [("f", (0, 1, 2), (9,)), ("f", (3,), ()), ("f", (3,), ()),
                ("h", (0, 1, 2), (9,))]
        if family == "projective":          # h vanishes with f at t = -1
            want.append(("h", (3,), ()))
        assert log == want

    def test_interior_singularity_rejected(self):
        f0 = cv.sine_curve(1.0, PI, 0.0, (-1.0, 1.0))   # vanishes at 0
        h0 = cv.constant_curve(1.0, (-1.0, 1.0))
        m = kv.CohomogOneMetric(2, 2, f0, h0)
        with pytest.raises(ValueError, match="undeclared singularity"):
            at(kv.cohomog1_sweep, m, 0.0, "wu")


def cohomog1_written_out(m, ts, f_jet, h_jet, family):
    """The cohomog1 columns from the formulas as written, each power and
    product of the warps evaluated where it appears, on the warps' jets
    on ts; the ends where a warp collapses take ``_cohomog1_endpoint``."""
    d, n = m.d, m.n
    fv, f1, f2 = f_jet[:3]
    hv, h1, h2 = h_jet[:3]
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "projective":
            cols = {
                "ric_tt": -(d - 1) * f2 / fv - (n - 1) * d * h2 / hv,
                "ric_VV": (-f2 / fv + (d - 2) * (1 - f1 ** 2) / fv ** 2
                           - (n - 1) * d * f1 * h1 / (fv * hv)
                           + (n - 1) * d * fv ** 2 / hv ** 4),
                "ric_XX": (-h2 / hv
                           + ((n - 1) * d - 1) * (1 - h1 ** 2) / hv ** 2
                           - (d - 1) * f1 * h1 / (fv * hv)
                           + 3.0 * (d - 1) / hv ** 2
                           - 2.0 * (d - 1) * fv ** 2 / hv ** 4)}
        else:
            cols = {
                "ric_tt": -f2 / fv - 2.0 * h2 / hv,
                "ric_VV": (-f2 / fv - 2.0 * f1 * h1 / (fv * hv)
                           + 2.0 * fv ** 2 / hv ** 4),
                "ric_XX": (-h2 / hv + (1 - h1 ** 2) / hv ** 2
                           - f1 * h1 / (fv * hv) + 3.0 / hv ** 2
                           - 2.0 * fv ** 2 / hv ** 4)}
    thirds = (dict(f_jet[3]), dict(h_jet[3]))
    for i in np.nonzero(~kv._cohomog1_inner(m.f.domain, ts))[0]:
        ends = kv._cohomog1_endpoint(m, float(ts[i]), family,
                                     [fv[i], f1[i], f2[i]],
                                     [hv[i], h1[i], h2[i]], thirds)
        for k, v in ends.items():
            cols[k][i] = v
    return cols


@pytest.mark.numpy_contract(
    "a power or product's bits reused, in one pass, against blocked sweeps")
class TestCohomogOneWrittenOut:
    """The cohomog1 sweep computes each power and product of the warps
    once; its columns are those of the formulas as written, bit for bit,
    ends included."""

    @pytest.mark.parametrize("d, n", [(2, 2), (4, 2), (4, 3), (8, 2)])
    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_projective_member(self, d, n, s):
        h, _, ts, f_jet, h_jet, _ = blocks._projective_member(s, None)
        rep = blocks.projective_family_check(d, n, s)
        assert ts[0] == -1.0 and ts[-1] == 1.0
        m = kv.CohomogOneMetric(d, n, rep.aux["curves"]["f"], h)
        assert_same_columns(
            rep.sweeps["ricci"]["columns"],
            cohomog1_written_out(m, ts, f_jet, h_jet, "projective"))

    def test_wu(self):
        m = TestCohomogOne().wu_metric()
        ts = np.linspace(-1.0, 1.0, 1025)
        jets = [kv.cohomog1_jet(c, ts, m.f.domain) for c in (m.f, m.h)]
        assert_same_columns(kv.cohomog1_sweep(m, ts, "wu"),
                            cohomog1_written_out(m, ts, *jets, "wu"))


def assert_same_columns(got, want):
    assert list(got) == list(want)
    for key in want:
        g, w = got[key], want[key]
        assert g.dtype == w.dtype and g.shape == w.shape, key
        assert np.array_equal(g, w, equal_nan=True), key
        assert np.array_equal(np.signbit(g), np.signbit(w)), key


def bundle_formula(m, ts) -> dict:
    """The bundle sweep's columns for a fibre that does not close, with
    both A-terms subtracted whatever their bounds."""
    p, q, ab = m.p, m.q, m.a_bounds
    rb = m.ricci_base_lb * (q - 1)
    rf = m.ricci_fibre_lb * (p - 1)
    (fv, f1, f2), (hv, h1, h2) = m.f.jet(ts), m.h.jet(ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        return {
            "ric_tt": -q * f2 / fv - p * h2 / hv,
            "ric_XX_lb": (-f2 / fv + (rb - (q - 1) * f1 ** 2) / fv ** 2
                          - p * f1 * h1 / (fv * hv)
                          - 2.0 * (hv ** 2 / fv ** 4) * ab.sup_AX2),
            "ric_VV_lb": (-h2 / hv + (rf - (p - 1) * h1 ** 2) / hv ** 2
                          - q * f1 * h1 / (fv * hv)),
            "ric_XV_abs_ub": (hv / fv ** 3) * ab.sup_deltaA}


def capture_sweep(monkeypatch, name):
    """Record the (metric, grid) of every call of blocks.<name>."""
    calls = []
    sweep = getattr(blocks, name)

    def recorded(m, ts, *args):
        calls.append((m, ts))
        return sweep(m, ts, *args)

    monkeypatch.setattr(blocks, name, recorded)
    return calls


def nan_and_signed_zero_metric():
    """Doubly warped metric whose columns hold NaN, -0.0 and +0.0: f'' is
    NaN on (0.6, 0.7) and zero elsewhere, h is constant."""
    dom = (0.0, 1.0)
    f = cv.curve_from_derivs(
        dom,
        lambda t: 1.5 + 0.0 * np.asarray(t, float),
        lambda t: np.zeros_like(np.asarray(t, float)),
        lambda t: np.where((np.asarray(t, float) > 0.6)
                           & (np.asarray(t, float) < 0.7), np.nan, 0.0),
        lambda t: np.zeros_like(np.asarray(t, float)))
    return kv.DoublyWarpedMetric(2, 3, f, cv.constant_curve(1.0, dom))


def pointwise_cases():
    """(name, sweep on a grid, grid end points): each sweep on a metric
    with collapse ends, NaN and signed zeros, a graph height, A-terms and
    both cohomogeneity-one families."""
    lam1, eps1 = 0.9, 0.05
    f_g = cv.make_concave_profile(lam1, 0.95, 0.1, t_max=40.0)
    R_g = cv.sine_curve(0.9, 1.0, 0.0, (0.01, PI / 2))
    height = _cut_height(lam1, eps1)
    wu = TestCohomogOne().wu_metric()
    proj = projective_metric(4, 2, 0.5)
    f = cv.sine_curve(1.0, 1.0, 0.3, (0.0, 1.0))
    bundle = kv.BundleWarpedMetric(2, 3, f,
                                   cv.sine_curve(0.5, 1.3, 0.9, (0.0, 1.0)),
                                   a_bounds=kv.ABounds(0.1, 0.3))
    return [
        ("doubly_warped", lambda ts: kv.doubly_warped_sweep(
            round_sphere_metric(3, 2), ts), (0.0, PI / 2)),
        ("doubly_warped_nan", lambda ts: kv.doubly_warped_sweep(
            nan_and_signed_zero_metric(), ts), (0.0, 1.0)),
        ("graph_ii", lambda ts: kv.graph_ii_sweep(
            f_g, R_g, height.jet(ts, 2), ts), (eps1, 1.2)),
        ("bundle_warped", lambda ts: kv.bundle_warped_sweep(bundle, ts),
         (0.0, 1.0)),
        ("cohomog1_projective",
         lambda ts: kv.cohomog1_sweep(proj, ts, "projective"), (-1.0, 1.0)),
        ("cohomog1_wu", lambda ts: kv.cohomog1_sweep(wu, ts, "wu"),
         (-1.0, 1.0)),
    ]


@pytest.mark.numpy_contract(
    "a sweep on parts of a grid against one pass on the whole grid")
class TestSweepsArePointwise:
    """A sweep runs in one pass over its whole grid, and a row depends on
    its own point only: the columns of the sweep on any part of a grid are
    bitwise the rows of that part in the sweep of the whole grid, and so
    are the collapse ends, NaN rows and signed zeros."""

    @pytest.mark.parametrize("n", [1, 2, 1001, 33_000])
    @pytest.mark.parametrize("case", range(6))
    def test_parts_equal_the_whole(self, case, n):
        _, sweep, (lo, hi) = pointwise_cases()[case]
        ts = np.linspace(lo, hi, n)
        whole = sweep(ts)
        assert all(col.shape == ts.shape for col in whole.values())
        cuts = sorted({c for c in (1, n // 3, n // 3 + 1, n - 1) if 0 < c < n})
        for part in np.split(np.arange(n), cuts):
            rows = {k: col[part] for k, col in whole.items()}
            assert_same_columns(sweep(ts[part]), rows)

    @pytest.mark.parametrize("n", [1, 16_384, 16_385, 49_152])
    def test_each_warp_is_read_once_on_the_callers_grid(self, monkeypatch,
                                                        n):
        grids = []
        jet = cv.SmoothCurve.jet

        def counted(curve, t, *args):
            grids.append(t)
            return jet(curve, t, *args)

        monkeypatch.setattr(cv.SmoothCurve, "jet", counted)
        f = cv.sine_curve(1.0, 1.0, 0.3, (0.0, 1.0))
        h = cv.sine_curve(0.5, 1.3, 0.9, (0.0, 1.0))
        ts = np.linspace(0.0, 1.0, n)
        got = kv.bundle_warped_sweep(kv.BundleWarpedMetric(2, 3, f, h), ts)
        assert len(grids) == 2
        assert all(g is ts for g in grids)      # no slicing and no copy
        assert all(len(col) == n for col in got.values())

    def test_transfer_grid_over_100k_points(self, monkeypatch):
        calls = capture_sweep(monkeypatch, "bundle_warped_sweep")
        rep = blocks.build_transfer_block(3, 3, r0=0.1, nu=1.25, lam=0.5,
                                          a=0.2, C=0.5, grid=3072)
        got = rep.sweeps["ricci"]["columns"]
        m, ts = calls[-1]
        assert ts is rep.sweeps["ricci"]["t"]
        assert len(ts) > 100_000
        assert m.a_bounds.trivial
        assert_same_columns(got, bundle_formula(m, ts))


class TestSweepChecks:
    """A sweep's checks run over its whole grid, each raising its own
    message, and the first check the grid fails raises; a bundle sweep
    takes the collapse limit at t_lo, and a graph sweep reads the
    height's orders 0-2 only."""

    def test_collapse_at_t_lo_takes_the_limit(self, monkeypatch):
        calls = capture_sweep(monkeypatch, "bundle_warped_sweep")
        rep = blocks.build_s1_block(3, 0.4)
        (m, ts), = calls
        assert m.collapse_start == "h" and m.h.eval(ts[0]) == 0.0
        got = rep.sweeps["ricci"]["columns"]
        assert_same_columns(got, kv.bundle_warped_sweep(m, ts))
        limit = (-m.q * m.f.eval(0.0, 2) / m.f.eval(0.0)
                 - m.p * m.h.eval(0.0, 3) / m.h.eval(0.0, 1))
        assert got["ric_tt"][0] == pytest.approx(limit, rel=1e-12)

    @staticmethod
    def bad_bundle(f_zero, h_zero, collapse_start=None):
        """Bundle metric on [0, 1] whose base warp crosses zero at f_zero
        and whose fibre warp crosses zero at h_zero (none if None)."""
        dom = (0.0, 1.0)
        f = cv.line_curve(1.0, -1.0 / f_zero, dom)
        h = (cv.constant_curve(1.0, dom) if h_zero is None
             else cv.line_curve(1.0, -1.0 / h_zero, dom))
        return kv.BundleWarpedMetric(2, 3, f, h,
                                     collapse_start=collapse_start)

    @pytest.mark.parametrize("h_zero", [None, 0.25])
    def test_base_warp_check_comes_first(self, h_zero):
        # with h_zero the fibre warp vanishes, at points before the base
        # warp's, and the base warp check still raises
        m = self.bad_bundle(0.75, h_zero)
        with pytest.raises(ValueError) as err:
            kv.bundle_warped_sweep(m, np.linspace(0.0, 1.0, 1001))
        assert str(err.value) == "base warp must stay positive"

    def test_fibre_collapse_without_a_declared_collapse(self):
        m = self.bad_bundle(2.0, 0.8)
        with pytest.raises(ValueError) as err:
            kv.bundle_warped_sweep(m, np.linspace(0.0, 1.0, 1001))
        assert str(err.value) == \
            "fibre warp vanishes without a declared collapse"

    def test_declared_fibre_collapse_away_from_t_lo(self):
        m = self.bad_bundle(2.0, 0.8, collapse_start="h")
        with pytest.raises(ValueError) as err:
            kv.bundle_warped_sweep(m, np.linspace(0.0, 1.0, 1001))
        assert str(err.value) == "fibre collapse away from t_lo"

    def test_cohomog1_interior_check_before_a_bad_endpoint(self):
        # f = 0.5 - t does not vanish at the end t = -1 and turns
        # non-positive at t = 0.5: the interior check raises, naming the
        # first such grid point, before the endpoint values are reached
        dom = (-1.0, 1.0)
        m = kv.CohomogOneMetric(2, 2, cv.line_curve(0.5, -1.0, dom),
                                cv.constant_curve(1.0, dom))
        ts = np.linspace(-1.0, 1.0, 1000)
        first = ts[np.flatnonzero(0.5 - ts <= 0.0)[0]]
        with pytest.raises(ValueError) as err:
            kv.cohomog1_sweep(m, ts, "wu")
        assert str(err.value) == \
            f"undeclared singularity at interior t={first}"

    def test_grid_outside_the_domain(self):
        # the domain check comes before the base warp's, which fails too
        m = self.bad_bundle(0.75, None)
        with pytest.raises(ValueError, match=r"t outside \["):
            kv.bundle_warped_sweep(m, np.linspace(0.0, 1.5, 1001))

    def test_graph_sweep_reads_no_order_above_2(self):
        f = cv.make_concave_profile(0.9, 0.95, 0.1, t_max=40.0)
        R = cv.sine_curve(0.9, 1.0, 0.0, (0.01, PI / 2))
        ss = np.linspace(0.05, 1.2, 1001)
        jet = _cut_height(0.9, 0.05).jet(ss, 2)
        assert_same_columns(kv.graph_ii_sweep(f, R, (*jet, None), ss),
                            kv.graph_ii_sweep(f, R, jet, ss))


class TestFiniteDifferenceOracle:
    def test_flat_space_is_ricci_flat(self):
        ric = kv.fd_ricci(kv.flat_chart(3), [0.1, -0.2, 0.3])
        assert np.max(np.abs(ric)) < 1e-8

    def test_unit_three_sphere_eigenvalues(self):
        f = cv.sine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
        h = cv.cosine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
        m = kv.DoublyWarpedMetric(1, 1, f, h, collapse_start="f",
                                  collapse_end="h")
        chart = kv.doubly_warped_chart(m)
        ric = kv.fd_ricci(chart, [0.7, 1.1, 0.9])
        g = chart.metric([0.7, 1.1, 0.9])
        evals = np.linalg.eigvalsh(np.linalg.solve(g, ric))
        assert np.max(np.abs(evals - 2.0)) < 1e-4

    def test_chart_evaluates_the_warps_once_per_t(self):
        calls = []

        def counted(curve):
            def d0(t):
                calls.append(float(t))
                return curve.eval(t)
            return cv.curve_from_derivs(
                curve.domain, d0, *(lambda t, k=k: curve.eval(t, k)
                                    for k in (1, 2, 3)))

        f = cv.sine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
        h = cv.cosine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
        m = kv.DoublyWarpedMetric(1, 2, counted(f), counted(h),
                                  collapse_start="f", collapse_end="h")
        x = [0.7, 1.1, 0.9, 1.3]
        chart = kv.doubly_warped_chart(m)
        ric = kv.fd_ricci(chart, x)
        # Two warps at t and t +- step, t +- 2 step.
        assert len(calls) == 2 * 5
        assert len(set(calls)) == 5
        fresh = kv.doubly_warped_chart(m)
        assert kv.fd_ricci(chart, x).tobytes() == ric.tobytes()
        assert kv.fd_ricci(fresh, x).tobytes() == ric.tobytes()
        assert len(calls) == 4 * 5

    def test_oracle_matches_closed_form(self):
        rep = kv.oracle_cross_check(round_sphere_metric(), n_points=10,
                                    seed=3)
        assert rep["max_rel_error"] < 1e-4
        rep = kv.oracle_cross_check(cylinder_metric(), n_points=10, seed=4)
        assert rep["max_rel_error"] < 1e-4

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_on_a_blended_warp(self, seed):
        """The projective h has a smooth-join window of half-width 0.05
        where its fourth derivative reaches about 2e4; one oracle step of
        3e-4 errs there by up to 9e-4 relative, the Richardson combination
        by about 2e-5."""
        h = blocks.projective_family_check(2, 2, 1.0).aux["curves"]["h"]
        m = kv.DoublyWarpedMetric(2, 2, h, cv.constant_curve(1.0, h.domain),
                                  collapse_start="f")
        rep = kv.oracle_cross_check(m, n_points=40, seed=seed)
        assert rep["max_rel_error"] < 1e-4

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    def test_projective_family_matches_oracle(self, s):
        """d = n = 2: dt^2 + (f^2/4)(dpsi + cos(theta) dphi)^2
        + (h^2/4)(dtheta^2 + sin^2(theta) dphi^2) in the chart
        (t, theta, phi, psi), against the sweep the projective verdicts
        use, in the orthonormal frame e_t, e_V, e_X1, e_X2.

        Inside the smooth-join window of h the fourth derivative of h
        reaches about 2e4, so the O(step^2) error of one oracle step is
        up to 6e-4 relative there; the Richardson combination of steps
        3e-4 and 1.5e-4 stays below 1e-5."""
        m = projective_metric(2, 2, s)

        def metric(x):
            t, th = x[0], x[1]
            a, b = m.f(float(t)) ** 2 / 4.0, m.h(float(t)) ** 2 / 4.0
            c = math.cos(th)
            return np.array([
                [1.0, 0.0, 0.0, 0.0],
                [0.0, b, 0.0, 0.0],
                [0.0, 0.0, a * c * c + b * math.sin(th) ** 2, a * c],
                [0.0, 0.0, a * c, a]])

        chart = kv.CoordinateChart(
            4, metric, ((-0.85, 0.85), (0.5, PI - 0.5), (-1.0, 1.0),
                        (-1.0, 1.0)), "projective-d2")
        step = 3e-4
        rng = np.random.default_rng(5)
        points = [np.array([rng.uniform(lo + 3 * step, hi - 3 * step)
                            for lo, hi in chart.box]) for _ in range(12)]
        t_flat = (1.0 - s) / (1.0 + s)
        if s > 0:   # the join window [t_flat - 0.05, t_flat + 0.05]
            points += [np.array([t_flat + 0.045 * u, *p[1:]])
                       for u, p in zip((-1.0, -0.5, 0.0, 0.5, 1.0), points)]
        for x in points:
            ric = (4.0 * kv.fd_ricci(chart, x, step / 2)
                   - kv.fd_ricci(chart, x, step)) / 3.0
            t, th = float(x[0]), x[1]
            fv, hv = m.f(t), m.h(t)
            frame = np.array([
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 2.0 / fv],
                [0.0, 2.0 / hv, 0.0, 0.0],
                [0.0, 0.0, 2.0 / (hv * math.sin(th)),
                 -2.0 * math.cos(th) / (hv * math.sin(th))]])
            got = frame @ ric @ frame.T
            ref = at(kv.cohomog1_sweep, m, t)
            expect = np.diag([ref["ric_tt"], ref["ric_VV"], ref["ric_XX"],
                              ref["ric_XX"]])
            tol = 1e-4 * np.maximum(1.0, np.abs(np.diag(expect)))
            assert np.all(np.abs(np.diag(got) - np.diag(expect)) <= tol), \
                (s, t, np.diag(got), np.diag(expect))
            # the frame diagonalizes the Ricci tensor
            assert np.max(np.abs(got - np.diag(np.diag(got)))) \
                <= np.max(tol), (s, t)

    @staticmethod
    def bundle_case(case, monkeypatch):
        """A trivial bundle metric: fibre S^p, base S^q, zero A-bounds and
        unit Ricci floors."""
        if case == "transfer":
            # the default transfer block's warps: C = 0.5 on [0, t0],
            # those of its grid sweep, built on the first read
            rep = blocks.build_transfer_block(
                2, 3, **scenarios.DEFAULT_PIPELINE_PARAMS["transfer"])
            calls = capture_sweep(monkeypatch, "bundle_warped_sweep")
            rep.sweeps
            (m, _), = calls
            assert m.a_bounds.trivial
            assert m.ricci_base_lb == m.ricci_fibre_lb == 1.0
            return m
        p, q = case
        dom = (0.1, 1.2)
        return kv.BundleWarpedMetric(
            p, q, cv.sine_curve(1.2, 0.8, 0.3, dom),
            cv.cosine_curve(0.9, 0.7, 0.2, dom))

    @pytest.mark.parametrize("case", [(2, 3), (3, 2), "transfer"],
                             ids=["S2-over-S3", "S3-over-S2", "transfer"])
    def test_bundle_warped_sweep_matches_oracle(self, case, monkeypatch):
        """On a trivial bundle, dt^2 + f^2 ds_q^2 + h^2 ds_p^2 is doubly
        warped, so the chart of DoublyWarpedMetric(q, p, f, h) is an oracle
        for ric_tt, ric_XX_lb and ric_VV_lb.

        The bound is absolute below 1: the transfer block's ric_tt is
        about 1e-3, and there the chart's second differences of the
        Hermite value table differ from the table's own f'' between nodes
        by about 2.3e-4 relative."""
        m = self.bundle_case(case, monkeypatch)
        chart = kv.doubly_warped_chart(
            kv.DoublyWarpedMetric(m.q, m.p, m.f, m.h))
        step = 3e-4
        rng = np.random.default_rng(7)
        xs = [np.array([rng.uniform(lo + 3 * step, hi - 3 * step)
                        for lo, hi in chart.box]) for _ in range(12)]
        sweep = kv.bundle_warped_sweep(m, np.array([x[0] for x in xs]))
        for i, x in enumerate(xs):
            ric = (4.0 * kv.fd_ricci(chart, x, step / 2)
                   - kv.fd_ricci(chart, x, step)) / 3.0
            oracle = np.diag(ric) / np.diag(chart.metric(x))
            want = np.concatenate([[sweep["ric_tt"][i]],
                                   np.full(m.q, sweep["ric_XX_lb"][i]),
                                   np.full(m.p, sweep["ric_VV_lb"][i])])
            assert np.all(np.abs(oracle - want)
                          <= 1e-6 * np.maximum(1.0, np.abs(want))), \
                (case, x[0], oracle, want)

    def test_stencil_guard(self):
        with pytest.raises(ValueError, match="too close to the chart "
                           "boundary"):
            kv.fd_ricci(kv.flat_chart(2), [0.9999, 0.0])
