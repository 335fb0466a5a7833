import functools
import math

import numpy as np
import pytest

from warpbench import blocks as bk
from warpbench import curves as cv

PI = math.pi

GOOD_H1 = dict(lambda1=0.985, lambda2=0.99, eps1=0.01, eps2=0.1,
               delta=0.05)
GOOD_H2 = dict(lambda1=0.01, lambda2=0.02, a=0.02, b=1.5, eps=0.1, nu=0.03)


def round_pair(s0=1.3):
    A = cv.sine_curve(2 * s0 / PI, PI / (2 * s0), 0.0, (0.0, s0))
    B = cv.cosine_curve(2 * s0 / PI, PI / (2 * s0), 0.0, (0.0, s0))
    return A, B


class TestConeMetric:
    def test_zero_interpolation_is_round(self):
        rep = bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, 0.0)
        warp = rep.aux["curves"]["warp"]
        assert rep.passed
        ss = np.linspace(rep.aux["s_lo"], rep.aux["s_hi"], 512)
        assert np.max(np.abs(warp.eval(ss) - np.sin(ss))) < 1e-12

    def test_full_interpolation_middle_piece_after_rescale(self):
        K = 0.9
        rep = bk.build_cone_metric(4, K, 0.1, 0.1, 0.02, 1.0)
        warp = rep.aux["curves"]["warp"]
        assert rep.passed
        s1, s2 = rep.aux["s1"], rep.aux["s2"]
        us = np.linspace((s1 + 0.05) * K, (s2 - 0.05) * K, 256)
        assert np.max(np.abs(K * warp.eval(us / K) - K * np.sin(us))) \
            < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_family_certifies_ricci_floor(self, t):
        rep = bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, t)
        assert rep.passed, rep.verdict

    def test_margins_vary_continuously_in_t(self):
        mins = []
        for t in (0.4, 0.45):
            rep = bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, t)
            mins.append({m.label: m.min for m in rep.margins})
        for label, v in mins[0].items():
            assert abs(v - mins[1][label]) < 0.2

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_slope_bands_are_sampled_on_their_own_windows(self, t):
        """Each join's slope band is read on that join's window, also at
        t = 0, where both joins are identities."""
        delta = 0.02
        rep = bk.build_cone_metric(4, 0.9, 0.1, 0.1, delta, t)
        argmins = {m.label: m.argmin for m in rep.margins}
        for s, label in ((rep.aux["s1"], "slope_band_s1"),
                         (rep.aux["s2"], "slope_band_s2")):
            for side in ("lower", "upper"):
                arg = argmins[f"{label}_{side}"]
                assert s - delta <= arg <= s + delta, (label, side, arg)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(bk.BuildError):
            bk.build_cone_metric(4, 1.0, 0.1, 0.1, 0.02, 0.5)
        with pytest.raises(bk.BuildError):
            bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.5, 0.5)

    def test_deterministic_margins(self):
        a = bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, 0.5)
        b = bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, 0.5)
        assert [(m.label, m.min, m.argmin) for m in a.margins] == \
            [(m.label, m.min, m.argmin) for m in b.margins]


class TestBuilderPreconditions:
    def test_cone_warp_closing_before_the_outer_end(self):
        with pytest.raises(bk.BuildError, match="< pi/2"):
            bk.build_cone_metric(4, 0.9, 0.334, 1.0, 0.001, 1.0)

    def test_handle1_outer_face_leaving_the_profile(self):
        with pytest.raises(bk.BuildError, match="outer face"):
            bk.build_handle1(4, 0.9, 0.1, 0.2, 0.001, 0.505, 0.001)


class TestCornerAngle:
    def test_moderate_slope_still_acute(self):
        theta = bk.corner_angle_handle1(0.5, 0.0)
        assert 2 * math.sin(0.5 * PI / 2) - 1 > 0
        assert theta < PI / 2

    def test_shallow_slope_gives_obtuse_angle(self):
        theta = bk.corner_angle_handle1(0.3, 0.0)
        assert 2 * math.sin(0.3 * PI / 2) - 1 < 0
        assert theta > PI / 2

    def test_steep_limit_sign(self):
        theta = bk.corner_angle_handle1(0.999, 1e-4)
        assert theta < PI / 2

    def test_sign_flip_matches_closed_form(self):
        for lam1, eps1 in ((0.9, 0.05), (0.45, 0.02), (0.35, 0.01)):
            theta = bk.corner_angle_handle1(lam1, eps1)
            cf = 2 * math.sin(lam1 * (PI / 2 - eps1)) - 1
            assert (theta < PI / 2) == (cf > 0)


class TestHandle1:
    def test_strong_sample_passes_all_conditions(self):
        rep = bk.build_handle1(4, 0.9, **GOOD_H1)
        assert rep.passed, rep.verdict
        assert rep.aux["theta"] < PI / 2
        assert abs(rep.aux["theta"] - rep.aux["theta_closed_form"]) \
            < 10 * (GOOD_H1["lambda2"] - GOOD_H1["lambda1"])
        assert rep.aux["lambda"] < 1.0

    def test_weak_slope_fails_named_condition(self):
        rep = bk.build_handle1(4, 0.9, lambda1=0.5, lambda2=0.51,
                               eps1=0.05, eps2=0.1, delta=0.05)
        assert not rep.passed
        assert rep.verdict.startswith("fail:")

    @pytest.mark.parametrize("lam1", [0.85, 0.92, 0.99])
    def test_tangent_chain_inequality_holds_pointwise(self, lam1):
        eps1 = 0.05
        ss = np.linspace(eps1, PI / 2 - 1e-6, 2048)
        chain = lam1 * np.tan(ss) - np.tan(lam1 * (ss - eps1))
        assert np.min(chain) > 0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(bk.BuildError):
            bk.build_handle1(4, 0.9, lambda1=0.9, lambda2=0.95, eps1=0.0,
                             eps2=0.1, delta=0.05)

    @pytest.mark.parametrize("params", [
        GOOD_H1, dict(lambda1=0.9, lambda2=0.92, eps1=0.05, eps2=0.05,
                      delta=0.03)])
    def test_cap_profile_is_the_closed_form(self, params):
        """The cap_profile columns are phi(r) = sin(s) sqrt(1 + l1^2 r^2)
        and phi''(r) = sin(s) (l1^2 - 1) / (1 + l1^2 r^2)^1.5 with
        s = arctan(l1 r)/l1 + eps1, evaluated point by point in math; the
        cap_concavity margin is the minimum of -phi''; and phi'' is the
        second difference of phi."""
        rep = bk.build_handle1(4, 0.9, **params)
        l1, eps1 = params["lambda1"], params["eps1"]
        prof = rep.sweeps["cap_profile"]
        rr, phi, phi_dd = (prof["t"], prof["columns"]["phi"],
                           prof["columns"]["phi_dd"])
        assert rr[0] == 0.0 and rr[-1] == rep.aux["r_max"]
        want, want_dd = [], []
        for r in rr.tolist():
            sin_s = math.sin(math.atan(l1 * r) / l1 + eps1)
            q = 1.0 + (l1 * r) ** 2
            want.append(sin_s * math.sqrt(q))
            want_dd.append(sin_s * (l1 * l1 - 1.0) / q ** 1.5)
        assert np.allclose(phi, want, rtol=1e-13, atol=0.0)
        assert np.allclose(phi_dd, want_dd, rtol=1e-13, atol=0.0)
        m = rep.margin("cap_concavity")
        i = int(np.argmin(-phi_dd))
        assert m.min == -phi_dd[i] and m.argmin == rr[i]
        assert abs(m.min - min(-v for v in want_dd)) <= 1e-13 * abs(m.min)
        h = rr[1] - rr[0]
        second = (phi[2:] - 2.0 * phi[1:-1] + phi[:-2]) / h ** 2
        assert np.max(np.abs(second - phi_dd[1:-1])) < 1e-6

    def test_boundary_profiles_carry_corner(self):
        rep = bk.build_handle1(4, 0.9, **GOOD_H1)
        outer = rep.boundary["outer"]
        assert outer.corners[0].id == "rim"
        assert abs(outer.corners[0].angle - rep.aux["theta"]) < 1e-12
        assert set(rep.boundary) == {"bottom", "cap", "outer"}


class TestHandle2:
    def make_B(self):
        return cv.cosine_curve(0.9, 1.0, 0.1, (0.0, 1.0))

    def test_closed_form_margin_at_zero(self):
        lam2, b = 0.25, 1.5
        for a in (0.1, 0.5):
            val = -a * a * lam2 * (1 + lam2 * b) - 2 * lam2 / 1.0 + 1.0 / b
            expected = 1.0 / 1.5 - 0.5 - a * a * 0.34375
            assert abs(val - expected) < 1e-12
            assert val > 0

    def test_corner_angle_values(self):
        assert abs(bk.corner_angle_handle2(1.0) - 3 * PI / 4) < 1e-12
        assert abs(bk.corner_angle_handle2(0.0) - PI / 2) < 1e-12
        rep = bk.build_handle2(self.make_B(), **GOOD_H2)
        assert rep.aux["theta"] == bk.corner_angle_handle2(GOOD_H2["a"])

    def test_angle_approaches_right_angle_for_small_slope(self):
        rep = bk.build_handle2(self.make_B(), 0.01, 0.02, 1e-4, 1.5,
                               0.1, 0.03)
        assert abs(rep.aux["theta"] - PI / 2) < 1e-3

    def test_pass_case_and_conservativity(self):
        rep = bk.build_handle2(self.make_B(), **GOOD_H2)
        assert rep.passed, rep.verdict
        assert rep.margin("conservativity").min >= 0
        assert rep.margin("collar_flatness").min > 0

    def test_depth_bound_enforced(self):
        with pytest.raises(bk.BuildError):
            bk.build_handle2(self.make_B(), 0.2, 0.25, 0.1, 2.5, 0.1, 0.3)

    def test_nu_floor_fails_when_slope_exceeds_it(self):
        rep = bk.build_handle2(self.make_B(), 0.01, 0.05, 0.02, 1.5,
                               0.1, 0.03)
        assert rep.verdict == "fail:bottom_convexity"

    def test_nonconvex_profile_rejected(self):
        bad = cv.sine_curve(1.0, 1.0, 0.1, (0.0, 1.0))   # increasing
        with pytest.raises(bk.BuildError):
            bk.build_handle2(bad, **GOOD_H2)


class TestHandleAssembly:
    def test_default_found_parameters_pass(self):
        rep = bk.assemble_handle(4, 0.9, GOOD_H1, GOOD_H2)
        assert rep.passed, rep.verdict
        assert rep.aux["angle_sum"] < PI
        assert rep.margin("boundary_curve_match").min > 0

    def test_angle_sum_failure_detected(self):
        params2 = dict(GOOD_H2, a=0.05, eps=0.2)
        rep = bk.assemble_handle(4, 0.9, GOOD_H1, params2)
        assert not rep.passed
        assert "angle_sum" in rep.verdict


class TestTransferBlock:
    def test_zero_coupling_exercises_error_path(self):
        with pytest.raises(bk.HorizonError, match="by t=120"):
            bk.build_transfer_block(2, 3, r0=0.1, nu=0.1, lam=0.5, a=0.02,
                                    C=0.0)

    def test_vertical_boundary_magnitude(self):
        rep = bk.build_transfer_block(2, 3, r0=0.1, nu=1.5, lam=0.5,
                                      a=0.2, C=0.5)
        expected = 0.2 * math.exp(-0.5) / 0.1
        assert abs(rep.aux["vertical_ii_at_0"] + expected) < 1e-12
        assert rep.boundary["bottom"].ii["vertical"] == \
            rep.aux["vertical_ii_at_0"]

    def test_passing_pair_certifies_all_bounds(self):
        rep = bk.build_transfer_block(2, 3, r0=0.1, nu=1.5, lam=0.5,
                                      a=0.2, C=0.5)
        assert rep.passed, rep.verdict
        assert abs(rep.aux["slope_check"] - 0.5) < 1e-9
        assert rep.aux["R"] == pytest.approx(
            rep.aux["r1"] * 0.1 ** -1 * 0 + rep.aux["R"])

    def test_shrinking_a_shrinks_reported_fibre_scale(self):
        r1s = [bk.build_transfer_block(2, 3, r0=0.1, nu=2.5, lam=0.5,
                                       a=a, C=0.5).aux["r1"]
               for a in (0.28, 0.24, 0.2)]
        assert r1s[0] > r1s[1] > r1s[2]


TRANSFER_KW = dict(p=2, q=3, r0=0.1, nu=1.5, lam=0.5, a=0.2, C=0.5)
# The default step cap of integrate_transfer_odes, which was the transfer
# block's fixed step count before the tables were sized by step doubling.
REF_STEPS = 131072


def _within_1e9(got, ref):
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    return np.all(np.abs(got - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))


def fixed_step_curves(C, n):
    """(g, F) on the kernel's n-step table, as integrate_transfer_odes
    returns its accepted table."""
    ts, gcols, fcols = cv._transfer_table(C, 120.0, n)
    return cv.table_curve(ts, gcols), cv.table_curve(ts, fcols)


@pytest.fixture(scope="module")
def doubled_and_fixed():
    """((g, F), block) of the default transfer block on its cached
    step-doubled tables, and on the fixed REF_STEPS-step kernel table."""
    doubled = bk._transfer_curves(TRANSFER_KW["C"])
    rep = bk.build_transfer_block(**TRANSFER_KW)
    fixed = fixed_step_curves(TRANSFER_KW["C"], REF_STEPS)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bk, "_transfer_curves", lambda C: fixed)
        ref = bk.build_transfer_block(**TRANSFER_KW)
    return [(doubled, rep), (fixed, ref)]


class TestTransferStepDoubling:
    def test_rtol_1e9_accepts_16384_steps(self, doubled_and_fixed):
        ((g, _), rep), ((g_ref, _), ref) = doubled_and_fixed
        assert len(g.nodes[0]) - 1 == rep.aux["ode_steps"] == 16384
        assert rep.aux["ode_rtol"] == 1e-9
        assert len(g_ref.nodes[0]) - 1 == ref.aux["ode_steps"] == REF_STEPS

    def test_accepted_table_is_the_fixed_step_table(self, doubled_and_fixed):
        ((g, fc), _), _ = doubled_and_fixed
        g_fix, fc_fix = fixed_step_curves(0.5, 16384)
        for got, want in ((g, g_fix), (fc, fc_fix)):
            assert np.array_equal(got.nodes[0], want.nodes[0])
            for a, b in zip(got.nodes[1], want.nodes[1]):
                assert np.array_equal(a, b)

    def test_node_columns_match_fixed_reference(self, doubled_and_fixed):
        ((g, fc), _), ((g_ref, fc_ref), _) = doubled_and_fixed
        stride = REF_STEPS // 16384
        for got, ref in ((g, g_ref), (fc, fc_ref)):
            assert _within_1e9(got.nodes[0], ref.nodes[0][::stride])
            for col, ref_col in zip(got.nodes[1], ref.nodes[1]):
                assert _within_1e9(col, ref_col[::stride])

    def test_margins_and_sweeps_match_fixed_reference(self,
                                                      doubled_and_fixed):
        (_, rep), (_, ref) = doubled_and_fixed
        assert [m.label for m in rep.margins] == \
            [m.label for m in ref.margins]
        for m, r in zip(rep.margins, ref.margins):
            assert _within_1e9(m.min, r.min), m.label
            assert _within_1e9(m.argmin, r.argmin), m.label
        for key in ("t0", "r1", "R", "slope_check", "vertical_ii_at_0"):
            assert _within_1e9(rep.aux[key], ref.aux[key]), key
        sweep, ref_sweep = rep.sweeps["ricci"], ref.sweeps["ricci"]
        assert _within_1e9(sweep["t"], ref_sweep["t"])
        assert sorted(sweep["columns"]) == sorted(ref_sweep["columns"])
        for name, col in sweep["columns"].items():
            assert _within_1e9(col, ref_sweep["columns"][name]), name

    # A cap below the first doubling's 16384 steps is a bad argument; one
    # that allows the first doubling but not the tolerance is an
    # integrator fault.
    @pytest.mark.parametrize("cap, rtol, error, match", [
        (8192, 1e-9, ValueError, "step cap 8192 below the 16384 steps"),
        (16384, 1e-12, cv.IntegratorError,
         "rtol=1e-12 not met within the step cap 16384"),
    ], ids=["8192-1e-09", "16384-1e-12"])
    def test_cap_below_need_raises(self, cap, rtol, error, match):
        with pytest.raises(error, match=match):
            cv.integrate_transfer_odes(0.5, step_budget=cap, rtol=rtol)

    def test_one_ode_call_per_cache_miss(self, monkeypatch):
        real, calls = bk.integrate_transfer_odes, []

        def counted(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(bk, "integrate_transfer_odes", counted)
        monkeypatch.setattr(bk, "_transfer_curves", functools.lru_cache(
            maxsize=32)(bk._transfer_curves.__wrapped__))
        bk.build_transfer_block(**TRANSFER_KW)
        assert calls == [((0.5,), {})]
        bk.build_transfer_block(**{**TRANSFER_KW, "a": 0.24, "nu": 2.5})
        assert len(calls) == 1


class TestS1Block:
    def test_design_passes(self):
        rep = bk.build_s1_block(3, 0.5)
        assert rep.passed, rep.verdict
        assert rep.aux["base_factor_after_rescale"] == 1.0
        assert abs(rep.aux["circle_ii_at_end"]) < 1e-12
        assert abs(rep.aux["h_first_derivative"] - 1.0) < 1e-9

    def test_infeasible_window_reported(self):
        rep = bk.build_s1_block(3, 0.9)
        assert not rep.passed
        assert rep.verdict == "fail:design_window"


class TestFibreDisc:
    def test_right_angle_case(self):
        rep = bk.build_fibre_disc_warp(3, PI / 2)
        h = rep.aux["curves"]["h"]
        assert rep.passed, rep.verdict
        assert abs(h(PI / 2) - 1.0) < 1e-9
        ts = np.linspace(1e-3, 0.97 * PI / 2, 500)
        assert np.all(h.eval(ts, 1) >= 0)
        assert np.all(h.eval(ts, 1) < 1.0)

    def test_shallow_interval_rejected(self):
        with pytest.raises(bk.BuildError):
            bk.build_fibre_disc_warp(3, 0.9)


class TestSphereTransition:
    def test_round_pair_passes(self):
        A, B = round_pair()
        rep = bk.build_sphere_transition(A, B, 2, 2)
        assert rep.passed, rep.verdict
        s0 = 1.3
        assert rep.margin("A_tip_curvature").min == pytest.approx(
            (PI / (2 * s0)) ** 2)

    def test_convex_combination_of_passing_pairs_passes(self):
        A1, B1 = round_pair()
        s0 = 1.3
        A2 = cv.linear_combo([(A1, 0.9),
                              (cv.sine_curve(0.05, PI / (2 * s0), 0.0,
                                             (0.0, s0)), 1.0)])
        rep = bk.build_sphere_transition(A2, B1, 2, 2)
        assert rep.passed
        Amix = cv.linear_combo([(A1, 0.5), (A2, 0.5)])
        rep2 = bk.build_sphere_transition(Amix, B1, 2, 2)
        assert rep2.passed

    def test_inflection_fails_with_location(self):
        s0 = 1.3
        A, B = round_pair(s0)
        wiggle = cv.sine_curve(0.1, 3 * PI / (2 * s0), 0.0, (0.0, s0))
        A_bad = cv.linear_combo([(A, 1.0), (wiggle, -1.0)])
        rep = bk.build_sphere_transition(A_bad, B, 2, 2)
        assert not rep.passed
        bad = rep.margin("A_concave")
        assert bad.min < 0
        assert 0.2 < bad.argmin < 0.5


class TestProjectiveFamily:
    @pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (4, 2), (8, 2)])
    def test_family_members_pass(self, d, n):
        for s in (0.0, 0.5, 1.0):
            rep = bk.projective_family_check(d, n, s)
            assert rep.passed, (d, n, s, rep.verdict)

    def test_symmetric_member_is_unsmoothed(self):
        rep = bk.projective_family_check(2, 2, 0.0)
        assert rep.aux["join_halfwidth"] == 0.0

    @pytest.mark.parametrize("d,n", [(3, 2), (2, 1), (8, 3)])
    def test_outside_the_family_is_a_build_error(self, d, n):
        with pytest.raises(bk.BuildError):
            bk.projective_family_check(d, n, 0.5)

    def test_full_flattening_restores_round_half(self):
        rep = bk.projective_family_check(2, 2, 1.0)
        f = rep.aux["curves"]["f"]
        h = rep.aux["curves"]["h"]
        ts = np.linspace(-1.0, -0.1, 200)
        assert np.max(np.abs(h.eval(ts) - f.eval(ts))) < 1e-12


class TestWuFamily:
    def test_product_variant_diagonal(self):
        rep = bk.wu_family_check("g00")
        assert rep.passed
        assert abs(rep.aux["ric_tt_at_0"] - (PI / 2) ** 2) < 1e-6
        assert abs(rep.aux["ric_VV_at_0"] - 3 * (PI / 2) ** 2) < 1e-6
        assert abs(rep.aux["ric_XX_at_0"] - PI ** 2 / 2) < 1e-6

    def test_blended_path_positive(self):
        rep = bk.wu_family_check("blended", eps=0.1)
        assert rep.passed, rep.verdict
        assert len([m for m in rep.margins
                    if m.label.startswith("ric_min_path")]) == 5

    def test_blend_region_matches_inner_warp(self):
        rep = bk.wu_family_check("blended", eps=0.1)
        h1 = rep.aux["curves"]["h1"]
        f0 = rep.aux["curves"]["f"]
        ts = np.linspace(-0.1, 0.1, 101)
        assert np.max(np.abs(h1.eval(ts) - f0.eval(ts))) < 1e-12
        ts2 = np.linspace(0.95, 1.0, 21)
        assert np.max(np.abs(h1.eval(ts2) - 2 / PI)) < 1e-12

    def test_wide_matching_zone_fails_capacity(self):
        rep = bk.wu_family_check("blended", eps=0.2)
        assert not rep.passed

    def test_bad_windows_rejected(self):
        with pytest.raises(bk.BuildError):
            bk.wu_family_check("blended", eps=0.5, eps_outer=0.4)


class TestConformalMargin:
    def test_values(self):
        assert bk.boundary_conformal_margin(0.0, 5.0) == 1.0
        assert abs(bk.boundary_conformal_margin(1.0, 10.0) - 0.87) < 1e-12
        assert bk.boundary_conformal_margin(1.0, 1e9) == \
            pytest.approx(1.0, abs=1e-8)

    def test_validation(self):
        with pytest.raises(bk.BuildError):
            bk.boundary_conformal_margin(-1.0, 2.0)
        with pytest.raises(bk.BuildError):
            bk.boundary_conformal_margin(1.0, 0.0)


class TestHandle1SphereEntryInvariant:
    @pytest.mark.parametrize("lam1,eps1", [(0.85, 0.1), (0.9, 0.05),
                                           (0.95, 0.02), (0.99, 0.003)])
    def test_sphere_entry_positive_across_box(self, lam1, eps1):
        # the spherical entry of the cut's second fundamental form stays
        # positive across the whole slope/offset box, even where other
        # certificates fail
        lam2 = min(lam1 + 0.005, 0.999)
        rep = bk.build_handle1(4, 0.9, lambda1=lam1, lambda2=lam2,
                               eps1=eps1, eps2=0.1, delta=0.01)
        assert rep.margin("sphere_ii_cap").min > 0
        assert rep.margin("tan_chain").min > 0


@pytest.mark.usefixtures("fresh_windows")
class TestBuilderEvaluation:
    """The handle and cone builders read each curve once per grid: handle1
    takes the height (alpha on the cap, alpha_out on the outer face) to
    order 3, and f and f' at the height, for each face's profile from that
    face's sweep, which reads the height's orders in one call, and
    evaluates only f's orders 2 and 3 there; the cone's warp column is its
    sweep's "f".
    Warp columns are jets; each builder differences its principal-
    curvature samples, and only those, with one stencil per grid.  The
    handle profiles are built on the first read of ``Report.boundary``."""

    @staticmethod
    def logged_curve(curve, log, name):
        """curve, bit for bit, with each evaluation logged as (name,
        orders, points)."""
        def orders(t, ks):
            log.append((name, tuple(ks), np.asarray(t)))
            return curve._at(t, ks)

        return cv.SmoothCurve(curve.t_lo, curve.t_hi, orders, curve.nodes,
                              curve.info)

    @classmethod
    def logged(cls, monkeypatch):
        """Log evaluations of handle1's alpha, f and beta' (the integrand
        of beta), of the cone's warp, and the grid of every difference
        stencil with the number of its applications."""
        log, stencils = [], []

        def wrap(name, factory):
            def made(*args, **kw):
                return cls.logged_curve(factory(*args, **kw), log, name)
            monkeypatch.setattr(bk, factory.__name__, made)

        wrap("alpha", bk._flatten_start)
        wrap("f", bk.make_concave_profile)
        wrap("warp", bk.sin_of)
        antiderivative = bk.antiderivative_curve

        def logged_antiderivative(domain, n, integrand):
            def logged_integrand(t, orders):
                log.append(("beta'", tuple(orders), np.asarray(t)))
                return integrand(t, orders)
            return antiderivative(domain, n, logged_integrand)

        monkeypatch.setattr(bk, "antiderivative_curve",
                            logged_antiderivative)
        # beta is built once per eps2: a fresh cache builds it here
        monkeypatch.setattr(bk, "_handle1_beta", functools.lru_cache(
            maxsize=32)(bk._handle1_beta.__wrapped__))
        gradient_on = bk.gradient_on

        def logged_gradient_on(ts):
            stencil = [np.asarray(ts), 0]
            stencils.append(stencil)
            apply = gradient_on(ts)

            def logged_apply(f):
                stencil[1] += 1
                return apply(f)
            return logged_apply

        monkeypatch.setattr(bk, "gradient_on", logged_gradient_on)
        return log, stencils

    @staticmethod
    def orders_on(log, name, points):
        return [orders for n, orders, t in log
                if n == name and t.shape == points.shape
                and np.array_equal(t, points)]

    def test_handle1(self, monkeypatch):
        log, stencils = self.logged(monkeypatch)
        rep = bk.build_handle1(4, 0.9, **GOOD_H1)
        ss = rep.sweeps["cap_face"]["t"]
        so = rep.sweeps["outer_face"]["t"]
        alpha_out = (rep.sweeps["outer_face"]["columns"]["beta"]
                     + rep.aux["alpha_top"])
        heights = (rep.sweeps["cap_face"]["columns"]["alpha"], alpha_out)
        # the build reads f at the heights to order 1 (the sweeps and the
        # arc lengths); the profiles, built on the first read of
        # rep.boundary, read orders 2 and 3 and difference the II columns
        for height in heights:
            assert sorted(self.orders_on(log, "f", height)) == [(0,), (1,)]
        assert stencils == []
        boundary = rep.boundary
        assert self.orders_on(log, "alpha", ss) == [(0, 1, 2, 3)]
        assert self.orders_on(log, "beta'", so) == [(0, 1, 2)]
        for height in heights:
            assert sorted(self.orders_on(log, "f", height)) == [
                (0,), (1,), (2,), (3,)]
        assert rep.boundary is boundary
        u_arc = rep.boundary["cap"].metric["warp"].nodes[0]
        r_arc = rep.boundary["outer"].metric["warp"].nodes[0]
        assert len(stencils) == 2
        for (got, _), want in zip(stencils, (u_arc, r_arc)):
            assert np.array_equal(got, want)
        # orders 1-3 of both II columns on each face's arc-length grid
        assert [uses for _, uses in stencils] == [6, 6]

    def test_handle2(self, monkeypatch):
        _, stencils = self.logged(monkeypatch)
        rep = bk.build_handle2(cv.cosine_curve(0.9, 1.0, 0.1, (0.0, 1.0)),
                               **GOOD_H2)
        assert stencils == []           # until the first read of boundary
        arc = rep.boundary["graph_face"].metric["warp"].nodes[0]
        assert len(stencils) == 1
        assert np.array_equal(stencils[0][0], arc)
        assert np.array_equal(rep.boundary["graph_face"].ii["radial"]
                              .nodes[0], arc)
        assert [uses for _, uses in stencils] == [6]

    def test_cone(self, monkeypatch):
        log, stencils = self.logged(monkeypatch)
        rep = bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, 0.5)
        warp = rep.aux["curves"]["warp"]
        ss = rep.sweeps["ricci"]["t"]
        assert self.orders_on(log, "warp", ss) == [(0, 1, 2)]
        assert np.array_equal(rep.sweeps["ricci"]["columns"]["warp"],
                              warp.eval(ss))
        assert stencils == []
