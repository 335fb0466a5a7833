import functools
import importlib.util
import math
import pathlib
import re

import numpy as np
import pytest

from warpbench import _util
from warpbench import blocks as bk
from warpbench import curvature as kv
from warpbench import curves as cv
from warpbench import feasibility as fs

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

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_window_end_takes_the_next_lines_slope(self, t):
        """The slope bands are read from the composed warp argument, so
        each window's end b has the next line's slope exactly: K_t after
        the inner join and 1 after the outer one.  The band the join rides
        toward is at its 1e-12 floor there."""
        delta = 0.02
        rep = bk.build_cone_metric(4, 0.9, 0.1, 0.1, delta, t)
        for label, s in (("slope_band_s1_lower", rep.aux["s1"]),
                         ("slope_band_s2_upper", rep.aux["s2"])):
            assert rep.margin(label) == bk.Margin(label, 1e-12, s + delta)

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


# perfbench's cone lattice: 111 samples pass, 9 fail:collapse_parity and 15
# raise BuildError at every n and grid below
CONE_BOX = fs.ParamBox({"eps1": (0.05, 0.2), "eps2": (0.05, 0.2),
                        "delta": (0.01, 0.04), "t": (0.0, 1.0)},
                       {"eps1": 3, "eps2": 3, "delta": 3, "t": 5})


def _grid_certificate(rep):
    """The cone report with its Ricci margins taken as the grid minima of
    its lazily built sweep, (ric - bound)/bound + 1e-9, the rest as
    reported: the certificate the sweep gives the same warp."""
    sweep, bound = rep.sweeps["ricci"], rep.aux["ric_bound"]
    grid = {label: bk._min_margin(label, sweep["t"],
                                  (sweep["columns"][label] - bound) / bound
                                  + 1e-9)
            for label in ("ric_radial", "ric_sphere")}
    return bk.Report(rep.block, rep.params,
                     [grid.get(m.label, m) for m in rep.margins])


@pytest.mark.numpy_contract(
    "closed forms on the join's nodes against a sweep of the composed warp")
class TestConeRicciLemma:
    """The cone's Ricci margins are the doubly warped product's closed
    forms (``build_cone_metric``): exact on the lines, and the join's own
    A and B columns on its windows.  The sweep on the grid is their
    oracle: a margin is at most the grid minimum plus 1e-8 and, where the
    grid minimum lies in a join window, equals it to 1e-7 relative to the
    Ricci value it certifies (1 + margin, in units of the bound); and every
    sample keeps the outcome and min_margin of the grid certificate."""

    @pytest.mark.parametrize("grid", [None, 256])
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_lattice_against_the_sweep(self, n, grid):
        outcomes, in_window = {}, 0
        for p in CONE_BOX.full_grid():
            try:
                rep = bk.build_cone_metric(n, 0.9, grid=grid, **p)
            except bk.BuildError:
                outcomes["error:BuildError"] = \
                    outcomes.get("error:BuildError", 0) + 1
                continue
            swept = _grid_certificate(rep)
            assert (rep.verdict, rep.min_margin()) == \
                (swept.verdict, swept.min_margin()), p
            outcomes[rep.verdict] = outcomes.get(rep.verdict, 0) + 1
            windows = [(rep.aux[s] - p["delta"], rep.aux[s] + p["delta"])
                       for s in ("s1", "s2")]
            for label in ("ric_radial", "ric_sphere"):
                got, want = rep.margin(label), swept.margin(label)
                assert got.min <= want.min + 1e-8, (p, label)
                if any(a <= want.argmin <= b for a, b in windows):
                    in_window += 1
                    assert abs(got.min - want.min) <= \
                        1e-7 * (1.0 + abs(want.min)), (p, label)
        assert outcomes == {"pass": 111, "fail:collapse_parity": 9,
                            "error:BuildError": 15}
        assert in_window

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_window_starting_at_the_collapse_point(self, n):
        """At (eps1, delta, t) = (0.05, 0.025, 1) the inner window starts
        at s_lo up to rounding: its first node is 8.7e-19 above it, where
        x' = 1 and x = 8.7e-19.  That node takes the collapse limit, A = B
        = 1, as the round metric has it; (1 - x'^2 cos^2 x)/sin^2 x reads
        B = 0 there, a ric_sphere margin of -0.588 at n = 4.  The sample
        keeps the grid certificate's outcome, and its ric_sphere margin is
        the middle line's closed form at x = pi/2."""
        K, eps1, delta, t = 0.9, 0.05, 0.025, 1.0
        rep = bk.build_cone_metric(n, K, eps1, 0.05, delta, t)
        join, *_, (A, B) = bk._cone_join(K, eps1, delta, t, "inner")
        s, (x, x1, *_) = join.nodes
        assert 0.0 < s[0] - rep.aux["s_lo"] < 1e-18
        assert x[0] < 1e-18 and x1[0] == 1.0
        assert A[0] == B[0] == 1.0
        assert (1.0 - x1[0] ** 2 * np.cos(x[0]) ** 2) / np.sin(x[0]) ** 2 \
            == 0.0
        assert B.min() >= 1.0 - 1e-9
        swept = _grid_certificate(rep)
        assert rep.verdict == swept.verdict == "fail:collapse_parity"
        assert rep.min_margin() == swept.min_margin()
        Kt = rep.aux["K_t"]
        sphere = rep.margin("ric_sphere")
        assert sphere.min == pytest.approx(
            (n - 2) * (1 - Kt * Kt) / ((n - 1) * Kt * Kt) + 1e-9, rel=1e-12)
        assert sphere.argmin == PI / (2 * Kt)

    def test_round_at_zero_interpolation(self):
        """At t = 0 the joins are identities and every line has slope 1:
        both margins are the 1e-9 floor, first met at s_lo."""
        rep = bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, 0.0)
        for label in ("ric_radial", "ric_sphere"):
            assert rep.margin(label) == bk.Margin(label, 1e-9, 0.0)
        assert bk._cone_join(0.9, 0.1, 0.02, 0.0, "inner")[4] is None


class TestBuilderPreconditions:
    def test_cone_warp_closing_before_the_outer_end(self):
        with pytest.raises(bk.BuildError, match="< pi/2"):
            bk.build_cone_metric(4, 0.9, 0.334, 1.0, 0.001, 1.0)

    def test_handle1_outer_face_leaving_the_profile(self):
        with pytest.raises(bk.BuildError, match="outer face"):
            bk.build_handle1(4, 0.9, 0.1, 0.2, 0.001, 0.505, 0.001)


def _toy_builder(body):
    """A builder with one declared positive parameter x whose work is
    ``body(x)``."""
    @bk.domain(x=bk.Reals(0))
    def toy_builder(x):
        return body(x)

    return toy_builder


def _refused(x):
    raise bk.BuildError(f"x={x!r} refused")


def _inner_errstate(x):
    with np.errstate(divide="ignore"):
        return np.array([x]) / 0.0


class TestDomainFloatFaults:
    """A builder declared with ``domain`` runs with numpy's overflow,
    invalid operation and division by zero raising; each of those, and a
    Python OverflowError or ZeroDivisionError, is a NumericalRangeError
    naming the builder, its params and the fault, and the caller's numpy
    error settings are as they were once the builder returns or raises."""

    @pytest.mark.parametrize("fault, body", [
        ("FloatingPointError: overflow",
         lambda x: np.exp(np.array([1e3 * x]))),
        ("FloatingPointError: invalid value",
         lambda x: np.sqrt(np.array([-x]))),
        ("FloatingPointError: divide by zero",
         lambda x: np.array([x]) / 0.0),
        ("OverflowError", lambda x: math.exp(1e3 * x)),
        ("ZeroDivisionError", lambda x: x / 0.0),
    ], ids=["numpy-overflow", "numpy-invalid", "numpy-divide",
            "python-overflow", "python-divide"])
    def test_fault_is_a_numerical_range_error(self, fault, body):
        with pytest.raises(bk.NumericalRangeError,
                           match=f"^toy_builder left the float range at "
                                 f"x=1.0: {fault}"):
            _toy_builder(body)(1.0)

    def test_underflow_is_not_a_fault(self):
        """Underflow keeps the caller's setting, numpy's default of
        ignoring it included: a product below the smallest float is 0."""
        got = _toy_builder(lambda x: np.array([1e-300 * x]) * 1e-300)(1.0)
        assert got.tolist() == [0.0]

    def test_builders_own_errstate_keeps_its_own(self):
        """An ``np.errstate`` the builder sets inside wins over the one it
        runs under: a division by zero it ignores gives inf."""
        assert _toy_builder(_inner_errstate)(1.0).tolist() == [math.inf]

    @pytest.mark.parametrize("body, error", [
        (lambda x: x, None),
        (_refused, bk.BuildError),
        (lambda x: np.array([x]) / 0.0, bk.NumericalRangeError),
    ], ids=["returns", "raises", "numpy-fault"])
    def test_callers_errstate_is_restored(self, body, error):
        with np.errstate(all="warn"):
            before = np.geterr()
            if error is None:
                _toy_builder(body)(1.0)
            else:
                with pytest.raises(error):
                    _toy_builder(body)(1.0)
            assert np.geterr() == before


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

    def test_horizon_hint_points_toward_larger_a(self):
        """The slope target lam r0 / (h0(0) a) falls as a grows: at C =
        0.5, a = 0.05 needs 1 and a = 0.02 needs 2.5, and the hint says to
        increase a, which a = 0.2 confirms by building."""
        def needed(a):
            with pytest.raises(bk.HorizonError) as err:
                bk.build_transfer_block(**{**TRANSFER_KW, "a": a})
            msg = str(err.value)
            assert "increase a, decrease r0 or lam, or increase C" in msg
            return float(msg.split("needed lam r0 / (h0(0) a) = ")[1]
                         .split()[0])

        assert needed(0.02) == pytest.approx(2.5, rel=1e-3)
        assert needed(0.05) == pytest.approx(1.0, rel=1e-3)
        bk.build_transfer_block(**TRANSFER_KW)

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

    # F grows about like t^sqrt(C): at these C the first table's nodes
    # overflow, from node 178, 11 and 1 of 8192 on
    @pytest.mark.parametrize("C", [1e6, 1e20, 1e300])
    def test_table_that_leaves_the_float_range_raises(self, C):
        with pytest.raises(OverflowError, match=re.escape(
                f"the transfer ODE at C={C!r} left the float range")):
            cv.integrate_transfer_odes(C)

    def test_nan_gap_never_meets_the_tolerance(self):
        """A NaN in either table makes the step-doubling defect NaN, not
        the largest of the other gaps."""
        def table(n, nan_at=None):
            ts = np.linspace(0.0, 1.0, n + 1)
            cols = [np.ones(n + 1)] + [np.zeros(n + 1)] * 3
            if nan_at is not None:
                cols[0] = cols[0].copy()
                cols[0][nan_at] = np.nan
            return ts, cols, [np.ones(n + 1)] + [np.zeros(n + 1)] * 3

        assert cv._midpoint_defect(table(4), table(8)) == 0.0
        assert math.isnan(cv._midpoint_defect(table(4), table(8, 3)))

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


@pytest.mark.usefixtures("fresh_caches")
class TestBuilderEvaluation:
    """The handle and cone builders read each curve once per grid: handle1
    takes the height (alpha on the cap, beta on the outer face) to order 3
    in one call on each face's grid, which its caches keep, and f and f'
    at the height from each face's sweep, and evaluates only f's orders 2
    and 3 there for the profiles; the cone's warp column is its sweep's
    "f".
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
        # each curve is built once per parameter subset: the fresh_caches
        # fixture empties the caches before the test, so they build the
        # curves here, and after it, so the logged curves do not outlive it
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


def _handle2_on_cosine(**kw):
    return bk.build_handle2(cv.cosine_curve(0.9, 1.0, 0.1, (0.0, 1.0)), **kw)


def _bits(x):
    """A float array's bytes and sign bits."""
    x = np.asarray(x, float)
    return x.tobytes(), np.signbit(x).tobytes()


def _report_bits(rep):
    """Margins (value, argmin, strictness), the verdict, the scalar aux
    entries and every sweep column, floats as their bytes and sign bits."""
    return (rep.verdict,
            [(m.label, _bits(m.min), _bits(m.argmin), m.strict)
             for m in rep.margins],
            {k: _bits(v) for k, v in rep.aux.items()
             if isinstance(v, (int, float))},
            {name: (_bits(sw["t"]),
                    {k: _bits(v) for k, v in sw["columns"].items()})
             for name, sw in rep.sweeps.items()})


def _handle1(**kw):
    return bk.build_handle1(4, 0.9, **kw)


def _keyed(*names):
    """The keys of a cache that a build looks up once per key: the build's
    values of these parameters."""
    return lambda p: {tuple(p[k] for k in names)}


def _cone_keys(p):
    """The cone's two junctions: the inner one read at eps1, the outer at
    eps2."""
    return {(p["K"], p["eps1"], p["delta"], p["t"], "inner"),
            (p["K"], p["eps2"], p["delta"], p["t"], "outer")}


def _lookups(monkeypatch, name):
    """The argument tuples of every lookup of the per-key cache ``name``,
    in order; the cache itself is unchanged."""
    cached, looked = getattr(bk, name), []

    def lookup(*args):
        looked.append(args)
        return cached(*args)

    monkeypatch.setattr(bk, name, lookup)
    return looked


def _lru_counts(looked):
    """(hits, misses) of a cache that keeps every key, after the lookups
    ``looked`` on it empty: a key misses once and hits after."""
    return len(looked) - len(set(looked)), len(set(looked))


# cache -> (builder, parameters, the construction its miss calls, the keys
# a build looks it up with, one change per key parameter, changes of
# parameters outside the keys)
CACHED_CURVES = {
    "_handle1_height": (
        _handle1, {**GOOD_H1, "grid": None},
        "_flatten_start", _keyed("lambda1", "eps1", "grid"),
        {"lambda1": 0.98, "eps1": 0.02},
        {"lambda2": 0.995, "eps2": 0.08, "delta": 0.04}),
    "_handle2_collar": (
        _handle2_on_cosine, {**GOOD_H2, "grid": None}, "make_concave_profile",
        _keyed("lambda1", "lambda2", "b", "grid"),
        {"lambda1": 0.015, "lambda2": 0.025, "b": 1.6},
        {"a": 0.03, "eps": 0.12, "nu": 0.04}),
    "_handle2_graph": (
        _handle2_on_cosine, {**GOOD_H2, "grid": None}, "antiderivative_curve",
        _keyed("a", "b", "grid"), {"a": 0.03, "b": 1.6},
        {"lambda1": 0.015, "lambda2": 0.025, "eps": 0.12, "nu": 0.04}),
    "_projective_member": (
        bk.projective_family_check, {"d": 2, "n": 2, "s": 0.5, "grid": None},
        "_projective_warp", _keyed("s", "grid"), {"s": 0.6, "grid": 256},
        {"d": 4, "n": 3}),
    "_handle1_beta": (
        _handle1, {**GOOD_H1, "grid": None},
        "antiderivative_curve", _keyed("eps2", "grid"),
        {"eps2": 0.08, "grid": 256},
        {"lambda1": 0.98, "eps1": 0.02, "lambda2": 0.995, "delta": 0.04}),
    "_cone_join": (
        bk.build_cone_metric, {"n": 4, "K": 0.9, "eps1": 0.1, "eps2": 0.1,
                               "delta": 0.02, "t": 0.5, "grid": None},
        "smooth_join", _cone_keys,
        {"K": 0.85, "eps1": 0.08, "eps2": 0.12, "delta": 0.015, "t": 0.75},
        {"n": 5, "grid": 256}),
    # a miss of _handle1_cap_margins builds the cap face once
    "_handle1_cap_margins": (
        bk.build_handle1, {"n": 4, "K": 0.9, **GOOD_H1, "grid": None},
        "_handle1_cap",
        _keyed("K", "lambda1", "lambda2", "delta", "eps1", "grid"),
        {"K": 0.85, "lambda1": 0.98, "lambda2": 0.995, "delta": 0.04,
         "eps1": 0.02, "grid": 256},
        {"n": 5, "eps2": 0.08}),
}

# cache -> another construction its miss calls once per key besides the one
# CACHED_CURVES names: the cone join's slope band, and the projective
# member's key_inequality sweep and its lookup of f0's jet
MORE_CONSTRUCTIONS = [("_cone_join", "_slope_band"),
                      ("_projective_member", "_key_inequality"),
                      ("_projective_member", "_projective_f0_jet")]


@pytest.mark.usefixtures("fresh_caches")
class TestParamCaches:
    """The curves a builder makes from a subset of its parameters come from
    caches keyed by exactly that subset: handle1's cap side (its height,
    grid, jet and tan_chain margin) by (lambda1, eps1, grid), its cap
    face's margins and arc length by (K, lambda1, lambda2, delta, eps1,
    grid) and its outer face (beta, its grid and jet) by (eps2, grid),
    handle2's collar (the warp f, its values on the dug face's grid, its
    jet on the face metric's grid and its flatness) by (lambda1, lambda2,
    b, grid) and its dug graph (beta, both grids and beta's jets on them)
    by (a, b, grid), the projective warp, the margins that read s alone
    and the warps' jets on the Ricci grid by (s, grid), and the cone's
    inner join with its slope band and collapse parity by (K, eps1, delta,
    t) and its outer join with its slope band by (K, eps2, delta, t).  A
    hit builds nothing, a change of any key parameter, grid density
    included, is a miss, and the report keeps the bits a build on empty
    caches gives, whichever other parameters the sample changes."""

    @pytest.mark.parametrize("name, construction", [
        pytest.param(name, CACHED_CURVES[name][2], id=name)
        for name in sorted(CACHED_CURVES)] + [
        pytest.param(name, construction, id=f"{name}-{construction}")
        for name, construction in MORE_CONSTRUCTIONS])
    def test_hit_builds_nothing(self, monkeypatch, name, construction):
        build, params, _, keys, *_ = CACHED_CURVES[name]
        calls = []
        real = getattr(bk, construction)

        def counted(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(bk, construction, counted)
        cache = getattr(bk, name)
        looked = _lookups(monkeypatch, name)
        build(**params)
        assert len(calls) == len(keys(params))
        first = len(looked)
        build(**params)
        assert len(calls) == len(keys(params))
        assert set(looked[:first]) == set(looked[first:]) == keys(params)
        info = cache.cache_info()
        assert (info.hits, info.misses) == _lru_counts(looked)
        assert info.misses == len(keys(params))

    @pytest.mark.parametrize("name, change", [
        pytest.param(name, {k: v}, id=f"{name}-{k}")
        for name, spec in CACHED_CURVES.items()
        for changes in spec[4:] for k, v in changes.items()] + [
        pytest.param(name, {"grid": 256}, id=f"{name}-grid")
        for name in ("_handle2_collar", "_handle2_graph")])
    def test_report_keeps_its_bits(self, monkeypatch, fresh_caches, name,
                                   change):
        """A sample after another, sharing the keys or not, gives the bits
        of the same sample built on empty caches."""
        build, params, _, keys, *_ = CACHED_CURVES[name]
        sample = {**params, **change}
        cache = getattr(bk, name)
        looked = _lookups(monkeypatch, name)
        build(**params)
        first = len(looked)
        got = build(**sample)
        assert set(looked[:first]) == keys(params)
        assert set(looked[first:]) == keys(sample)
        info, counts = cache.cache_info(), _lru_counts(looked)
        fresh_caches()
        assert _report_bits(got) == _report_bits(build(**sample))
        assert (info.hits, info.misses) == counts
        assert info.misses == len(keys(params) | keys(sample))

    @pytest.mark.parametrize("name", sorted(CACHED_CURVES))
    def test_build_leaves_the_cached_curve_unchanged(self, name):
        build, params, _, keys, _, others = CACHED_CURVES[name]
        factory = getattr(bk, name)
        rep = build(**params)
        rep.boundary
        cached = {args: factory(*args) for args in keys(params)}
        curves = [c for value in cached.values()
                  for c in (value if isinstance(value, tuple) else (value,))
                  if isinstance(c, cv.SmoothCurve)]
        infos = [dict(c.info) for c in curves]
        for k, v in others.items():
            rep = build(**{**params, k: v})
            rep.boundary
        for args, value in cached.items():
            assert factory(*args) is value
        assert [c.info for c in curves] == infos


@pytest.mark.usefixtures("fresh_caches")
class TestOneCachePerKey:
    """A cache that keeps several values under one key keeps what the
    builder reports from them: the cone join's slope band and collapse
    parity, and the projective member's warp, jets and margins."""

    @pytest.mark.parametrize("junction", ["inner", "outer"])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_cone_join_holds_the_reported_band(self, junction, t):
        """The join's slope band is the one ``_slope_band`` reads on the
        join kept beside it, and the cone reports it, with the inner
        junction's collapse parity; the outer junction keeps no parity."""
        K, eps, delta = 0.9, 0.1, 0.02
        rep = bk.build_cone_metric(4, K, eps, eps, delta, t)
        join, lower, upper, par, _ = bk._cone_join(K, eps, delta, t,
                                                   junction)
        _, (left, right) = bk._cone_junction(K, eps, delta, t, junction)
        inner = junction == "inner"
        label = f"slope_band_s{1 if inner else 2}"
        assert (lower, upper) == bk._slope_band(
            join, label, right[1] if inner else left[1], right[1])
        assert rep.margin(f"{label}_lower") == lower
        assert rep.margin(f"{label}_upper") == upper
        if inner:
            assert rep.margin("collapse_parity").min == \
                1e-6 - par.max_violation
            assert rep.aux["parity_first_derivative"] == \
                par.first_derivative_value
        else:
            assert par is None

    @pytest.mark.parametrize("grid", [None, 256])
    def test_projective_members_share_f0s_jet(self, grid):
        """Members at any s on one grid density hold the Ricci grid and
        f0's jet that ``_projective_f0_jet(grid)`` holds, not copies."""
        ts, f_jet = bk._projective_f0_jet(grid)
        for s in (0.0, 0.25, 0.5):
            member = bk._projective_member(s, grid)
            assert member[2] is ts and member[3] is f_jet
        assert not ts.flags.writeable

    @pytest.mark.parametrize("s", [0.0, 0.5])
    @pytest.mark.parametrize("grid", [None, 256])
    def test_projective_member_holds_the_reported_warp(self, s, grid):
        """The member's warp, its join half-width and its jet are those
        ``_projective_warp`` builds afresh, bit for bit, and its margins are
        the report's, read off the key_inequality sweep the report builds
        on its own from that warp."""
        h, w, ts, _, h_jet, margins = bk._projective_member(s, grid)
        fresh, fresh_w = bk._projective_warp(s)
        fresh_jet = kv.cohomog1_jet(fresh, ts, (-1.0, 1.0))
        rep = bk.projective_family_check(2, 2, s, grid=grid)
        assert w == fresh_w == rep.aux["join_halfwidth"]
        assert rep.aux["curves"]["h"] is h
        assert [_bits(c) for c in h_jet[:3]] == \
            [_bits(c) for c in fresh_jet[:3]]
        assert h_jet[3] == fresh_jet[3]
        # the powers the jet keeps, its end indices and its first point
        # inside where h <= 0 (none)
        assert [_bits(c) for c in h_jet[4:7]] == \
            [_bits(c) for c in fresh_jet[4:7]]
        assert h_jet[7:] == fresh_jet[7:] == ((0, len(ts) - 1), None)
        assert [rep.margin(m.label) for m in margins] == list(margins)
        sweep = rep.sweeps["key_inequality"]
        i = int(np.argmin(sweep["columns"]["key"]))
        assert margins[0] == bk.Margin(
            "key_inequality", float(sweep["columns"]["key"][i] + 1e-9),
            float(sweep["t"][i]))


def test_registry_holds_every_cache():
    """Every per-key cache is registered with ``_util.per_key``, so
    ``clear_caches`` reaches each of them."""
    assert {f"{c.__module__}.{c.__qualname__}" for c in _util._CACHES} == {
        "warpbench.curves._join_window", "warpbench.blocks._flatten_window",
        "warpbench.blocks._handle1_beta", "warpbench.blocks._handle1_height",
        "warpbench.blocks._slope_end_window",
        "warpbench.blocks._handle2_collar", "warpbench.blocks._handle2_graph",
        "warpbench.blocks._handle2_face",
        "warpbench.blocks._handle2_face_margins",
        "warpbench.blocks._transfer_curves",
        "warpbench.blocks._handle1_cap",
        "warpbench.blocks._handle1_cap_margins",
        "warpbench.blocks._projective_member",
        "warpbench.blocks._projective_f0_jet",
        "warpbench.blocks._cone_join",
        "warpbench.feasibility._default_collar_profile"}
    assert len(_util._CACHES) == 16


def _bits_or_error(rep):
    """_report_bits of a report, or the type and message of the error a
    build raised instead."""
    if isinstance(rep, Exception):
        return type(rep).__name__, str(rep)
    return _report_bits(rep)


def _built(build, params):
    try:
        return build(**params)
    except bk.BuildError as exc:
        return exc


def test_shuffled_lattices_on_warm_caches_keep_their_bits(fresh_caches):
    """The cone's 3 x 3 x 3 x 5 box at the default grid and at grid 256, t
    = 0 (identity joins) included, and the projective family's 17 s at
    each d, built in a shuffled order on caches that the samples before
    them warmed, give the bits of builds on empty caches: margins, aux,
    BuildError messages and the sweeps, read after every build.  The
    cone's join margins are keyed without the grid, so one grid's
    entries serve the other's samples."""
    samples = [(bk.build_cone_metric,
                {"n": 4, "K": 0.9, **p, "grid": grid})
               for p in CONE_BOX.full_grid() for grid in (None, 256)]
    samples += [(bk.projective_family_check, {"d": d, "n": 2, "s": s})
                for d in (2, 4, 8) for s in np.linspace(0.0, 1.0, 17)]
    assert len(samples) == 2 * 135 + 51
    order = np.random.default_rng(30).permutation(len(samples))
    warm = [_built(*samples[i]) for i in order]
    assert any(isinstance(r, bk.BuildError) for r in warm)
    got = [_bits_or_error(r) for r in warm]
    for i, bits in zip(order, got):
        fresh_caches()
        assert _bits_or_error(_built(*samples[i])) == bits, samples[i]


def _boundary_bits(rep):
    """Every boundary profile's kind, dimension and corners, and its
    metric and ii entries: a curve as its node table's bytes (a face
    warp's or an ii table's nodes, else a grid), a number as its bytes."""
    def bits(v):
        if isinstance(v, cv.SmoothCurve):
            return v.domain, v.node_table().tobytes()
        return v if isinstance(v, str) else np.float64(v).tobytes()

    return {name: (p.kind, p.dimension,
                   [(c.id, c.angle, c.adjacent, c.at) for c in p.corners],
                   {k: bits(v) for k, v in p.metric.items()},
                   {k: bits(v) for k, v in p.ii.items()})
            for name, p in rep.boundary.items()}


def _handle2_bits(params):
    """_bits_or_error of handle2 on the default profile at params, and
    its boundary profiles' bits, each read after the build."""
    try:
        rep = bk.build_handle2(fs._default_collar_profile(), **params)
    except bk.BuildError as exc:
        return type(exc).__name__, str(exc)
    return _report_bits(rep), _boundary_bits(rep)


def test_handle2_lattice_on_warm_caches_keeps_its_bits(fresh_caches):
    """handle2's 4 x 3 x 3 x 3 (a, b, nu, eps) lattice at grid 256, b = 1
    (outside the domain) included, built in a shuffled order on caches
    that the samples before them warmed, so that most samples read their
    face's margins from a key another (nu, eps) built, gives the bits of
    builds on empty caches: margins, aux, BuildError messages, sweeps and
    boundary profiles, each read after its build, a face evicted since
    included."""
    box = fs.ParamBox({"a": (0.005, 0.08), "b": (1.0, 2.0),
                       "nu": (0.01, 0.05), "eps": (0.05, 0.15)},
                      {"a": 4, "b": 3, "nu": 3, "eps": 3})
    samples = [{"lambda1": 0.01, "lambda2": 0.02, **p, "grid": 256}
               for p in box.full_grid()]
    assert len(samples) == 108
    order = np.random.default_rng(31).permutation(len(samples))
    warm = [_handle2_bits(samples[i]) for i in order]
    assert any(bits[0] == "BuildError" for bits in warm)
    # the 36 samples at b = 1 fail the domain check before any lookup;
    # the other 72 share 8 (a, b) faces
    assert bk._handle2_face_margins.cache_info()[:2] == (64, 8)
    for i, bits in zip(order, warm):
        fresh_caches()
        assert _handle2_bits(samples[i]) == bits, samples[i]


def _read_bits(rep):
    """_bits_or_error of a report or error, with the report's boundary
    profiles' bits."""
    if isinstance(rep, Exception):
        return _bits_or_error(rep)
    return _report_bits(rep), _boundary_bits(rep)


def _assert_warm_lattice_keeps_its_bits(fresh_caches, build, samples, seed,
                                        cache):
    """The samples built in a shuffled order on caches that the samples
    before them warmed, their margins, aux, sweeps and boundary profiles
    read after all the builds, give the bits of each sample built on empty
    caches and read at once.  Returns which samples built, in the order
    of samples, and the (hits, misses) of ``cache`` after the warm
    builds."""
    order = np.random.default_rng(seed).permutation(len(samples))
    warm = [_built(build, samples[i]) for i in order]
    counts = cache.cache_info()[:2]
    got = [_read_bits(r) for r in warm]
    for i, bits in zip(order, got):
        fresh_caches()
        assert _read_bits(_built(build, samples[i])) == bits, samples[i]
    built = dict(zip(order, (not isinstance(r, Exception) for r in warm)))
    return [built[i] for i in range(len(samples))], counts


def test_projective_lattice_on_warm_caches_keeps_its_bits(fresh_caches):
    """The projective family's 17 s at each d at grid 256, built in a
    shuffled order so that most members read their warps' jets from a key
    another d built, give the bits of builds on empty caches."""
    samples = [{"d": d, "n": 2, "s": s, "grid": 256}
               for d in (2, 4, 8) for s in np.linspace(0.0, 1.0, 17)]
    built, counts = _assert_warm_lattice_keeps_its_bits(
        fresh_caches, bk.projective_family_check, samples, 32,
        bk._projective_member)
    assert all(built) and counts == (34, 17)


def test_handle1_tied_lattice_on_warm_caches_keeps_its_bits(fresh_caches):
    """handle1-tied's 5 x 3 x 3 x 3 (lambda1, eps1, eps2, delta) lattice at
    grid 256, built in a shuffled order so that most samples read their
    cap face's margins from a key another eps2 built, gives the bits of
    builds on empty caches: margins, aux, BuildError messages, sweeps and
    boundary profiles, read after all the builds, when the one cap face
    kept is some other sample's."""
    box = fs.ParamBox({"lambda1": (0.85, 0.99), "eps1": (0.01, 0.1),
                       "eps2": (0.01, 0.1), "delta": (0.02, 0.08)},
                      {"lambda1": 5, "eps1": 3, "eps2": 3, "delta": 3})
    samples = [{"n": 4, "K": 0.9, **p, "grid": 256} for p in box.full_grid()]
    assert len(samples) == 135
    built, (hits, misses) = _assert_warm_lattice_keeps_its_bits(
        fresh_caches, fs.PREDICATES["handle1-tied"]["builder"], samples, 33,
        bk._handle1_cap_margins)
    # a BuildError comes before the cap's lookup; every sample that builds
    # looks it up once, and only one per (lambda1, eps1, delta) misses
    assert not all(built)
    caps = [(p["lambda1"], p["eps1"], p["delta"])
            for p, ok in zip(samples, built) if ok]
    assert (hits, misses) == (len(caps) - len(set(caps)), len(set(caps)))
    assert hits > misses


def test_handle2_face_build_error_is_not_cached(fresh_caches):
    """A collar too deep for B's extension raises the same BuildError at
    every sample of its face, after the collar and the graph are built:
    neither face cache keeps it."""
    params = {**GOOD_H2, "a": 0.2, "grid": 256}
    errors = [_handle2_bits({**params, "eps": eps}) for eps in (0.1, 0.12)]
    assert errors == [("BuildError", "extension infeasible: collar depth "
                       "0.1372 too deep for B'(-0.0899), B''(-0.8955)")] * 2
    for face in (bk._handle2_face, bk._handle2_face_margins):
        info = face.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)
    assert bk._handle2_graph.cache_info()[:2] == (1, 1)


def test_cone_join_repeated_nodes_error_is_not_cached(fresh_caches,
                                                     monkeypatch):
    """A delta so small that the outer join's nodes repeat raises the same
    BuildError at every sample, before that join is built: _cone_join
    keeps the inner junction's join, whose nodes are distinct, and not the
    error."""
    joins = []
    real = bk.smooth_join

    def counted(left, right, window, *args, **kw):
        joins.append(window)
        return real(left, right, window, *args, **kw)

    monkeypatch.setattr(bk, "smooth_join", counted)
    for _ in range(2):
        with pytest.raises(bk.BuildError, match=r"^delta=1e-14 is below the "
                           r"resolution of the outer join's 2049-node"):
            bk.build_cone_metric(4, 0.9, 0.1, 0.1, 1e-14, 0.5)
    info = bk._cone_join.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 3, 1)
    s1 = bk._cone_junction(0.9, 0.1, 1e-14, 0.5, "inner")[0]
    assert joins == [(s1 - 1e-14, s1 + 1e-14)]


def test_cached_tables_are_read_only(fresh_caches):
    """The node tables of the cone's cached joins, their A and B columns
    and the transfer ODE's (g, F) tables are read-only: writing to one
    raises, so no caller can change what later samples with its key
    read."""
    bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, 0.5)
    arrays = []
    for junction in ("inner", "outer"):
        join, *_, ab = bk._cone_join(0.9, 0.1, 0.02, 0.5, junction)
        ts, cols = join.nodes
        arrays += [ts, *cols, *ab]
    for curve in bk._transfer_curves(0.5):
        ts, cols = curve.nodes
        arrays += [ts, *cols, curve._at.ts, *curve._at.tables[0]]
    assert len(arrays) == 2 * 7 + 2 * 10
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_cached_jet_powers_are_read_only(fresh_caches):
    """The powers the projective jets keep per grid and per (s, grid) are
    those the formulas write, v**2, v**4 and 1 - v'**2, bit for bit, and
    read-only: writing to one raises."""
    _, f_jet = bk._projective_f0_jet(None)
    h_jet = bk._projective_member(0.5, None)[4]
    for jet in (f_jet, h_jet):
        assert [_bits(c) for c in (jet.v2, jet.v4, jet.gap)] == [
            _bits(c) for c in (jet.v ** 2, jet.v ** 4, 1 - jet.d1 ** 2)]
        for a in (*jet[:3], jet.v2, jet.v4, jet.gap):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def test_cached_curve_info_is_read_only(fresh_caches):
    """A cached curve's info is a read-only mapping, built once: writing
    to it raises, and a curve derived by restrict or metric_rescale
    shares it rather than a copy."""
    bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, 0.5)
    join = bk._cone_join(0.9, 0.1, 0.02, 0.5, "inner")[0]
    rep = bk.build_handle1(4, 0.9, **GOOD_H1)
    curves = [join, rep.aux["curves"]["f"], fs._default_collar_profile(),
              bk._handle1_height(GOOD_H1["lambda1"], GOOD_H1["eps1"],
                                 None)[0]]
    assert join.info["window"] and rep.aux["curves"]["f"].info
    for curve in curves:
        with pytest.raises(TypeError):
            curve.info["dimension"] = 7
        lo, hi = curve.domain
        assert curve.restrict(lo, 0.5 * (lo + hi)).info is curve.info
        assert curve.metric_rescale(2.0).info is curve.info
    with pytest.raises(TypeError):
        del join.info["window"]


def test_handle2_scan_leaves_the_default_profile_unchanged(fresh_caches):
    """The default collar profile is one curve per scale, shared by every
    handle2 sample; a scan, and the boundary a build reads from it, leave
    it and its info as they were.  A curve derived from it shares its
    read-only info, and writing to that raises."""
    B = fs._default_collar_profile()
    info, table = dict(B.info), B.node_table().tobytes()
    cert = fs.scan(fs.ParamBox({"a": (0.01, 0.03), "nu": (0.02, 0.04),
                                "eps": (0.05, 0.15)}, 3), "handle2",
                   budget=27, fixed={"lambda1": 0.01, "lambda2": 0.02,
                                     "b": 1.5}, grid=256)
    assert cert.entries
    rep = bk.build_handle2(B, **GOOD_H2)
    assert rep.boundary["bottom"].metric["warp"].info is B.info
    for derived in (rep.boundary["bottom"].metric["warp"],
                    rep.aux["curves"]["B_full"]):
        with pytest.raises(TypeError):
            derived.info["dimension"] = 7
    assert fs._default_collar_profile() is B
    assert fs._default_collar_profile(1.1) is not B
    assert B.info == info and B.node_table().tobytes() == table


@pytest.mark.usefixtures("fresh_caches")
def test_cache_stats_count_a_scans_shared_keys():
    """Nine (nu, eps) samples of handle2 at one (a, b) share one default
    profile B, build its face once and read its margins eight times; the
    face builds the dug graph and the collar once each, and every sample
    reads them once more for its aux curves.  Five projective s at d = 4
    build their warps' jets once each, on one f0 jet, and the same s at d
    = 8 read them back; three handle1-tied eps2 build their cap face once.
    Three cone eps2 at one (eps1, delta, t) build the inner junction's
    join and margins once and the outer ones once per eps2.  Every
    registered cache has its counts, by qualified name."""
    box = fs.ParamBox({"nu": (0.02, 0.04), "eps": (0.05, 0.15)}, 3)
    cert = fs.scan(box, "handle2", budget=9,
                   fixed={k: GOOD_H2[k] for k in ("lambda1", "lambda2",
                                                   "a", "b")})
    assert len(cert.entries) + cert.failures == 9
    stats = _util.cache_stats()
    assert set(stats) == {f"{c.__module__}.{c.__qualname__}"
                          for c in _util._CACHES}
    assert stats["warpbench.feasibility._default_collar_profile"] == (
        8, 1, 1, 8)
    assert stats["warpbench.blocks._handle2_face_margins"] == (8, 1, 1, 64)
    assert stats["warpbench.blocks._handle2_face"] == (0, 1, 1, 1)
    for name in ("_handle2_graph", "_handle2_collar"):
        assert stats[f"warpbench.blocks.{name}"] == (9, 1, 1, 16)
    assert stats["warpbench.blocks._handle1_beta"] == (0, 0, 0, 32)

    for d in (4, 8):
        fs.scan(fs.ParamBox({"s": (0.0, 1.0)}, 5), "projective", budget=5,
                fixed={"d": d})
    fs.scan(fs.ParamBox({"eps2": (0.01, 0.1)}, 3), "handle1-tied", budget=3,
            fixed={"lambda1": 0.95, "eps1": 0.05})
    stats = _util.cache_stats()
    assert stats["warpbench.blocks._projective_member"] == (5, 5, 5, 32)
    assert stats["warpbench.blocks._projective_f0_jet"] == (4, 1, 1, 8)
    assert stats["warpbench.blocks._handle1_cap_margins"] == (2, 1, 1, 256)
    assert stats["warpbench.blocks._handle1_cap"] == (0, 1, 1, 1)
    assert stats["warpbench.blocks._handle1_beta"] == (0, 3, 3, 32)

    cert = fs.scan(fs.ParamBox({"eps2": (0.05, 0.2)}, 3), "cone", budget=3,
                   fixed={"eps1": 0.1, "delta": 0.02, "t": 0.5})
    assert len(cert.entries) == 3
    stats = _util.cache_stats()
    # 1 inner miss and 2 hits, 3 outer misses
    assert stats["warpbench.blocks._cone_join"] == (2, 4, 4, 128)


def _pool_pairs():
    """(lambda1, eps1) of handle1 in the benchmark's 56-record pipeline
    pool."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [(r["handle1"]["lambda1"], r["handle1"]["eps1"])
            for r in inputs.pipeline_pool()]


def _cap_pairs():
    """The pool pairs, the 45 (lambda1, eps1) of the benchmark's
    handle1-tied lattice and 300 seeded draws."""
    lattice = fs.ParamBox({"lambda1": (0.85, 0.99), "eps1": (0.01, 0.1)},
                          {"lambda1": 15, "eps1": 3})
    rng = np.random.default_rng(2026)
    draws = zip(rng.uniform(0.05, 0.999, 300), rng.uniform(1e-4, 0.78, 300))
    return (_pool_pairs()
            + [(p["lambda1"], p["eps1"]) for p in lattice.full_grid()]
            + [(float(l1), float(e1)) for l1, e1 in draws])


@pytest.mark.numpy_contract(
    "np.sin, np.arctan and ** bits in a 2-point array and a long one")
class TestCapConcavityEnds:
    """-phi'' of handle1's cap profile is log-concave in arctan(lambda1 r)
    and so unimodal: the minimum of its samples on the grid over [0,
    r_max] is at one of the grid's ends, and the margin taken there is the
    grid minimum, value and argmin, bit for bit."""

    @pytest.mark.parametrize("grid", [None, 256, 64])
    def test_end_points_give_the_grid_minimum(self, grid):
        pairs = _cap_pairs()
        assert len(pairs) == 56 + 45 + 300
        for lambda1, eps1 in pairs:
            r_max = math.tan(lambda1 * (PI / 2 - eps1)) / lambda1
            rr = bk.grid_points(0.0, r_max, grid, min_points=513)
            want = bk._min_margin("cap_concavity", rr,
                                  -bk._cap_profile(lambda1, eps1, rr)[1])
            got = bk._cap_concavity(lambda1, eps1, r_max)
            assert (np.float64(got.min).tobytes(),
                    np.float64(got.argmin).tobytes()) == (
                np.float64(want.min).tobytes(),
                np.float64(want.argmin).tobytes()), (lambda1, eps1, grid)

    def test_build_takes_the_margin_at_the_ends(self):
        rep = _handle1(**GOOD_H1)
        prof = rep.sweeps["cap_profile"]
        rr, phi_dd = prof["t"], prof["columns"]["phi_dd"]
        want = bk._min_margin("cap_concavity", rr, -phi_dd)
        assert rep.margin("cap_concavity") == want
        assert rr[0] == 0.0 and rr[-1] == rep.aux["r_max"]


@pytest.mark.numpy_contract(
    "jets on a whole grid against jets on blocks and single points")
@pytest.mark.usefixtures("fresh_caches")
class TestCachedHandle1Jets:
    """handle1 keeps its cap side's grid and the height's jet on it per
    (lambda1, eps1, grid), and its outer face's grid and beta's jet on it
    per (eps2, grid).  The kept jets, evaluated once on the whole grid, are
    bitwise the jets of fresh evaluations on each sweep block, on single
    points and on the grid ends, and every kept array is read-only."""

    @staticmethod
    def assert_fresh(curve, ts, jet):
        blocks = [slice(i, i + kv._SWEEP_BLOCK)
                  for i in range(0, len(ts), kv._SWEEP_BLOCK)]
        picks = [[0], [len(ts) - 1], [0, len(ts) - 1], [len(ts) // 3]]
        for part in blocks + picks:
            fresh = curve.jet(ts[part], 3)
            for k in range(4):
                assert jet[k][part].tobytes() == fresh[k].tobytes(), (k, part)

    @pytest.mark.parametrize("grid", [None, 20000])
    def test_cached_jet_is_the_fresh_jet(self, grid):
        rep = _handle1(**GOOD_H1, grid=grid)
        alpha, ss, height, tan_chain, *_ = bk._handle1_height(
            GOOD_H1["lambda1"], GOOD_H1["eps1"], grid)
        beta, so, beta_jet, _ = bk._handle1_beta(GOOD_H1["eps2"], grid)
        # the build's cap face, built on its margins' miss, reads the
        # height once more
        assert bk._handle1_height.cache_info().hits == 2
        assert bk._handle1_beta.cache_info().hits == 1
        if grid:
            assert len(ss) > kv._SWEEP_BLOCK
        self.assert_fresh(alpha, ss, height)
        self.assert_fresh(beta, so, beta_jet)
        assert beta_jet[0].tobytes() == beta.eval(so).tobytes()
        # the outer height's jet: beta's plus alpha_top at order 0, as the
        # curve beta.plus(alpha_top) evaluates it
        top = rep.aux["alpha_top"]
        for k, col in enumerate(beta.plus(top).jet(so, 3)):
            assert col.tobytes() == (beta_jet + top)[k].tobytes()
        assert rep.margin("tan_chain") is tan_chain
        cap = rep.sweeps["cap_face"]
        assert cap["t"] is ss and cap["columns"]["alpha"] is height[0]
        assert rep.sweeps["outer_face"]["columns"]["beta"] is beta_jet[0]
        for a in (ss, so, *height, *beta_jet):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    @pytest.mark.parametrize("params", [
        GOOD_H1, {**GOOD_H1, "lambda1": 0.98, "eps1": 0.02, "eps2": 0.08}])
    @pytest.mark.parametrize("grid", [None, 256])
    def test_kept_scalars_are_fresh_evaluations(self, params, grid):
        """The cap side keeps alpha(pi/2), alpha'(pi/2) and the
        cap_concavity margin, and the outer face beta'(pi/2): each equals,
        bit for bit, what evaluating the kept curves afresh gives, and the
        report carries them."""
        lambda1, eps1 = params["lambda1"], params["eps1"]
        rep = _handle1(**params, grid=grid)
        alpha, _, _, _, cap_concavity, top, slope = bk._handle1_height(
            lambda1, eps1, grid)
        beta, _, _, beta_slope = bk._handle1_beta(params["eps2"], grid)
        assert _bits(top) == _bits(alpha.eval(PI / 2, 0))
        assert _bits(slope) == _bits(alpha.eval(PI / 2, 1))
        assert _bits(beta_slope) == _bits(beta.eval(PI / 2, 1))
        assert _bits(rep.aux["alpha_top"]) == _bits(top)
        r_max = math.tan(lambda1 * (PI / 2 - eps1)) / lambda1
        assert _bits(r_max) == _bits(rep.aux["r_max"])
        assert cap_concavity == bk._cap_concavity(lambda1, eps1, r_max)
        assert rep.margin("cap_concavity") is cap_concavity
        for value in (top, slope, beta_slope):
            assert type(value) is float
