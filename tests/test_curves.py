import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpbench import blocks, curves as cv, scenarios
from warpbench._util import grid_points, unit_plateaus
from warpbench.curvature import DoublyWarpedMetric, doubly_warped_sweep

import transfer_rk4


def central_diff(curve, t, step):
    return (curve.eval(t + step, 0) - curve.eval(t - step, 0)) / (2 * step)


class TestConcaveProfile:
    def test_pinned_values(self):
        f = cv.make_concave_profile(0.5, 0.7, 0.1)
        assert abs(f(0.0) - 1.0) < 1e-14
        assert abs(f(0.0, 1) - 0.7) < 1e-14

    @pytest.mark.parametrize("l1,l2", [(0.5, 0.7), (0.9, 0.95)])
    def test_three_properties_with_positive_margins(self, l1, l2):
        delta = 0.1
        f = cv.make_concave_profile(l1, l2, delta, t_max=20.0)
        ts = np.linspace(-delta, 20.0, 2048)
        m_concave = np.min(-f.eval(ts, 2))
        m_slope = np.min(f.eval(ts, 1) - l1)
        m_log = np.min(f.eval(ts, 1) / f.eval(ts, 0)
                       - l1 / (1.0 + l1 * ts))
        assert m_concave > 0
        assert m_slope > 0
        assert m_log > 0

    def test_slope_limit_is_intermediate_value(self):
        f = cv.make_concave_profile(0.5, 0.7, 0.1)
        mid = f.info["lambda_mid"]
        assert mid > 0.5
        assert abs(f(20.0, 1) - mid) < 1e-8

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cv.make_concave_profile(0.7, 0.5, 0.1)
        with pytest.raises(ValueError):
            # slope at the inner end reaches 1
            cv.make_concave_profile(0.5, 0.99, 5.0)
        with pytest.raises(ValueError, match="need delta >= 0"):
            cv.make_concave_profile(0.5, 0.7, -0.1)

    def test_delta_only_extends_the_domain(self):
        """delta = 0 is no inner extension: the profile on [0, t_max],
        whose orders at t >= 0 are those of any delta, bit for bit."""
        f = cv.make_concave_profile(0.5, 0.7, 0.0, t_max=3.0)
        g = cv.make_concave_profile(0.5, 0.7, 0.2, t_max=3.0)
        assert f.domain == (0.0, 3.0) and g.domain == (-0.2, 3.0)
        assert f.info["slope_at_inner"] == f(0.0, 1)
        ts = np.linspace(0.0, 3.0, 301)
        for k in range(4):
            assert f.eval(ts, k).tobytes() == g.eval(ts, k).tobytes()
        with pytest.raises(ValueError, match="outside"):
            f.eval(-0.1)


class TestDerivativeConsistency:
    CURVES = {
        "sine": cv.sine_curve(1.3, 2.0, 0.4, (0.0, 2.0)),
        "poly": cv.poly_curve([1.0, -0.3, 0.2, 0.05], (0.0, 2.0)),
        "profile": cv.make_concave_profile(0.5, 0.7, 0.1, t_max=2.0),
    }

    @pytest.mark.parametrize("name", sorted(CURVES))
    @given(x=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_first_derivative_matches_central_difference(self, name, x):
        curve = self.CURVES[name]
        lo, hi = curve.domain
        t = lo + x * (hi - lo)
        step = 1e-4 * (hi - lo)
        if not (lo + step < t < hi - step):
            return
        fd = central_diff(curve, t, step)
        exact = curve.eval(t, 1)
        assert abs(fd - exact) < 1e-6 * (1.0 + abs(exact))

    def test_ode_curve_consistency(self):
        h0, fc = cv.integrate_transfer_odes(0.1, t_max=5.0)
        for t in (0.5, 1.7, 3.3):
            fd = central_diff(fc, t, 5e-4)
            assert abs(fd - fc.eval(t, 1)) < 1e-6 * (1 + abs(fc.eval(t, 1)))


class TestTransferOdes:
    @pytest.mark.parametrize("C", [0.01, 0.1])
    def test_residuals_below_tolerance(self, C):
        # on [0, 20], 4096 node intervals
        h0, fc = cv.integrate_transfer_odes(C, t_max=20.0)
        assert len(h0.nodes[0]) == 4097
        res = cv.transfer_ode_residuals(h0, fc, C)
        assert max(res.values()) < 1e-8

    def test_residuals_below_tolerance_on_the_default_table(self):
        # the table the transfer block reads: C = 0.5 at the default
        # horizon, on 16384 node intervals
        h0, fc = cv.integrate_transfer_odes(0.5)
        assert len(h0.nodes[0]) == 16385
        assert h0.nodes[0][-1] == 120.0
        res = cv.transfer_ode_residuals(h0, fc, 0.5)
        assert max(res.values()) < 1e-8

    @pytest.mark.parametrize("C", [0.01, 0.1])
    def test_qualitative_properties_at_every_node(self, C):
        h0, fc = cv.integrate_transfer_odes(C, t_max=20.0)
        ts, hcols = h0.nodes
        _, fcols = fc.nodes
        g, g1 = hcols[0], hcols[1]
        f0, f1, f2 = fcols[0], fcols[1], fcols[2]
        assert np.all(g1 > 0)
        assert np.all(hcols[2] < 0)
        assert np.all(f1[1:] > 0)
        assert np.all(f2 > 0)
        ratio = f1 / (f0 * g * g1)
        assert np.all(ratio >= -1e-9)
        assert np.all(ratio <= 1.0 + 1e-9)
        tail = (f0 * g1)[len(ts) // 2:]
        assert np.all(np.diff(tail) <= 1e-12)

    def test_initial_values(self):
        h0, fc = cv.integrate_transfer_odes(0.25, t_max=5.0)
        assert abs(fc(0.0) - 1.0) < 1e-15
        assert abs(fc(0.0, 1)) < 1e-15
        assert abs(h0(0.0) - 1.0) < 1e-15

    def test_zero_coupling_gives_constant(self):
        _, fc = cv.integrate_transfer_odes(0.0, t_max=5.0)
        ts = np.linspace(0, 5, 200)
        assert np.max(np.abs(fc.eval(ts) - 1.0)) < 1e-15

    @pytest.mark.parametrize("t_max, n", [
        (5.0, 1024), (7.9, 1024), (20.0, 4096), (120.0, 16384)])
    def test_nodes_are_the_smallest_power_of_two_from_128_per_unit(
            self, t_max, n):
        g, fc = cv.integrate_transfer_odes(0.1, t_max=t_max)
        assert np.array_equal(g.nodes[0], np.linspace(0.0, t_max, n + 1))
        assert fc.nodes[0] is g.nodes[0]

    @pytest.mark.parametrize("C", [0.0, 0.5, 8.0, 1e4])
    def test_sign_lemmas_at_every_node(self, C):
        """g' > 0, g'' < 0 and F' >= 0 at every C >= 0; F' > 0 after t = 0
        and F'' > 0 when C > 0: the series' coefficients are all >= 0."""
        h0, fc = cv.integrate_transfer_odes(C)
        (_, g1, g2, _), (_, f1, f2, _) = h0.nodes[1], fc.nodes[1]
        assert np.all(g1 > 0) and np.all(g2 < 0)
        assert f1[0] == 0.0 and np.all(f1 >= 0)
        if C > 0:
            assert np.all(f1[1:] > 0) and np.all(f2 > 0)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="C must be >= 0"):
            cv.integrate_transfer_odes(-0.1, t_max=5.0)

    def test_rejects_an_empty_horizon(self):
        with pytest.raises(ValueError, match="t_max must be positive"):
            cv.integrate_transfer_odes(0.5, t_max=0.0)


def array_rk4_nodes(C, t_max, n):
    """Elementwise array RK4 on y = (g, F, F'), one small numpy array per
    stage: a second coding of the reference's scalar loop."""
    def rhs(y):
        g, fc, fcp = y
        e = np.exp(-g * g)
        return np.array([np.exp(-0.5 * g * g), fcp, C * e * fc])

    h = t_max / n
    ys = np.empty((n + 1, 3))
    ys[0] = (1.0, 1.0, 0.0)
    y = ys[0].copy()
    for i in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        ys[i + 1] = y
    return ys


class TestTransferSeriesOracle:
    @pytest.mark.parametrize("C", [0.0, 0.25, 0.5, 1.0])
    def test_tables_match_rk4_at_every_node(self, C):
        """g, F and F' at each of the 16385 nodes equal the RK4
        reference's to 1e-12 relative (the reference's own error is about
        1e-14 there), and the derivative columns are the right-hand side
        at them."""
        h0, fc = cv.integrate_transfer_odes(C)
        # 8 reference steps per node interval of the series
        ref = transfer_rk4.rk4_nodes(C, 120.0, 131072)[::8].T
        for got, want in zip(
                (h0.nodes[1][0], fc.nodes[1][0], fc.nodes[1][1]), ref):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
        g, g1, g2, g3 = h0.nodes[1]
        fc0, fc1, fc2, fc3 = fc.nodes[1]
        e_half, e_full = np.exp(-0.5 * g * g), np.exp(-g * g)
        assert np.array_equal(g1, e_half)
        assert np.array_equal(g2, -g * e_full)
        assert np.array_equal(g3, e_half * e_full * (2.0 * g * g - 1.0))
        assert np.array_equal(fc2, C * e_full * fc0)
        assert np.array_equal(fc3,
                              C * e_full * (fc1 - 2.0 * g * e_half * fc0))

    @pytest.mark.numpy_contract(
        "RK4 in Python floats through numpy's exp against RK4 on arrays")
    @pytest.mark.parametrize("C", [0.0, 0.25, 0.5, 1.0])
    def test_reference_is_array_rk4_bitwise(self, C):
        assert np.array_equal(transfer_rk4.rk4_nodes(C, 5.0, 256),
                              array_rk4_nodes(C, 5.0, 256))


class TestSmoothJoin:
    def test_identity_when_sides_coincide(self):
        left = cv.sine_curve(1.0, 1.0, 0.0, (0.0, 1.0))
        right = cv.sine_curve(1.0, 1.0, 0.0, (0.3, 2.0))
        out = cv.smooth_join(left, right, (0.4, 0.8), (-2.0, 2.0))
        ts = np.linspace(0.0, 2.0, 400)
        assert np.max(np.abs(out.eval(ts) - np.sin(ts))) < 1e-12
        assert out.info["identity"]

    def test_two_sines_stay_inside_band(self):
        # near-parallel sines joined over a wide window around s = 0.3
        left = cv.sine_curve(1.0, 1.0, 0.0, (-0.6, 1.2))
        right = cv.sine_curve(1.0, 0.9, 0.0, (-0.6, 1.4))
        window = (-0.3, 0.9)
        ts = np.linspace(*window, 2001)
        band = (min(np.min(left.eval(ts, 2)), np.min(right.eval(ts, 2)))
                - 1e-2,
                max(np.max(left.eval(ts, 2)), np.max(right.eval(ts, 2)))
                + 1e-2)
        out = cv.smooth_join(left, right, window, band, band_tol=1e-2)
        assert out.info["band_overshoot"] < 1e-2
        assert np.max(np.abs(out.eval(np.linspace(-0.6, -0.31, 50))
                             - left.eval(np.linspace(-0.6, -0.31, 50)))) \
            < 1e-12
        tr = np.linspace(0.91, 1.4, 50)
        assert np.max(np.abs(out.eval(tr) - right.eval(tr))) < 1e-7

    def test_matching_is_seamless_at_window_ends(self):
        left = cv.sine_curve(1.0, 1.0, 0.0, (-0.6, 1.2))
        right = cv.sine_curve(1.0, 0.9, 0.0, (-0.6, 1.4))
        out = cv.smooth_join(left, right, (-0.3, 0.9), (-2.0, 2.0))
        for k in (0, 1):
            gap = abs(out.eval(0.9 - 1e-9, k) - right.eval(0.9, k))
            assert gap < 1e-7

    @staticmethod
    def generic_line(intercept, slope, domain):
        """The line intercept + slope t as a curve that does not say it is
        a line, so a join reads its orders 2 and 3 through the blend."""
        a, b = float(intercept), float(slope)
        zeros = lambda t: np.zeros_like(np.asarray(t, float))  # noqa: E731
        return cv.curve_from_derivs(
            domain, lambda t: a + b * np.asarray(t, float),
            lambda t: np.full_like(np.asarray(t, float), b), zeros, zeros)

    @pytest.mark.numpy_contract(
        "signed zeros of a step-weighted sum of zero columns")
    @pytest.mark.parametrize("left, right, window", [
        ((-0.0056, 1.0), (0.0, 0.95), (0.0356, 0.0756)),     # a cone s1
        ((0.0, 0.95), (-0.0827, 1.0), (1.6336, 1.6636)),     # a cone s2
        ((0.3, -2.0), (-1.0, 3.0), (-0.5, 0.25)),
        ((1.0, 1.0), (1.0, 1.0 + 1e-9), (0.0, 1e-3)),
    ])
    def test_two_lines_join_as_their_blend(self, left, right, window):
        """Two lines skip the blend of their orders 2 and 3, which is +0.0
        at every point of the window: the join's node table, coefficients
        and orders 0-3 at points of the window (its ends, single points
        and arrays) are those of the same lines joined through the blend,
        bit for bit, signs of zeros included."""
        band = (-1e9, 1e9)
        lines = [cv.line_curve(*p, window) for p in (left, right)]
        generic = [self.generic_line(*p, window) for p in (left, right)]
        assert all(isinstance(c._at, cv._LineOrders) for c in lines)
        assert not any(isinstance(c._at, cv._LineOrders) for c in generic)
        got = cv.smooth_join(*lines, window, band)
        want = cv.smooth_join(*generic, window, band)
        assert got.info == want.info and not got.info["identity"]
        assert got.domain == want.domain
        assert got.node_table().tobytes() == want.node_table().tobytes()
        a, b = window
        ts = np.concatenate([[a, b], np.linspace(a, b, 1001)[1:-1],
                             np.random.default_rng(7).uniform(a, b, 64)])
        for k in range(4):
            g, w = got.eval(ts, k), want.eval(ts, k)
            assert g.tobytes() == w.tobytes(), k
            assert np.signbit(g).tobytes() == np.signbit(w).tobytes(), k
            for t in ts[[0, 1, 5, -1]]:
                assert np.float64(got.eval(t, k)).tobytes() == \
                    np.float64(want.eval(t, k)).tobytes(), (k, t)
        for n in range(4):
            for g, w in zip(got.jet(ts, n), want.jet(ts, n)):
                assert g.tobytes() == w.tobytes()

    def test_a_line_and_a_sine_join_through_the_blend(self):
        """Only two lines skip the blend: a line joined to a sine gives the
        bits of the same join with the line as a generic curve."""
        window = (0.2, 0.7)
        sine = cv.sine_curve(1.0, 1.0, 0.3, window)
        got = cv.smooth_join(cv.line_curve(0.3, 1.0, window), sine, window,
                             (-1e9, 1e9))
        want = cv.smooth_join(self.generic_line(0.3, 1.0, window), sine,
                              window, (-1e9, 1e9))
        assert got.node_table().tobytes() == want.node_table().tobytes()
        ts = np.linspace(*window, 301)
        for k in (2, 3):
            assert got.eval(ts, k).tobytes() == want.eval(ts, k).tobytes()

    def test_window_curve_when_nothing_lies_outside(self):
        """When neither curve reaches outside the window, the join is the
        window curve itself, whose node table is the surgery's on the
        window's nodes; when one does, it is a piecewise curve that equals
        it on the window.  An identity join stays the piecewise curve of
        its two inputs."""
        a, b = 0.2, 0.7
        inside = cv.smooth_join(cv.line_curve(0.0, 1.0, (a, b)),
                                cv.line_curve(0.1, 0.5, (a, b)), (a, b),
                                (-1e9, 1e9))
        u = cv._join_window(b - a).u
        assert inside.nodes is not None
        assert np.array_equal(inside.nodes[0], a + u)
        assert inside.domain == (a, a + u[-1])
        assert inside.info["window"] == (a, b)
        for left_lo, right_hi in ((0.0, b), (a, 1.0), (0.0, 1.0)):
            out = cv.smooth_join(cv.line_curve(0.0, 1.0, (left_lo, b)),
                                 cv.line_curve(0.1, 0.5, (a, right_hi)),
                                 (a, b), (-1e9, 1e9))
            assert out.nodes is None
            assert out.domain == (left_lo, right_hi)
            assert out.info == inside.info
            ts = np.linspace(a, b, 257)[:-1]
            for k in range(4):
                assert out.eval(ts, k).tobytes() == \
                    inside.eval(ts, k).tobytes()
        line = cv.line_curve(0.0, 1.0, (0.0, 1.0))
        identity = cv.smooth_join(line, line.restrict(a, 1.0), (a, b),
                                  (-1.0, 1.0))
        assert identity.info["identity"] and identity.nodes is None
        assert identity.domain == (0.0, 1.0)
        ts = np.linspace(0.0, 1.0, 101)
        assert identity.eval(ts).tobytes() == line.eval(ts).tobytes()

    @pytest.mark.parametrize("left", [
        cv.line_curve(0.1, 1.0, (0.0, 1.0)),
        cv.sine_curve(1.0, 1.0, 0.3, (0.0, 1.0))])
    def test_identity_join_ending_at_the_window_is_left(self, left):
        """When the two curves agree on the window and right ends at its
        end b, as the cone's joins do at t = 0, the join is left restricted
        to [left.t_lo, b]: it shares left's orders function and evaluates,
        bit for bit, as the piecewise curve of left alone did."""
        a, b = 0.2, 0.7
        join = cv.smooth_join(left, left.restrict(a, b), (a, b), (-2.0, 2.0))
        assert join._at is left._at
        assert join.domain == (0.0, b)
        assert dict(join.info) == {"identity": True, "c1": 0.0, "c2": 0.0,
                                   "band_overshoot": 0.0, "window": (a, b)}
        before = cv.piecewise_curve([(0.0, b, left)])
        ts = np.concatenate([[0.0, b], np.linspace(0.0, b, 257)[1:-1]])
        for k in range(4):
            assert join.eval(ts, k).tobytes() == before.eval(ts, k).tobytes()
            for t in (0.0, a, b):
                assert np.float64(join.eval(t, k)).tobytes() == \
                    np.float64(before.eval(t, k)).tobytes()
        for g, w in zip(join.jet(ts, 3), before.jet(ts, 3)):
            assert g.tobytes() == w.tobytes()

    def test_band_infeasible_reports_overshoot(self):
        left = cv.line_curve(0.0, 1.0, (-1.0, 1.0))
        right = cv.line_curve(0.0, -1.0, (-1.0, 1.0))
        with pytest.raises(cv.JoinBandError) as err:
            cv.smooth_join(left, right, (-0.2, 0.2), (-1e-3, 1e-3),
                           band_tol=1e-3)
        assert err.value.overshoot > 0


class TestParity:
    def test_sine_is_odd_at_zero(self):
        s = cv.sine_curve(1.0, 1.0, 0.0, (0.0, 1.2))
        rep = cv.parity_margin(s, 0.0, "odd")
        assert rep.max_violation < 1e-9
        assert abs(rep.first_derivative_value - 1.0) < 1e-9

    def test_cosine_is_even_at_zero(self):
        c = cv.cosine_curve(1.0, 1.0, 0.0, (0.0, 1.2))
        rep = cv.parity_margin(c, 0.0, "even")
        assert rep.max_violation < 1e-9

    def test_scaled_sine_even_at_far_end(self):
        t0 = 1.4
        f = cv.sine_curve(2 * t0 / math.pi, math.pi / (2 * t0), 0.0,
                          (0.0, t0))
        rep = cv.parity_margin(f, t0, "even")
        assert rep.max_violation < 1e-9
        assert abs(rep.first_derivative_value) < 1e-9

    def test_odd_violation_detected(self):
        c = cv.cosine_curve(1.0, 1.0, 0.0, (0.0, 1.2))
        rep = cv.parity_margin(c, 0.0, "odd")
        assert rep.max_violation > 0.1

    def test_flatness_margin(self):
        const = cv.constant_curve(2.0, (0.0, 1.0))
        assert cv.flatness_margin(const, 1.0) == 0.0
        s = cv.sine_curve(1.0, 1.0, 0.0, (0.0, 1.0))
        assert cv.flatness_margin(s, 1.0) > 0.4


class TestSerialization:
    def test_node_table_columns(self, tmp_path):
        s = cv.sine_curve(1.0, 1.0, 0.0, (0.0, 1.0))
        path = tmp_path / "curve.csv"
        s.write_csv(path, per_unit=16)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        header = path.read_text().splitlines()[0]
        assert header == "t,v0,v1,v2,v3"
        assert np.allclose(rows[:, 1], np.sin(rows[:, 0]), atol=1e-12)
        assert np.allclose(rows[:, 2], np.cos(rows[:, 0]), atol=1e-12)

    def test_restricted_table_curve_keeps_only_its_nodes(self, tmp_path):
        ts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        c = cv.table_curve(ts, (ts ** 2, 2 * ts, 2 + 0 * ts, 0 * ts))
        r = c.restrict(0.25, 0.5)
        assert r.domain == (0.25, 0.5)
        tab = r.node_table()
        assert np.array_equal(tab[:, 0], [0.25, 0.5])
        assert np.array_equal(tab[:, 1], [0.0625, 0.25])
        path = tmp_path / "restricted.csv"
        r.write_csv(path)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(rows, tab)
        assert np.array_equal(c.node_table()[:, 0], ts)

    def test_value_slope_table_writes_its_two_columns(self, tmp_path):
        ts = np.linspace(0.0, 1.0, 5)
        c = cv.table_curve(ts, (np.sin(ts), np.cos(ts)))
        tab = c.node_table()
        assert tab.shape == (5, 3)
        assert np.array_equal(tab, np.column_stack([ts, np.sin(ts),
                                                    np.cos(ts)]))
        path = tmp_path / "ii.csv"
        c.write_csv(path)
        assert path.read_text().splitlines()[0] == "t,v0,v1"
        assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1),
                              tab)

    def test_curve_without_nodes_writes_the_orders_it_answers(
            self, tmp_path):
        """A curve with no stored nodes that answers orders 0 and 1 only,
        as handle1's outer radial ii profile does, writes t, v0, v1 on a
        grid: its eval at those orders, bit for bit."""
        rep = blocks.build_handle1(4, 0.9, lambda1=0.985, lambda2=0.99,
                                   eps1=0.01, eps2=0.1, delta=0.05)
        ts = np.linspace(0.0, 1.0, 5)
        two = cv.table_curve(ts, (np.sin(ts), np.cos(ts))).metric_rescale(2.0)
        for c in (rep.boundary["outer"].ii["radial"], two):
            assert c.nodes is None
            tab = c.node_table(16)
            grid = grid_points(c.t_lo, c.t_hi, 16)
            assert tab.tobytes() == np.column_stack(
                [grid, c.eval(grid), c.eval(grid, 1)]).tobytes()
            path = tmp_path / "ii.csv"
            c.write_csv(path, per_unit=16)
            assert path.read_text().splitlines()[0] == "t,v0,v1"
            assert np.array_equal(np.loadtxt(path, delimiter=",",
                                             skiprows=1), tab)

    def test_node_table_raises_other_value_errors(self):
        """Only an order the curve does not answer ends the columns: any
        other ValueError of its orders function reaches the caller."""
        def orders(t, ks):
            if ks[-1] == 2:
                raise ValueError("a fault at order 2")
            return [np.zeros_like(t) for _ in ks]

        c = cv.SmoothCurve(0.0, 1.0, orders)
        with pytest.raises(ValueError, match="^a fault at order 2$"):
            c.node_table(4)

    def test_ode_curve_serializes_stored_nodes(self):
        h0, _ = cv.integrate_transfer_odes(0.1, t_max=2.0)
        tab = h0.node_table()
        assert tab.shape == (257, 5)


class TestTableOrders:
    """A table curve of m columns answers orders 0..m-1: the Hermite cubic
    below the top order, np.interp of the top column at it; a higher
    order raises ValueError naming the columns the table holds."""

    ts = np.linspace(0.0, 1.0, 9)
    cols = (np.sin(ts), np.cos(ts), -np.sin(ts), -np.cos(ts))
    t = np.linspace(0.0, 1.0, 101)

    def test_two_columns_answer_orders_0_and_1(self):
        two = cv.table_curve(self.ts, self.cols[:2])
        four = cv.table_curve(self.ts, self.cols)
        assert two.eval(self.t, 0).tobytes() == four.eval(self.t, 0).tobytes()
        assert two.eval(self.t, 1).tobytes() == \
            np.interp(self.t, self.ts, self.cols[1]).tobytes()
        assert four.eval(self.t, 3).tobytes() == \
            np.interp(self.t, self.ts, self.cols[3]).tobytes()
        for x in (0.0, 0.3, 1.0):
            assert two.eval(x, 0) == four.eval(x, 0)
            assert two.eval(x, 1) == float(np.interp(x, self.ts,
                                                     self.cols[1]))
        jet = two.jet(self.t, 1)
        assert [v.tobytes() for v in jet] == [
            two.eval(self.t, k).tobytes() for k in (0, 1)]

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_higher_order_raises(self, m):
        c = cv.table_curve(self.ts, self.cols[:m])
        for k in range(m, 4):
            with pytest.raises(ValueError, match=rf"order {k} not available:"
                               rf" the table holds columns v0\.\.v{m - 1}"):
                c.eval(self.t, k)
            with pytest.raises(ValueError, match=rf"v0\.\.v{m - 1}"):
                c.jet(0.5, k)
        assert c.eval(0.5, m - 1) == float(np.interp(0.5, self.ts,
                                                     self.cols[m - 1]))


class TestRescaling:
    @given(R=st.floats(0.25, 4.0), x=st.floats(0.1, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_metric_rescale_scales_values_and_derivatives(self, R, x):
        s = cv.sine_curve(1.0, 1.0, 0.2, (0.0, 1.0))
        sR = s.metric_rescale(R)
        t = x * 1.0
        assert abs(sR.eval(R * t, 0) - R * s.eval(t, 0)) < 1e-12 * R
        assert abs(sR.eval(R * t, 1) - s.eval(t, 1)) < 1e-12

    def test_even_extension(self):
        half = cv.cosine_curve(1.0, 1.0, 0.0, (0.0, 1.0))
        full = cv.even_extension(half)
        ts = np.linspace(-1.0, 1.0, 101)
        assert np.max(np.abs(full.eval(ts) - np.cos(ts))) < 1e-12
        assert np.max(np.abs(full.eval(-ts, 1) + full.eval(ts, 1))) < 1e-12


def clipped_eval(curve, t, k=0):
    """SmoothCurve.eval with every point passed through np.clip."""
    arr = np.asarray(t, dtype=float)
    out = curve._at(np.clip(arr, curve.t_lo, curve.t_hi), (k,))[0]
    return float(out) if arr.ndim == 0 else np.asarray(out, dtype=float)


@pytest.mark.numpy_contract("clamp against np.clip")
class TestEvalDomain:
    """Points within the slop 1e-9 (1 + t_hi - t_lo) of the domain are
    clamped to its ends, points beyond it raise, NaN passes through."""

    SLOP = 1e-9 * (1.0 + 1.0)

    @staticmethod
    def curves():
        ts = np.linspace(0.0, 1.0, 65)
        return [cv.sine_curve(1.0, 3.0, 0.2, (0.0, 1.0)),
                cv.table_curve(ts, [np.sin(ts), np.cos(ts), -np.sin(ts),
                                    -np.cos(ts)]),
                cv.piecewise_curve([
                    (0.0, 0.5, cv.line_curve(0.0, 1.0, (0.0, 0.5))),
                    (0.5, 1.0, cv.poly_curve([0.0, 1.0, 0.0, 1.0],
                                             (0.5, 1.0)))])]

    def test_empty_array_gives_empty_array(self):
        for c in self.curves():
            out = c.eval(np.array([]))
            assert isinstance(out, np.ndarray) and out.shape == (0,)
            assert out.dtype == float

    def test_zero_dimensional_input_gives_float(self):
        for c in self.curves():
            for t in (0.3, np.float64(0.3), np.array(0.3)):
                assert type(c.eval(t, 1)) is float
                assert c.eval(t, 1) == clipped_eval(c, 0.3, 1)

    def test_points_inside_the_slop_are_clamped(self):
        eps = 0.5 * self.SLOP
        for c in self.curves():
            for k in range(4):
                assert c.eval(-eps, k) == c.eval(0.0, k)
                assert c.eval(1.0 + eps, k) == c.eval(1.0, k)
                got = c.eval(np.array([-eps, 0.25, 1.0 + eps]), k)
                assert got.tobytes() == c.eval(
                    np.array([0.0, 0.25, 1.0]), k).tobytes()

    @pytest.mark.parametrize("t", [-3 * 1e-9 * 2.0, 1.0 + 3 * 1e-9 * 2.0,
                                   [0.5, 1.5], [np.nan, -1.0], [np.nan, 2.0],
                                   [-np.inf, 0.5], np.inf])
    def test_points_beyond_the_slop_raise(self, t):
        for c in self.curves():
            with pytest.raises(ValueError, match=r"t outside \["):
                c.eval(t)

    def test_nan_passes_through(self):
        for c in self.curves():
            assert math.isnan(c.eval(np.nan))
            got = c.eval(np.array([0.5, np.nan, 1.0 + 0.5 * self.SLOP]))
            assert got[0] == c.eval(0.5) and math.isnan(got[1])
            assert got[2] == c.eval(1.0)

    def test_matches_clipping_every_point_bitwise(self):
        rng = np.random.default_rng(0)
        t = np.concatenate([
            rng.uniform(0.0, 1.0, 300), [0.0, -0.0, 0.5, 1.0, np.nan],
            rng.uniform(-self.SLOP / 2, 0.0, 5),
            1.0 + rng.uniform(0.0, self.SLOP / 2, 5)])
        for c in self.curves():
            for k in range(4):
                for q in (t, t[:300], t.reshape(-1, 5)):
                    got, want = c.eval(q, k), clipped_eval(c, q, k)
                    assert np.array_equal(got, want, equal_nan=True)
                    zero = want == 0.0
                    assert np.array_equal(np.signbit(got[zero]),
                                          np.signbit(want[zero]))

    def test_query_array_is_neither_changed_nor_returned(self):
        t = np.array([-0.5 * self.SLOP, 0.25, 0.75])
        before = t.copy()
        for c in self.curves():
            out = c.eval(t)
            assert out is not t and not np.shares_memory(out, t)
            assert t.tobytes() == before.tobytes()


def piecewise_curve_through_eval(segments):
    """piecewise_curve as it was before its segments' derivative callables
    were called directly: each segment through its own ``eval``."""
    segments = sorted(segments, key=lambda s: s[0])
    for (l1, h1, _), (l2, _, _) in zip(segments, segments[1:]):
        if abs(h1 - l2) > 1e-9 * (1 + abs(h1)):
            raise ValueError("segments are not contiguous")
    los = np.array([s[0] for s in segments])
    curves = [s[2] for s in segments]
    t_lo, t_hi = segments[0][0], segments[-1][1]

    def ev(k):
        def f(t):
            t = np.asarray(t, dtype=float)
            idx = cv.clamp(np.searchsorted(los, t, side="right") - 1,
                           0, len(curves) - 1)
            out = np.empty_like(t)
            for i, c in enumerate(curves):
                m = idx == i
                if np.count_nonzero(m):
                    out[m] = c.eval(cv.clamp(t[m], c.t_lo, c.t_hi), k)
            return out
        return f

    return cv.curve_from_derivs((t_lo, t_hi), ev(0), ev(1), ev(2), ev(3))


@pytest.mark.numpy_contract("a piecewise curve against each segment's eval")
class TestPiecewiseCurve:
    """Segments evaluated through their derivative callables give the
    bits of segments evaluated through ``eval``."""

    @staticmethod
    def segments():
        ts = np.linspace(0.4, 0.7, 33)
        end = 1.0 - 1e-12
        nested = cv.piecewise_curve([
            (0.7, 0.8, cv.poly_curve([0.5, -1.0, 0.0, 2.0], (0.7, 0.8))),
            (0.8, end, cv.sine_curve(0.3, 2.0, 0.1, (0.8, end)))])
        return [(0.0, 0.4, cv.sine_curve(1.0, 3.0, 0.2, (0.0, 0.4))),
                (0.4, 0.7, cv.table_curve(ts, [np.cos(ts), -np.sin(ts),
                                               -np.cos(ts), np.sin(ts)])),
                # a piece that ends a rounding step before the next one,
                # so points in between are clamped to its end
                (0.7, end, nested),
                # a segment whose domain is wider than its piece
                (1.0, 1.5, cv.linear_combo(
                    [(cv.line_curve(2.0, -1.0, (0.9, 1.5)), 0.5)]))]

    def test_matches_evaluation_through_eval_bitwise(self):
        segs = self.segments()
        new = cv.piecewise_curve(segs)
        old = piecewise_curve_through_eval(segs)
        assert new.domain == old.domain
        rng = np.random.default_rng(1)
        bounds = [0.0, -0.0, 0.4, 0.7, 1.0 - 1e-12, 1.0, 1.5]
        edges = np.concatenate([np.nextafter(b, [-np.inf, np.inf])
                                for b in bounds])
        slop = 1e-9 * (1.0 + 1.5)
        t = np.concatenate([
            bounds, edges[(edges >= 0.0) & (edges <= 1.5)],
            [-0.4 * slop, 1.5 + 0.4 * slop, np.nan],
            *[rng.uniform(lo, hi, 50) for lo, hi in
              [(0.0, 0.4), (0.4, 0.7), (0.7, 1.0), (1.0, 1.5)]]])
        for k in range(4):
            for q in (t, t[:0], t.reshape(-1, 2) if t.size % 2 == 0
                      else t[1:].reshape(-1, 2)):
                got, want = new.eval(q, k), old.eval(q, k)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got, want, equal_nan=True)
                assert np.array_equal(np.signbit(got), np.signbit(want))
            for x in (*bounds, 0.2, 0.55, 0.8, 1.2, np.float64(0.9),
                      np.array(1.1), -0.4 * slop, np.nan):
                got, want = new.eval(x, k), old.eval(x, k)
                assert type(got) is float and type(want) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_scalar_query_is_its_segments_eval(self):
        """A 0-d query takes the array path, one point long: each order is
        the segment's eval bitwise, as a float, at interior points, at
        each segment start and at both ends, for a Python float, an
        np.float64 and a 0-d array; the orders function gives 0-d
        arrays."""
        ts = np.linspace(0.0, 1.0, 2049)
        table = cv.table_curve(ts, [np.sin(ts), np.cos(ts), -np.sin(ts),
                                    -np.cos(ts)])
        pieces = [(0.0, 0.5, table.restrict(0.0, 0.5)),
                  (0.5, 1.0, table.restrict(0.5, 1.0))]
        glued = cv.piecewise_curve(pieces)
        for x, seg in ((0.0, 0), (0.3, 0), (np.nextafter(0.5, 0.0), 0),
                       (0.5, 1), (0.7, 1), (1.0, 1)):
            for k in range(4):
                want = pieces[seg][2].eval(x, k)
                for q in (x, np.float64(x), np.array(x)):
                    got = glued.eval(q, k)
                    assert type(got) is float
                    assert (np.float64(got).tobytes()
                            == np.float64(want).tobytes())
            outs = glued._at(np.array(x), (0, 1, 2))
            assert all(type(v) is np.ndarray and v.shape == () for v in outs)
            assert [float(v) for v in outs] == list(
                pieces[seg][2].jet(x, 2))


def cone_warp():
    """The cone's warp, sin_of over a piecewise curve of three lines and
    the two smooth joins between them, and the starts and ends of its join
    windows (where its pieces start)."""
    delta = 0.02
    report = blocks.build_cone_metric(4, 0.9, 0.1, 0.1, delta, 0.5)
    s1, s2 = report.aux["s1"], report.aux["s2"]
    return (report.aux["curves"]["warp"],
            [s1 - delta, s1 + delta, s2 - delta, s2 + delta])


def transfer_warps():
    """The default transfer block's warps f and h, built as the block
    builds them: weighted restrictions of the ODE's two tables, which share
    one node array."""
    params = scenarios.DEFAULT_PIPELINE_PARAMS["transfer"]
    rep = blocks.build_transfer_block(p=2, q=3, **params)
    h0, fC = blocks._transfer_curves(params["C"])
    a, t0 = params["a"], rep.aux["t0"]
    c = params["r0"] / h0.eval(0.0, 0)
    return (cv.linear_combo([(fC, a / c)]).restrict(0.0, t0),
            cv.linear_combo([(h0, a)]).restrict(0.0, t0))


@pytest.mark.numpy_contract(
    "jet columns against one-point evaluations, and np.sin alone")
class TestJet:
    """SmoothCurve.jet(t) is (eval(t, 0), eval(t, 1), eval(t, 2)) bit for
    bit, for table curves and their weighted sums (one segment lookup per
    table), for composite and mapped curves (their parts' orders in one
    call), and for closed-form and Jet-defined curves."""

    @staticmethod
    def curves():
        ts = np.linspace(0.0, 2.0, 257)
        table = cv.table_curve(ts, [np.sin(3 * ts), 3 * np.cos(3 * ts),
                                    -9 * np.sin(3 * ts),
                                    -27 * np.cos(3 * ts)])
        other = cv.table_curve(ts, [np.exp(-ts), -np.exp(-ts),
                                    np.exp(-ts), -np.exp(-ts)])
        combo = cv.linear_combo([(table, 0.7), (other, -1.3)])
        # equal on the window to every order: the join is the two pieces
        identity = cv.smooth_join(table.restrict(0.0, 1.5),
                                  table.restrict(0.5, 2.0), (0.8, 1.2),
                                  (-10.0, 10.0))
        assert identity.info["identity"]
        window, _ = cv.second_derivative_surgery(
            0.5, cv.SurgeryWindow(np.linspace(0.0, 0.5, 129),
                                  unit_plateaus([(0.0, 0.5)])),
            lambda t, orders: [np.cos(np.asarray(t, float)) if k == 2 else
                               -np.sin(np.asarray(t, float)) for k in orders],
            (0.2, 0.1), 0.7)
        return [table, combo, combo.restrict(0.25, 1.5),
                cv.linear_combo([(table.restrict(0.0, 1.0), 2.0)]),
                # not all tables: the line's orders are closed forms
                cv.sine_curve(1.0, 3.0, 0.2, (0.0, 2.0)),
                cv.linear_combo([(table, 0.5),
                                 (cv.line_curve(1.0, -0.5, (0.0, 2.0)),
                                  1.0)]),
                table.shifted(0.1),
                cone_warp()[0], identity, window,
                cv.sin_of(identity),
                cv.piecewise_curve([(0.0, 0.5, window.shifted(-0.5)),
                                    (0.5, 1.0, window)]),
                blocks._alpha_base(0.9, 0.1, (0.1, 1.5)),
                # mapped curves: rescaled warps and ii profiles, reflections
                table.metric_rescale(1.7), table.eigen_rescale(0.6),
                cv.even_extension(table),
                blocks._alpha_base(0.9, 0.1, (0.1, 1.5)).metric_rescale(2.5)]

    @staticmethod
    def segment_starts():
        """Where the pieces of the composite curves above start."""
        return cone_warp()[1] + [0.0, 1.2, 0.5]

    def test_matches_three_evaluations_bitwise(self):
        rng = np.random.default_rng(2)
        starts = self.segment_starts()
        for c in self.curves():
            lo, hi = c.domain
            slop = 1e-9 * (1.0 + hi - lo)
            inside = [s for s in starts if lo <= s <= hi]
            t = np.concatenate([rng.uniform(lo, hi, 200),
                                [lo, hi, np.nan, lo - 0.4 * slop,
                                 hi + 0.4 * slop], inside])
            for q in (t, t[:0], t[:200].reshape(20, 10)):
                got = c.jet(q)
                assert len(got) == 3
                for k in range(3):
                    want = c.eval(q, k)
                    assert type(got[k]) is np.ndarray
                    assert got[k].shape == want.shape
                    assert np.array_equal(got[k], want, equal_nan=True)
                    assert np.array_equal(np.signbit(got[k]),
                                          np.signbit(want))
            for x in [lo, hi, 0.5 * (lo + hi), np.float64(hi),
                      np.array(lo), lo - 0.4 * slop, hi + 0.4 * slop,
                      np.nan] + inside:
                got = c.jet(x)
                for k in range(3):
                    assert type(got[k]) is float
                    assert (np.float64(got[k]).tobytes()
                            == np.float64(c.eval(x, k)).tobytes())

    def test_orders_up_to_n_are_each_eval_bitwise(self):
        """jet(t, n) gives eval(t, k) for k = 0..n, bit for bit, on
        arrays and at 0-d points, for every kind of jet; chained with a Jet
        it is the curve composed with it."""
        rng = np.random.default_rng(12)
        for c in self.curves() + [c.plus(0.3) for c in self.curves()[:3]]:
            lo, hi = c.domain
            t = np.concatenate([rng.uniform(lo, hi, 100), [lo, hi, np.nan]])
            for n in range(4):
                for q in (t, t[:0], 0.5 * (lo + hi)):
                    got = c.jet(q, n)
                    assert len(got) == n + 1
                    for k in range(n + 1):
                        want = c.eval(q, k)
                        assert type(got[k]) is type(want)
                        assert (np.asarray(got[k]).tobytes()
                                == np.asarray(want).tobytes())
        sine = cv.sine_curve(1.0, 1.0, 0.0, (-2.0, 2.0))
        t = np.linspace(0.0, 1.0, 9)
        inner = cv.Jet(0.5 * t, 0.5, 0.0, 0.0)
        got = inner.chain(sine.jet(inner[0], 3))
        s, c = np.sin(0.5 * t), np.cos(0.5 * t)
        for k, want in enumerate((s, 0.5 * c, -0.25 * s, -0.125 * c)):
            assert np.allclose(got[k], want, rtol=0, atol=1e-15)

    def test_one_order_sin_and_cos_are_order_0_bitwise(self):
        """Jet.sin and Jet.cos of a one-order jet compute only np.sin or
        np.cos: bitwise order 0 of the same function of a longer jet, on
        arrays and at a Python float."""
        rng = np.random.default_rng(20)
        x = np.concatenate([rng.uniform(-40.0, 40.0, 500),
                            [0.0, -0.0, np.pi, np.nan, 1e300]])
        for q in (x, x[:0], 0.7):
            for name, fn in (("sin", np.sin), ("cos", np.cos)):
                got = getattr(cv.Jet(q), name)()
                assert len(got) == 1
                for want in (fn(q), getattr(cv.Jet(q, 1.0, 0.5, 0.0),
                                            name)()[0]):
                    assert type(got[0]) is type(want)
                    assert (np.asarray(got[0]).tobytes()
                            == np.asarray(want).tobytes())

    def test_plus_keeps_the_jet(self):
        """c.plus(v).jet is c's jet with v added to order 0: bitwise its
        per-order eval on arrays and at a 0-d point, and one call of an
        antiderivative's integrand for orders 0 and 1."""
        calls = []

        def integrand(t, orders):
            calls.append(tuple(orders))
            t = np.asarray(t, float)
            return [np.cos(3.0 * t) if k == 0 else -3.0 * np.sin(3.0 * t)
                    for k in orders]

        beta = cv.antiderivative_curve((0.0, 2.0), 257, integrand)
        rng = np.random.default_rng(6)
        t = np.concatenate([rng.uniform(0.0, 2.0, 200), [0.0, 2.0, np.nan]])
        for c in [beta] + self.curves()[:3] + [cone_warp()[0]]:
            shifted = c.plus(0.37)
            for q in (t.clip(*c.domain), 0.5 * (c.t_lo + c.t_hi),
                      np.array(c.t_hi)):
                got = shifted.jet(q)
                for k in range(3):
                    want = shifted.eval(q, k)
                    assert type(got[k]) is type(want)
                    assert (np.asarray(got[k]).tobytes()
                            == np.asarray(want).tobytes())
        calls.clear()
        beta.plus(0.37).jet(t[:200])
        assert calls == [(0, 1)]

    def test_points_beyond_the_slop_raise(self):
        for c in self.curves():
            with pytest.raises(ValueError, match=r"t outside \["):
                c.jet(np.array([c.t_lo, c.t_hi + 1e-3]))

    @pytest.mark.parametrize("n", [-1, 4, 7])
    def test_orders_outside_0_to_3_raise(self, n):
        """jet(t, n) checks n as eval checks k, for every kind of curve, on
        arrays and at a point."""
        ts = np.linspace(0.0, 1.0, 9)
        table = cv.table_curve(ts, [np.sin(ts), np.cos(ts), -np.sin(ts),
                                    -np.cos(ts)])
        for c in self.curves() + [table, cv.sin_of(table),
                                  cv.sine_curve(1.0, 3.0, 0.2, (0.0, 1.0))]:
            for q in (0.5 * (c.t_lo + c.t_hi), np.linspace(*c.domain, 5)):
                with pytest.raises(ValueError, match="order"):
                    c.jet(q, n)

    def test_table_backed_curves_look_each_segment_up_once(self,
                                                          monkeypatch):
        """A table curve's jet looks its segments up once for all its
        orders, and a weighted sum of two table curves once per table;
        eval looks them up once per order and table."""
        from warpbench import _util
        calls = []
        segment = _util.segment_index

        def counted(ts, t):
            calls.append(len(t))
            return segment(ts, t)

        monkeypatch.setattr(_util, "segment_index", counted)
        table, combo, restricted = self.curves()[:3]
        t = np.linspace(0.5, 1.0, 7)
        for c, tables in ((table, 1), (combo, 2), (restricted, 2),
                          (table.metric_rescale(1.5), 1)):
            calls.clear()
            c.jet(t)
            assert calls == [7] * tables
            calls.clear()
            [c.eval(t, k) for k in range(3)]
            assert calls == [7] * 3 * tables

    def test_transfer_warps_jet_is_their_evaluations(self):
        """The transfer block's warps f and h, weighted restrictions of the
        ODE's tables, give jets whose orders are their eval(t, k),
        k = 0, 1, 2, bit for bit: on the block's grid sweep grid, at random
        points, the ends, NaN and within the slop, as arrays (empty and
        2-D too) and at 0-d points.  Points beyond the slop raise."""
        rng = np.random.default_rng(4)
        for c in transfer_warps():
            lo, hi = c.domain
            grid = grid_points(lo, hi, min_points=1025)
            assert len(grid) == 69_296
            slop = 1e-9 * (1.0 + hi - lo)
            t = np.concatenate([rng.uniform(lo, hi, 300),
                                [lo, hi, np.nan, lo - 0.4 * slop,
                                 hi + 0.4 * slop]])
            for q in (grid, t, t[:0], t[:300].reshape(30, 10), *t[-5:],
                      np.array(t[0])):
                jet = c.jet(q)
                assert len(jet) == 3
                for k in range(3):
                    want = c.eval(q, k)
                    assert type(jet[k]) is type(want)
                    assert np.array_equal(jet[k], want, equal_nan=True)
                    assert np.array_equal(np.signbit(jet[k]),
                                          np.signbit(want))
            with pytest.raises(ValueError, match=r"t outside \["):
                c.jet(np.array([lo, hi + 1e-3]))

    def test_cone_sweep_looks_each_window_up_once(self, monkeypatch):
        """One doubly_warped_sweep of the cone looks up the Hermite
        segments of each join window once, for all three orders."""
        from warpbench import _util
        warp, starts = cone_warp()
        windows = [(starts[0], starts[1]), (starts[2], starts[3])]
        lookups = []
        segment = _util.segment_index

        def counted(ts, t):
            if len(ts) == 2049 and ts[0] in (starts[0], starts[2]):
                lookups.append((ts[0], len(t)))
            return segment(ts, t)

        monkeypatch.setattr(_util, "segment_index", counted)
        ss = grid_points(*warp.domain)
        m = DoublyWarpedMetric(3, 1, warp,
                               cv.constant_curve(1.0, warp.domain),
                               collapse_start="f")
        doubly_warped_sweep(m, ss)
        assert sorted(lookups) == [
            (a, int(np.count_nonzero((ss >= a) & (ss < b))))
            for a, b in windows]

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_cone_collapse_row_is_the_one_point_limit(self, t):
        """At the cone's collapse point the sweep reads the warp's orders
        0 to 2 from its columns: they equal one-point evaluations there,
        bitwise, so the collapse row is the one-point limit -f'''/f'."""
        rep = blocks.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, t)
        warp = rep.aux["curves"]["warp"]
        ss = rep.sweeps["ricci"]["t"]
        s0 = float(ss[0])
        cols = warp.jet(ss)
        for k in range(3):
            assert (np.float64(cols[k][0]).tobytes()
                    == np.float64(warp.eval(s0, k)).tobytes())
        m = DoublyWarpedMetric(3, 1, warp,
                               cv.constant_curve(1.0, warp.domain),
                               collapse_start="f")
        limit = -warp.eval(s0, 3) / warp.eval(s0, 1)
        assert doubly_warped_sweep(m, ss)["sec_tu"][0] == limit
        assert rep.sweeps["ricci"]["columns"]["ric_radial"][0] == 3 * limit

    def test_transfer_sweep_looks_each_table_up_once(self, monkeypatch):
        """The default transfer block's bundle sweep, built on the first
        read of its report's sweeps, looks up the Hermite segments of its
        whole grid once per ODE table, for all three orders."""
        from warpbench import _util
        params = scenarios.DEFAULT_PIPELINE_PARAMS["transfer"]
        rep = blocks.build_transfer_block(p=2, q=3, **params)
        h0, _ = blocks._transfer_curves(params["C"])
        nodes = h0.nodes[0]
        lookups, segment = [], _util.segment_index

        def counted(ts, t):
            if ts is nodes:
                lookups.append(len(t))
            return segment(ts, t)

        monkeypatch.setattr(_util, "segment_index", counted)
        n = len(rep.sweeps["ricci"]["t"])
        assert lookups == [n, n]          # f's table, then h's


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.numpy_contract(
    "one sin and one cos per call against each order's eval")
class TestSineCurve:
    """A sine curve's call evaluates sin only if an even order is asked
    for and cos only if an odd one is, each once; every order is bitwise
    its own eval and the closed form A sin, A w cos, -A w w sin,
    -A w**3 cos of w t + phi."""

    PARAMS = [(1.0, 1.0, 0.0), (0.9, 1.7, 0.3), (-2.5, 0.37, -1.1),
              (2 / math.pi, math.pi / 2, math.pi / 2)]

    @pytest.mark.parametrize("A, w, phi", PARAMS)
    def test_jet_is_each_orders_eval_and_the_closed_form(self, A, w, phi):
        curve = cv.sine_curve(A, w, phi, (-1.0, 2.0))
        for t in (np.linspace(-1.0, 2.0, 513), 0.3, np.float64(-0.7)):
            x = w * np.asarray(t, float) + phi
            closed = (A * np.sin(x), A * w * np.cos(x),
                      -A * w * w * np.sin(x), -A * w ** 3 * np.cos(x))
            jet = curve.jet(t, 3)
            for k in range(4):
                assert_bitwise(jet[k], curve.eval(t, k))
                assert_bitwise(jet[k], closed[k])

    def test_one_sin_and_one_cos_per_call(self, monkeypatch):
        curve = cv.sine_curve(0.9, 1.7, 0.3, (0.0, 1.0))
        calls = []
        sin, cos = np.sin, np.cos
        monkeypatch.setattr(np, "sin", lambda x: calls.append("sin") or
                            sin(x))
        monkeypatch.setattr(np, "cos", lambda x: calls.append("cos") or
                            cos(x))
        t = np.linspace(0.0, 1.0, 9)
        for ks, want in (((0, 1, 2), ["sin", "cos"]),
                         ((0, 1, 2, 3), ["sin", "cos"]), ((0, 2), ["sin"]),
                         ((1,), ["cos"]), ((1, 3), ["cos"]), ((2,), ["sin"])):
            calls.clear()
            curve._at(t, ks)
            assert calls == want, ks


def test_antiderivative_curve_takes_its_node_columns_from_one_call():
    """The integrand's orders 0 and 1 at the table nodes, and in the jet,
    come from one call; each later derivative query asks for its one
    order.  The jet is the three evaluations bit for bit."""
    calls = []
    derivs = (np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))

    def integrand(t, orders):
        calls.append(tuple(orders))
        return [derivs[k](np.asarray(t, float)) for k in orders]

    curve = cv.antiderivative_curve((0.0, 1.0), 257, integrand)
    assert calls == [(0, 1)]
    t = np.linspace(0.0, 1.0, 11)
    assert np.max(np.abs(curve.eval(t) - np.sin(t))) < 1e-12
    for k in (1, 2, 3):
        calls.clear()
        assert np.array_equal(curve.eval(t, k), derivs[k - 1](t))
        assert calls == [(k - 1,)]
    calls.clear()
    jet = curve.jet(t)
    assert calls == [(0, 1)]
    for k in range(3):
        assert np.array_equal(jet[k], curve.eval(t, k))


def test_antiderivative_curve_keeps_read_only_nodes():
    """The curve's nodes are its table: the uniform nodes, the values
    (its order 0 there, bitwise) and the integrand's order 0 at them as
    slopes, all read-only, so a curve a cache shares cannot be changed
    through its table."""
    curve = cv.antiderivative_curve(
        (0.0, 1.0), 257,
        lambda t, orders: [np.cos(t) if k == 0 else -np.sin(t)
                           for k in orders])
    ts, (vals, slopes) = curve.nodes
    assert np.array_equal(ts, np.linspace(0.0, 1.0, 257))
    assert vals.tobytes() == curve.eval(ts).tobytes()
    assert slopes.tobytes() == np.cos(ts).tobytes()
    for a in (ts, vals, slopes):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    assert curve.node_table().shape == (257, 3)


def compose(curve, u):
    """curve(u) for a Jet u: the curve's orders at u[0], chained."""
    return u.chain(curve.jet(u[0], len(u) - 1))


@pytest.mark.numpy_contract(
    "Jet arithmetic against closed forms in numpy's ufuncs")
class TestJetArithmetic:
    """Jet arithmetic at orders 0-3 against closed forms in t, on a grid
    of t: each operation, composition with a SmoothCurve and
    reparametrisation.  A result has as many orders as its shortest Jet
    operand."""

    t = np.linspace(0.1, 2.0, 41)

    @staticmethod
    def assert_orders(got, want, n):
        assert len(got) == n + 1
        for k in range(n + 1):
            scale = 1.0 + np.max(np.abs(want[k]))
            assert np.max(np.abs(got[k] - want[k])) <= 1e-12 * scale, k

    def closed(self):
        """Orders 0-3 of sin t, cos t, e^t, t^2 sin t, sqrt(1 + t^2),
        1 / (1 + t^2) and e^{sin t}."""
        t = self.t
        s, c, e, q = np.sin(t), np.cos(t), np.exp(t), 1.0 + t * t
        r = np.sqrt(q)
        g = np.exp(s)
        return {
            "sin": (s, c, -s, -c),
            "cos": (c, -s, -c, s),
            "exp": (e, e, e, e),
            "t2sin": (t * t * s, 2 * t * s + t * t * c,
                      2 * s + 4 * t * c - t * t * s,
                      6 * c - 6 * t * s - t * t * c),
            "sqrt": (r, t / r, 1.0 / r ** 3, -3.0 * t / r ** 5),
            "recip": (1.0 / q, -2.0 * t / q ** 2, (6 * t * t - 2) / q ** 3,
                      -24.0 * t * (t * t - 1.0) / q ** 4),
            "exp_sin": (g, c * g, (c * c - s) * g,
                        (c ** 3 - 3 * s * c - c) * g),
        }

    @pytest.mark.parametrize("n", range(4))
    def test_operations(self, n):
        x = cv.Jet.variable(self.t, n)
        exp = cv.curve_from_derivs((-5.0, 5.0), *[np.exp] * 4)
        want = self.closed()
        got = {
            "sin": x.sin(),
            "cos": x.cos(),
            "exp": compose(exp, x),
            "t2sin": x * x * x.sin(),
            "sqrt": (x * x + 1.0).sqrt(),
            "recip": 1.0 / (1.0 + x * x),
            "exp_sin": compose(exp, x.sin()),
        }
        for name in want:
            self.assert_orders(got[name], want[name], n)
        # sums, differences, negation and quotients of Jets and scalars
        s, c = want["sin"], want["cos"]
        self.assert_orders(x.sin() + x.cos(), [a + b for a, b in zip(s, c)],
                           n)
        self.assert_orders(x.sin() - x.cos(), [a - b for a, b in zip(s, c)],
                           n)
        self.assert_orders(2.0 - x.sin(), [2.0 - s[0]] + [-a for a in s[1:]],
                           n)
        self.assert_orders(-x.cos() * 3.0 + 1.0,
                           [1.0 - 3.0 * c[0]] + [-3.0 * a for a in c[1:]], n)
        self.assert_orders(x * x * x.sin() / (x * x), s, n)
        self.assert_orders(x.sin() / 4.0, [a / 4.0 for a in s], n)
        if n:
            self.assert_orders(x.d(), (np.ones_like(self.t), 0.0, 0.0),
                               n - 1)

    @pytest.mark.parametrize("n", range(4))
    def test_reparametrisation(self, n):
        """y = sin t in the parameter r = e^t: y(r) = sin(log r), with
        dy/dr = cos L / r, (-sin L - cos L) / r^2, (3 sin L + cos L) / r^3
        at L = log r = t."""
        x = cv.Jet.variable(self.t, n)
        e = np.exp(self.t)
        r = x.chain((e, e, e, e))
        s, c = np.sin(self.t), np.cos(self.t)
        want = (s, c / e, -(s + c) / e ** 2, (3 * s + c) / e ** 3)
        self.assert_orders(x.sin().reparam(r), want, n)

    def test_unequal_lengths_truncate(self):
        x3, x1 = cv.Jet.variable(self.t, 3), cv.Jet.variable(self.t, 1)
        want = self.closed()
        self.assert_orders(x3.sin() * x1 * x1, want["t2sin"], 1)
        self.assert_orders(x1 * x1 * x3.sin(), want["t2sin"], 1)
        self.assert_orders(x3.sin() + x1.cos() * 0.0, want["sin"], 1)
        self.assert_orders(x3 * x3 * x3.sin() / (x1 * x1), want["sin"], 1)
        # composition reads only as many orders as the inner Jet has
        exp = cv.curve_from_derivs((-5.0, 5.0), *[np.exp] * 4)
        self.assert_orders(compose(exp, x1.sin()), want["exp_sin"], 1)
        # reparametrisation by a shorter Jet: d/dr needs r' to that order
        e = np.exp(self.t)
        got = x3.sin().reparam(cv.Jet(e, e))
        self.assert_orders(got, (want["sin"][0], want["cos"][0] / e), 1)

    def test_numpy_operands_defer_to_the_jet(self):
        x = cv.Jet.variable(self.t, 2)
        got = np.ones_like(self.t) * x + np.zeros_like(self.t)
        assert isinstance(got, cv.Jet)
        self.assert_orders(got, (self.t, np.ones_like(self.t), 0.0 * self.t),
                           2)
        with pytest.raises(ValueError):
            cv.Jet(*[self.t] * 5)
