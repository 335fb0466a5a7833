import io
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpbench import _util, blocks, curves as cv, scenarios

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def oracle_bytes(tmp_path, header, table):
    """The bytes numpy's text writer gives for the same table."""
    path = tmp_path / "oracle.csv"
    np.savetxt(path, table, delimiter=",", header=header, comments="")
    return path.read_bytes()


def written_bytes(tmp_path, header, table):
    path = tmp_path / "written.csv"
    _util.write_csv(path, header, table.T)
    return path.read_bytes()


@pytest.mark.numpy_contract(
    "the CSV writer's kernel relies on separately rounded float64 ufuncs "
    "and on uint64 promotion in its field assembly")
class TestWriteCsv:
    @pytest.mark.parametrize("table", [
        np.array([[np.nan, np.inf, -np.inf],
                  [-0.0, 5e-324, -1e-310],
                  [1e308, 0.0, -1.0 / 3.0]]),
        np.empty((0, 4)),
        np.linspace(-2.0, 3.0, 17).reshape(17, 1),
        np.random.default_rng(0).standard_normal(
            (2 * _util._CSV_BLOCK_ROWS + 808, 4)) * 1e3,
    ], ids=["special-values", "empty", "one-column", "three-blocks"])
    def test_bytes_match_numpy(self, tmp_path, table):
        header = ",".join(["t"] + [f"c{k}" for k in range(table.shape[1] - 1)])
        assert (written_bytes(tmp_path, header, table)
                == oracle_bytes(tmp_path, header, table))

    def test_non_contiguous_table(self, tmp_path):
        table = np.arange(60.0).reshape(5, 12)[:, ::3].T
        assert (written_bytes(tmp_path, "a,b,c,d,e", table)
                == oracle_bytes(tmp_path, "a,b,c,d,e", table))

    def test_node_backed_curve_matches_numpy(self, tmp_path):
        h0, _ = cv.integrate_transfer_odes(0.1, t_max=2.0)
        path = tmp_path / "curve.csv"
        h0.write_csv(path)
        assert path.read_bytes() == oracle_bytes(
            tmp_path, "t,v0,v1,v2,v3", h0.node_table())

    def test_grid_curve_matches_numpy(self, tmp_path):
        s = cv.sine_curve(1.0, 1.0, 0.0, (0.0, 1.0))
        assert s.nodes is None
        path = tmp_path / "curve.csv"
        s.write_csv(path, per_unit=16)
        assert path.read_bytes() == oracle_bytes(
            tmp_path, "t,v0,v1,v2,v3", s.node_table(16))


def percent_e_bytes(table):
    """CPython's '%.18e' of every value, joined by commas, one line a row."""
    return b"".join((",".join("%.18e" % v for v in row) + "\n").encode()
                    for row in np.asarray(table, dtype=float).tolist())


def savetxt_bytes(table):
    """numpy's text writer on the same table, without a header."""
    buf = io.BytesIO()
    np.savetxt(buf, table, delimiter=",")
    return buf.getvalue()


def assert_formats_like_cpython(table):
    table = np.asarray(table, dtype=float)
    got = _util._format_block(table)
    assert got == percent_e_bytes(table)
    assert got == savetxt_bytes(table)


def exact_decimal(v):
    """(D, p) with |v| = D 10^(p - 18) rounded half-to-even to 19 digits,
    10^18 <= D < 10^19, in exact rational arithmetic."""
    a = Fraction(abs(v))
    p = math.floor(math.log10(abs(v)))
    while True:
        scaled = a * Fraction(10) ** (18 - p)
        D = round(scaled)               # Fraction rounds half to even
        if D >= 10 ** 19:
            p += 1
        elif D < 10 ** 18:
            p -= 1
        else:
            return D, p


def tie_values(rng, per_decade=40):
    """Values whose 20th significant digit is an exact 5 followed by
    nothing: odd / 2^(19 - p), the only form such a double can take."""
    out = []
    for p in range(-8, 15):
        lo = Fraction(10) ** p * 2 ** (19 - p)
        a, b = math.ceil(lo), min(math.ceil(10 * lo), 2 ** 53)
        if a < b:
            odd = rng.integers(a, b, per_decade) | 1
            out.append(odd[odd < b].astype(float) / 2.0 ** (19 - p))
    return np.concatenate(out)


def power_of_ten_neighbours(lo=-25, hi=20, steps=3):
    """Each power of ten in [1e<lo>, 1e<hi>) and its `steps` nearest
    doubles on either side, both signs."""
    pw = 10.0 ** np.arange(lo, hi)
    out = [pw]
    below, above = pw, pw
    for _ in range(steps):
        below = np.nextafter(below, 0.0)
        above = np.nextafter(above, np.inf)
        out += [below, above]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


# Found by searching m = (2^(r-1) + t) 5^-k mod 2^r over small t for
# r = 64..68, keeping normal mantissas m with an even 19-digit quotient.
NEAR_TIES = [1.4690113310926004e-13, 1.8226109386223872e-13,
             9.315776698565898e-14, 3.093996565885635e-14,
             1.9974445425822994e-15, 9.987222712911497e-16]


# x 10^(18 - p) is an integer plus a half minus (BELOW) or plus (ABOVE)
# less than 2^-42, inside _scaled's float decision bound: found as
# NEAR_TIES are, at r = 43, 45, 52 and 61 with |t| < 2^13, keeping odd
# 19-digit quotients below the half and even ones above it, so that taking
# either for an exact tie would round it the wrong way.  k = 18 - p is 23,
# 24, 27 and 31, where 10^k has a low part.
NEAR_TIES_BELOW = [6.871895041354917e-05, 9.593237451287216e-06,
                   7.797706786943383e-09, 9.627724505966767e-13]
NEAR_TIES_ABOVE = [8.220001015773989e-05, 7.811318823126847e-06,
                   9.093113755268412e-09, 9.955401911807485e-13]


# One table per class of value the kernel leaves to CPython.
FALLBACK_CLASSES = {
    "nan-inf": [np.nan, np.inf, -np.inf, -np.nan],
    "subnormal": [5e-324, -5e-324, 1e-310, -2.2250738585072009e-308],
    "below-range": [9.99e-24, -1e-24, 1e-200, 2.2250738585072014e-308],
    "above-range": [2.0 ** 48, -1e15, 1e18, -9.999e18, 1e19, 1e99],
    "three-digit-exponent": [1e100, -1.7976931348623157e308, -1e-100,
                             -2.5e-300],
}


@pytest.mark.numpy_contract(
    "the CSV formatter's kernel relies on separately rounded float64 "
    "ufuncs and on uint64 promotion in its field assembly")
class TestCsvFormatter:
    """_format_block against CPython's '%.18e' and np.savetxt, and its
    float64 kernel against exact rational arithmetic."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
           st.integers(1, 6))
    def test_random_bit_patterns(self, words, ncols):
        x = np.array(words, dtype=np.uint64).view(np.float64)
        rows = max(1, len(x) // ncols)
        x = np.resize(x, rows * ncols)
        assert_formats_like_cpython(x.reshape(rows, ncols))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(2 ** 52, 2 ** 53 - 1),
                              st.integers(-129, -5), st.booleans()),
                    min_size=1, max_size=64))
    def test_random_values_in_the_integer_range(self, parts):
        x = np.array([math.ldexp(-m if neg else m, e)
                      for m, e, neg in parts])
        assert_formats_like_cpython(x.reshape(-1, 1))

    def test_ties_round_half_to_even(self):
        ties = tie_values(np.random.default_rng(3))
        for v in ties[::25]:
            scaled = Fraction(v) * Fraction(10) ** (
                18 - math.floor(math.log10(v)))
            assert scaled - math.floor(scaled) == Fraction(1, 2)
        D, _, done = _util._decimal(ties)
        assert done.all()
        assert np.count_nonzero(D % 2 == 1) == 0    # every tie went even
        assert_formats_like_cpython(np.stack([ties, -ties], axis=1))

    def test_near_ties_broken_by_the_lowest_limb(self):
        """x 10^(18 - p) is an even integer plus a half plus less than
        2^-40: inside _scaled's tie bound, where the float remainder's
        rounding can land on the half or below it, so its exact-residual
        branch decides, and rounds each up, away from the even quotient."""
        x = np.array(NEAR_TIES)
        for v in NEAR_TIES:
            scaled = Fraction(v) * Fraction(10) ** (
                18 - math.floor(math.log10(v)))
            assert math.floor(scaled) % 2 == 0
            excess = scaled - math.floor(scaled) - Fraction(1, 2)
            assert 0 < excess < 2.0 ** -40
        D, p, done = _util._decimal(x)
        assert done.all()
        assert list(zip(D.tolist(), p.tolist())) == [
            exact_decimal(v) for v in NEAR_TIES]
        assert_formats_like_cpython(x.reshape(-1, 2))

    def test_powers_of_ten_and_their_neighbours(self):
        assert_formats_like_cpython(power_of_ten_neighbours().reshape(-1, 2))

    @pytest.mark.parametrize("name", sorted(FALLBACK_CLASSES))
    def test_fallback_class(self, name):
        values = np.array(FALLBACK_CLASSES[name])
        assert not _util._decimal(values)[2].any()
        # alone, and in rows with values the kernel converts
        assert_formats_like_cpython(values.reshape(-1, 1))
        fast = np.linspace(-3.0, 7.0, len(values))
        assert_formats_like_cpython(np.stack([fast, values, -fast], axis=1))

    def test_mixed_signs_in_one_row(self):
        row = [-1.5, 2.5, -0.0, 0.0, -3e-7, 4e12, -np.pi, np.e, -1e-23]
        assert_formats_like_cpython([row, [-v for v in row]])

    def test_block_that_falls_back_entirely(self, tmp_path):
        table = np.tile([np.nan, -np.inf, 1e200, -5e-324],
                        (_util._CSV_BLOCK_ROWS + 3, 1))
        assert not _util._decimal(table.ravel())[2].any()
        assert (written_bytes(tmp_path, "a,b,c,d", table)
                == oracle_bytes(tmp_path, "a,b,c,d", table))

    @pytest.mark.parametrize("rows", [
        0, 1, _util._CSV_BLOCK_ROWS, _util._CSV_BLOCK_ROWS + 1])
    def test_row_counts(self, tmp_path, rows):
        table = np.random.default_rng(rows).standard_normal((rows, 3))
        table[:, 1] *= 1e-9
        assert (written_bytes(tmp_path, "t,a,b", table)
                == oracle_bytes(tmp_path, "t,a,b", table))

    def test_zero_columns(self, tmp_path):
        table = np.empty((3, 0))
        assert (written_bytes(tmp_path, "t", table)
                == oracle_bytes(tmp_path, "t", table))

    def test_kernel_matches_exact_arithmetic(self):
        """Every normal value in [1e-23, 2^48) is converted by the kernel,
        and its digits and exponent are the exactly rounded ones."""
        rng = np.random.default_rng(5)
        x = np.concatenate([
            rng.choice([-1.0, 1.0], 300) * rng.uniform(1.0, 10.0, 300)
            * 10.0 ** rng.integers(-22, 14, 300),
            tie_values(rng, 4), power_of_ten_neighbours(-22, 14, 2),
            [1.0000000000000002e-23, np.nextafter(2.0 ** 48, 0.0), 1.0]])
        D, p, done = _util._decimal(x)
        assert done.all()
        for v, d, e in zip(x.tolist(), D.tolist(), p.tolist()):
            assert (d, e) == exact_decimal(v)
        # A guess two decades low scales past 10^20 > 2^64: D stays capped
        # at or above 10^19, never back in range.
        k = 18 - p + 2
        covered = k < len(_util._P10[0])
        D = _util._scaled(np.abs(x[covered]), k[covered])
        assert (D >= np.uint64(10 ** 19)).all()
        assert covered.sum() > len(x) // 2
        D, p, done = _util._decimal(np.array([0.0, -0.0]))
        assert done.all() and D.tolist() == [0, 0] and p.tolist() == [0, 0]

    def test_digit_tables(self):
        v = np.concatenate([
            [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999999],
            np.arange(1, 10) * 10 ** 7 - 1, np.arange(1, 10) * 10 ** 4,
            np.random.default_rng(6).integers(0, 10 ** 8, 2000)])
        words = np.stack([_util._DIGITS4[v // 10 ** 4],
                          _util._DIGITS4[v % 10 ** 4]], axis=1)
        got = words.astype("<u4").tobytes()
        assert got == b"".join(b"%08d" % n for n in v.tolist())
        assert _util._HEADS.astype("<u4").tobytes() == b"".join(
            b"%d.%02d" % divmod(i, 100) for i in range(1000))
        assert _util._TAILS.astype("<u4").tobytes() == b"".join(
            b"e%+03d" % (18 - k) for k in range(len(_util._P10[0])))

    def test_power_of_ten_table_is_exact(self):
        hi, lo = _util._P10
        assert len(hi) == len(lo) == 42
        for k in range(len(hi)):
            assert Fraction(hi[k]) + Fraction(lo[k]) == 10 ** k
        # the Veltkamp halves add up exactly, each of at most 26 bits
        for part, (top, low) in zip(_util._P10, _util._P10_SPLIT):
            assert np.array_equal(top + low, part)
            for h in np.concatenate([top, low]).tolist():
                m = abs(Fraction(h).numerator)
                assert m == 0 or (m // (m & -m)).bit_length() <= 26

    @pytest.mark.parametrize("values, side", [
        (NEAR_TIES_BELOW, -1), (NEAR_TIES_ABOVE, 1)], ids=["below", "above"])
    def test_near_ties_inside_the_float_bound(self, values, side):
        """Within the decision bound of a half, on either side, the exact
        residuals round x 10^(18 - p) the way exact arithmetic does."""
        for v in values:
            scaled = Fraction(v) * Fraction(10) ** (
                18 - math.floor(math.log10(v)))
            excess = scaled - math.floor(scaled) - Fraction(1, 2)
            assert 0 < side * excess < 2.0 ** -42 < _util._TIE_BOUND
        x = np.array(values)
        D, p, done = _util._decimal(x)
        assert done.all()
        assert list(zip(D.tolist(), p.tolist())) == [
            exact_decimal(v) for v in values]
        assert_formats_like_cpython(np.stack([x, -x], axis=1))

    def test_decade_off_guess_is_retried(self):
        """Below a power of ten that a double cannot hold, log10 rounds up
        to the power itself, so the first guess of p is a decade high."""
        x = np.nextafter(10.0 ** np.arange(-23, 15), 0.0)
        x = x[x >= 1e-23]
        guess = np.floor(np.log10(x)).astype(int)
        exact = [exact_decimal(v) for v in x.tolist()]
        off = [i for i, (_, p) in enumerate(exact) if guess[i] == p + 1]
        assert len(off) >= 5
        D, p, done = _util._decimal(x[off])
        assert done.all()
        assert list(zip(D.tolist(), p.tolist())) == [exact[i] for i in off]
        # either way off, _scaled leaves [10^18, 10^19) on the side the
        # retry reads
        x, k = x[off], 18 - p
        assert (_util._scaled(x, k - 1) < np.uint64(10 ** 18)).all()
        low = k + 1 < len(_util._P10[0])
        assert low.sum() >= 5
        assert (_util._scaled(x[low], k[low] + 1)
                >= np.uint64(10 ** 19)).all()


class TestSortedUnique:
    @pytest.mark.parametrize("values", [
        [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],
        [0.0, -0.0, 1.0, -0.0, 0.0],
        [-0.0, 0.0, -1.0, -0.0],
        [-0.0] * 5 + [0.0] * 5,
        [],
        [2.5],
    ])
    def test_equals_np_unique_bitwise(self, values):
        a = np.array(values, dtype=float)
        got, want = _util.sorted_unique(a), np.unique(a)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_equals_np_unique_on_a_merged_grid(self):
        rng = np.random.default_rng(1)
        base = np.round(rng.uniform(-1.0, 1.0, 4000), 3)
        a = np.concatenate([base, -base, np.zeros(3), -np.zeros(3)])
        assert _util.sorted_unique(a).tobytes() == np.unique(a).tobytes()


# -- the searchsorted forms the lookups must reproduce bit for bit -----------

def searchsorted_hermite(ts, ys, dys, t):
    """hermite_interp with the segment found by np.searchsorted.  The
    square is a product: on arrays ``** 2`` is one, but on a numpy float64
    scalar it is pow(), which rounds differently at about 0.1% of points."""
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, ts[0], ts[-1])
    idx = np.clip(np.searchsorted(ts, tc, side="right") - 1, 0, len(ts) - 2)
    h = ts[idx + 1] - ts[idx]
    x = (tc - ts[idx]) / h
    y0, y1 = ys[idx], ys[idx + 1]
    d0, d1 = dys[idx] * h, dys[idx + 1] * h
    u2 = (1 - x) * (1 - x)
    h00 = (1 + 2 * x) * u2
    h10 = x * u2
    h01 = x * x * (3 - 2 * x)
    h11 = x * x * (x - 1)
    return h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1


def where_bump(x):
    """bump evaluated everywhere and masked with np.where."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    x2 = np.where(inside, x * x, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        val = np.exp(1.0 - 1.0 / (1.0 - x2))
    return np.where(inside, val, 0.0)


def where_bump_d1(x):
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    x2 = np.where(inside, x * x, 0.0)
    u = 1.0 - x2
    return np.where(inside, where_bump(x) * (-2.0 * x) / (u * u), 0.0)


def where_bump_d2(x):
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    xs = np.where(inside, x, 0.0)
    u = 1.0 - xs * xs
    a = -2.0 * xs / (u * u)
    b = (-2.0 - 6.0 * xs * xs) / (u * u * u)
    return np.where(inside, where_bump(xs) * (a * a + b), 0.0)


class ClippedTable(_util.TabulatedAntiderivative):
    """The table with k = 0 interpolated at every clipped point, then
    masked with np.where."""

    def __call__(self, x, k=0):
        x = np.asarray(x, dtype=float)
        if k:
            return self._density(x, k - 1) / self.mass
        out = searchsorted_hermite(self._xs, self._table, self._slopes,
                                   np.clip(x, 0.0, 1.0))
        return np.where(x <= 0.0, 0.0, np.where(x >= 1.0, 1.0, out))


WHERE_STEP = ClippedTable(
    lambda x, k: 2.0 ** k * (where_bump, where_bump_d1, where_bump_d2)[k](
        2.0 * x - 1.0))


def where_plateau(x, k, rise):
    """_util.plateau on WHERE_STEP."""
    x = np.asarray(x, dtype=float)
    a = [WHERE_STEP(x / rise, j) / rise ** j for j in range(k + 1)]
    b = [WHERE_STEP((1.0 - x) / rise, j) * (-1.0 / rise) ** j
         for j in range(k + 1)]
    if k == 0:
        return a[0] * b[0]
    if k == 1:
        return a[1] * b[0] + a[0] * b[1]
    if k == 2:
        return a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2]
    return a[3] * b[0] + 3 * a[2] * b[1] + 3 * a[1] * b[2] + a[0] * b[3]


WHERE_RAMP = ClippedTable(lambda x, k: where_plateau(x, k, 0.1))


def assert_same_values(got, want):
    """Equal as arrays (NaN equal to NaN), of the same type and shape, and
    with the same sign on every zero."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    zero = want == 0.0
    assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))


def flatten_start_grid(window):
    """The node grid _flatten_start interpolates on: 129 nodes on the rise
    [0, 2 omega], then 1536 on the rest of the window."""
    omega = max(1e-3 * window, 1e-5)
    return np.concatenate([np.linspace(0.0, 2.0 * omega, 129),
                           np.linspace(2.0 * omega, window, 1537)[1:]])


def queries(ts, rng, n_random=300):
    """Every node, both ends, random points inside and outside the range
    (clamped), NaN and signed zeros, shuffled."""
    span = ts[-1] - ts[0]
    q = np.concatenate([
        ts, rng.uniform(ts[0], ts[-1], n_random),
        rng.uniform(ts[0] - span, ts[-1] + span, 20),
        [ts[0], ts[-1], np.nan, -0.0, 0.0, np.inf, -np.inf,
         np.nextafter(ts[-1], -np.inf), np.nextafter(ts[0], np.inf)]])
    rng.shuffle(q)
    return q


def assert_hermite_matches(ts, seed):
    """hermite_interp equals searchsorted_hermite bitwise on queries() and
    on empty, 0-d, NaN and 2-D queries."""
    rng = np.random.default_rng(seed)
    ys, dys = rng.standard_normal(len(ts)), rng.standard_normal(len(ts))
    ys[rng.integers(0, len(ts))] = -0.0
    cases = [queries(ts, rng), np.array([]), np.array(ts[len(ts) // 2]),
             np.array(np.nan), queries(ts, rng, 7)[:12].reshape(3, 4)]
    for q in cases:
        assert_same_values(_util.hermite_interp(ts, ys, dys, q),
                           searchsorted_hermite(ts, ys, dys, q))


def assert_points_match(ts, seed):
    """hermite_interp at each point of queries() alone, as a Python float
    and as a 0-d array, equals searchsorted_hermite there: the same value
    and type, with NaN, infinite queries and signed zeros."""
    rng = np.random.default_rng(seed)
    ys, dys = rng.standard_normal(len(ts)), rng.standard_normal(len(ts))
    ys[rng.integers(0, len(ts))] = -0.0
    dys[rng.integers(0, len(ts))] = -0.0
    for t in queries(ts, rng, 100).tolist():
        want = searchsorted_hermite(ts, ys, dys, t)
        for q in (t, np.array(t)):
            assert_same_values(_util.hermite_interp(ts, ys, dys, q), want)


@pytest.mark.numpy_contract(
    "one-point lookups in Python floats against numpy's ufuncs")
class TestHermiteInterp:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 20000),
           lo=st.floats(-50.0, 50.0), span=st.floats(1e-6, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_on_uniform_grids(self, n, lo, span, seed):
        assert_hermite_matches(np.linspace(lo, lo + span, n), seed)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 20000), cut=st.tuples(st.floats(0, 1),
                                                  st.floats(0, 1)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_on_slices_of_uniform_grids(self, n, cut, seed):
        ts = np.linspace(0.0, 1.0, n)
        i, j = sorted(int(c * (n - 1)) for c in cut)
        i = min(i, n - 2)
        j = max(j, i + 1)
        assert_hermite_matches(ts[i:j + 1], seed)

    @pytest.mark.parametrize("window", [0.05, 0.3, 2e-3])
    def test_bitwise_on_the_flatten_start_grid(self, window):
        assert_hermite_matches(flatten_start_grid(window), 3)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 3000), seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_on_random_sorted_grids(self, n, seed):
        rng = np.random.default_rng(seed)
        ts = _util.sorted_unique(rng.uniform(-3.0, 3.0, n) ** 3)
        if len(ts) < 2:
            ts = np.array([-1.0, 2.0])
        assert_hermite_matches(ts, seed)

    def test_grid_starting_at_zero_keeps_signed_zero_queries(self):
        ts = np.linspace(0.0, 1.0, 33)
        ys, dys = np.full(33, -0.0), np.zeros(33)
        q = np.array([-0.0, 0.0, -0.0, 1.0])
        assert_same_values(_util.hermite_interp(ts, ys, dys, q),
                           searchsorted_hermite(ts, ys, dys, q))
        for t in q.tolist() + [0.5, np.inf, -np.inf, np.nan]:
            for point in (t, np.array(t), np.float64(t)):
                assert_same_values(_util.hermite_interp(ts, ys, dys, point),
                                   searchsorted_hermite(ts, ys, dys, t))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 1000),
           lo=st.floats(-50.0, 50.0), span=st.floats(1e-6, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_point_queries_on_uniform_grids(self, n, lo, span, seed):
        assert_points_match(np.linspace(lo, lo + span, n), seed)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 1000), seed=st.integers(0, 2 ** 32 - 1))
    def test_point_queries_on_random_sorted_grids(self, n, seed):
        rng = np.random.default_rng(seed)
        ts = _util.sorted_unique(rng.uniform(-3.0, 3.0, n) ** 3)
        if len(ts) < 2:
            ts = np.array([-1.0, 2.0])
        assert_points_match(ts, seed)

    @pytest.mark.parametrize("window", [0.05, 2e-3])
    def test_point_queries_on_the_flatten_start_grid(self, window):
        assert_points_match(flatten_start_grid(window), 4)

    def test_transfer_t0_is_the_array_path_bisection(self):
        """The default transfer block's t0, found by one-point fC'
        evaluations, is the bisection over one-element arrays."""
        params = scenarios.DEFAULT_PIPELINE_PARAMS["transfer"]
        rep = blocks.build_transfer_block(p=2, q=3, **params)
        h0, fC = blocks._transfer_curves(params["C"])

        def at(curve, t, k):
            return curve.eval(np.array([t]), k)[0]

        c = params["r0"] / at(h0, 0.0, 0)
        target = params["lam"] * c / params["a"]
        ts, cols = fC.nodes
        i = int(np.searchsorted(cols[1], target))
        t0 = _util.bisect_increasing(lambda t: at(fC, t, 1), ts[i - 1],
                                     ts[i], target, tol=1e-14)
        assert rep.aux["t0"] == t0

    def test_query_array_is_left_unchanged(self):
        ts = np.linspace(0.0, 1.0, 9)
        q = np.array([-1.0, 0.3, 2.0, np.nan])
        before = q.copy()
        _util.hermite_interp(ts, ts, np.ones(9), q)
        assert np.array_equal(q, before, equal_nan=True)



def assert_jet_matches(ts, seed):
    """hermite_jet equals searchsorted_hermite order by order, bitwise, for
    each of two tables, on queries() and on empty, 0-d, NaN and 2-D
    queries, and leaves the query unchanged."""
    rng = np.random.default_rng(seed)
    tables = [[rng.standard_normal(len(ts)) for _ in range(4)]
              for _ in range(2)]
    for c in tables[0] + tables[1]:
        c[rng.integers(0, len(ts))] = -0.0
    cases = [queries(ts, rng), np.array([]), np.array(ts[len(ts) // 2]),
             np.array(np.nan), queries(ts, rng, 7)[:12].reshape(3, 4)]
    for q in cases:
        before = q.copy()
        for cols in tables:
            jet = _util.hermite_jet(ts, cols, q)
            assert len(jet) == 3
            for k in range(3):
                assert_same_values(jet[k], searchsorted_hermite(
                    ts, cols[k], cols[k + 1], q))
        assert np.array_equal(q, before, equal_nan=True)


@pytest.mark.numpy_contract(
    "the kernel's gathers against searchsorted and Python floats")
class TestHermiteJet:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 20000),
           lo=st.floats(-50.0, 50.0), span=st.floats(1e-6, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_on_uniform_grids(self, n, lo, span, seed):
        assert_jet_matches(np.linspace(lo, lo + span, n), seed)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 3000), seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_on_random_sorted_grids(self, n, seed):
        rng = np.random.default_rng(seed)
        ts = _util.sorted_unique(rng.uniform(-3.0, 3.0, n) ** 3)
        if len(ts) < 2:
            ts = np.array([-1.0, 2.0])
        assert_jet_matches(ts, seed)

    def test_bitwise_on_the_flatten_start_grid(self):
        assert_jet_matches(flatten_start_grid(0.3), 5)

    def test_one_segment_lookup_for_three_orders(self, monkeypatch):
        calls = []
        segment = _util.segment_index

        def counted(ts, t):
            calls.append(len(t))
            return segment(ts, t)

        monkeypatch.setattr(_util, "segment_index", counted)
        ts = np.linspace(0.0, 1.0, 65)
        for cols in ([ts] * 4, [ts * ts] * 4):
            calls.clear()
            _util.hermite_jet(ts, cols, np.linspace(0.0, 1.0, 9))
            assert calls == [9]

    def test_zero_dimensional_query_takes_the_point_form(self,
                                                          monkeypatch):
        """A 0-d query on a table of 4 columns is answered by one
        _hermite_point call per order, with no segment lookup, and equals
        the 1-element array query bitwise, for each of 2 tables."""
        ts = np.linspace(0.0, 1.0, 65)
        rng = np.random.default_rng(16)
        tables = [[rng.standard_normal(65) for _ in range(4)]
                  for _ in range(2)]
        points = (0.3, 0.0, 1.0, -0.0, 1.5, np.nan)
        wants = [[_util.hermite_jet(ts, cols, np.array([x]))
                  for cols in tables] for x in points]
        point, calls = _util._hermite_point, []

        def counted(*args):
            calls.append(args[-1])
            return point(*args)

        monkeypatch.setattr(_util, "_hermite_point", counted)
        monkeypatch.setattr(_util, "segment_index", None)
        for x, want in zip(points, wants):
            for cols, ref in zip(tables, want):
                calls.clear()
                got = _util.hermite_jet(ts, cols, np.array(x))
                assert len(calls) == len(got) == len(ref) == 3
                for g, w in zip(got, ref):
                    assert type(g) is np.float64
                    assert g.tobytes() == w.tobytes()

    def test_bitwise_on_the_default_transfer_tables(self):
        """hermite_jet on each table of the default transfer ODE equals
        searchsorted_hermite bitwise at random points, at the edges of the
        sweep's blocks, at both ends of the block's grid and of the
        tables, within the domain slop outside them, and at NaN; as one
        array, and point by point as 0-d arrays and floats."""
        from warpbench.curvature import _SWEEP_BLOCK
        params = scenarios.DEFAULT_PIPELINE_PARAMS["transfer"]
        rep = blocks.build_transfer_block(p=2, q=3, **params)
        h0, fC = blocks._transfer_curves(params["C"])
        ts, g_cols = h0.nodes
        assert fC.nodes[0] is ts
        tt = rep.sweeps["ricci"]["t"]
        assert len(tt) > 2 * _SWEEP_BLOCK
        edges = [tt[i + d] for i in range(_SWEEP_BLOCK, len(tt), _SWEEP_BLOCK)
                 for d in (-1, 0)]
        rng = np.random.default_rng(15)
        t0, t_hi = tt[-1], ts[-1]
        q = np.concatenate([
            rng.uniform(0.0, t_hi, 400), edges,
            [0.0, -0.0, t0, t_hi, np.nextafter(t0, 0.0), np.nan],
            [x + s * 1e-9 * (1.0 + x) for x in (0.0, t0, t_hi)
             for s in (-0.4, 0.4)]])
        for cols in (g_cols, fC.nodes[1]):
            jet = _util.hermite_jet(ts, cols, q)
            for k in range(3):
                assert_same_values(jet[k], searchsorted_hermite(
                    ts, cols[k], cols[k + 1], q))
            for i, x in enumerate(q.tolist()):
                for point in (np.array(x), x):
                    got = _util.hermite_jet(ts, cols, point)
                    for k in range(3):
                        assert_same_values(got[k], jet[k][i])


class TestHermiteSubdivided:
    """hermite_subdivided on the transfer tables (g and F, orders 0 and 1)
    is each table's hermite_jet at the same points to 4 ulp of
    max(1, |y|), and the node values exactly at each segment's first
    point."""

    @pytest.mark.parametrize("m", [1, 2, 15])
    @pytest.mark.parametrize("j0, j1", [(0, 700), (15684, 16384)])
    def test_matches_hermite_jet(self, m, j0, j1):
        h0, fC = blocks._transfer_curves(0.5)
        ts = h0.nodes[0]
        tables = [h0.nodes[1][:3], fC.nodes[1][:3]]
        runs = list(_util.hermite_subdivided(ts, tables, j0, j1, m, 256))
        assert [len(t) for t, _ in runs] == [256, 256, 188]
        j = j0
        for t, jets in runs:
            n = len(t)
            assert t.shape == (n, m)
            assert np.array_equal(t[:, 0], ts[j:j + n])
            for cols, got_orders in zip(tables, jets):
                want_orders = _util.hermite_jet(ts, cols, t)
                assert len(got_orders) == 2
                for k, (got, ref) in enumerate(zip(got_orders, want_orders)):
                    assert got.shape == t.shape
                    ulp = np.spacing(np.maximum(1.0, np.abs(ref)))
                    assert np.all(np.abs(got - ref) <= 4 * ulp), (m, k)
                    assert np.array_equal(got[:, 0], cols[k][j:j + n])
            j += n
        assert j == j1


def test_clamp_is_np_clip_bitwise():
    t = np.array([-np.inf, -2.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf, np.nan])
    for lo, hi in [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]:
        for arr in (t, t[::2], np.array(-0.0), np.array(0.0)):
            assert_same_values(_util.clamp(arr, lo, hi),
                               np.clip(arr, lo, hi))


def test_segment_index_is_searchsorted_clipped():
    """segment_index is searchsorted(breaks, t, "right") - 1 clipped to
    the segments: a point below the first break is in the first segment,
    the last break, a point past it and NaN in the last; a 0-d query
    gives one index."""
    breaks = np.array([0.0, 0.5, 1.0, 2.0])
    t = np.array([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, np.nan])
    assert _util.segment_index(breaks, t).tolist() == [0, 0, 0, 0, 1, 2, 2,
                                                       2, 2, 2]
    assert _util.segment_index(breaks, t[:0]).shape == (0,)
    for x, i in ((0.7, 1), (2.0, 2), (np.nan, 2)):
        got = _util.segment_index(breaks, np.array(x))
        assert np.ndim(got) == 0 and got == i


STEP_POINTS = np.array([
    -np.inf, -3.0, -1.0, -0.5, -1e-300, -0.0, 0.0, 5e-324, 1e-9, 0.1, 0.25,
    0.5, 0.75, 0.9, 1.0 - 1e-12, np.nextafter(1.0, 0.0), 1.0, 1.0 + 1e-12,
    1.5, 2.0, 7.0, np.inf, np.nan])


class TestStepAndBumpSupport:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("table,oracle", [
        (_util.SMOOTH_STEP, WHERE_STEP), (blocks._RAMP, WHERE_RAMP)],
        ids=["smooth-step", "ramp"])
    def test_table_matches_where_form(self, table, oracle, k):
        rng = np.random.default_rng(k)
        xs = np.concatenate([STEP_POINTS, rng.uniform(-0.5, 1.5, 500),
                             np.linspace(0.0, 1.0, 257)])
        with np.errstate(over="ignore", invalid="ignore"):
            want = oracle(xs, k)
            want_scalar = oracle(np.array(0.3), k)
        assert_same_values(table(xs, k), want)
        assert_same_values(table(np.array(0.3), k), want_scalar)
        assert_same_values(table(xs[:0], k), oracle(xs[:0], k))

    @pytest.mark.parametrize("fn,oracle", [
        (_util.bump, where_bump), (_util.bump_d1, where_bump_d1),
        (_util.bump_d2, where_bump_d2)], ids=["d0", "d1", "d2"])
    def test_bump_matches_where_form(self, fn, oracle):
        xs = np.concatenate([2.0 * STEP_POINTS - 1.0, -STEP_POINTS,
                             np.linspace(-1.0, 1.0, 401),
                             [-1.0 + 1e-16, 1.0 - 1e-16, 1e200, -1e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            want = oracle(xs)
            want_grid = oracle(xs[:450].reshape(-1, 2))
            want_scalar = oracle(np.array(0.2))
        assert_same_values(fn(xs), want)
        assert_same_values(fn(xs[:450].reshape(-1, 2)), want_grid)
        assert_same_values(fn(np.array(0.2)), want_scalar)
        assert_same_values(fn(xs[:0]), oracle(xs[:0]))

def leibniz_plateau(x, k: int = 0, rise: float = 0.15):
    """The plateau as the Leibniz product of both steps at every point."""
    x = np.asarray(x, dtype=float)
    a = [_util.smooth_step(x / rise, j) / rise ** j for j in range(k + 1)]
    b = [_util.smooth_step((1.0 - x) / rise, j) * (-1.0 / rise) ** j
         for j in range(k + 1)]
    if k == 0:
        return a[0] * b[0]
    if k == 1:
        return a[1] * b[0] + a[0] * b[1]
    if k == 2:
        return a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2]
    if k == 3:
        return a[3] * b[0] + 3 * a[2] * b[1] + 3 * a[1] * b[2] + a[0] * b[3]
    raise ValueError(k)


def plateau_points(rise):
    """Random and grid points over [-0.2, 1.2], the ends and corners of
    the plateau and their neighbours, points just inside each end, and
    NaN, infinities and signed zeros."""
    rng = np.random.default_rng(int(rise * 100))
    corners = np.array([0.0, rise, 1.0 - rise, 1.0])
    near = np.concatenate([np.nextafter(corners, -1.0), corners,
                           np.nextafter(corners, 2.0)])
    ends = np.logspace(-17, -1, 400)
    return np.concatenate([
        rng.uniform(-0.2, 1.2, 20000), np.linspace(-0.01, 1.01, 4097),
        near, ends, 1.0 - ends, np.linspace(0.9999, 1.0, 2001),
        [np.nan, np.inf, -np.inf, 0.0, -0.0, 0.5, -1e300, 1e300]])


@pytest.mark.numpy_contract("a point's exp bits at any position in an array")
class TestPlateau:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("rise", [0.15, 0.1])
    def test_equals_the_leibniz_product_bitwise(self, rise, k):
        xs = plateau_points(rise)
        assert_same_values(_util.plateau(xs, k, rise),
                           leibniz_plateau(xs, k, rise))
        assert_same_values(_util.plateau(xs.reshape(-1, 2), k, rise),
                           leibniz_plateau(xs.reshape(-1, 2), k, rise))
        for x in (0.05, 0.5, 0.97, 2.0):
            assert_same_values(_util.plateau(np.array(x), k, rise),
                               leibniz_plateau(np.array(x), k, rise))
        assert_same_values(_util.plateau(xs[:0], k, rise),
                           leibniz_plateau(xs[:0], k, rise))

    def test_negative_zero_near_the_end_is_kept(self):
        xs = np.linspace(0.99994, 0.99997, 301)
        want = leibniz_plateau(xs, 1)
        negative_zero = (want == 0.0) & np.signbit(want)
        assert negative_zero.any()
        assert np.array_equal(np.signbit(_util.plateau(xs, 1)),
                              np.signbit(want))

    def test_rise_outside_the_disjoint_range_is_rejected(self):
        for rise in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(ValueError, match="rise"):
                _util.plateau(np.linspace(0, 1, 5), 0, rise)


def two_lookup_plateau(x, k, rise):
    """The plateau with each ramp looked up on its own: the rising ramp at
    x / rise and the falling one at (1 - x) / rise in separate smooth_step
    calls, and the Leibniz product (both steps at every point, one call
    per step and order) where the one varying factor gives a zero."""
    x = np.asarray(x, dtype=float)
    u, v = x / rise, (1.0 - x) / rise
    out = np.where((u >= 1.0) & (v >= 1.0), float(k == 0), 0.0)
    out[np.isnan(x)] = np.nan
    rising = (u > 0.0) & (u < 1.0)
    falling = (v > 0.0) & (v < 1.0)
    out[rising] = _util.smooth_step(u[rising], k) / rise ** k
    out[falling] = _util.smooth_step(v[falling], k) * (-1.0 / rise) ** k
    if k:
        redo = (rising | falling) & (out == 0.0)
        out[redo] = leibniz_plateau(x[redo], k, rise)
    return out[()] if out.ndim == 0 else out


def underflow_points(rise):
    """Points whose ramp argument lies within 3.4e-4 of 0 or 1, where the
    bump density underflows to zero, on both ramps; the plateau's ends and
    corners; NaN and signed zeros."""
    d = np.concatenate([np.logspace(-20, np.log10(3.4e-4), 200),
                        np.linspace(0.0, 3.4e-4, 201)[1:]])
    ramp = np.concatenate([d, 1.0 - d])
    return np.concatenate([rise * ramp, 1.0 - rise * ramp,
                           [np.nan, 0.0, -0.0, rise, 1.0 - rise, 1.0]])


@pytest.mark.numpy_contract(
    "both ramps in one smooth_step call against one call per ramp")
class TestFusedPlateau:
    """plateau_orders looks both ramps up in one smooth_step call per
    order; its values, NaN and the signs of zeros included, are those of
    one lookup per ramp plus the Leibniz product, for any set of orders."""

    @pytest.mark.parametrize("rise", [0.15, 0.1])
    def test_matches_two_lookups_bitwise(self, rise):
        xs = np.concatenate([underflow_points(rise), plateau_points(rise)])
        for orders in ((0,), (1,), (2,), (3,), (0, 1), (3, 1, 0, 2)):
            got = _util.plateau_orders(xs, orders, rise)
            assert len(got) == len(orders)
            for k, g in zip(orders, got):
                want = two_lookup_plateau(xs, k, rise)
                assert_same_values(g, want)
                assert_same_values(_util.plateau(xs, k, rise), want)
            got = _util.plateau_orders(xs.reshape(-1, 2), orders, rise)
            for k, g in zip(orders, got):
                assert_same_values(
                    g, two_lookup_plateau(xs.reshape(-1, 2), k, rise))

    @pytest.mark.parametrize("rise", [0.15, 0.1])
    def test_zero_dimensional_input(self, rise):
        for x in (np.nan, 0.0, -0.0, 1e-5 * rise, 0.5, rise, 1.0,
                  1.0 - (1.0 - 1e-4) * rise, 1.0 - 2e-6 * rise, 1.2):
            for arg in (x, np.array(x)):
                got = _util.plateau_orders(arg, (0, 1, 2, 3), rise)
                for k, g in enumerate(got):
                    want = two_lookup_plateau(np.array(x), k, rise)
                    assert_same_values(g, want)
                    assert_same_values(_util.plateau(arg, k, rise), want)

    @pytest.mark.parametrize("rise", [0.15, 0.1])
    def test_the_points_reach_the_leibniz_fallback(self, rise):
        """Near the ramp ends the one varying factor underflows to a zero
        for k > 0, so the fallback decides those points; among them are
        zeros of either sign."""
        xs = underflow_points(rise)
        for k in (1, 2, 3):
            x = xs / rise
            ramp = (x > 0.0) & (x < 1.0)
            one_factor = _util.smooth_step(x[ramp], k)
            assert np.count_nonzero(one_factor == 0.0) > 10
        signs = set()
        for k in (1, 2, 3):
            out = _util.plateau(xs, k, rise)
            signs |= set(np.signbit(out[out == 0.0]).tolist())
        assert signs == {False, True}


def arc_length_grid(n=3518):
    """A non-uniform grid as the handle builders make one: the cumulative
    arc length of the graph of sin, from cumulative_hermite."""
    ts = np.linspace(0.2, 1.5, n)
    spd = np.sqrt(1.0 + np.cos(ts) ** 2)
    return _util.cumulative_hermite(ts, spd, np.gradient(spd, ts))


@pytest.mark.numpy_contract("gradient_on copies numpy.gradient's formulas")
class TestGradientStencil:
    """gradient_on(ts) applies numpy.gradient's edge-order-1 stencil with
    weights computed once per grid; every application is bitwise
    np.gradient(f, ts), NaN and the signs of zeros included."""

    @staticmethod
    def grids():
        rng = np.random.default_rng(11)
        uniform = np.arange(9) * 0.25
        near_uniform = np.linspace(0.0, 1.0, 1001)
        diff = np.diff(near_uniform)
        # the first takes numpy's scalar branch, the second does not
        assert (np.diff(uniform) == 0.25).all()
        assert not (diff == diff[0]).all()
        return [np.cumsum(rng.uniform(0.01, 1.0, 500)), arc_length_grid(),
                uniform, near_uniform,
                np.array([0.3, 0.7]), np.array([0.3, 0.7, 1.6]),
                np.array([0.0, 0.5]), np.array([0.0, 0.5, 1.0])]

    @staticmethod
    def samples(ts):
        """Smooth values, and the same with NaN and zeros of both signs."""
        vals = np.sin(3.0 * ts) * np.exp(ts / (1.0 + ts[-1]))
        edited = vals.copy()
        edited[::3] = 0.0
        edited[1::4] = -0.0
        edited[len(ts) // 2] = np.nan
        zeros = np.where(np.arange(len(ts)) % 2 == 0, 0.0, -0.0)
        return [vals, edited, zeros]

    def test_one_application_is_np_gradient_bitwise(self):
        for ts in self.grids():
            d = _util.gradient_on(ts)
            for f in self.samples(ts):
                assert d(f).tobytes() == np.gradient(f, ts).tobytes()

    def test_three_chained_applications(self):
        """As a boundary-profile table chains them: orders 1, 2 and 3 each
        differenced from the order below on one stencil."""
        for ts in self.grids():
            d = _util.gradient_on(ts)
            for f in self.samples(ts):
                got, want = f, f
                for _ in range(3):
                    got, want = d(got), np.gradient(want, ts)
                    assert got.tobytes() == want.tobytes()

    def test_grid_and_sample_shapes_are_checked(self):
        with pytest.raises(ValueError, match="at least two points"):
            _util.gradient_on(np.array([0.5]))
        d = _util.gradient_on(np.linspace(0.0, 1.0, 5))
        with pytest.raises(ValueError, match="samples must match the grid"):
            d(np.zeros(4))


class TestDerivativeOrder:
    @pytest.mark.parametrize("k", [-1, 4, 7])
    @pytest.mark.parametrize("fn", [
        _util.smooth_step, _util.plateau, _util.SMOOTH_STEP, blocks._RAMP,
        lambda x, k: cv.sine_curve(1.0, 1.0, 0.0, (0.0, 1.0)).eval(x, k)],
        ids=["smooth_step", "plateau", "table", "ramp", "curve"])
    def test_order_outside_0_to_3_is_a_value_error(self, fn, k):
        with pytest.raises(ValueError, match=f"derivative order {k} "):
            fn(np.linspace(0.0, 1.0, 9), k)

    def test_checked_before_any_work(self):
        calls = []

        def density(x, k):
            calls.append(k)
            return _util._bump_density(x, k)

        table = _util.TabulatedAntiderivative(density, 65)
        calls.clear()
        with pytest.raises(ValueError, match="derivative order 4"):
            table(np.linspace(0.0, 1.0, 9), 4)
        with pytest.raises(ValueError, match="derivative order 4"):
            table("not an array", 4)
        with pytest.raises(ValueError, match="derivative order 5"):
            _util.plateau("not an array", 5)
        assert calls == []


def test_handle1_build_leaves_numpy_ma_unloaded():
    code = (
        "import sys\n"
        "from warpbench import blocks\n"
        "loaded_by_import = 'numpy.ma' in sys.modules\n"
        "blocks.build_handle1(4, 0.9, lambda1=0.985, lambda2=0.99,\n"
        "                     eps1=0.01, eps2=0.1, delta=0.05)\n"
        "print(loaded_by_import, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    if out[0] == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert out == ["False", "False"]
