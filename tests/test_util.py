import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warpbench import _util, blocks, curves as cv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def oracle_bytes(tmp_path, header, table):
    """The bytes numpy's text writer gives for the same table."""
    path = tmp_path / "oracle.csv"
    np.savetxt(path, table, delimiter=",", header=header, comments="")
    return path.read_bytes()


def written_bytes(tmp_path, header, table):
    path = tmp_path / "written.csv"
    _util.write_csv(path, header, table)
    return path.read_bytes()


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
        h0, _ = cv.integrate_transfer_odes(0.1, t_max=2.0, step_budget=2048)
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
    """hermite_interp with the segment found by np.searchsorted."""
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, ts[0], ts[-1])
    idx = np.clip(np.searchsorted(ts, tc, side="right") - 1, 0, len(ts) - 2)
    h = ts[idx + 1] - ts[idx]
    x = (tc - ts[idx]) / h
    y0, y1 = ys[idx], ys[idx + 1]
    d0, d1 = dys[idx] * h, dys[idx + 1] * h
    h00 = (1 + 2 * x) * (1 - x) ** 2
    h10 = x * (1 - x) ** 2
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


def never_searched(ts, t):
    raise AssertionError("the segment guess fell back to searchsorted")


def assert_hermite_matches(ts, seed, uniform=False):
    """hermite_interp equals searchsorted_hermite bitwise on queries() and
    on empty, 0-d, NaN and 2-D queries; a uniform grid (or a slice of one)
    is answered without the search."""
    rng = np.random.default_rng(seed)
    ys, dys = rng.standard_normal(len(ts)), rng.standard_normal(len(ts))
    ys[rng.integers(0, len(ts))] = -0.0
    cases = [queries(ts, rng), np.array([]), np.array(ts[len(ts) // 2]),
             np.array(np.nan), queries(ts, rng, 7)[:12].reshape(3, 4)]
    with pytest.MonkeyPatch.context() as m:
        if uniform:
            m.setattr(_util, "_searched_segment", never_searched)
        got = [_util.hermite_interp(ts, ys, dys, q) for q in cases]
    for g, q in zip(got, cases):
        assert_same_values(g, searchsorted_hermite(ts, ys, dys, q))


class TestHermiteInterp:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 20000),
           lo=st.floats(-50.0, 50.0), span=st.floats(1e-6, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_on_uniform_grids(self, n, lo, span, seed):
        assert_hermite_matches(np.linspace(lo, lo + span, n), seed,
                               uniform=True)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 20000), cut=st.tuples(st.floats(0, 1),
                                                  st.floats(0, 1)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bitwise_on_slices_of_uniform_grids(self, n, cut, seed):
        ts = np.linspace(0.0, 1.0, n)
        i, j = sorted(int(c * (n - 1)) for c in cut)
        i = min(i, n - 2)
        j = max(j, i + 1)
        assert_hermite_matches(ts[i:j + 1], seed, uniform=True)

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

    def test_query_array_is_left_unchanged(self):
        ts = np.linspace(0.0, 1.0, 9)
        q = np.array([-1.0, 0.3, 2.0, np.nan])
        before = q.copy()
        _util.hermite_interp(ts, ts, np.ones(9), q)
        assert np.array_equal(q, before, equal_nan=True)


def test_clamp_is_np_clip_bitwise():
    t = np.array([-np.inf, -2.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf, np.nan])
    for lo, hi in [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0)]:
        for arr in (t, t[::2], np.array(-0.0), np.array(0.0)):
            assert_same_values(_util.clamp(arr, lo, hi),
                               np.clip(arr, lo, hi))


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
