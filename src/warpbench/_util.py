"""Shared numerical machinery: bump functions, smooth steps, Hermite
interpolation, high-order finite differences and small solvers.

Everything here is deterministic and vectorized over numpy arrays.
"""

from __future__ import annotations

import numpy as np

# Uniform sample density used by every "min over grid" certificate.
DEFAULT_GRID_PER_UNIT = 2048

_MIN_GRID_POINTS = 33
_MAX_GRID_POINTS = 400_001


def grid_points(lo: float, hi: float, per_unit: float | None = None,
                min_points: int = _MIN_GRID_POINTS) -> np.ndarray:
    """Uniform inclusive grid with DEFAULT_GRID_PER_UNIT samples per unit."""
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    per_unit = DEFAULT_GRID_PER_UNIT if per_unit is None else float(per_unit)
    n = int(np.ceil((hi - lo) * per_unit)) + 1
    n = min(max(n, min_points), _MAX_GRID_POINTS)
    return np.linspace(lo, hi, n)


def sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D NaN-free array, bit for bit (the same sort, the
    first of each run of equal values kept), without the numpy.ma import
    that np.unique triggers on first use."""
    s = np.sort(a)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

# Rows formatted per string operation; bounds the Python floats alive at once.
_CSV_BLOCK_ROWS = 4096


def write_csv(path, header: str, table: np.ndarray) -> None:
    """Write a 2-D table as CSV: the header line, then one line of
    comma-separated %.18e fields per row.  The bytes equal those of numpy's
    own text writer with delimiter "," and no comment prefix; rows are
    formatted in blocks of _CSV_BLOCK_ROWS."""
    row = ",".join(["%.18e"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[i:i + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# Interpolation and quadrature on node tables.
# ---------------------------------------------------------------------------

def clamp(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """np.clip(t, lo, hi) bit for bit, NaN and signed zeros included,
    through the two ufuncs without np.clip's dispatch: on a tie np.maximum
    and np.minimum return their second argument, so t is kept as np.clip
    keeps it."""
    return np.minimum(hi, np.maximum(lo, t))


def _segment(ts: np.ndarray, t: np.ndarray):
    """(i, ts[i], ts[i + 1]) with i = searchsorted(ts, t, "right") - 1
    clipped to [0, len(ts) - 2], for 1-D t inside [ts[0], ts[-1]] or NaN.

    i is guessed as if the grid were uniform and corrected once by +-1
    where ts[i] <= t < ts[i + 1] fails (t = ts[-1] belongs to the last
    segment; NaN is guessed there, as searchsorted sorts it last).  If the
    corrected i still fails at any point, searchsorted answers the call."""
    last = len(ts) - 2
    g = t - ts[0]
    g *= (last + 1) / (ts[-1] - ts[0])
    np.fmin(g, last, out=g)
    idx = g.astype(np.intp)
    for _ in range(2):              # the guess, then the guess corrected
        lo = ts[idx]
        hi = ts[idx + 1]
        down = t < lo
        up = t >= hi
        if np.count_nonzero(up):
            up &= idx != last
        if not (np.count_nonzero(down) or np.count_nonzero(up)):
            return idx, lo, hi
        idx -= down
        idx += up
    return _searched_segment(ts, t)


def _searched_segment(ts: np.ndarray, t: np.ndarray):
    """_segment through np.searchsorted, for grids the guess misses."""
    idx = np.searchsorted(ts, t, side="right")
    idx -= 1
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, len(ts) - 2, out=idx)
    return idx, ts[idx], ts[idx + 1]


def hermite_interp(ts: np.ndarray, ys: np.ndarray, dys: np.ndarray, t):
    """Piecewise-cubic Hermite evaluation; exact at nodes, O(h^4) between.

    ts must be strictly increasing (not necessarily uniform); t is clamped
    to [ts[0], ts[-1]].  The segment of each point comes from an arithmetic
    guess checked against the nodes (_segment), so on any strictly
    increasing grid the result is bitwise equal to looking the segment up
    with np.searchsorted(ts, t, "right") - 1; a uniform grid, or a slice of
    one, never needs the search."""
    t = np.asarray(t, dtype=float)
    shape = t.shape
    t = t.reshape(-1)
    if t.size and not (ts[0] <= t.min() and t.max() <= ts[-1]):
        t = clamp(t, ts[0], ts[-1])
    idx, x, h = _segment(ts, t)
    h -= x
    np.subtract(t, x, out=x)
    x /= h
    # h00 y0 + h10 d0 + h01 y1 + h11 d1 (d = h dy), summed left to right,
    # each basis product in the order of its formula, in reused buffers.
    u2 = 1 - x
    u2 *= u2                        # (1 - x)^2
    x2 = 2 * x
    out = x2 + 1
    out *= u2
    out *= ys[idx]                  # h00 y0, h00 = (1 + 2x)(1 - x)^2
    d = dys[idx]
    d *= h
    u2 *= x
    u2 *= d
    out += u2                       # h10 d0, h10 = x (1 - x)^2
    idx += 1
    xx = np.multiply(x, x, out=d)
    v = np.subtract(3, x2, out=x2)
    v *= xx
    v *= ys[idx]
    out += v                        # h01 y1, h01 = x^2 (3 - 2x)
    d1 = np.multiply(dys[idx], h, out=h)
    x -= 1
    x *= xx
    x *= d1
    out += x                        # h11 d1, h11 = x^2 (x - 1)
    out = out.reshape(shape)
    return out[()] if out.ndim == 0 else out


def cumulative_hermite(ts: np.ndarray, y: np.ndarray, dy: np.ndarray,
                       y0: float = 0.0) -> np.ndarray:
    """Cumulative integral of y given its derivative dy at the same nodes.

    Per-segment Euler-Maclaurin corrected trapezoid (exact for cubics)."""
    h = np.diff(ts)
    seg = 0.5 * h * (y[:-1] + y[1:]) + (h * h / 12.0) * (dy[:-1] - dy[1:])
    return y0 + np.concatenate([[0.0], np.cumsum(seg)])


# ---------------------------------------------------------------------------
# The standard C^infinity bump exp(1 - 1/(1-x^2)) and machinery built from it.
# ---------------------------------------------------------------------------

def _on_support(fn, x):
    """fn(x) where |x| < 1, evaluated there only; +0.0 elsewhere (NaN
    included)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    if np.count_nonzero(inside):
        out[inside] = fn(x[inside])
    return out


def bump(x):
    """exp(1 - 1/(1-x^2)) on (-1,1), zero outside; all derivatives vanish
    at x = +-1."""
    def f(x):
        return np.exp(1.0 - 1.0 / (1.0 - x * x))
    return _on_support(f, x)


def bump_d1(x):
    def f(x):
        u = 1.0 - x * x
        return np.exp(1.0 - 1.0 / u) * (-2.0 * x) / (u * u)
    return _on_support(f, x)


def bump_d2(x):
    def f(x):
        u = 1.0 - x * x
        a = -2.0 * x / (u * u)                       # (log bump)'
        b = (-2.0 - 6.0 * x * x) / (u * u * u)       # (log bump)''
        return np.exp(1.0 - 1.0 / u) * (a * a + b)
    return _on_support(f, x)


class TabulatedAntiderivative:
    """Normalised running integral of a nonnegative density on [0, 1]: 0
    before, 1 after, flat at the ends to every order the density is.

    ``density(x, k)`` is the density's k-th derivative.  Values come from a
    Hermite cumulative table on ``n`` uniform nodes, interpolated with the
    density as node slopes, so they keep full double accuracy; derivatives
    are the density itself divided by ``mass``."""

    def __init__(self, density, n: int = 8193):
        xs = np.linspace(0.0, 1.0, n)
        d = density(xs, 0)
        cum = cumulative_hermite(xs, d, density(xs, 1))
        self.mass = float(cum[-1])
        self._density = density
        self._xs = xs
        self._table = cum / cum[-1]
        self._slopes = d / cum[-1]

    def __call__(self, x, k: int = 0):
        x = np.asarray(x, dtype=float)
        if k:
            return self._density(x, k - 1) / self.mass
        after = x >= 1.0
        out = np.where(after, 1.0, 0.0)
        inside = ~((x <= 0.0) | after)          # (0, 1) and NaN
        if np.count_nonzero(inside):
            out[inside] = hermite_interp(self._xs, self._table,
                                         self._slopes, x[inside])
        return out


def _bump_density(x, k: int):
    """k-th derivative of bump(2x - 1)."""
    return 2.0 ** k * (bump, bump_d1, bump_d2)[k](2.0 * x - 1.0)


SMOOTH_STEP = TabulatedAntiderivative(_bump_density)


def smooth_step(x, k: int = 0):
    """k-th derivative of the C^infinity unit step on [0,1]."""
    return SMOOTH_STEP(x, k)


def plateau(x, k: int = 0, rise: float = 0.15):
    """C^infinity plateau on [0,1]: 0 (flat) at the ends, 1 on the middle
    [rise, 1-rise].  Product of two smooth steps."""
    x = np.asarray(x, dtype=float)
    a = [smooth_step(x / rise, j) / rise ** j for j in range(k + 1)]
    b = [smooth_step((1.0 - x) / rise, j) * (-1.0 / rise) ** j
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


# Mass of plateau(x, rise=0.15) on [0,1], from a dense Hermite pass.
PLATEAU_MASS = TabulatedAntiderivative(plateau, 16385).mass


def unit_plateau(lo: float, span: float):
    """Unit-mass plateau on [lo, lo + span] as a function g(u, k) of its
    argument and derivative order."""
    def g(u, k=0):
        x = (np.asarray(u, float) - lo) / span
        return plateau(x, k) / (PLATEAU_MASS * span ** (k + 1))
    return g


def fd_first_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative of uniformly sampled values: central
    5-point stencil in the interior, shifted 5-point stencils at the two
    nodes nearest each end."""
    n = len(y)
    if n < 6:
        raise ValueError("too few nodes for the stencil")
    d = np.empty_like(y)
    d[2:n - 2] = (y[:n - 4] - 8 * y[1:n - 3]
                  + 8 * y[3:n - 1] - y[4:]) / (12 * h)
    # derivative at the first or second point of a 5-point window
    c0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
    c1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0
    idx = np.arange(5)
    for j, coef in enumerate((c0, c1)):
        d[j] = np.dot(coef, y[idx]) / h
        d[n - 1 - j] = -np.dot(coef, y[n - 1 - idx]) / h
    return d


def rank_gf2(rows: list[int]) -> int:
    """Rank over GF(2) of a matrix given as row bitmasks."""
    rank = 0
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            rank += 1
    return rank


def bisect_increasing(fn, lo: float, hi: float, target: float,
                      tol: float = 1e-10, max_iter: int = 200) -> float:
    """Solve fn(x) = target for increasing fn by bisection."""
    flo, fhi = fn(lo) - target, fn(hi) - target
    if flo > 0 or fhi < 0:
        raise ValueError("target not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if fn(mid) - target <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)
