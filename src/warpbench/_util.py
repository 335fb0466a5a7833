"""Shared numerical machinery: bump functions, smooth steps, Hermite
interpolation, high-order finite differences and small solvers.

Everything here is deterministic and vectorized over numpy arrays.
"""

from __future__ import annotations

import bisect
import functools

import numpy as np

# Uniform sample density used by every "min over grid" certificate.
DEFAULT_GRID_PER_UNIT = 2048

_MIN_GRID_POINTS = 33
_MAX_GRID_POINTS = 400_001


def grid_size(lo: float, hi: float, per_unit: float | None = None,
              min_points: int = _MIN_GRID_POINTS) -> int:
    """The number of points of grid_points(lo, hi, per_unit, min_points)."""
    per_unit = DEFAULT_GRID_PER_UNIT if per_unit is None else float(per_unit)
    n = int(np.ceil((hi - lo) * per_unit)) + 1
    return min(max(n, min_points), _MAX_GRID_POINTS)


def grid_points(lo: float, hi: float, per_unit: float | None = None,
                min_points: int = _MIN_GRID_POINTS) -> np.ndarray:
    """Uniform inclusive grid with DEFAULT_GRID_PER_UNIT samples per unit."""
    if hi <= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return np.linspace(lo, hi, grid_size(lo, hi, per_unit, min_points))


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
# Caches of work shared between builds.
# ---------------------------------------------------------------------------

# Every per_key cache, in the order the modules define them.
_CACHES = []


def per_key(maxsize: int):
    """``functools.lru_cache(maxsize=maxsize)``, registered so that
    ``clear_caches`` empties it.  A cache keeps what a build makes from a
    few of its parameters (a key), for every later build with that key;
    what it keeps is shared, so its arrays are made ``read_only``."""
    def register(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)
        _CACHES.append(cached)
        return cached

    return register


def clear_caches(keep=()) -> None:
    """Empty every per_key cache except those in keep."""
    for cached in _CACHES:
        if cached not in keep:
            cached.cache_clear()


def cache_stats() -> dict:
    """Every per_key cache's (hits, misses, currsize, maxsize) since it was
    last emptied, by its qualified name ``module.function``."""
    stats = {}
    for cached in _CACHES:
        info = cached.cache_info()
        stats[f"{cached.__module__}.{cached.__qualname__}"] = (
            info.hits, info.misses, info.currsize, info.maxsize)
    return stats


def read_only(a) -> np.ndarray:
    """A read-only float view of a; the array itself keeps its flags.  A
    read-only float array is its own view."""
    if (isinstance(a, np.ndarray) and a.dtype == float
            and not a.flags.writeable):
        return a
    v = np.asarray(a, dtype=float).view()
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

# Rows formatted per pass.  Median ms of a fresh process writing the
# default pipeline's sweeps, sizes alternated (2 cores, numpy 2.4): 256: 119,
# 512: 71-87, 1024: 55-69, 2048: 59-72, 4096: 73-75, 8192: 83.
_CSV_BLOCK_ROWS = 1024

# 10^k = _P10[0][k] + _P10[1][k] exactly for k = 0..41: 10^k is 5^k 2^k,
# and 5^41 has 96 bits, fewer than a double-double's 106.  Beside each
# part, its Veltkamp halves for Dekker's product.
_P10 = np.array([float(10 ** k) for k in range(42)])
_P10 = [_P10, np.array([10 ** k - int(h) for k, h in enumerate(_P10)], float)]
_U = np.uint64
_E18, _E19 = _U(10 ** 18), _U(10 ** 19)
# A rounding of the float remainder further than this from a half is
# final (see _scaled); nearer, the exact residuals decide.
_TIE_BOUND = 2.0 ** -40
# Products at or above 2^64 (a decade-low guess) are capped below it, so
# that adding the rounded remainder (under 2^18 in magnitude for guesses
# up to two decades low) neither wraps nor lands back in range.
_CAP = 2.0 ** 64 - 2.0 ** 20


def _split(a):
    """Veltkamp's split: a = hi + lo exactly, each of at most 26
    significant bits, so that products of halves are exact."""
    c = a * 134217729.0                 # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a, b, ab):
    """a b - ab exactly, for ab = fl(a b) and a, b given as split halves:
    Dekker's TwoProduct in separately rounded float64 operations."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    return ((a_hi * b_hi - ab) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


_P10_SPLIT = [_split(part) for part in _P10]


def _scaled(a, k):
    """D = a 10^k rounded half-to-even as uint64, for normal a < 2^48 and
    table rows k with 10^17 <= a 10^k < 10^21; D lies above 10^19 for
    every product from 2^64 up.

    a 10^k = P + r exactly, where P = fl(a hi) is an even integer (P >
    2^56) and r = e + a lo, e = a hi - P (Dekker's product), so D = P +
    round(r).  The float sum s = fl(e + fl(a lo)) is n + f with n =
    rint(s) and f = s - n exactly.  Where P <= 1.1e19, |e| <= ulp(P)/2
    <= 2^10 and |a lo| <= 2^-53 P < 2^11, so |s| < 2^12, and r - s is two
    rounding errors of at most 2^-42 and 2^-43.  So where |f| <= 1/2 -
    _TIE_BOUND, round(r) = n.  Within the bound both errors are recovered
    exactly (TwoSum, and Dekker's product of a and lo) and their sum t is
    exact: r - s is a multiple of ulp(a) 2^k >= 2^-88, below 2^-41, so
    under 2^47 such units.  f -+ 1/2 is exact (Sterbenz), and the sign of
    (f -+ 1/2) + t says whether r lies past the half (round away from n)
    or not.  An exact tie has t = 0 (a then has so few bits that a lo and
    e + a lo are exact), so s sits on the half and rint has sent it to
    the even side.  Beyond 1.1e19 the bound may miss by one unit, but D
    is out of range either way."""
    hi, lo = (part.take(k) for part in _P10)
    a_split = _split(a)
    P = a * hi
    e = _product_error(a_split, [h.take(k) for h in _P10_SPLIT[0]], P)
    L = a * lo
    s = e + L
    n = np.rint(s)
    f = s - n
    D = np.minimum(P, _CAP).astype(np.uint64)
    D += n.astype(np.int64).view(np.uint64)      # wraps as signed addition
    near = np.flatnonzero(np.abs(f) > 0.5 - _TIE_BOUND)
    if near.size:
        k, e, L, s, f = (v[near] for v in (k, e, L, s, f))
        t = _product_error([h[near] for h in a_split],
                           [h.take(k) for h in _P10_SPLIT[1]], L)
        v = s - e
        t += (e - (s - v)) + (L - v)        # TwoSum's error of e + L
        z = (f - np.copysign(0.5, f)) + t       # r - (n +- 1/2)
        D[near] += ((f > 0) & (z > 0)).astype(np.uint64)
        D[near] -= ((f < 0) & (z < 0)).astype(np.uint64)
    return D


def _decimal(x):
    """(D, p, done) for a 1-D float64 array: where done, |x| is D 10^(p - 18)
    rounded half-to-even to 19 significant digits, 10^18 <= D < 10^19 (or
    D = p = 0 for a zero).

    done holds for zeros and for normal values of magnitude in [1e-23,
    2^48): _scaled at k = 18 - p for the guess p = floor(log10|x|), once
    more at p + 1 or p - 1 where D leaves [10^18, 10^19).  Its float sum
    is within 2^-41 of the exact remainder and decides outside _TIE_BOUND
    of a half; exact residuals decide inside it, so every value in range
    is exactly rounded, ties and near ties included.  NaN, infinities,
    subnormals and magnitudes outside the range (where 10^k leaves the
    table or a exceeds 2^48) are not done: _format_block leaves them to
    CPython's '%.18e', which is exactly rounded too."""
    a = np.abs(x)
    normal = (a >= 2.2250738585072014e-308) & (a < 2.0 ** 48)
    a = np.where(normal, a, 1.0)        # a zero is then k = 18, p = 0
    rows = len(_P10[0])
    k = np.minimum(18 - np.floor(np.log10(a)).astype(np.int64), rows - 1)
    D = _scaled(a, k)
    redo = np.flatnonzero(normal & ((D < _E18) | (D >= _E19)))
    if redo.size:                       # the guess of p was a decade off
        k[redo] += np.where(D[redo] >= _E19, -1, 1)
        D[redo] = _scaled(a[redo], np.minimum(k[redo], rows - 1))
    done = normal & (k < rows) & (D >= _E18) & (D < _E19)
    D[x == 0] = 0
    return D, 18 - k, done | (x == 0)


# Table words of four ASCII bytes, the first in the lowest byte, for the
# '<u4' fields of _format_block: _DIGITS4[i] the four digits of i < 10^4,
# _HEADS[i] 'd.dd' for i < 1000, _TAILS[k] 'e+dd' for p = 18 - k.
_d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
_DIGITS4 = (_d[:, None, None, None] | _d[:, None, None] << 8
            | _d[:, None] << 16 | _d << 24).ravel()
_HEADS = (_d[:, None, None] | ord(".") << 8 | _d[:, None] << 16
          | _d << 24).ravel()
del _d
_TAILS = np.frombuffer(b"".join(b"e%+03d" % (18 - k)
                                for k in range(len(_P10[0]))), "<u4")


def _format_block(block: np.ndarray) -> bytes:
    """The rows of a 2-D block as CSV lines of %.18e fields, each field
    the bytes of CPython's '%.18e' % v.  Where _decimal is done, its D is
    exactly rounded: the float remainder errs by under 2^-41 and decides
    only outside 2^-40 of a half, exact residuals inside it.  There a field
    is assembled from table words: the head 'd.dd' by D's top three
    digits, four words of four digits, and the tail 'e+dd' by p.
    Elsewhere, where that bound is not proved (NaN, infinities,
    subnormals, magnitudes outside [1e-23, 2^48)), CPython's exactly
    rounded '%.18e' formats it."""
    rows, ncols = block.shape
    if not ncols:
        return b"\n" * rows
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    D, p, done = _decimal(x)
    seps = [","] * (ncols - 1) + ["\n"]
    texts = {i: ("%.18e" % x[i] + seps[i % ncols]).encode()
             for i in np.flatnonzero(~done).tolist()}
    # Field bytes: sign (NUL when absent), 'd.dd', sixteen digits, 'e+dd'
    # and the separator; wider where a CPython text is longer.
    width = max([26] + [len(t) for t in texts.values()])
    fields = np.zeros(len(x), dtype=np.dtype({
        "names": ["sign", "head", "digits", "tail", "sep"],
        "formats": ["u1", "<u4", ("<u4", 4), "<u4", "u1"],
        "offsets": [0, 1, 5, 21, 25], "itemsize": width}))

    # Indices of fields not done are garbage; "clip" keeps them in range.
    top3 = D // _U(10 ** 16)
    np.take(_HEADS, top3.view(np.int64), out=fields["head"], mode="clip")
    body = D - top3 * _U(10 ** 16)
    upper = body // _U(10 ** 8)
    for j, half in enumerate((upper, body - upper * _U(10 ** 8))):
        half = half.astype(np.uint32)
        q = half // np.uint32(10 ** 4)
        np.take(_DIGITS4, q, out=fields["digits"][:, 2 * j], mode="clip")
        np.take(_DIGITS4, half - q * np.uint32(10 ** 4),
                out=fields["digits"][:, 2 * j + 1], mode="clip")
    np.take(_TAILS, 18 - p, out=fields["tail"], mode="clip")
    fields["sign"] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    fields["sep"] = ord(",")
    fields.reshape(rows, ncols)["sep"][:, -1] = ord("\n")

    slots = fields.view(np.uint8).reshape(-1, width)
    for i, text in texts.items():
        slots[i] = np.frombuffer(text.ljust(width, b"\0"), dtype=np.uint8)
    # NUL marks every byte that is not part of a field.
    return slots.tobytes().replace(b"\0", b"")


def write_csv(path, header: str, columns) -> None:
    """Write equal-length columns (1-D arrays, or the rows of a 2-D array)
    as CSV: the header line, then one line of comma-separated %.18e fields
    per row.  The bytes equal those of numpy's own text writer on the
    stacked table with delimiter "," and no comment prefix.  Rows are
    stacked and formatted _CSV_BLOCK_ROWS at a time by _format_block; no
    copy of the whole table is made."""
    rows = len(columns[0]) if len(columns) else np.shape(columns)[-1]
    block = np.empty((min(rows, _CSV_BLOCK_ROWS), len(columns)))
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for i in range(0, rows, _CSV_BLOCK_ROWS):
            part = block[:min(rows - i, _CSV_BLOCK_ROWS)]
            for j, column in enumerate(columns):
                part[:, j] = column[i:i + len(part)]
            fh.write(_format_block(part))


# ---------------------------------------------------------------------------
# Interpolation and quadrature on node tables.
# ---------------------------------------------------------------------------

def clamp(t: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """np.clip(t, lo, hi) bit for bit, NaN and signed zeros included,
    through the two ufuncs without np.clip's dispatch: on a tie np.maximum
    and np.minimum return their second argument, so t is kept as np.clip
    keeps it."""
    return np.minimum(hi, np.maximum(lo, t))


def segment_index(breaks: np.ndarray, t):
    """Index i of the segment [breaks[i], breaks[i + 1]) holding each t, of
    a sorted breakpoint array: np.searchsorted(breaks, t, "right") - 1
    clipped to [0, len(breaks) - 2], so a point below breaks[0] is in the
    first segment, and t = breaks[-1], a point past it and NaN (sorted
    last) in the last.  Searching the interior breaks alone gives that
    index with no clipping pass."""
    return np.searchsorted(breaks[1:-1], t, "right")


def hermite_interp(ts: np.ndarray, ys: np.ndarray, dys: np.ndarray, t):
    """Piecewise-cubic Hermite evaluation; exact at nodes, O(h^4) between.
    The one-order case of hermite_jet: hermite_jet(ts, (ys, dys), t)[0].

    ts must be strictly increasing (not necessarily uniform); t is clamped
    to [ts[0], ts[-1]].  A 0-d query (a Python or numpy float, or a 0-d
    array) gives an np.float64; NaN gives NaN."""
    return hermite_jet(ts, (ys, dys), t)[0]


def _hermite_point(ts: np.ndarray, ys: np.ndarray, dys: np.ndarray,
                   t: float) -> np.float64:
    """hermite_jet's value of one order at one point, bit for bit, without
    the array work: Python floats round each operation as numpy's ufuncs
    do, and bisect finds the segment segment_index finds.  A warm pass over
    perfbench's 56 pipeline records makes about 3900 one-point lookups, at
    about 2.5 us each here against 30-45 us through the array form: about
    13% of the pass's time (2 cores, Python 3.11.7, numpy 2.4.6)."""
    lo, hi = float(ts[0]), float(ts[-1])
    if t < lo:                      # a tie or NaN keeps t, as clamp does
        t = lo
    elif t > hi:
        t = hi
    i = min(max(bisect.bisect_right(ts, t) - 1, 0), len(ts) - 2)
    x0 = float(ts[i])
    h = float(ts[i + 1]) - x0
    x = (t - x0) / h
    u2 = 1 - x
    u2 *= u2
    x2 = 2 * x
    xx = x * x
    out = (x2 + 1) * u2 * float(ys[i])
    out += u2 * x * (float(dys[i]) * h)
    out += (3 - x2) * xx * float(ys[i + 1])
    out += (x - 1) * xx * (float(dys[i + 1]) * h)
    return np.float64(out)


def hermite_jet(ts: np.ndarray, cols, t) -> list:
    """Piecewise-cubic Hermite jet of one table: the list of its orders
    k = 0, 1, ... at t, each the cubic with values cols[k] and slopes
    cols[k + 1] at the nodes ts, for every k with both columns (a table of
    four columns gives orders 0 to 2, one of two columns order 0 alone).
    ts must be strictly increasing (not necessarily uniform); t is clamped
    to [ts[0], ts[-1]].

    A 0-d query (a Python or numpy float, or a 0-d array) is answered in
    Python floats by _hermite_point, once per order, with the clamp,
    segment and operations of the array form, as np.float64s; NaN gives
    NaN.  An array query looks its segments up once (segment_index) and
    forms one set of basis values shared by every order."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = float(t)
        return [_hermite_point(ts, ys, dys, t)
                for ys, dys in zip(cols[:3], cols[1:4])]
    shape = t.shape
    t = t.reshape(-1)
    if t.size and not (ts[0] <= t.min() and t.max() <= ts[-1]):
        t = clamp(t, ts[0], ts[-1])
    i = segment_index(ts, t)        # each point's segment
    x = ts[i]
    w = ts[1:][i]
    w -= x                          # its width
    np.subtract(t, x, out=x)
    x /= w
    # the basis, each product in the order of its formula; x**2 is freed
    # before the node values arrive, which keeps large queries in cache
    h10 = 1 - x
    h10 *= h10
    h01 = 2 * x
    h00 = h01 + 1
    h00 *= h10                      # (1 + 2x)(1 - x)^2
    h10 *= x                        # x (1 - x)^2
    xx = x * x
    np.subtract(3, h01, out=h01)
    h01 *= xx                       # x^2 (3 - 2x)
    h11 = x
    h11 -= 1
    h11 *= xx                       # x^2 (x - 1)
    del xx
    outs = []
    for ys, dys in zip(cols[:3], cols[1:4]):
        # y0 h00 + d0 h10 + y1 h01 + d1 h11, d = dy times the width, with
        # y0 = ys[i] and y1 = ys[i + 1]
        out = ys[i]
        out *= h00
        v = dys[i]
        v *= w
        v *= h10
        out += v
        v = ys[1:][i]
        v *= h01
        out += v
        v = dys[1:][i]
        v *= w
        v *= h11
        out += v
        outs.append(out.reshape(shape))
    return outs


def hermite_subdivided(ts: np.ndarray, tables, j0: int, j1: int, m: int,
                       block: int):
    """hermite_jet's jet of each of several tables at the points that
    split each node segment j (j0 <= j < j1) into m equal parts, the points
    ts[j] + (i / m)(ts[j + 1] - ts[j]), i = 0, ..., m - 1.  Yields
    (t, jets) for consecutive runs of at most ``block`` segments: t, an
    (n, m) array, holds the points of the run's n segments, a row per
    segment, and jets, for each table cols, the list of its orders at t,
    each an array shaped like t.

    The four basis values at the fractions i / m are one 4 x m matrix,
    formed once and shared by every segment, table and order, so each
    order of a run is one product of its n x 4 segment rows
    (y0, dy0 w, y1, dy1 w), w the segment's width, with that matrix (de
    Boor, A Practical Guide to Splines, ch. IV).  At i = 0 the basis is
    (1, 0, 0, -0), so the values there are the node values exactly;
    between nodes they agree with hermite_jet's to a few ulp, not bit for
    bit."""
    x = np.arange(m) / m
    u2 = (1 - x) ** 2
    xx = x * x
    basis = np.array([(1 + 2 * x) * u2, x * u2, xx * (3 - 2 * x),
                      xx * (x - 1)])
    for j in range(j0, j1, block):
        end = min(j + block, j1)
        w = np.diff(ts[j:end + 1])
        t = ts[j:end, None] + x * w[:, None]
        rows = np.empty((end - j, 4))
        jets = []
        for cols in tables:
            outs = []
            for ys, dys in zip(cols[:3], cols[1:4]):
                rows[:, 0] = ys[j:end]
                np.multiply(dys[j:end], w, out=rows[:, 1])
                rows[:, 2] = ys[j + 1:end + 1]
                np.multiply(dys[j + 1:end + 1], w, out=rows[:, 3])
                outs.append(rows @ basis)
            jets.append(outs)
        yield t, jets


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


def check_order(k) -> None:
    """Raise ValueError unless k is a derivative order 0..3."""
    if not 0 <= k <= 3:
        raise ValueError(f"derivative order {k} not available")


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
        check_order(k)
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
    [rise, 1-rise].  Product of two smooth steps.  The one-order case of
    ``plateau_orders``: plateau_orders(x, (k,), rise)[0]."""
    return plateau_orders(x, (k,), rise)[0]


def plateau_orders(x, orders, rise: float = 0.15) -> list:
    """[plateau(x, k, rise) for k in orders], bit for bit, from one set of
    masks and one smooth_step lookup per order.

    With rise < 1/2 at most one step varies at a point and the other is 0
    or 1 there to every order, so only the varying one is evaluated: the
    rising ramp at x / rise in (0, 1), the falling one at (1 - x) / rise in
    (0, 1).  The two point sets are disjoint, so each order looks both up
    in one smooth_step call on the two concatenated, and each side keeps
    its own scaling.  For k = 0 that is the product itself (the other
    factor is exactly 1); for k > 0 the Leibniz sum adds signed zeros,
    which can flip the sign of a zero, so where the one factor gives a zero
    the full sum (_plateau_product) decides.  The values equal that sum bit
    for bit, given that numpy's elementwise kernels give a point the same
    bits at any position in an array."""
    for k in orders:
        check_order(k)
    if not 0.0 < rise < 0.5:
        raise ValueError(f"rise {rise} outside (0, 1/2)")
    x = np.asarray(x, dtype=float)
    u = x / rise
    v = (1.0 - x) / rise
    middle = (u >= 1.0) & (v >= 1.0)
    nan = np.isnan(x)
    rising = (u > 0.0) & (u < 1.0)
    falling = (v > 0.0) & (v < 1.0)
    ramps = np.concatenate([u[rising], v[falling]])
    n = np.count_nonzero(rising)
    outs = []
    for k in orders:
        out = np.where(middle, float(k == 0), 0.0)
        out[nan] = np.nan
        if len(ramps):
            s = smooth_step(ramps, k)
            out[rising] = s[:n] / rise ** k
            out[falling] = s[n:] * (-1.0 / rise) ** k
            if k:
                redo = (rising | falling) & (out == 0.0)
                if np.count_nonzero(redo):
                    out[redo] = _plateau_product(x[redo], k, rise)
        outs.append(out[()] if out.ndim == 0 else out)
    return outs


def _plateau_product(x, k: int, rise: float):
    """The k-th derivative of the plateau at the 1-D points x by the
    Leibniz rule, both step factors evaluated at every point: one
    smooth_step call per order on the two factors' arguments concatenated."""
    n = len(x)
    both = np.concatenate([x / rise, (1.0 - x) / rise])
    a, b = [], []
    for j in range(k + 1):
        s = smooth_step(both, j)
        a.append(s[:n] / rise ** j)
        b.append(s[n:] * (-1.0 / rise) ** j)
    if k == 0:
        return a[0] * b[0]
    if k == 1:
        return a[1] * b[0] + a[0] * b[1]
    if k == 2:
        return a[2] * b[0] + 2 * a[1] * b[1] + a[0] * b[2]
    return a[3] * b[0] + 3 * a[2] * b[1] + 3 * a[1] * b[2] + a[0] * b[3]


# Mass of plateau(x, rise=0.15) on [0,1], from a dense Hermite pass.
PLATEAU_MASS = TabulatedAntiderivative(plateau, 16385).mass


def unit_plateaus(windows):
    """Unit-mass plateaus on the windows [lo, lo + span] of ``windows``, a
    list of (lo, span), as one function g(u, orders) of their common
    argument: g returns, for each window, its derivatives of the listed
    orders at u.  The windows' scaled arguments are concatenated into one
    plateau_orders call, so all their ramps share one smooth_step lookup
    per order; each value is bitwise that of the window on its own."""
    def g(u, orders):
        u = np.asarray(u, float)
        xs = [((u - lo) / span).reshape(-1) for lo, span in windows]
        cols = plateau_orders(np.concatenate(xs), orders)
        out, start = [], 0
        for (_, span), x in zip(windows, xs):
            end = start + len(x)
            out.append([(p[start:end] / (PLATEAU_MASS * span ** (k + 1)))
                        .reshape(u.shape)[()] for k, p in zip(orders, cols)])
            start = end
        return out
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


def gradient_on(ts: np.ndarray):
    """A function apply(f) equal to ``numpy.gradient(f, ts)`` bit for bit,
    for float samples f on the grid ts (at least two points).  The stencil
    weights depend on the grid alone and are computed once, here.  These
    are numpy's formulas at edge order 1: three-point weights in the
    interior (Fornberg, Math. Comp. 51, 1988), (f[2:] - f[:-2]) / (2 dx)
    when every spacing is exactly dx, and one-sided differences at the two
    ends."""
    dx = np.diff(np.asarray(ts, dtype=float))
    if len(dx) < 1:
        raise ValueError("a gradient needs a grid of at least two points")
    dx0, dxn = dx[0], dx[-1]
    if (dx == dx0).all():
        two_dx = 2. * dx0

        def interior(f):
            return (f[2:] - f[:-2]) / two_dx
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        a = -dx2 / (dx1 * (dx1 + dx2))
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * (dx1 + dx2))

        def interior(f):
            return a * f[:-2] + b * f[1:-1] + c * f[2:]

    def apply(f):
        f = np.asarray(f, dtype=float)
        if f.shape != (len(dx) + 1,):
            raise ValueError("samples must match the grid")
        out = np.empty_like(f)
        out[1:-1] = interior(f)
        out[0] = (f[1] - f[0]) / dx0
        out[-1] = (f[-1] - f[-2]) / dxn
        return out

    return apply


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
                      tol: float = 1e-10) -> float:
    """Solve fn(x) = target for increasing fn by bisection, in at most 200
    halvings."""
    flo, fhi = fn(lo) - target, fn(hi) - target
    if flo > 0 or fhi < 0:
        raise ValueError("target not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) - target <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)
