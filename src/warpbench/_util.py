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
    """A read-only float view of a; the array itself keeps its flags."""
    v = np.asarray(a, dtype=float).view()
    v.flags.writeable = False
    return v


# ---------------------------------------------------------------------------
# CSV output.
# ---------------------------------------------------------------------------

# Rows formatted per pass; bounds the integer work arrays alive at once.
_CSV_BLOCK_ROWS = 1024

# Every integer below is uint64, or int64 for signed exponents: under
# numpy 1.x promotion a uint64 array combined with an int64 operand turns
# into float64, so unsigned operands are np.uint64 scalars.
_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
# Row j, column k: limb j (32 bits, least significant first) of 5^k.
_POW5 = np.array([[(5 ** k >> 32 * j) & 0xFFFFFFFF for k in range(42)]
                  for j in range(3)], dtype=np.uint64)
# Right shifts r in [1, _MAX_SHIFT] start in limb r // 32 <= 2; values
# down to 1e-23 need r <= 88.
_MAX_SHIFT = 95
_E18, _E19 = _U(10 ** 18), _U(10 ** 19)
# v // 10 is (v * 0xCCCCCCCD) >> 35 for every v < 2^32.
_DIV10 = _U(0xCCCCCCCD)
# Field bytes: sign (NUL when absent), d . d d | 8 digits | 8 digits |
# e, exponent sign, two digits, separator.
_FIELD = 26
_HEAD = _U(0x30 << 8 | ord(".") << 16 | 0x30 << 24 | 0x30 << 32)
_TAIL = _U(ord("e") | 0x30 << 16 | 0x30 << 24)


def _scaled_decimal(m, e, p):
    """(D, covered, over) for x = m 2^e (2^52 <= m < 2^53) and a guess p
    of its decimal exponent: D = x 10^(18 - p) rounded half-to-even, from
    the exact product m 5^k (k = 18 - p) shifted right by r = -(e + k).
    covered is False where k or r leaves the table; over is True where the
    rounded value does not fit 64 bits (D is then meaningless)."""
    n = len(m)
    k = (18 - p).view(np.uint64)        # a negative k or r - 1 wraps high
    h = (p - e).view(np.uint64) - _U(19)            # r - 1
    covered = (k < _U(_POW5.shape[1])) & (h < _U(_MAX_SHIFT))
    f0, f1, f2 = _POW5.take(np.minimum(k, _U(_POW5.shape[1] - 1)).view(
        np.int64), axis=1)
    r = np.minimum(h, _U(_MAX_SHIFT - 1)) + _U(1)

    # P = m 5^k in 32-bit limbs L0..L4: the three products of the low half
    # of m split into 32-bit halves, the high half of m (< 2^21) times each
    # limb added whole, then one carry pass; no sum reaches 2^64.
    m0, m1 = m & _LOW32, m >> _U(32)
    prod = m0 * f0
    c0, c1 = prod & _LOW32, prod >> _U(32)
    prod = m0 * f1
    c1 += prod & _LOW32
    c2 = prod >> _U(32)
    prod = m0 * f2
    c2 += prod & _LOW32
    c3 = prod >> _U(32)
    c1 += m1 * f0
    c2 += m1 * f1
    c3 += m1 * f2
    # Rows: 0 a zero limb, so that limb q - 1 exists at q = 0; 1-5 L0-L4;
    # 6-8 the OR of the limbs under q - 1 and 9-11 the OR of the limbs
    # above q + 2, for q = 0, 1, 2.
    limbs = np.zeros((12, n), dtype=np.uint64)
    limbs[1] = c0
    np.bitwise_and(c1, _LOW32, out=limbs[2])
    c2 += c1 >> _U(32)
    np.bitwise_and(c2, _LOW32, out=limbs[3])
    c3 += c2 >> _U(32)
    np.bitwise_and(c3, _LOW32, out=limbs[4])
    np.right_shift(c3, _U(32), out=limbs[5])
    limbs[8] = c0
    np.bitwise_or(limbs[4], limbs[5], out=limbs[9])
    limbs[10] = limbs[5]

    # Q = P >> r from the limbs q, q + 1 and q + 2 (q = r // 32, s = r % 32);
    # bits above Q's 64 mean Q >= 2^64.
    idx = (r >> _U(5)) * _U(n)
    idx += np.arange(n, dtype=np.uint64)
    idx = idx.view(np.int64)
    s = r & _U(31)
    lm1, l0, l1, top, below, above = (limbs.reshape(-1)[j * n:].take(idx)
                                      for j in (0, 1, 2, 3, 6, 9))
    D = (l0 | (l1 << _U(32))) >> s
    D |= (top << (_U(63) - s)) << _U(1)
    over = ((top >> s) | above) != 0

    # Half-to-even: bit r - 1 is bit s + 31 of lm1 | l0 << 32; the sticky
    # bits are those below it and every limb under q - 1.
    low = lm1 | (l0 << _U(32))
    s += _U(31)
    half = (low >> s) & _U(1)
    sticky = (low & ((_U(1) << s) - _U(1))) | below
    D += half & (D | (sticky != 0))     # up past a half, or to even on one
    over |= D == 0                      # rounded up past 2^64 - 1
    return D, covered, over


def _ascii8(v):
    """The eight decimal digits of each v < 10^8 as ASCII in one uint64,
    most significant digit in the lowest byte: the multiply-shift division
    run on 32-, then 16-, then 8-bit lanes of one word at once."""
    hi = (v * _U(109951163)) >> _U(40)                  # v // 10^4
    x = hi | ((v - hi * _U(10 ** 4)) << _U(32))
    t = ((x * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # lane // 100
    x = t | ((x - t * _U(100)) << _U(16))
    t = ((x * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)   # lane // 10
    x = t | ((x - t * _U(10)) << _U(8))
    return x + _U(0x3030303030303030)


def _decimal(x):
    """(D, p, done) for a 1-D float64 array: where done, |x| is D 10^(p - 18)
    rounded half-to-even to 19 significant digits, 10^18 <= D < 10^19 (or
    D = p = 0 for a zero).

    done holds for zeros and for normal values of magnitude in [1e-23,
    2^48), converted in integer arithmetic by _scaled_decimal; not for NaN,
    infinities, subnormals, magnitudes outside that range, or a value whose
    exponent guess one retry does not settle."""
    bits = x.view(np.uint64)
    biased = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    frac = bits & _U((1 << 52) - 1)
    normal = (biased > 0) & (biased < 0x7FF)
    zero = (biased == 0) & (frac == 0)

    m = frac | _U(1 << 52)
    e = biased - 1075
    # The guess p = floor(log10|x|), kept where 5^(18 - p) is in the table.
    p = np.floor(np.log10(np.where(normal, np.abs(x), 1.0)))
    p = np.clip(p, 19 - _POW5.shape[1], 18).astype(np.int64)
    D, covered, over = _scaled_decimal(m, e, p)
    done = covered & ~over & (D >= _E18) & (D < _E19)
    redo = np.flatnonzero(normal & covered & ~done)
    if redo.size:                       # the guess of p was a decade off
        p[redo] += np.where(over[redo] | (D[redo] >= _E19), 1, -1)
        D2, covered2, over2 = _scaled_decimal(m[redo], e[redo], p[redo])
        D[redo] = D2
        done[redo] = covered2 & ~over2 & (D2 >= _E18) & (D2 < _E19)
    done &= normal
    D[zero] = 0
    p[zero] = 0
    done |= zero
    return D, p, done


def _format_block(block: np.ndarray) -> bytes:
    """The rows of a 2-D block as CSV lines of %.18e fields, each field
    the bytes of CPython's '%.18e' % v: assembled from _decimal where it is
    done, from CPython's formatter elsewhere."""
    rows, ncols = block.shape
    if not ncols:
        return b"\n" * rows
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    n = len(x)
    D, p, done = _decimal(x)

    # Four little-endian words per field, written at byte offsets 21, 0, 5
    # and 13 of its slot in that order, so each word's spare high bytes
    # are overwritten by the next: [sign a . d d] [8 digits] [8 digits]
    # [e sign d d separator].  The sign byte is NUL when absent.
    top3 = D // _U(10 ** 16)
    body = D - top3 * _U(10 ** 16)
    groups = np.empty((2, n), dtype=np.uint64)
    np.floor_divide(body, _U(10 ** 8), out=groups[0])
    np.subtract(body, groups[0] * _U(10 ** 8), out=groups[1])
    digits = _ascii8(groups)
    tens = (top3 * _DIV10) >> _U(35)
    lead = (tens * _DIV10) >> _U(35)
    head = (_HEAD + (lead << _U(8)) + ((tens - lead * _U(10)) << _U(24))
            + ((top3 - tens * _U(10)) << _U(32)))
    head |= (x.view(np.uint64) >> _U(63)) * _U(ord("-"))
    mag = np.abs(p).astype(np.uint64)
    tens = (mag * _DIV10) >> _U(35)
    sign = np.where(p < 0, _U(ord("-")), _U(ord("+")))
    tail = (_TAIL + (sign << _U(8)) + (tens << _U(16))
            + ((mag - tens * _U(10)) << _U(24)))
    sep = np.full(ncols, ord(","), dtype=np.uint64)
    sep[-1] = ord("\n")
    tail = tail.reshape(rows, ncols) | (sep << _U(32))

    texts = {i: ("%.18e" % x[i]).encode()
             for i in np.flatnonzero(~done).tolist()}
    width = max([_FIELD] + [len(t) + 1 for t in texts.values()])
    out = np.zeros(n * width + 8, dtype=np.uint8)
    for offset, words in ((21, tail), (0, head), (5, digits[0]),
                          (13, digits[1])):
        np.ndarray((n,), dtype="<u8", buffer=out, offset=offset,
                   strides=(width,))[...] = words.reshape(-1)
    slots = out[:n * width].reshape(n, width)
    for i, text in texts.items():
        slots[i] = 0
        slots[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        slots[i, len(text)] = sep[i % ncols]
    # NUL marks every byte that is not part of a field.
    return slots.tobytes().replace(b"\0", b"")


def write_csv(path, header: str, table: np.ndarray) -> None:
    """Write a 2-D table as CSV: the header line, then one line of
    comma-separated %.18e fields per row.  The bytes equal those of numpy's
    own text writer with delimiter "," and no comment prefix; rows are
    formatted in blocks of _CSV_BLOCK_ROWS by _format_block."""
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode())
        for i in range(0, len(table), _CSV_BLOCK_ROWS):
            fh.write(_format_block(table[i:i + _CSV_BLOCK_ROWS]))


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
        hi = ts[1:][idx]
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
    return idx, ts[idx], ts[1:][idx]


def hermite_interp(ts: np.ndarray, ys: np.ndarray, dys: np.ndarray, t):
    """Piecewise-cubic Hermite evaluation; exact at nodes, O(h^4) between.
    The one-table, one-order case of hermite_jet:
    hermite_jet(ts, [(ys, dys)], t)[0][0].

    ts must be strictly increasing (not necessarily uniform); t is clamped
    to [ts[0], ts[-1]].  A 0-d query (a Python or numpy float, or a 0-d
    array) gives an np.float64; NaN gives NaN."""
    return hermite_jet(ts, ((ys, dys),), t)[0][0]


def _hermite_point(ts: np.ndarray, ys: np.ndarray, dys: np.ndarray,
                   t: float) -> np.float64:
    """hermite_jet's value of one order at one point, bit for bit, without
    the array work: Python floats round each operation as numpy's ufuncs
    do, and bisect finds the segment searchsorted finds."""
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


# Repeating a segment's values over its run of points beats gathering them
# point by point only on long queries with long runs.  Measured on uniform
# grids (2-core Xeon, Python 3.11, numpy 2.4.6) for one order and for six:
# up to 2048 points the per-point path is as fast at any run length; at
# 4096 points the run path gains from 8 points per segment (six orders)
# or 16 (one order) on, at 16384 points from 4.  Below _RUN_MIN_POINTS the
# run test itself is skipped: it costs a few microseconds a call.
_RUN_MIN_POINTS = 4096
_RUN_MIN_LENGTH = 8


def _segment_runs(ts: np.ndarray, t: np.ndarray):
    """(i0, counts) if the 1-D t (inside [ts[0], ts[-1]] or NaN) has at
    least _RUN_MIN_POINTS points, is sorted and has at least
    _RUN_MIN_LENGTH points per segment it spans: its points lie in the
    segments i0, i0 + 1, ... as _segment assigns them, counts[j] of them in
    segment i0 + j.  None for any other query (short, sparse, unsorted,
    NaN); a short one is turned away before any work."""
    n = t.size
    if n < _RUN_MIN_POINTS:
        return None
    i0, i1 = ts.searchsorted(t[::n - 1], "right").tolist()
    i0, i1 = max(i0 - 1, 0), min(i1 - 1, len(ts) - 2)
    if (not 0 < _RUN_MIN_LENGTH * (i1 - i0 + 1) <= n
            or not (t[1:] >= t[:-1]).all()):
        return None
    # points before ts[i + 1] lie in segments up to i; t = ts[-1] is
    # in the last segment, which ends the runs
    ends = t.searchsorted(ts[i0:i1 + 2], "left")
    ends[-1] = n
    return i0, np.diff(ends)


def _spread(v, counts):
    """Per-point values from v: v itself if counts is None, else v's
    entry j repeated counts[j] times."""
    return v if counts is None else np.repeat(v, counts)


def hermite_jet(ts: np.ndarray, tables, t) -> list:
    """Piecewise-cubic Hermite jets of several tables on one grid: for each
    table cols, the list of its orders k = 0, 1, ... at t, each the cubic
    with values cols[k] and slopes cols[k + 1] at the nodes ts, for every
    k with both columns (a table of four columns gives orders 0 to 2, one
    of two columns order 0 alone).  One table gives a curve's jet; several
    give the jets of curves tabulated on one grid, such as the two tables
    of the transfer ODE.  ts must be strictly increasing (not necessarily
    uniform); t is clamped to [ts[0], ts[-1]].

    A 0-d query (a Python or numpy float, or a 0-d array) is answered in
    Python floats by _hermite_point, once per table and order, with the
    clamp, segment and operations of the array form, as np.float64s; NaN
    gives NaN.  An array query looks its segments up once and forms one
    set of basis values shared by every table and order, and node values
    reach its points in one of two ways, by a rule that reads the query
    alone.  A long sorted query with long runs of points per node segment
    (_segment_runs), such as a sweep grid on an ODE table, takes each
    segment's values, and its slopes times the segment's width, once per
    segment and repeats them over the segment's run of points (de Boor, A
    Practical Guide to Splines, ch. IV).  Any other query (short, sparse,
    unsorted, NaN) gathers them point by point, its segments from an
    arithmetic guess checked against the nodes (_segment).  Either way the
    segments are those of np.searchsorted(ts, t, "right") - 1, and each
    product and sum is formed from the same operands in the same order,
    so the two give the same bits; a uniform grid, or a slice of one,
    never needs the search."""
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = float(t)
        return [[_hermite_point(ts, ys, dys, t)
                 for ys, dys in zip(cols[:3], cols[1:4])] for cols in tables]
    shape = t.shape
    t = t.reshape(-1)
    if t.size and not (ts[0] <= t.min() and t.max() <= ts[-1]):
        t = clamp(t, ts[0], ts[-1])
    runs = _segment_runs(ts, t)
    if runs is None:                # i: each point's segment
        i, x, h = _segment(ts, t)
        h -= x
        w, counts = h, None
    else:                           # i: the segments of the runs
        i0, counts = runs
        i = np.arange(i0, i0 + len(counts))
        x = ts[i]
        w = ts[1:][i] - x
        h, x = _spread(w, counts), _spread(x, counts)
    np.subtract(t, x, out=x)
    x /= h
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
    jets = []
    for cols in tables:
        outs = []
        for ys, dys in zip(cols[:3], cols[1:4]):
            # y0 h00 + d0 h10 + y1 h01 + d1 h11, d = dy times the width,
            # with y0 = ys[i] and y1 = ys[i + 1]
            out = _spread(ys[i], counts)
            out *= h00
            v = dys[i]
            v *= w
            v = _spread(v, counts)
            v *= h10
            out += v
            v = _spread(ys[1:][i], counts)
            v *= h01
            out += v
            v = dys[1:][i]
            v *= w
            v = _spread(v, counts)
            v *= h11
            out += v
            outs.append(out.reshape(shape))
        jets.append(outs)
    return jets


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
