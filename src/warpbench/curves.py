"""Scalar warping functions on an interval, with derivatives through order 3.

A SmoothCurve is the common currency of the whole workbench: every warp
profile (closed-form, ODE-defined or blended) is one.  Consumers read a
single order with ``curve.eval(t, k)``, and orders 0..n on one grid with
``curve.jet(t, n)`` or, for several curves at once, ``joint_jet``.  Each
constructor below writes one function ``orders(t, ks)`` answering both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ._util import (check_order, clamp, cumulative_hermite,
                    fd_first_derivative, grid_points, hermite_interp,
                    hermite_jet, per_key, read_only, segment_index,
                    smooth_step, unit_plateaus, write_csv)

__all__ = [
    "SmoothCurve", "ParityReport", "JoinBandError",
    "curve_from_derivs", "constant_curve", "line_curve", "sine_curve",
    "cosine_curve", "poly_curve", "table_curve", "antiderivative_curve",
    "piecewise_curve", "linear_combo", "joint_jet", "sin_of",
    "even_extension", "make_concave_profile", "integrate_transfer_odes",
    "transfer_ode_residuals", "smooth_join", "parity_margin",
    "flatness_margin", "Jet", "jet_curve",
]


class JoinBandError(RuntimeError):
    """The second derivative of a smooth join leaves its prescribed band
    by more than the tolerance.  Handled by: ``blocks._cone_join``, which
    re-raises it as BuildError naming the junction."""

    def __init__(self, overshoot: float, band):
        self.overshoot = overshoot
        self.band = band
        super().__init__(
            f"second derivative leaves band {band} by {overshoot:.3e}")


_NO_INFO = MappingProxyType({})


class SmoothCurve:
    """Scalar function on [t_lo, t_hi] with evaluable derivatives k <= 3.

    The curve is one function ``orders(t, ks)``: the derivatives of the
    listed orders ``ks`` (ascending, each 0..3) at points t already checked
    against the domain.  ``eval`` asks it for one order and ``jet`` for
    orders 0..n, so work shared between orders (a table's segment lookup,
    a Jet's arithmetic, an integrand's common factors) is done once.
    ``info`` is a read-only mapping of what the curve's constructor
    recorded, so a cached curve's info cannot be changed; ``with_info``
    derives a curve with more entries."""

    __slots__ = ("t_lo", "t_hi", "_at", "nodes", "info")

    def __init__(self, t_lo, t_hi, orders, nodes=None, info=None):
        if not (np.isfinite(t_lo) and np.isfinite(t_hi) and t_lo < t_hi):
            raise ValueError(f"bad domain [{t_lo}, {t_hi}]")
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        self._at = orders           # (t, ks) -> [order k at t for k in ks]
        self.nodes = nodes          # optional (ts, columns v0, v1, ...)
        # read-only, built once: a given read-only mapping is shared
        self.info = (info if isinstance(info, MappingProxyType)
                     else MappingProxyType(dict(info)) if info else _NO_INFO)

    @property
    def domain(self):
        return (self.t_lo, self.t_hi)

    def eval(self, t, k: int = 0):
        """The k-th derivative at t (a float for 0-d t, else an array).

        Points within the slop 1e-9 (1 + t_hi - t_lo) outside the domain
        are clamped to its ends; a point beyond it raises ValueError.  NaN
        passes through to the orders function."""
        check_order(k)
        arr = self._in_domain(t)
        out = self._at(arr, (k,))[0]
        if arr.ndim == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    __call__ = eval

    def jet(self, t, n: int = 2) -> "Jet":
        """Orders 0..n (0 <= n <= 3) at t as a Jet, bitwise ``eval(t, k)``,
        with the domain checked once and every order from one call of the
        orders function; composed with a Jet u:
        ``u.chain(curve.jet(u[0], len(u) - 1))``."""
        return Jet(*joint_jet((self,), t, n)[0])

    def _in_domain(self, t) -> np.ndarray:
        """t as a float array, checked and clamped as ``eval`` states."""
        arr = np.asarray(t, dtype=float)
        lo, hi = self.t_lo, self.t_hi
        if arr.size and not (lo <= arr.min() and arr.max() <= hi):
            slop = 1e-9 * (1.0 + hi - lo)
            if np.any(arr < lo - slop) or np.any(arr > hi + slop):
                raise ValueError(f"t outside [{lo}, {hi}]")
            arr = clamp(arr, lo, hi)
        return arr

    # -- constructors-on-top -------------------------------------------------

    def restrict(self, lo, hi) -> "SmoothCurve":
        """The curve on [lo, hi], keeping only the stored nodes inside and
        sharing this curve's info."""
        slop = 1e-9 * (1.0 + self.t_hi - self.t_lo)
        if lo < self.t_lo - slop or hi > self.t_hi + slop:
            raise ValueError("restriction exceeds domain")
        lo, hi = max(lo, self.t_lo), min(hi, self.t_hi)
        nodes = self.nodes
        if nodes is not None:
            ts, cols = nodes
            keep = (ts >= lo) & (ts <= hi)
            nodes = (ts[keep], [c[keep] for c in cols])
        return SmoothCurve(lo, hi, self._at, nodes, self.info)

    def with_info(self, **entries) -> "SmoothCurve":
        """This curve, its orders and nodes shared, with ``entries`` added
        to its info."""
        return SmoothCurve(self.t_lo, self.t_hi, self._at, self.nodes,
                           {**self.info, **entries})

    def _mapped(self, lo, hi, arg, scaled, info=None) -> "SmoothCurve":
        """The curve on [lo, hi] whose order k at t is scaled(k, v, t), v
        this curve's order k at arg(t), all orders from one call."""
        at = self._at
        return SmoothCurve(lo, hi, lambda t, ks: [
            scaled(k, v, t) for k, v in zip(ks, at(arg(t), ks))], info=info)

    def shifted(self, dt) -> "SmoothCurve":
        """Curve s(t) = self(t - dt)."""
        return self._mapped(self.t_lo + dt, self.t_hi + dt,
                            lambda t: t - dt, lambda k, v, t: v)

    def metric_rescale(self, R: float) -> "SmoothCurve":
        """Warp transform under g -> R^2 g: t -> R * self(t / R), sharing
        this curve's info."""
        if R <= 0:
            raise ValueError("R must be positive")
        return self._mapped(self.t_lo * R, self.t_hi * R, lambda t: t / R,
                            lambda k, v, t: R ** (1 - k) * v, self.info)

    def eigen_rescale(self, R: float) -> "SmoothCurve":
        """Principal-curvature transform under g -> R^2 g: t -> self(t/R)/R."""
        if R <= 0:
            raise ValueError("R must be positive")
        return self._mapped(self.t_lo * R, self.t_hi * R, lambda t: t / R,
                            lambda k, v, t: v / R ** (1 + k))

    def plus(self, c: float) -> "SmoothCurve":
        """The curve plus the constant c, added to its order 0."""
        at = self._at
        return SmoothCurve(self.t_lo, self.t_hi, lambda t, ks: [
            v + c if k == 0 else v for k, v in zip(ks, at(t, ks))])

    # -- serialization -------------------------------------------------------

    def node_columns(self, per_unit=None) -> list:
        """Columns t, v0, v1, ...: the stored nodes if any, else the orders
        the curve answers, up to 3, on a grid."""
        if self.nodes is not None:
            ts, cols = self.nodes
            return [ts, *cols]
        ts = grid_points(self.t_lo, self.t_hi, per_unit)
        cols = [ts, self.eval(ts)]
        for k in range(1, 4):
            try:
                cols.append(self.eval(ts, k))
            except ValueError as exc:
                if "not available" not in str(exc):
                    raise
                break               # m table columns answer orders < m
        return cols

    def node_table(self, per_unit=None) -> np.ndarray:
        """node_columns stacked as a 2-D table, one row per node."""
        return np.column_stack(self.node_columns(per_unit))

    def write_csv(self, path, per_unit=None) -> None:
        cols = self.node_columns(per_unit)
        write_csv(path, ",".join(["t"] + [f"v{k}" for k in
                                          range(len(cols) - 1)]), cols)


_BINOMIAL = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1))


def _leibniz(a, b, k: int, m: int):
    """The terms j < m of Leibniz's rule, sum C(k, j) a_j b_(k-j)."""
    out = a[0] * b[k]                   # a new object, so += is safe
    for j in range(1, m):
        term = a[j] * b[k - j]
        out += term if j == k else _BINOMIAL[k][j] * term
    return out


class Jet:
    """Orders 0..n (n <= 3) of a function of one parameter, each an array
    or a float, with truncated Taylor arithmetic on derivatives (Griewank
    & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  A result has
    as many orders as its shortest Jet operand.  Builders write their
    derivative columns and product rules as Jet arithmetic, never by
    hand."""

    __slots__ = ("orders",)
    __array_ufunc__ = None          # numpy operands defer to the Jet's ops

    def __init__(self, *orders):
        if len(orders) > 4:
            raise ValueError("a Jet holds orders 0..n with n <= 3")
        self.orders = orders

    @classmethod
    def variable(cls, t, n: int = 3) -> "Jet":
        """The parameter itself at the points t, to order n."""
        return cls(np.asarray(t, dtype=float), 1.0, 0.0, 0.0)[:n + 1]

    def __len__(self):
        return len(self.orders)

    def __iter__(self):
        return iter(self.orders)

    def __getitem__(self, k):
        got = self.orders[k]
        return Jet(*got) if isinstance(k, slice) else got

    def d(self) -> "Jet":
        """The derivative: orders 1..n."""
        return Jet(*self.orders[1:])

    def __add__(self, other):
        a = self.orders
        if isinstance(other, Jet):
            return Jet(*(x + y for x, y in zip(a, other.orders)))
        return Jet(a[0] + other, *a[1:])

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a = self.orders
        if not isinstance(other, Jet):
            return Jet(*(x * other for x in a))
        b = other.orders
        return Jet(*(_leibniz(a, b, k, k + 1)
                     for k in range(min(len(a), len(b)))))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a = self.orders
        if not isinstance(other, Jet):
            return Jet(*(x / other for x in a))
        b = other.orders
        q = [a[0] / b[0]]               # Leibniz's rule solved for q_k
        for k in range(1, min(len(a), len(b))):
            q.append((a[k] - _leibniz(q, b, k, k)) / b[0])
        return Jet(*q)

    def __rtruediv__(self, other):
        return Jet(other, 0.0, 0.0, 0.0)[:len(self)] / self

    def chain(self, g) -> "Jet":
        """g(self) from g's orders at self[0], at least as many as self
        has: Faa di Bruno's formula to order 3."""
        u, out = self.orders, [g[0]]
        if len(u) > 1:
            out.append(g[1] * u[1])
        if len(u) > 2:
            u11 = u[1] * u[1]
            out.append(g[2] * u11 + g[1] * u[2])
        if len(u) > 3:
            out.append(g[3] * (u11 * u[1]) + 3.0 * (g[2] * (u[1] * u[2]))
                       + g[1] * u[3])
        return Jet(*out)

    def sin(self) -> "Jet":
        x = self.orders[0]
        if len(self) == 1:              # order 0 alone needs no cos
            return Jet(np.sin(x))
        s, c = np.sin(x), np.cos(x)
        return self.chain((s, c, -s, -c))

    def cos(self) -> "Jet":
        x = self.orders[0]
        if len(self) == 1:              # order 0 alone needs no sin
            return Jet(np.cos(x))
        s, c = np.sin(x), np.cos(x)
        return self.chain((c, -s, -c, s))

    def sqrt(self) -> "Jet":
        u = self.orders[0]
        g = [np.sqrt(u)]
        for k in range(1, len(self)):   # g_k = (3/2 - k) g_(k-1) / u
            g.append((1.5 - k) * g[-1] / u)
        return self.chain(g)

    def reparam(self, r: "Jet") -> "Jet":
        """The orders with respect to r, a Jet in the current parameter
        with r' != 0 such as arc length: each is the last one's ``d()``
        over ``r.d()``."""
        out, q, dr = [self.orders[0]], self, r.d()
        while len(q) > 1:
            q = q.d() / dr
            out.append(q.orders[0])
        return Jet(*out)


def jet_curve(domain, fn) -> SmoothCurve:
    """The curve whose orders 0..n at t are the Jet ``fn(t, n)``."""
    def orders(t, ks):
        jet = fn(t, ks[-1])
        return [jet[k] for k in ks]

    return SmoothCurve(domain[0], domain[1], orders)


# ---------------------------------------------------------------------------
# Closed-form factories.
# ---------------------------------------------------------------------------

def curve_from_derivs(domain, d0, d1, d2, d3, info=None) -> SmoothCurve:
    """The curve whose order k at t is ``dk(t)``, one callable per order."""
    derivs = (d0, d1, d2, d3)
    return SmoothCurve(domain[0], domain[1],
                       lambda t, ks: [derivs[k](t) for k in ks], info=info)


def _zeros(t):
    return np.zeros_like(np.asarray(t, float))


def constant_curve(value, domain) -> SmoothCurve:
    v = float(value)
    return curve_from_derivs(
        domain, lambda t: np.full_like(np.asarray(t, float), v),
        _zeros, _zeros, _zeros)


@dataclass(frozen=True)
class _LineOrders:
    """The orders function of the line intercept + slope t, which says
    what it is, as ``_TableOrders`` does: ``smooth_join`` knows that two
    lines' orders 2 and 3 are zero without evaluating them."""

    intercept: float
    slope: float

    def __call__(self, t, ks) -> list:
        t = np.asarray(t, float)
        return [self.intercept + self.slope * t if k == 0 else
                np.full_like(t, self.slope) if k == 1 else np.zeros_like(t)
                for k in ks]


def line_curve(intercept, slope, domain) -> SmoothCurve:
    return SmoothCurve(domain[0], domain[1],
                       _LineOrders(float(intercept), float(slope)))


def sine_curve(amplitude, rate, phase, domain) -> SmoothCurve:
    """A sin(w t + phi); a call evaluates sin only for even orders and cos
    only for odd ones, each once."""
    A, w, phi = float(amplitude), float(rate), float(phase)
    coef = (A, A * w, -A * w * w, -A * w ** 3)

    def orders(t, ks):
        x = w * np.asarray(t, float) + phi
        sin = np.sin(x) if any(k % 2 == 0 for k in ks) else None
        cos = np.cos(x) if any(k % 2 for k in ks) else None
        return [coef[k] * (cos if k % 2 else sin) for k in ks]

    return SmoothCurve(domain[0], domain[1], orders)


def cosine_curve(amplitude, rate, phase, domain) -> SmoothCurve:
    return sine_curve(amplitude, rate, phase + np.pi / 2.0, domain)


def poly_curve(coeffs, domain) -> SmoothCurve:
    """Polynomial sum c_j t^j with coefficients in increasing degree."""
    c = np.asarray(coeffs, dtype=float)
    ders = [c]
    for _ in range(3):
        prev = ders[-1]
        ders.append(prev[1:] * np.arange(1, len(prev)) if len(prev) > 1
                    else np.zeros(1))

    return curve_from_derivs(domain, *[
        lambda t, ck=d[::-1]: np.polyval(ck, np.asarray(t, float))
        for d in ders])


def sin_of(inner: SmoothCurve) -> SmoothCurve:
    """sin(inner(t)), its orders from the inner curve's (``Jet.sin``)."""
    return jet_curve(inner.domain, lambda t, n: inner.jet(t, n).sin())


def linear_combo(terms) -> SmoothCurve:
    """Sum of weighted curves on the intersection of their domains; when
    every term is a table curve on one node array, the orders function is
    one ``_TableOrders`` over all their tables."""
    lo = max(c.t_lo for c, _ in terms)
    hi = min(c.t_hi for c, _ in terms)

    parts, weights = [c._at for c, _ in terms], [w for _, w in terms]
    if all(isinstance(p, _TableOrders) and p.weights is None
           and _same_nodes(p.ts, parts[0].ts) for p in parts):
        orders = _TableOrders(parts[0].ts, [p.tables[0] for p in parts],
                              weights)
    else:
        def orders(t, ks):
            return _weighted_sum([p(t, ks) for p in parts], weights)

    return SmoothCurve(lo, hi, orders)


def _weighted_sum(outs, weights) -> list:
    """Each order's sum of w * out over the terms' orders ``outs``, summed
    from 0, so -0.0 becomes +0.0."""
    return [sum(w * out[i] for out, w in zip(outs, weights))
            for i in range(len(outs[0]))]


@dataclass(frozen=True, eq=False)
class _TableOrders:
    """The orders function of a table curve (``weights`` None), or of the
    weighted sum of table curves on the node array ``ts``, summed as
    ``linear_combo`` sums its terms."""

    ts: np.ndarray
    tables: list
    weights: list | None = None

    def __call__(self, t, ks) -> list:
        return self.combine(self.orders(t, ks))

    def orders(self, t, ks) -> list:
        """Orders ks (ascending) of each table of m columns at t: those
        below m-1 from one ``hermite_jet`` call, one segment lookup for
        every table, on each table's columns from the lowest order asked
        for to one past the highest; order m-1 from np.interp."""
        k0, top = ks[0], ks[-1]
        widths = [len(cols) for cols in self.tables]
        if top >= min(widths):
            raise ValueError(f"derivative order {top} not available: the "
                             f"table holds columns v0..v{min(widths) - 1}")
        jets = (hermite_jet(self.ts, [cols[k0:top + 2]
                                      for cols in self.tables], t)
                if k0 < max(widths) - 1 else [()] * len(widths))
        return [[j[k - k0] if k < len(cols) - 1
                 else np.interp(t, self.ts, cols[k])
                 for k in ks] for j, cols in zip(jets, self.tables)]

    def combine(self, per_table) -> list:
        """The curve's orders from the orders of its tables."""
        if self.weights is None:
            return per_table[0]
        return _weighted_sum(per_table, self.weights)


def _same_nodes(a, b) -> bool:
    """Whether two tables' node arrays are one: the same object, or views
    of one array with one layout, as ``table_curve`` keeps of an array it
    is given twice."""
    return a is b or (a.base is not None and a.base is b.base
                      and a.__array_interface__ == b.__array_interface__)


def joint_jet(curves, t, n: int = 2) -> list:
    """[c.jet(t, n) for c in curves] bit for bit, as tuples of orders 0..n
    (0 <= n <= 3, else ValueError).  Table curves on one node array
    (``_same_nodes``), and linear combinations and restrictions of them
    (the transfer block's two warps), sharing one domain, get one domain
    check and one segment lookup and Hermite basis for all their tables;
    other curves each get one call of their orders function."""
    check_order(n)
    ks = tuple(range(n + 1))
    head, parts = curves[0], [c._at for c in curves]
    if all(isinstance(p, _TableOrders) and _same_nodes(p.ts, head._at.ts)
           and c.domain == head.domain for c, p in zip(curves, parts)):
        arr = head._in_domain(t)
        shared = iter(_TableOrders(head._at.ts, [
            cols for p in parts for cols in p.tables]).orders(arr, ks))
        outs = [p.combine([next(shared) for _ in p.tables]) for p in parts]
    else:
        outs = [c._at(c._in_domain(t), ks) for c in curves]
    if np.ndim(t) == 0:
        return [tuple(float(v) for v in out) for out in outs]
    return [tuple(np.asarray(v, dtype=float) for v in out) for out in outs]


def table_curve(ts, cols, info=None) -> SmoothCurve:
    """Curve backed by node columns v0..v(m-1) of orders 0..m-1, which it
    answers (a higher order raises ValueError): Hermite between nodes
    below the top order, np.interp at it.  The curve keeps read-only
    views of ts and the columns, so a curve a cache shares cannot be
    changed through its table."""
    ts = read_only(ts)
    cols = [read_only(c) for c in cols]

    return SmoothCurve(ts[0], ts[-1], _TableOrders(ts, [cols]), (ts, cols),
                       info)


def antiderivative_curve(domain, n: int, integrand) -> SmoothCurve:
    """The antiderivative, zero at the domain's start, of a curve given by
    ``integrand(t, orders)``, which returns its derivatives of the listed
    orders (0-2) at t.  Values come from a cumulative Hermite table on n
    uniform nodes, interpolated with the integrand as node slopes; the
    integrand's orders 0 and 1 at the nodes come from one call, as the
    curve's orders 1..n in its jet do.  Orders 1-3 of the curve are the
    integrand's orders 0-2, all those asked for in one call.  The nodes,
    values and slopes, the curve's orders 0-1 at the nodes, are its
    read-only ``nodes``, as a table curve keeps its columns."""
    ts = read_only(np.linspace(domain[0], domain[1], n))
    slopes, curv = integrand(ts, (0, 1))
    vals = read_only(cumulative_hermite(ts, slopes, curv))
    slopes = read_only(slopes)

    def orders(t, ks):
        lower = tuple(k - 1 for k in ks if k)
        high = iter(integrand(t, lower) if lower else ())
        return [hermite_interp(ts, vals, slopes, t) if k == 0 else next(high)
                for k in ks]

    return SmoothCurve(domain[0], domain[1], orders, (ts, [vals, slopes]))


def piecewise_curve(segments) -> SmoothCurve:
    """Contiguous segments [(lo, hi, curve), ...] glued by evaluation: each
    point's segment is looked up once, and that segment's orders function
    answers every order asked for there."""
    segments = sorted(segments, key=lambda s: s[0])
    for (l1, h1, _), (l2, _, _) in zip(segments, segments[1:]):
        if abs(h1 - l2) > 1e-9 * (1 + abs(h1)):
            raise ValueError("segments are not contiguous")
    curves = [s[2] for s in segments]
    t_lo, t_hi = segments[0][0], segments[-1][1]
    breaks = np.array([s[0] for s in segments] + [t_hi])

    def glued(t, ks):
        # The points are clamped into each segment's domain, so the
        # segment's orders function runs directly, without eval's check.
        t = np.asarray(t, dtype=float)
        idx = segment_index(breaks, t)
        outs = [np.empty_like(t) for _ in ks]
        for i, c in enumerate(curves):
            m = idx == i
            if np.count_nonzero(m):
                for out, v in zip(outs, c._at(clamp(t[m], c.t_lo, c.t_hi),
                                              ks)):
                    out[m] = v
        return outs

    return SmoothCurve(t_lo, t_hi, glued)


def even_extension(right_half: SmoothCurve) -> SmoothCurve:
    """Even reflection of a curve on [0, b] to [-b, b]."""
    if abs(right_half.t_lo) > 1e-12:
        raise ValueError("even extension needs domain starting at 0")
    return right_half._mapped(
        -right_half.t_hi, right_half.t_hi, np.abs,
        lambda k, v, t: np.where(t >= 0, v, (-1.0) ** k * v))


# ---------------------------------------------------------------------------
# Concave stretching profile with pinned slopes.
# ---------------------------------------------------------------------------

def make_concave_profile(lambda1: float, lambda2: float, delta: float,
                         t_max: float = 20.0) -> SmoothCurve:
    """Concave f on [-delta, t_max] with f(0)=1, f'(0)=lambda2, f''<0,
    f' > lambda1 and f'/f > lambda1/(1 + lambda1 t).

    f(t) = (lambda2 - m) (1 - e^{-t}) + m t + 1 where m is the midpoint of
    the interval (lambda1 (1+lambda2)/(1+lambda1), lambda2), whatever the
    delta >= 0.  Raises if f'(-delta) >= 1.
    """
    if not 0.0 < lambda1 < lambda2 < 1.0:
        raise ValueError("need 0 < lambda1 < lambda2 < 1")
    if not (delta >= 0 and t_max > 0):
        raise ValueError("need delta >= 0 and t_max > 0")
    lower = lambda1 * (1.0 + lambda2) / (1.0 + lambda1)
    assert lower < lambda2, "interval for the intermediate slope is empty"
    m = 0.5 * (lower + lambda2)
    if not lower < m < lambda2:
        raise ValueError(
            f"the intermediate slope interval ({lower}, {lambda2}) has no "
            f"interior midpoint")
    A = lambda2 - m

    def orders(t, ks):                  # every order shares one e^-t
        t = np.asarray(t, float)
        e = np.exp(-t)
        return [A * (1.0 - e) + m * t + 1.0 if k == 0 else A * e + m
                if k == 1 else (-A if k == 2 else A) * e for k in ks]

    slope_at_inner = A * np.exp(delta) + m
    if slope_at_inner >= 1.0:
        raise ValueError(
            f"delta={delta} too large: slope {slope_at_inner:.6f} >= 1 at "
            f"t=-delta")
    return SmoothCurve(
        -delta, t_max, orders,
        info={"lambda1": lambda1, "lambda2": lambda2, "lambda_mid": m,
              "slope_at_inner": float(slope_at_inner)})


# ---------------------------------------------------------------------------
# Coupled warping ODEs for the curvature-transfer block.
# ---------------------------------------------------------------------------

def integrate_transfer_odes(C: float, t_max: float = 120.0):
    """Tables of g' = e^{-g^2/2} (g(0)=1) and F'' = C e^{-g^2} F (F(0)=1,
    F'(0)=0) on the n + 1 nodes ``linspace(0, t_max, n + 1)``, n the
    smallest power of two >= 128 t_max (16384 at the default), from the
    system's exact solution in the variable g.

    In g, t(g) = int_1^g e^{s^2/2} ds, and F solves F_gg - g F_g - C F = 0
    with F = 1, F_g = 0 at g = 1: Kummer's equation in z = g^2/2 (DLMF
    13.2).  Each of t, F and F_g solves y_gg - g y_g - c y = 0 (t at c = 0
    from (0, 1), times e^{1/2}; F at c = C from (1, 0); F_g, differentiated,
    at c = C + 1 from (0, C)), so in x = g - 1 their Taylor coefficients
    obey y_{m+2} = ((m+1) y_{m+1} + (m+c) y_m) / ((m+1)(m+2)) (the t
    coefficients are e^{1/2} e_m/(m+1), e_m those of e^{x + x^2/2}).  For
    c >= 0 every coefficient is >= 0, so no sum cancels (``_taylor_terms``
    states the truncation bound: below 2^-53 relative at every node).

    g at each node is the root of t(g) = t_k, by Newton from an upper
    bound; t is increasing and convex in g, so the iterates fall
    monotonically, and each stops at the first step that does not lower
    it, which float64 reaches after a few steps.  The inversion reads no C.
    F and F_g come from their series, F' = F_g e^{-g^2/2}, and the higher
    derivative columns from the right-hand side, never from differencing.

    Returns (g, F) as node-backed SmoothCurves.  Lemmas, from the
    formulas and the non-negative coefficients: g' > 0 and
    g'' = -g e^{-g^2} < 0; F' >= 0, and for C > 0, F' > 0 on (0, t_max] and
    F'' = C e^{-g^2} F > 0.  The ratio F'/(F g g') lies in [0, 1] only for
    small C; ``blocks.build_transfer_block`` checks it on its window.  A
    partial sum of F or F_g at the last node that is not finite raises
    OverflowError naming C (F grows about like e^{sqrt(C) (g - 1)}; from C
    of about 8.3e4 on at the default t_max).
    """
    if C < 0:
        raise ValueError("C must be >= 0")
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    n = 1
    while n < 128 * t_max:
        n *= 2
    ts = read_only(np.linspace(0.0, t_max, n + 1))  # one array, both tables
    root_e = math.exp(0.5)
    # Upper bounds of the root: t(g) >= (g - 1) e^{1/2}, and t(g) >=
    # (e^{g^2/2} - e^{1/2}) / g, so sqrt(2 ln(t G + e^{1/2})) bounds it
    # from above for any upper bound G.
    g = 1.0 + ts / root_e
    for _ in range(3):
        g = np.minimum(g, np.sqrt(2.0 * np.log(ts * g + root_e)))
    x = g - 1.0
    x_hi = float(x[-1])
    t_terms = _taylor_terms(0.0, 1.0, 0.0, x_hi)
    todo = np.arange(n + 1)
    while todo.size:
        xs = x[todo]
        lower = xs - ((root_e * np.polyval(t_terms, xs / x_hi) - ts[todo])
                      * np.exp(-0.5 * (1.0 + xs) ** 2))
        moved = lower < xs
        todo = todo[moved]
        x[todo] = lower[moved]
    x_max = float(x[-1])
    u = x / x_max
    try:
        fc = np.polyval(_taylor_terms(1.0, 0.0, C, x_max), u)
        fg = np.polyval(_taylor_terms(0.0, C, C + 1.0, x_max), u)
    except OverflowError as err:
        raise OverflowError(
            f"the transfer ODE at C={C!r} left the float range: a partial "
            f"sum of its series at g = {1.0 + x_max!r} is not finite") from err

    g = 1.0 + x
    e_half = np.exp(-0.5 * g * g)
    e_full = np.exp(-g * g)
    fcp = fg * e_half
    g2 = -g * e_full
    g3 = e_half * e_full * (2.0 * g * g - 1.0)
    fc2 = C * e_full * fc
    fc3 = C * e_full * (fcp - 2.0 * g * e_half * fc)
    return (table_curve(ts, (g, e_half, g2, g3), info={"C": C, "role": "h0"}),
            table_curve(ts, (fc, fcp, fc2, fc3), info={"C": C, "role": "fC"}))


def _taylor_terms(y0: float, y1: float, c: float, X: float):
    """The terms A_j = y_j X^j of the solution of y'' - (1 + x) y' - c y = 0
    with y(0) = y0 >= 0, y'(0) = y1 >= 0 and c >= 0, as a polynomial in
    u = x / X, highest j first as ``np.polyval`` takes them:
    A_{m+2} = a_m A_{m+1} + b_m A_m with a_m = X/(m+2) and
    b_m = X^2 (m+c)/((m+1)(m+2)), every term >= 0.

    Truncation bound: q_m = a_m + b_m falls with m from m = 2 on.  Once
    q_m <= 1/2, A_{k+2} <= max(A_k, A_{k+1}) / 2 for every k >= m, so the
    terms from A_m on sum to at most 4 max(A_m, A_{m+1}).  The series
    stops at the first such m where that is at most 2^-53 of the partial
    sum.  At u in [0, 1] the omitted tail is then at most u times that
    fraction of the kept sum, so at most 2^-53 of the value at every x in
    [0, X].  A partial sum that is not finite raises OverflowError."""
    terms = [y0, y1 * X]
    total = terms[0] + terms[1]
    m = 0
    while math.isfinite(total):
        a, b = X / (m + 2), X * X * (m + c) / ((m + 1) * (m + 2))
        terms.append(a * terms[-1] + b * terms[-2])
        total += terms[-1]
        if (m >= 2 and a + b <= 0.5
                and 4.0 * max(terms[-3], terms[-2]) <= 2.0 ** -53 * total):
            return terms[::-1]
        m += 1
    raise OverflowError(f"a partial sum of the series at x = {X!r} is not "
                        "finite")


def transfer_ode_residuals(g_curve: SmoothCurve, fc_curve: SmoothCurve,
                           C: float) -> dict:
    """Defining-equation residuals at the stored nodes, measured with
    fourth-order differences of adjacent node values (independent of the
    right-hand-side evaluations that answer derivative queries)."""
    ts, gc = g_curve.nodes
    _, fcc = fc_curve.nodes
    h = ts[1] - ts[0]
    g, fc, fcp = gc[0], fcc[0], fcc[1]
    dg = fd_first_derivative(g, h)
    dfc = fd_first_derivative(fc, h)
    dfcp = fd_first_derivative(fcp, h)
    r1 = np.max(np.abs(dg - np.exp(-0.5 * g * g)))
    r2 = np.max(np.abs(dfc - fcp))
    r3 = np.max(np.abs(dfcp - C * np.exp(-g * g) * fc))
    return {"h0_ode": float(r1), "fC_first_order": float(r2),
            "fC_ode": float(r3)}


# ---------------------------------------------------------------------------
# Second-derivative surgery on a window, and smooth joins built on it.
# ---------------------------------------------------------------------------

class SurgeryWindow:
    """The part of a second-derivative surgery that depends on the window's
    shape alone, so one window serves every curve edited on that shape.

    ``u`` holds strictly increasing node offsets from the window start
    (u[0] = 0, uniform or not).  ``corrections(u, orders)`` returns, for
    each compactly supported correction g_j, its derivatives of the listed
    orders (0 and 1) as a function of the offset u.  Built with the window
    and kept: the corrections' orders 0 and 1 at the nodes (``columns``,
    from one call, so work shared between orders and corrections, such as
    a plateau's ramp lookups, is done once) and their integrals over the
    window (``mass_row``); built on first use, by two-target surgeries
    only, their moments about its end (``moment_row``).  Every array the
    window holds is read-only."""

    def __init__(self, u, corrections):
        self.u = read_only(u)
        self.corrections = corrections
        self.columns = tuple(tuple(read_only(v) for v in g)
                             for g in corrections(self.u, (0, 1)))
        self.mass_row = read_only([window_mass(self.u, *g)
                                    for g in self.columns])

    @functools.cached_property
    def moment_row(self) -> np.ndarray:
        return read_only([window_moment(self.u, *g) for g in self.columns])


def window_mass(u, y, dy):
    """The integral of y over the nodes u, from y and y' at the nodes."""
    return cumulative_hermite(u, y, dy)[-1]


def window_moment(u, y, dy):
    """The integral of (u[-1] - u) y(u) over the nodes u, from y and y' at
    the nodes: the moment about the window's end."""
    lever = u[-1] - u
    return cumulative_hermite(u, lever * y, -y + lever * dy)[-1]


def second_derivative_surgery(a: float, window: SurgeryWindow, base, start,
                              slope_end: float,
                              value_end: float | None = None):
    """Curve on [a, a + u[-1]] (u the window's nodes) whose second
    derivative is an edited base plus the window's compactly supported
    corrections, integrated twice from ``start``.

    ``base(t, orders)`` returns the edited base's second and third
    derivatives, those of the listed orders (2, 3), at any t; at the nodes
    it is called once, for both orders, as in the window curve's jet.  The
    coefficients c_j in f'' = base'' + sum_j c_j g_j solve f'(end) =
    slope_end and, when ``value_end`` is given, also f(end) = value_end,
    with (f(a), f'(a)) = ``start``; the number of corrections must match
    the number of targets.  The corrections' columns and their mass and
    moment rows come from the window; the base's, the solve and the two
    integrations are done per call.

    Returns the blended window curve and the coefficient array.  Values
    and slopes come from Hermite tables on the nodes (kept as the curve's
    ``nodes``, read-only); the second and third derivatives are evaluated
    exactly.
    """
    u = window.u
    ts = a + u
    b2, b3 = base(ts, (2, 3))

    y0, y1 = start
    rows = [window.mass_row]
    need = [slope_end - y1 - window_mass(u, b2, b3)]
    if value_end is not None:
        rows.append(window.moment_row)
        need.append(value_end - y0 - y1 * u[-1] - window_moment(u, b2, b3))
    coef = np.linalg.solve(np.array(rows), np.array(need))

    out2, out3 = b2, b3
    for c, (g0, g1) in zip(coef, window.columns):
        out2 = out2 + c * g0
        out3 = out3 + c * g1
    out1 = cumulative_hermite(u, out2, out3, y1)
    out0 = cumulative_hermite(u, out1, out2, y0)
    ts, out0, out1, out2, out3 = map(read_only, (ts, out0, out1, out2, out3))

    def edited(t, orders):
        du = np.asarray(t, float) - a
        outs = base(t, orders)
        gs = window.corrections(du, tuple(k - 2 for k in orders))
        for c, g in zip(coef, gs):
            outs = [out + c * gk for out, gk in zip(outs, g)]
        return outs

    low = _TableOrders(ts, [(out0, out1, out2)])

    def orders(t, ks):                  # ks ascending: orders < 2 first
        n = sum(k < 2 for k in ks)
        return [*(low(t, ks[:n]) if n else ()),
                *(edited(t, ks[n:]) if n < len(ks) else ())]

    curve = SmoothCurve(a, a + u[-1], orders,
                        (ts, (out0, out1, out2, out3)))
    return curve, coef


@per_key(maxsize=32)
def _join_window(w: float) -> SurgeryWindow:
    """smooth_join's window of width w on 2049 uniform nodes: a plateau
    over the window, and an antisymmetric pair of plateaus on its halves
    (zero net mass, order-one moment).  Built once per width."""
    plates = unit_plateaus([(0.0, w), (0.0, 0.45 * w), (0.55 * w, 0.45 * w)])

    def corrections(u, orders):
        whole, lower, upper = plates(u, orders)
        return [whole, [lo - hi for lo, hi in zip(lower, upper)]]

    return SurgeryWindow(np.linspace(0.0, w, 2049), corrections)


def smooth_join(left: SmoothCurve, right: SmoothCurve, window,
                second_derivative_band, band_tol: float = 1e-2) -> SmoothCurve:
    """Blend two curves into one that equals ``left`` before the window and
    ``right`` after it.

    The blended second derivative is the step-weighted combination of the
    two inputs plus two compactly supported corrections (a plateau over the
    window and an antisymmetric pair of plateaus on its halves) solving the
    slope and value matching conditions at the window end.  Two lines
    (``line_curve``) skip the blend: their orders 2 and 3 are zero, so the
    combination is exactly +0.0 at every point of the window, and the join
    takes zeros for it.  The corrections' window depends on the width
    alone, so it is built once per width (``_join_window``).  If the result
    leaves ``second_derivative_band`` widened by ``band_tol``, JoinBandError
    is raised with the measured overshoot.  When neither curve reaches
    outside the window, the result is the window curve itself, not a
    piecewise curve of one segment; its domain is [a, a + (b - a)].
    ``info["window"]`` is the window (a, b), also when the two curves agree
    on it and the join is the identity, which is ``left`` restricted to
    [left.t_lo, b] when ``right`` ends at b.
    """
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise ValueError("empty join window")
    if a < left.t_lo - 1e-12 or b > left.t_hi + 1e-12:
        raise ValueError("left curve does not cover the window")
    if a < right.t_lo - 1e-12 or b > right.t_hi + 1e-12:
        raise ValueError("right curve does not cover the window")
    w = b - a
    band_lo, band_hi = float(second_derivative_band[0]), \
        float(second_derivative_band[1])

    probe = np.linspace(a, b, 65)
    lj, rj = left.jet(probe), right.jet(probe)
    scale = 1.0 + max(np.max(np.abs(lj[0])), np.max(np.abs(rj[0])))
    if all(np.max(np.abs(lk - rk)) <= 1e-12 * scale
           for lk, rk in zip(lj, rj)):
        out = (piecewise_curve([(left.t_lo, b, left), (b, right.t_hi, right)])
               if right.t_hi > b else left.restrict(left.t_lo, b))
        return out.with_info(identity=True, c1=0.0, c2=0.0,
                             band_overshoot=0.0, window=(a, b))

    if isinstance(left._at, _LineOrders) and isinstance(right._at,
                                                         _LineOrders):
        def base(t, orders):            # the blend of two lines: +0.0
            return [np.zeros_like(np.asarray(t, float)) for _ in orders]
    else:
        def base(t, orders):            # the step-weighted blend
            x = (np.asarray(t, float) - a) / w
            W = smooth_step(x)
            V = 1.0 - W
            l2, r2 = left.eval(t, 2), right.eval(t, 2)
            return [V * l2 + W * r2 if k == 2 else
                    V * left.eval(t, 3) + W * right.eval(t, 3)
                    + smooth_step(x, 1) / w * (r2 - l2) for k in orders]

    mid, (c1, c2) = second_derivative_surgery(
        a, _join_window(w), base, (left.eval(a, 0), left.eval(a, 1)),
        right.eval(b, 1), right.eval(b, 0))

    f2 = mid.nodes[1][2]
    overshoot = max(0.0, float(np.max(f2) - band_hi),
                    float(band_lo - np.min(f2)))
    if overshoot > band_tol:
        raise JoinBandError(overshoot, (band_lo, band_hi))

    segs = []
    if left.t_lo < a:
        segs.append((left.t_lo, a, left))
    segs.append((a, b, mid))
    if right.t_hi > b:
        segs.append((b, right.t_hi, right))
    out = piecewise_curve(segs) if len(segs) > 1 else mid
    return out.with_info(identity=False, c1=float(c1), c2=float(c2),
                         band_overshoot=overshoot, window=(a, b))


# ---------------------------------------------------------------------------
# Parity and flatness measurements at interval ends.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityReport:
    endpoint: float
    parity: str                    # "odd" | "even"
    order_checked: int
    max_violation: float           # dimensionless
    first_derivative_value: float
    first_derivative_target: float | None = None


def parity_margin(curve: SmoothCurve, endpoint: float, parity: str,
                  first_derivative_target: float | None = None,
                  fit_width: float | None = None) -> ParityReport:
    """Measure how far the curve is from being odd/even at an interval end.

    A one-sided degree-5 least-squares Taylor fit on 17 equispaced points
    over ``fit_width`` estimates the scaled coefficients; the violation is
    the largest offending coefficient (even orders for "odd", odd orders
    for "even") relative to the largest coefficient overall.
    """
    if parity not in ("odd", "even"):
        raise ValueError(parity)
    lo, hi = curve.domain
    slop = 1e-9 * (1 + hi - lo)
    if abs(endpoint - lo) <= slop:
        direction = 1.0
    elif abs(endpoint - hi) <= slop:
        direction = -1.0
    else:
        raise ValueError("endpoint must be an end of the curve domain")
    L = hi - lo
    W = fit_width if fit_width is not None else min(0.05, 0.25 * L)
    offs = direction * W * np.arange(0, 17) / 16
    xs = offs / W                                # in [-1, 0] or [0, 1]
    vals = curve.eval(endpoint + offs, 0)
    V = np.vander(xs, 6, increasing=True)
    coef, *_ = np.linalg.lstsq(V, vals, rcond=None)
    scaled = coef[:4]                            # orders 0..3, scaled by W^k
    denom = max(float(np.max(np.abs(scaled))), 1e-300)
    bad = (0, 2) if parity == "odd" else (1, 3)
    violation = max(abs(float(scaled[k])) for k in bad) / denom
    d1 = float(coef[1]) / W
    return ParityReport(endpoint=float(endpoint), parity=parity,
                        order_checked=3, max_violation=float(violation),
                        first_derivative_value=d1,
                        first_derivative_target=first_derivative_target)


def flatness_margin(curve: SmoothCurve, endpoint: float) -> float:
    """max_k |curve^{(k)}(endpoint)| over k = 1..3."""
    return max(abs(curve.eval(endpoint, k)) for k in (1, 2, 3))
