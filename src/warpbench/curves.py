"""Scalar warping functions on an interval, with derivatives through order 3.

A SmoothCurve is the common currency of the whole workbench: every warp
profile (closed-form, ODE-defined or blended) is one.  Consumers read a
single order with ``curve.eval(t, k)``, and orders 0-2 on one grid with
``curve.jet(t)`` or, for several curves at once, ``joint_jet``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import (check_order, clamp, cumulative_hermite,
                    fd_first_derivative, grid_points, hermite_interp,
                    hermite_jet, smooth_step, unit_plateau, write_csv)

__all__ = [
    "SmoothCurve", "ParityReport", "IntegratorError", "JoinBandError",
    "curve_from_derivs", "constant_curve", "line_curve", "sine_curve",
    "cosine_curve", "poly_curve", "table_curve", "antiderivative_curve",
    "piecewise_curve", "linear_combo", "joint_jet", "sin_of",
    "even_extension", "make_concave_profile", "integrate_transfer_odes",
    "transfer_ode_residuals", "smooth_join", "parity_margin",
    "flatness_margin",
]


class IntegratorError(RuntimeError):
    """A property that holds identically for exact solutions failed
    on the node grid, signalling an integrator defect, or a stated
    tolerance was not met within the step cap.  Handled by: the CLI, which
    reports an internal error and exits 3; a scan does not catch it."""


class JoinBandError(RuntimeError):
    """The second derivative of a smooth join leaves its prescribed band
    by more than the tolerance.  Handled by: ``blocks.build_cone_metric``,
    which re-raises it as BuildError naming the junction."""

    def __init__(self, overshoot: float, band):
        self.overshoot = overshoot
        self.band = band
        super().__init__(
            f"second derivative leaves band {band} by {overshoot:.3e}")


class SmoothCurve:
    """Scalar function on [t_lo, t_hi] with evaluable derivatives k <= 3."""

    __slots__ = ("t_lo", "t_hi", "_derivs", "_jet", "nodes", "info")

    def __init__(self, t_lo, t_hi, derivs, nodes=None, info=None, jet=None):
        if not (np.isfinite(t_lo) and np.isfinite(t_hi) and t_lo < t_hi):
            raise ValueError(f"bad domain [{t_lo}, {t_hi}]")
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        self._derivs = tuple(derivs)
        self._jet = jet             # optional t -> orders 0..2 in one call
        self.nodes = nodes          # optional (ts, 4-column values) table
        self.info = dict(info) if info else {}

    @property
    def domain(self):
        return (self.t_lo, self.t_hi)

    def eval(self, t, k: int = 0):
        """The k-th derivative at t (a float for 0-d t, else an array).

        Points within the slop 1e-9 (1 + t_hi - t_lo) outside the domain
        are clamped to its ends; a point beyond it raises ValueError.  NaN
        passes through to the derivative callables."""
        check_order(k)
        arr = self._in_domain(t)
        out = self._derivs[k](arr)
        if arr.ndim == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    __call__ = eval

    def jet(self, t) -> tuple:
        """(eval(t, 0), eval(t, 1), eval(t, 2)), bit for bit, with the
        domain checked once.  Curves built with a jet share work between
        the three orders: a table curve, and a linear combination or
        restriction of table curves on one node array, takes all three
        orders of every table from one shared segment lookup and Hermite
        basis (``_util.hermite_jet``); ``sin_of`` evaluates its inner
        curve's jet once; a ``piecewise_curve`` looks each point's piece
        up once and takes that piece's jet; a ``second_derivative_surgery``
        window takes orders 0 and 1 from one Hermite lookup.  Other curves
        evaluate each order.  ``joint_jet`` shares the basis between
        several such curves."""
        return joint_jet((self,), t)[0]

    def _orders(self, arr) -> tuple:
        """Orders 0..2 at points already checked by ``_in_domain``."""
        if self._jet is None:
            return tuple(d(arr) for d in self._derivs[:3])
        return self._jet(arr)

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
        """The curve on [lo, hi], keeping only the stored nodes inside."""
        slop = 1e-9 * (1.0 + self.t_hi - self.t_lo)
        if lo < self.t_lo - slop or hi > self.t_hi + slop:
            raise ValueError("restriction exceeds domain")
        lo, hi = max(lo, self.t_lo), min(hi, self.t_hi)
        nodes = self.nodes
        if nodes is not None:
            ts, cols = nodes
            keep = (ts >= lo) & (ts <= hi)
            nodes = (ts[keep], [c[keep] for c in cols])
        return SmoothCurve(lo, hi, self._derivs, nodes, self.info, self._jet)

    def shifted(self, dt) -> "SmoothCurve":
        """Curve s(t) = self(t - dt)."""
        d = self._derivs
        derivs = [(lambda k: (lambda t, _k=k: d[_k](t - dt)))(k)
                  for k in range(4)]
        return SmoothCurve(self.t_lo + dt, self.t_hi + dt, derivs)

    def metric_rescale(self, R: float) -> "SmoothCurve":
        """Warp transform under g -> R^2 g: t -> R * self(t / R)."""
        if R <= 0:
            raise ValueError("R must be positive")
        d = self._derivs
        derivs = [(lambda k: (lambda t, _k=k: R ** (1 - _k) * d[_k](t / R)))(k)
                  for k in range(4)]
        return SmoothCurve(self.t_lo * R, self.t_hi * R, derivs)

    def eigen_rescale(self, R: float) -> "SmoothCurve":
        """Principal-curvature transform under g -> R^2 g: t -> self(t/R)/R."""
        if R <= 0:
            raise ValueError("R must be positive")
        d = self._derivs
        derivs = [(lambda k: (lambda t, _k=k: d[_k](t / R) / R ** (1 + _k)))(k)
                  for k in range(4)]
        return SmoothCurve(self.t_lo * R, self.t_hi * R, derivs)

    def plus(self, c: float) -> "SmoothCurve":
        d = self._derivs
        derivs = [lambda t, _d=d[0]: _d(t) + c] + [d[k] for k in (1, 2, 3)]
        return SmoothCurve(self.t_lo, self.t_hi, derivs)

    # -- serialization -------------------------------------------------------

    def node_table(self, per_unit=None) -> np.ndarray:
        """Columns t, v0, v1, v2, v3 (stored nodes if any, else a grid)."""
        if self.nodes is not None:
            ts, cols = self.nodes
            return np.column_stack([ts] + [cols[k] for k in range(4)])
        ts = grid_points(self.t_lo, self.t_hi, per_unit)
        return np.column_stack([ts] + [self.eval(ts, k) for k in range(4)])

    def write_csv(self, path, per_unit=None) -> None:
        write_csv(path, "t,v0,v1,v2,v3", self.node_table(per_unit))


# ---------------------------------------------------------------------------
# Closed-form factories.
# ---------------------------------------------------------------------------

def curve_from_derivs(domain, d0, d1, d2, d3, info=None) -> SmoothCurve:
    return SmoothCurve(domain[0], domain[1], (d0, d1, d2, d3), info=info)


def constant_curve(value, domain) -> SmoothCurve:
    v = float(value)
    return curve_from_derivs(
        domain,
        lambda t: np.full_like(np.asarray(t, float), v),
        lambda t: np.zeros_like(np.asarray(t, float)),
        lambda t: np.zeros_like(np.asarray(t, float)),
        lambda t: np.zeros_like(np.asarray(t, float)))


def line_curve(intercept, slope, domain) -> SmoothCurve:
    a, b = float(intercept), float(slope)
    return curve_from_derivs(
        domain,
        lambda t: a + b * np.asarray(t, float),
        lambda t: np.full_like(np.asarray(t, float), b),
        lambda t: np.zeros_like(np.asarray(t, float)),
        lambda t: np.zeros_like(np.asarray(t, float)))


def sine_curve(amplitude, rate, phase, domain) -> SmoothCurve:
    """A sin(w t + phi)."""
    A, w, phi = float(amplitude), float(rate), float(phase)
    return curve_from_derivs(
        domain,
        lambda t: A * np.sin(w * np.asarray(t, float) + phi),
        lambda t: A * w * np.cos(w * np.asarray(t, float) + phi),
        lambda t: -A * w * w * np.sin(w * np.asarray(t, float) + phi),
        lambda t: -A * w ** 3 * np.cos(w * np.asarray(t, float) + phi))


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

    def ev(k):
        ck = ders[k][::-1]
        return lambda t: np.polyval(ck, np.asarray(t, float))

    return curve_from_derivs(domain, ev(0), ev(1), ev(2), ev(3))


def sin_of(inner: SmoothCurve) -> SmoothCurve:
    """sin(inner(t)) with chain-rule derivatives; orders 2 and 3 and the
    jet take the inner curve's jet once."""
    g = inner

    def d0(t):
        return np.sin(g.eval(t, 0))

    def d1(t):
        return np.cos(g.eval(t, 0)) * g.eval(t, 1)

    def d3(t):
        (u, u1, u2), u3 = g.jet(t), g.eval(t, 3)
        return (np.cos(u) * u3 - 3.0 * np.sin(u) * u1 * u2
                - np.cos(u) * u1 ** 3)

    def jet(t):
        u, u1, u2 = g.jet(t)
        s, c = np.sin(u), np.cos(u)
        return s, c * u1, c * u2 - s * u1 ** 2

    return SmoothCurve(*g.domain, (d0, d1, lambda t: jet(t)[2], d3),
                       jet=jet)


def linear_combo(terms) -> SmoothCurve:
    """Sum of weighted curves on the intersection of their domains; when
    every term is a table curve on one node array, the jet is one
    ``_TableJet`` over all their tables."""
    lo = max(c.t_lo for c, _ in terms)
    hi = min(c.t_hi for c, _ in terms)

    def ev(k):
        return lambda t: sum(w * c.eval(t, k) for c, w in terms)

    parts = [c._jet for c, _ in terms]
    if all(isinstance(j, _TableJet) and j.weights is None
           and j.ts is parts[0].ts for j in parts):
        jet = _TableJet(parts[0].ts, [j.tables[0] for j in parts],
                        [w for _, w in terms])
    else:
        def jet(t):
            jets = [(c.jet(t), w) for c, w in terms]
            return tuple(sum(w * j[k] for j, w in jets) for k in range(3))

    return SmoothCurve(lo, hi, (ev(0), ev(1), ev(2), ev(3)), jet=jet)


class _TableJet:
    """The jet of a table curve (``weights`` None), or of the weighted sum
    of table curves on the node array ``ts``: orders 0..2 of each table
    from one ``hermite_jet`` call, summed as ``linear_combo`` sums its
    terms' jets (from 0, so -0.0 becomes +0.0)."""

    __slots__ = ("ts", "tables", "weights")

    def __init__(self, ts, tables, weights=None):
        self.ts = ts
        self.tables = tables
        self.weights = weights

    def __call__(self, t) -> tuple:
        return self.combine(hermite_jet(self.ts, self.tables, t))

    def combine(self, jets) -> tuple:
        """The curve's orders 0..2 from the jets of its tables."""
        if self.weights is None:
            return jets[0]
        return tuple(sum(w * j[k] for j, w in zip(jets, self.weights))
                     for k in range(3))


def joint_jet(curves, t) -> list:
    """[c.jet(t) for c in curves], bit for bit.  When the curves share one
    domain and each jet is a ``_TableJet`` on the same node array object
    (table curves on one grid, as the two tables of one ODE integration
    are, and linear combinations and restrictions of them, such as the
    transfer block's two warps), the domain is checked once and all their
    tables share one segment lookup and Hermite basis; other curves take
    their jets one by one."""
    head, jets = curves[0], [c._jet for c in curves]
    if all(isinstance(j, _TableJet) and j.ts is head._jet.ts
           and c.domain == head.domain for c, j in zip(curves, jets)):
        arr = head._in_domain(t)
        shared = iter(hermite_jet(head._jet.ts,
                                  [cols for j in jets for cols in j.tables],
                                  arr))
        outs = [j.combine([next(shared) for _ in j.tables]) for j in jets]
    else:
        outs = []
        for c in curves:
            arr = c._in_domain(t)
            outs.append(c._orders(arr))
    if arr.ndim == 0:
        return [tuple(float(v) for v in out) for out in outs]
    return [tuple(np.asarray(v, dtype=float) for v in out) for out in outs]


def table_curve(ts, cols, info=None) -> SmoothCurve:
    """Curve backed by node columns v0..v3; Hermite between nodes."""
    ts = np.asarray(ts, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in cols]

    def ev(k):
        if k < 3:
            return lambda t: hermite_interp(ts, cols[k], cols[k + 1], t)
        return lambda t: np.interp(np.asarray(t, float), ts, cols[3])

    return SmoothCurve(ts[0], ts[-1], (ev(0), ev(1), ev(2), ev(3)),
                       (ts, cols), info, _TableJet(ts, [cols]))


def antiderivative_curve(domain, n: int, d1, d2, d3) -> SmoothCurve:
    """The antiderivative, zero at the domain's start, of the curve whose
    orders 0-2 are the callables d1, d2, d3.  Its values come from a
    cumulative Hermite table on n uniform nodes, interpolated with d1 as
    node slopes; orders 1-3 are the callables themselves."""
    ts = np.linspace(domain[0], domain[1], n)
    slopes = d1(ts)
    vals = cumulative_hermite(ts, slopes, d2(ts))
    return curve_from_derivs(
        domain, lambda t: hermite_interp(ts, vals, slopes, t), d1, d2, d3)


def piecewise_curve(segments) -> SmoothCurve:
    """Contiguous segments [(lo, hi, curve), ...] glued by evaluation; its
    jet looks each point's segment up once and takes that segment's jet."""
    segments = sorted(segments, key=lambda s: s[0])
    for (l1, h1, _), (l2, _, _) in zip(segments, segments[1:]):
        if abs(h1 - l2) > 1e-9 * (1 + abs(h1)):
            raise ValueError("segments are not contiguous")
    los = np.array([s[0] for s in segments])
    curves = [s[2] for s in segments]
    t_lo, t_hi = segments[0][0], segments[-1][1]

    def glued(t, orders, n):
        # The points are clamped into each segment's domain, so the
        # segment's callables run directly, without eval's check.
        t = np.asarray(t, dtype=float)
        idx = clamp(np.searchsorted(los, t, side="right") - 1,
                    0, len(curves) - 1)
        outs = [np.empty_like(t) for _ in range(n)]
        for i, c in enumerate(curves):
            m = idx == i
            if np.count_nonzero(m):
                for out, v in zip(outs, orders(c, clamp(t[m], c.t_lo,
                                                        c.t_hi))):
                    out[m] = v
        return outs

    def ev(k):
        return lambda t: glued(t, lambda c, tm: (c._derivs[k](tm),), 1)[0]

    def jet(t):
        return tuple(glued(t, SmoothCurve._orders, 3))

    return SmoothCurve(t_lo, t_hi, (ev(0), ev(1), ev(2), ev(3)), jet=jet)


def even_extension(right_half: SmoothCurve) -> SmoothCurve:
    """Even reflection of a curve on [0, b] to [-b, b]."""
    if abs(right_half.t_lo) > 1e-12:
        raise ValueError("even extension needs domain starting at 0")
    c = right_half

    def ev(k):
        sgn = -1.0 if k % 2 else 1.0
        return lambda t: np.where(np.asarray(t, float) >= 0,
                                  c.eval(np.abs(t), k),
                                  sgn * c.eval(np.abs(t), k))

    return curve_from_derivs((-c.t_hi, c.t_hi), ev(0), ev(1), ev(2), ev(3))


# ---------------------------------------------------------------------------
# Concave stretching profile with pinned slopes.
# ---------------------------------------------------------------------------

def make_concave_profile(lambda1: float, lambda2: float, delta: float,
                         t_max: float = 20.0,
                         lambda_mid: float | None = None) -> SmoothCurve:
    """Concave f on [-delta, t_max] with f(0)=1, f'(0)=lambda2, f''<0,
    f' > lambda1 and f'/f > lambda1/(1 + lambda1 t).

    f(t) = (lambda2 - m) (1 - e^{-t}) + m t + 1 where m sits strictly
    between lambda1 (1+lambda2)/(1+lambda1) and lambda2; the default is the
    midpoint of that interval.  Raises if f'(-delta) >= 1.
    """
    if not 0.0 < lambda1 < lambda2 < 1.0:
        raise ValueError("need 0 < lambda1 < lambda2 < 1")
    if delta <= 0 or t_max <= 0:
        raise ValueError("delta and t_max must be positive")
    lower = lambda1 * (1.0 + lambda2) / (1.0 + lambda1)
    assert lower < lambda2, "interval for the intermediate slope is empty"
    m = 0.5 * (lower + lambda2) if lambda_mid is None else float(lambda_mid)
    if not lower < m < lambda2:
        raise ValueError(
            f"lambda_mid must lie in ({lower}, {lambda2})")
    A = lambda2 - m

    def d0(t):
        t = np.asarray(t, float)
        return A * (1.0 - np.exp(-t)) + m * t + 1.0

    def d1(t):
        return A * np.exp(-np.asarray(t, float)) + m

    def d2(t):
        return -A * np.exp(-np.asarray(t, float))

    def d3(t):
        return A * np.exp(-np.asarray(t, float))

    slope_at_inner = A * np.exp(delta) + m
    if slope_at_inner >= 1.0:
        raise ValueError(
            f"delta={delta} too large: slope {slope_at_inner:.6f} >= 1 at "
            f"t=-delta")
    return curve_from_derivs(
        (-delta, t_max), d0, d1, d2, d3,
        info={"lambda1": lambda1, "lambda2": lambda2, "lambda_mid": m,
              "slope_at_inner": float(slope_at_inner)})


# ---------------------------------------------------------------------------
# Coupled warping ODEs for the curvature-transfer block.
# ---------------------------------------------------------------------------

# Step-doubling tolerance of the transfer ODE tables (values and first two
# derivatives between nodes, relative to max(1, |y|)).
TRANSFER_RTOL = 1e-9


def integrate_transfer_odes(C: float, t_max: float = 120.0,
                            step_budget: int = 131072,
                            rtol: float = TRANSFER_RTOL):
    """Integrate g' = e^{-g^2/2} (g(0)=1) and F'' = C e^{-g^2} F (F(0)=1,
    F'(0)=0) with classical fourth-order (RK4) steps on a uniform grid of
    [0, t_max], its step count chosen by step doubling (Hairer, Norsett &
    Wanner, *Solving ODEs I*, II.4).

    n starts at the smallest power of two >= 64 t_max and doubles while
    2n <= ``step_budget``, which caps it; a cap below the first doubling's
    2n raises ValueError.  The 2n-step table is accepted once the n-step
    table's cubic-Hermite values at the odd nodes of the 2n grid (orders
    0-2 of g and F, the values the table curves answer between nodes) match
    the 2n values there within ``rtol`` relative to max(1, |y|).  Reaching
    the cap first raises IntegratorError naming ``rtol`` and the cap.

    Returns (g, F) as node-backed SmoothCurves whose derivatives come from
    the right-hand side, never from differencing.  The qualitative
    properties (signs, monotone tail of F g', ratio in [0,1]) are verified
    on the node grid and violations raise IntegratorError.
    """
    if C < 0:
        raise ValueError("C must be >= 0")
    n = 1
    while n < 64 * t_max:
        n *= 2
    if 2 * n > step_budget:
        raise ValueError(
            f"step cap {step_budget} below the {2 * n} steps of the first "
            f"doubling for t_max={t_max}")
    coarse = _transfer_table(C, t_max, n)
    while True:
        fine = _transfer_table(C, t_max, 2 * n)
        defect = _midpoint_defect(coarse, fine)
        if defect <= rtol:
            break
        if 4 * n > step_budget:
            raise IntegratorError(
                f"rtol={rtol:g} not met within the step cap "
                f"{step_budget}: {n} and {2 * n} steps differ by "
                f"{defect:.3g}")
        n, coarse = 2 * n, fine
    ts, gcols, fcols = fine

    g_curve = table_curve(ts, gcols, info={"C": C, "role": "h0"})
    fc_curve = table_curve(ts, fcols, info={"C": C, "role": "fC"})
    _verify_transfer_properties(ts, *gcols[:3], *fcols[:3], C)
    return g_curve, fc_curve


def _transfer_table(C: float, t_max: float, n: int):
    """(ts, (g, g', g'', g'''), (F, F', F'', F''')) on n fixed RK4 steps.

    The stepping runs on Python floats and writes each step's (g, F, F')
    into one preallocated node array; the derivative columns come from the
    right-hand side."""
    h = t_max / n
    hh = 0.5 * h
    h6 = h / 6.0
    # numpy's exp, converted back to float, not math.exp: where numpy
    # dispatches to its own SIMD exp the two differ by an ulp on a few
    # percent of arguments.  With it, and the operation order of the
    # elementwise array form of RK4 (stage k = (e^{-g^2/2}, F',
    # C e^{-g^2} F)), the nodes are bitwise those of that form.
    exp = np.exp
    ys = np.empty((n + 1, 3))
    g, F, P = 1.0, 1.0, 0.0
    ys[0] = (g, F, P)
    flat = memoryview(ys.reshape(-1))   # item writes beat row assignment
    for j in range(3, 3 * n + 3, 3):
        a1, c1 = float(exp(-0.5 * g * g)), C * float(exp(-g * g)) * F
        g2, F2, P2 = g + hh * a1, F + hh * P, P + hh * c1
        a2, c2 = float(exp(-0.5 * g2 * g2)), C * float(exp(-g2 * g2)) * F2
        g3, F3, P3 = g + hh * a2, F + hh * P2, P + hh * c2
        a3, c3 = float(exp(-0.5 * g3 * g3)), C * float(exp(-g3 * g3)) * F3
        g4, F4, P4 = g + h * a3, F + h * P3, P + h * c3
        a4, c4 = float(exp(-0.5 * g4 * g4)), C * float(exp(-g4 * g4)) * F4
        g, F, P = (g + h6 * (a1 + 2 * a2 + 2 * a3 + a4),
                   F + h6 * (P + 2 * P2 + 2 * P3 + P4),
                   P + h6 * (c1 + 2 * c2 + 2 * c3 + c4))
        flat[j], flat[j + 1], flat[j + 2] = g, F, P
    ts = np.linspace(0.0, t_max, n + 1)
    g, fc, fcp = ys[:, 0], ys[:, 1], ys[:, 2]

    e_half = np.exp(-0.5 * g * g)
    e_full = np.exp(-g * g)
    g1 = e_half
    g2 = -g * e_full
    g3 = g1 * e_full * (2.0 * g * g - 1.0)
    fc2 = C * e_full * fc
    fc3 = C * e_full * (fcp - 2.0 * g * g1 * fc)
    return ts, (g, g1, g2, g3), (fc, fcp, fc2, fc3)


def _midpoint_defect(coarse, fine) -> float:
    """Largest relative gap between the coarse table's cubic-Hermite values
    (orders 0-2 of g and F) at the fine grid's odd nodes, which are the
    coarse segment midpoints, and the fine table's values there."""
    ts, *coarse_cols = coarse
    mids, *fine_cols = fine
    mids = mids[1::2]
    worst = 0.0
    for cols, ref_cols in zip(coarse_cols, fine_cols):
        for k in range(3):
            ref = ref_cols[k][1::2]
            gap = np.abs(hermite_interp(ts, cols[k], cols[k + 1], mids)
                         - ref) / np.maximum(1.0, np.abs(ref))
            worst = max(worst, float(np.max(gap)))
    return worst


def _verify_transfer_properties(ts, g, g1, g2, fc, fcp, fc2, C):
    eps = 1e-9
    if np.any(g1 <= 0):
        raise IntegratorError("h0' must stay positive")
    if np.any(g2 >= 0):
        raise IntegratorError("h0'' must stay negative")
    if np.any(fcp[1:] < -eps) or (C > 0 and np.any(fcp[1:] <= 0)):
        raise IntegratorError("fC' must be positive on (0, t_max]")
    if C > 0 and np.any(fc2 <= 0):
        raise IntegratorError("fC'' must be positive")
    ratio = fcp / (fc * g * g1)
    if np.any(ratio < -eps) or np.any(ratio > 1.0 + eps):
        raise IntegratorError("fC'/(fC h0 h0') left [0, 1]")
    tail = (fc * g1)[len(ts) // 2:]
    if np.any(np.diff(tail) > eps):
        raise IntegratorError("fC h0' is not decreasing on the tail")


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

def second_derivative_surgery(a: float, u, base2, base3, corrections,
                              start, slope_end: float,
                              value_end: float | None = None):
    """Curve on [a, a + u[-1]] whose second derivative is an edited base
    plus compactly supported corrections, integrated twice from ``start``.

    ``u`` holds strictly increasing node offsets from ``a`` (u[0] = 0,
    uniform or not).  ``base2`` and ``base3`` evaluate the edited base
    second and third derivatives at any t; each correction ``g(u, k)`` is
    the k-th derivative (k = 0, 1) of a function of the offset u = t - a.
    The coefficients c_j in f'' = base2 + sum_j c_j g_j solve
    f'(end) = slope_end and, when ``value_end`` is given, also
    f(end) = value_end, with (f(a), f'(a)) = ``start``; the number of
    corrections must match the number of targets.

    Returns the blended window curve and the coefficient array.  Values
    and slopes come from Hermite tables on the nodes (kept as the curve's
    ``nodes``); the second and third derivatives are evaluated exactly.
    """
    u = np.asarray(u, dtype=float)
    ts = a + u
    wu = u[-1] - u
    b2, b3 = base2(ts), base3(ts)
    gs = [(g(u, 0), g(u, 1)) for g in corrections]

    def mass(y, dy):
        return cumulative_hermite(u, y, dy)[-1]

    def moment(y, dy):                  # integral of (end - t) y(t)
        return cumulative_hermite(u, wu * y, -y + wu * dy)[-1]

    y0, y1 = start
    rows = [[mass(*g) for g in gs]]
    need = [slope_end - y1 - mass(b2, b3)]
    if value_end is not None:
        rows.append([moment(*g) for g in gs])
        need.append(value_end - y0 - y1 * u[-1] - moment(b2, b3))
    coef = np.linalg.solve(np.array(rows), np.array(need))

    out2, out3 = b2, b3
    for c, (g0, g1) in zip(coef, gs):
        out2 = out2 + c * g0
        out3 = out3 + c * g1
    out1 = cumulative_hermite(u, out2, out3, y1)
    out0 = cumulative_hermite(u, out1, out2, y0)

    def edited(base, k):
        def ev(t):
            du = np.asarray(t, float) - a
            out = base(t)
            for c, g in zip(coef, corrections):
                out = out + c * g(du, k)
            return out
        return ev

    d2 = edited(base2, 0)

    def jet(t):
        return (*hermite_jet(ts, [(out0, out1, out2)], t)[0], d2(t))

    curve = SmoothCurve(a, a + u[-1],
                        (lambda t: hermite_interp(ts, out0, out1, t),
                         lambda t: hermite_interp(ts, out1, out2, t),
                         d2, edited(base3, 1)),
                        (ts, (out0, out1, out2, out3)), jet=jet)
    return curve, coef


def smooth_join(left: SmoothCurve, right: SmoothCurve, window,
                second_derivative_band, band_tol: float = 1e-2,
                grid_n: int = 2049) -> SmoothCurve:
    """Blend two curves into one that equals ``left`` before the window and
    ``right`` after it.

    The blended second derivative is the step-weighted combination of the
    two inputs plus two compactly supported corrections (a plateau over the
    window and an antisymmetric pair of plateaus on its halves) solving the
    slope and value matching conditions at the window end.  If the result
    leaves ``second_derivative_band`` widened by ``band_tol``,
    JoinBandError is raised with the measured overshoot.
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
        if right.t_hi > b:
            segs = [(left.t_lo, b, left), (b, right.t_hi, right)]
        else:
            segs = [(left.t_lo, b, left)]
        out = piecewise_curve(segs)
        out.info.update({"identity": True, "c1": 0.0, "c2": 0.0,
                         "band_overshoot": 0.0})
        return out

    def base2(t):
        W = smooth_step((np.asarray(t, float) - a) / w)
        return (1.0 - W) * left.eval(t, 2) + W * right.eval(t, 2)

    def base3(t):
        x = (np.asarray(t, float) - a) / w
        W, W1 = smooth_step(x), smooth_step(x, 1) / w
        return ((1.0 - W) * left.eval(t, 3) + W * right.eval(t, 3)
                + W1 * (right.eval(t, 2) - left.eval(t, 2)))

    lower = unit_plateau(0.0, 0.45 * w)
    upper = unit_plateau(0.55 * w, 0.45 * w)

    def pair(u, k):                     # zero net mass, order-one moment
        return lower(u, k) - upper(u, k)

    mid, (c1, c2) = second_derivative_surgery(
        a, np.linspace(0.0, w, grid_n), base2, base3,
        [unit_plateau(0.0, w), pair],
        (left.eval(a, 0), left.eval(a, 1)),
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
    out = piecewise_curve(segs)
    out.info.update({"identity": False, "c1": float(c1), "c2": float(c2),
                     "band_overshoot": overshoot, "window": (a, b)})
    return out


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

    @property
    def first_derivative_error(self):
        if self.first_derivative_target is None:
            return None
        return abs(self.first_derivative_value
                   - self.first_derivative_target)


def parity_margin(curve: SmoothCurve, endpoint: float, parity: str,
                  first_derivative_target: float | None = None,
                  fit_width: float | None = None,
                  fit_points: int = 16) -> ParityReport:
    """Measure how far the curve is from being odd/even at an interval end.

    A one-sided degree-5 least-squares Taylor fit estimates the scaled
    coefficients; the violation is the largest offending coefficient
    (even orders for "odd", odd orders for "even") relative to the largest
    coefficient overall.
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
    offs = direction * W * np.arange(0, fit_points + 1) / fit_points
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
