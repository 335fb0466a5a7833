"""Builders for the named metric constructions: the cone-stretched core,
the two handle pieces and their assembly, the curvature-transfer cylinder,
the circle-bundle variant, fibre-disc warps, doubly warped sphere
transitions, the projective and five-dimensional cohomogeneity-one
families, and the conformal boundary-layer margin.

Every builder returns a gluing.Report whose margins are minima over sample
grids; the verdict is pass iff every margin passes its rule.  Reports are
deterministic functions of the parameter record and grid density.  The
curves a caller builds on (the cone's warp, the fibre disc's h, the
handles' profiles) are in ``aux["curves"]``; a builder gives its aux in
its ``Report(...)`` call, never writes it later.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ._util import (DEFAULT_GRID_PER_UNIT, PLATEAU_MASS,
                    TabulatedAntiderivative, bisect_increasing,
                    cumulative_hermite, gradient_on, grid_points, grid_size,
                    hermite_subdivided, per_key, plateau, read_only,
                    smooth_step, sorted_unique, unit_plateaus)
from .curves import (Jet, JoinBandError, SmoothCurve,
                     SurgeryWindow, _join_window, antiderivative_curve,
                     constant_curve, cosine_curve, even_extension,
                     flatness_margin,
                     integrate_transfer_odes, jet_curve, line_curve,
                     linear_combo, make_concave_profile, parity_margin,
                     piecewise_curve, poly_curve,
                     second_derivative_surgery, sin_of, sine_curve,
                     smooth_join, table_curve, window_mass,
                     window_moment)
from .curvature import (ABounds, BundleWarpedMetric, CohomogOneMetric,
                        DoublyWarpedMetric, bundle_warped_sweep,
                        cohomog1_columns, cohomog1_jet, cohomog1_sweep,
                        doubly_warped_sweep, graph_ii_columns,
                        graph_ii_sweep)
from .gluing import (BoundaryProfile, Corner, Margin, Report,
                     check_corner_gluing)

__all__ = [
    "Margin", "Report", "BuildError", "HorizonError", "NumericalRangeError",
    "build_cone_metric", "build_handle1", "corner_angle_handle1",
    "build_handle2", "check_handle2_domain", "corner_angle_handle2",
    "closed_form_handle2",
    "assemble_handle",
    "build_transfer_block",
    "build_s1_block", "build_fibre_disc_warp", "build_sphere_transition",
    "projective_family_check", "wu_family_check",
    "boundary_conformal_margin",
]


class BuildError(ValueError):
    """A block builder's parameters lie outside its domain of validity or
    fail a geometric precondition; the message names the condition.
    Handled by: ``feasibility.scan``, which records the sample as
    ``error:BuildError``; the CLI, which exits 2; perfbench, which counts
    the operation as rejected."""


class HorizonError(RuntimeError):
    """The transfer tables' horizon ended before the target slope was reached.
    Handled by: ``feasibility.scan``, which records the sample as
    ``error:HorizonError``; the CLI, which exits 2; perfbench, which counts
    the operation as rejected."""


class NumericalRangeError(BuildError):
    """A builder's arithmetic left the floating-point range (an
    ``OverflowError``, a ``ZeroDivisionError``, or a ``FloatingPointError``
    from numpy's overflow, invalid operation or division by zero) at
    parameters inside its declared domain; the message names the builder,
    the fault and the params.  Handled as a BuildError:
    ``feasibility.scan`` records the sample as
    ``error:NumericalRangeError``."""


class Reals:
    """The real numbers from lo to hi, each end open or closed as ``ends``
    says; an infinite end is open, so NaN and +-inf lie in no Reals."""

    prefix = ""
    WORDS = {"(": "exceed", "[": "be at least", ")": "stay below",
             "]": "be at most"}

    def __init__(self, lo=-math.inf, hi=math.inf, ends="()"):
        self.lo, self.hi, self.ends = lo, hi, ends

    def breaks(self, value):
        """The bound that value breaks, or None; NaN breaks the lower one."""
        if self.lo < value < self.hi:
            return None
        for x, end, inside in ((self.lo, self.ends[0], self.lo < value),
                               (self.hi, self.ends[1], value < self.hi)):
            if not (inside or end in "[]" and value == x and math.isfinite(x)):
                return ("be finite" if math.isinf(x) else "be positive"
                        if (x, end) == (0, "(") else
                        f"{self.WORDS[end]} {x:.15g}")


class Dims(Reals):
    """Integer dimensions from ``least`` on, or only those in ``among``."""

    prefix = "dimension "

    def __init__(self, least: int = 1, among: tuple = ()):
        super().__init__(least, ends="[)")
        self.among = among

    def breaks(self, value):
        if not float(value).is_integer():
            return "be an integer"
        if self.among and value not in self.among:
            return f"be one of {', '.join(map(str, self.among))}"
        return Reals.breaks(self, value)


def domain(**declared):
    """Declare a builder's parameter domains, a Reals or Dims per name.  A
    given parameter (by position or name, mapped once here; None skips)
    that breaks a bound raises a BuildError naming it, bound and value.
    The builder runs with numpy's overflow, invalid operation and division
    by zero raising FloatingPointError (an ``np.errstate`` it sets inside
    keeps its own); that, an OverflowError or a ZeroDivisionError becomes
    a NumericalRangeError naming the builder and its params.  What a
    report builds on a later read (its boundary, its aux, its sweeps) runs
    outside the builder and is not checked."""
    def decorate(fn):
        names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
        checks = [(names.index(n), n, dom) for n, dom in declared.items()]

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            for i, name, dom in checks:
                value = args[i] if i < len(args) else kwargs.get(name)
                if value is not None and (bound := dom.breaks(value)):
                    raise BuildError(f"{dom.prefix}{name} must {bound}, "
                                     f"got {value!r}")
            try:
                with np.errstate(over="raise", invalid="raise",
                                 divide="raise"):
                    return fn(*args, **kwargs)
            except (OverflowError, ZeroDivisionError,
                    FloatingPointError) as exc:
                given = {**dict(zip(names, args)), **kwargs}
                params = ", ".join(
                    f"{k}={v!r}" if isinstance(v, (int, float, str, np.generic,
                                                   type(None)))
                    else f"{k}=<{type(v).__name__}>"
                    for k, v in given.items())
                raise NumericalRangeError(
                    f"{fn.__name__} left the float range at {params}: "
                    f"{type(exc).__name__}: {exc}") from exc

        checked.domains = declared
        return checked

    return decorate


def _min_margin(label: str, ts, values) -> Margin:
    i = int(np.argmin(values))
    return Margin(label, float(values[i]), float(ts[i]))


def _tabs_from_samples(ts: np.ndarray, columns: dict) -> dict:
    """One (value, slope) table curve on the grid ts per named
    principal-curvature column, which gluing reads at order 0; the slope
    is ``numpy.gradient`` of the values, bit for bit, through one shared
    ``gradient_on(ts)``."""
    d = gradient_on(ts)
    return {name: table_curve(ts, (vals, d(vals)))
            for name, vals in columns.items()}


# ---------------------------------------------------------------------------
# Cone-stretched core metric.
# ---------------------------------------------------------------------------

def _cone_junction(K: float, eps: float, delta: float, t: float,
                   junction: str):
    """The cone's inner junction s1 (junction "inner", eps = eps1) or its
    outer one s2 ("outer", eps = eps2), and the lines of the warp argument
    that meet there, as (s, (left, right)), each line (intercept, slope).
    The middle line has slope K_t = 1 - t(1 - K) and the outer two slope
    1."""
    Kt = 1.0 - t * (1.0 - K)
    if junction == "inner":
        s_lo = (1.0 - K) * t * eps / (2.0 * K)
        return eps / (2.0 * K), ((-s_lo, 1.0), (0.0, Kt))
    eps2p = 2.0 * eps / (1.0 - delta)
    shift3 = 0.5 * (math.pi + eps2p) * (1.0 / Kt - 1.0)
    return (math.pi + eps2p) / (2.0 * Kt), ((0.0, Kt), (-shift3, 1.0))


@per_key(maxsize=128)
def _cone_join(K: float, eps: float, delta: float, t: float, junction: str):
    """The smooth join of the two lines meeting at the cone's junction
    (``_cone_junction``) and what reads it alone, as (join, lower, upper,
    parity, ricci).  The join is built on its window [s - delta, s +
    delta] from the lines restricted to it; its second derivative keeps
    to a band as deep as the slope gap spread over the window, toward the
    next line's slope.  A join that leaves the band raises BuildError, and
    so does, before the join is built, a delta so small that its window's
    nodes (``_join_window``'s, from s - delta) repeat in floating point;
    neither is cached.  lower and upper are the slope band on the window
    (``_slope_band``), labelled slope_band_s1 or slope_band_s2; parity is
    the inner junction's collapse parity at s_lo (None at the outer one),
    fitted on [s_lo, s_lo + W], W = min(0.05, 0.2 (s1 - s_lo)), left of
    s1 + delta, so it reads sin of the left line and the inner join alone.
    ricci is the join's (A, B) columns on its own nodes (``_cone_ab``),
    with the inner junction's collapse limit at s_lo, or None for an
    identity join (t = 0), which is the line it continues.
    Built once per (K, eps, delta, t) and junction, the only parameters
    it reads, and read, never changed, by the cone it goes into.  A key
    holds the join's node table, about 82 KB (tracemalloc; an identity
    join, at t = 0, holds almost nothing), and its A and B columns, 33 KB:
    the 90 keys of a 3 x 3 x 3 x 5 (eps1, eps2, delta, t) lattice at one K
    hold about 9 MB, and the 128 kept retain about 15 MB at most."""
    s, (left, right) = _cone_junction(K, eps, delta, t, junction)
    inner = junction == "inner"
    name = "s1" if inner else "s2"
    window = (s - delta, s + delta)
    # the node array smooth_join builds the join's table on
    nodes = window[0] + _join_window(window[1] - window[0]).u
    if not (nodes[1:] > nodes[:-1]).all():
        raise BuildError(f"delta={delta!r} is below the resolution of the "
                         f"{junction} join's {len(nodes)}-node table on "
                         f"[{name} - delta, {name} + delta], {name}={s!r}: "
                         f"its nodes repeat in floating point")
    depth = abs(left[1] - right[1]) / (PLATEAU_MASS * 2.0 * delta)
    band = ((-1.3 * depth - 1e-9, 1e-9) if inner
            else (-1e-9, 1.3 * depth + 1e-9))
    try:
        join = smooth_join(line_curve(*left, window),
                           line_curve(*right, window), window, band,
                           band_tol=0.35 * depth + 1e-9)
    except JoinBandError as exc:
        raise BuildError(
            f"smoothing band infeasible at the {junction} junction "
            f"{name}={s:.4f}: {exc}") from exc
    Kt = right[1] if inner else left[1]         # the middle line's slope
    lower, upper = _slope_band(join, f"slope_band_{name}", Kt, right[1])
    ricci = (None if join.info["identity"]
             else _cone_ab(join, -left[0] if inner else None))
    if not inner:
        return join, lower, upper, None, ricci
    s_lo, (a, b) = -left[0], join.info["window"]
    head = sin_of(piecewise_curve([(s_lo, a, line_curve(*left, (s_lo, a))),
                                   (a, b, join)]))
    par = parity_margin(head, s_lo, "odd",
                        fit_width=min(0.05, 0.2 * (s - s_lo)))
    return join, lower, upper, par, ricci


def _cone_ab(join: SmoothCurve, s_lo: float | None):
    """The Ricci factors A = x'^2 - cot(x) x'' and B = 1 + (1 - x')(1 +
    x') cot^2 x of the warp sin x over the join's own nodes, from its node
    table (x, x', x'', x'''), as read-only columns.  B is written so that
    nothing cancels where x' is near 1 and x near 0: where the inner
    window starts at s_lo, as at (K, eps1, delta, t) = (0.9, 0.05, 0.025,
    1), (1 - x'^2 cos^2 x)/sin^2 x, the same B, reads 0 at the first node
    (a ric_sphere margin of -0.588 at n = 4) and 1 + 1.6e-7 at the next,
    where this form reads 1.  A node within 1e-9 (1 + b - s_lo) of the
    collapse point s_lo (given for the inner join), where the window ends
    at b, takes the limit both factors have at x = 0, x'^2 - x'''/x'
    (-f'''/f' for f = sin x, as ``curvature._collapse_limits`` gives it)."""
    ss, (x, x1, x2, x3) = join.nodes
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cot = 1.0 / np.tan(x)
        A = x1 * x1 - cot * x2
        B = 1.0 + (1.0 - x1) * (1.0 + x1) * (cot * cot)
    if s_lo is not None:
        at = ss - s_lo <= 1e-9 * (1.0 + ss[-1] - s_lo)
        A[at] = B[at] = x1[at] * x1[at] - x3[at] / x1[at]
    return read_only(A), read_only(B)


def _slope_band(join: SmoothCurve, label: str, Kt: float,
                next_slope: float):
    """The lower (slope >= K_t) and upper (slope <= 1) band margins of the
    warp argument on the join's window [a, b], on 257 points: before b
    the argument is the join, and at b it takes the next line's slope."""
    a, b = join.info["window"]
    js = np.linspace(a, b, 257)
    sl = np.append(join.eval(js[:-1], 1), next_slope)
    return (_min_margin(f"{label}_lower", js, sl - Kt + 1e-12),
            _min_margin(f"{label}_upper", js, 1.0 - sl + 1e-12))


def _cone_ricci(n: int, Kt: float, lines, windows) -> list:
    """The ric_radial and ric_sphere margins (ric - bound)/bound + 1e-9,
    bound = (n-1) K_t^2, with ric_radial = (n-1) A and ric_sphere = A +
    (n-2) B, from the pieces in s order: the left line, the inner window,
    the middle line, the outer window and the right line.  ``lines`` gives
    each line's (its start, its slope k, so A = k^2, s where B is least,
    B), and ``windows`` each window's (nodes, A columns, B columns), or
    None for an identity join.  A margin's argmin is the first least value
    in s order: a window's first node of least value, and the first piece
    of least value; a NaN value is least."""
    pieces = []
    for line, window in itertools.zip_longest(lines, windows):
        start, k, s_B, B = line
        pieces.append((((n - 1) * k * k, start), (k * k + (n - 2) * B, s_B)))
        if window is not None:
            s, A, B = window
            rad, sph = (n - 1) * A, A + (n - 2) * B
            i, j = int(np.argmin(rad)), int(np.argmin(sph))
            pieces.append(((rad[i], s[i]), (sph[j], s[j])))
    # the middle line attains the bound exactly, so the relative margin
    # carries the same 1e-9 floor as every >=-type certificate
    bound = (n - 1) * Kt * Kt
    margins = []
    for label, least in zip(("ric_radial", "ric_sphere"), zip(*pieces)):
        values = np.array([v for v, _ in least])
        i = int(np.argmin(values))
        margins.append(Margin(label, float((values[i] - bound) / bound
                                           + 1e-9), float(least[i][1])))
    return margins


@domain(n=Dims(3), K=Reals(0, 1), eps1=Reals(0), eps2=Reals(0),
        delta=Reals(0, 1), t=Reals(0, 1, "[]"))
def build_cone_metric(n: int, K: float, eps1: float, eps2: float,
                      delta: float, t: float, grid=None) -> Report:
    """Sine-pieced warp with interpolation slope K_t = 1 - t(1-K) and the
    Ricci lower bound (n-1) K_t^2 certified by its closed form.

    The warp is ``aux["curves"]["warp"]``.  At t = 1, multiplying the
    metric by K^2 turns the middle piece into K sin(s) with Ricci bound
    n - 1.

    The warp's argument x is one piecewise curve of five segments: the
    left line, the inner join, the middle line, the outer join and the
    right line.  Each join is built once per (K, eps, delta, t) on its
    window alone, together with what reads the join but not n, the grid
    or the other junction (``_cone_join``): each window's slope band, read
    as the composed argument gives it, the collapse parity at s_lo, which
    reads only the inner junction, and the Ricci factors on the join's
    nodes.

    Lemma (doubly warped products, Petersen, Riemannian Geometry, 3rd ed.,
    ch. 4): for the warp f = sin x(s) over a unit round fibre, -f''/f = A
    = x'^2 - cot(x) x'' and (1 - f'^2)/f^2 = B = 1 + (1 - x')(1 + x')
    cot^2 x, so ric_radial = (n-1) A and ric_sphere = A + (n-2) B.  On a
    line of slope k (x'' = 0) A = k^2, and B is least at the point of the
    line's x-range nearest pi/2; the left line (slope 1 through x = 0 at
    the collapse point s_lo) is the round metric, with A = B = 1 there
    too, and so is the right line.  A line's argmin is its start where
    its value is constant, and the middle line's ric_sphere argmin is the
    point nearest pi/2.  On a join window the factors are the join's
    columns, the collapse point s_lo taking the limit x'^2 - x'''/x' of
    both.  Each margin is the least over the five pieces, its argmin the
    first in s order among equal least values (``_cone_ricci``).  At t = 0
    the joins are identities and the lines are the whole warp.

    The Ricci sweep on the grid, ``doubly_warped_sweep``, is the lemma's
    oracle: ``Report.sweeps["ricci"]`` builds it on its first read, with
    the columns ric_radial, ric_sphere and warp, so a sample that reads
    only the margins, as a scan does, never builds it.  Nor does it build
    the composed warp: ``Report.aux``, built on its first read too, and
    the sweep share one, built on the first read of either.
    """
    eps2p = 2.0 * eps2 / (1.0 - delta)
    # the warp argument rises to pi/2 + eps2' at s_hi; from pi on the warp
    # would vanish inside the domain
    if eps2p >= math.pi / 2.0:
        raise BuildError(
            f"need eps2' = 2 eps2/(1 - delta) < pi/2 so the warp stays "
            f"positive up to s_hi; got {eps2p:.6g}")
    s1, (left, mid) = _cone_junction(K, eps1, delta, t, "inner")
    s2, (_, right) = _cone_junction(K, eps2, delta, t, "outer")
    s_lo, Kt = -left[0], mid[1]
    s_hi = math.pi / (2.0 * Kt) + 0.5 * eps2p * (1.0 + 1.0 / Kt)
    if not (s_lo < s1 - delta and s1 + delta < s2 - delta
            and s2 + delta < s_hi):
        raise BuildError(
            f"domain pieces are not ordered for eps1={eps1}, eps2={eps2}, "
            f"delta={delta}")
    if not (s1 - delta < s1 + delta and s2 - delta < s2 + delta):
        raise BuildError(f"delta={delta!r} is below the rounding of the "
                         f"junctions s1={s1!r}, s2={s2!r}: a join window "
                         f"[s - delta, s + delta] is empty")

    inner, *inner_band, par, inner_ab = _cone_join(K, eps1, delta, t,
                                                   "inner")
    outer, *outer_band, _, outer_ab = _cone_join(K, eps2, delta, t, "outer")
    (a1, b1), (a2, b2) = inner.info["window"], outer.info["window"]
    composed = []

    def warp():
        """The warp sin x, x the five pieces composed, built on the first
        read of the aux or the sweeps, which share it."""
        if not composed:
            composed.append(sin_of(piecewise_curve([
                (s_lo, a1, line_curve(*left, (s_lo, a1))), (a1, b1, inner),
                (b1, a2, line_curve(*mid, (b1, a2))), (a2, b2, outer),
                (b2, s_hi, line_curve(*right, (b2, s_hi)))])))
        return composed[0]

    # the middle line x = K_t s: B is least where x is nearest pi/2
    s_mid = min(max(math.pi / (2.0 * Kt), b1), a2)
    B_mid = 1.0 + (1.0 - Kt) * (1.0 + Kt) / math.tan(Kt * s_mid) ** 2
    margins = _cone_ricci(
        n, Kt, [(s_lo, 1.0, s_lo, 1.0), (b1, Kt, s_mid, B_mid),
                (b2, 1.0, b2, 1.0)],
        [None if ab is None else (join.nodes[0], *ab)
         for join, ab in ((inner, inner_ab), (outer, outer_ab))])
    margins += inner_band + outer_band
    margins.append(Margin("collapse_parity", 1e-6 - par.max_violation, s_lo))

    def sweeps():
        ss = grid_points(s_lo, s_hi, grid)
        f = warp()
        sweep = doubly_warped_sweep(
            DoublyWarpedMetric(n - 1, 1, f, constant_curve(1.0, f.domain),
                               collapse_start="f"), ss)
        return {"ricci": {"t": ss, "columns": {"ric_radial": sweep["ric_tt"],
                                               "ric_sphere": sweep["ric_uu"],
                                               "warp": sweep["f"]}}}

    return Report(
        block="cone",
        params={"n": n, "K": K, "eps1": eps1, "eps2": eps2, "delta": delta,
                "t": t},
        margins=margins,
        aux=lambda: {"K_t": Kt, "eps2_prime": eps2p, "s_lo": s_lo,
                     "s1": s1, "s2": s2, "s_hi": s_hi,
                     "ric_bound": (n - 1) * Kt * Kt,
                     "ric_margin_floor": 1e-9,
                     "parity_first_derivative": par.first_derivative_value,
                     "curves": {"warp": warp()}},
        sweeps=sweeps)


# ---------------------------------------------------------------------------
# First handle piece: the cut cone over a stretched core.
# ---------------------------------------------------------------------------

def _alpha_base(lambda1: float, eps1: float, domain) -> SmoothCurve:
    """alpha(s) = (sec(lambda1 (s - eps1)) - 1)/lambda1."""
    def alpha(s, n):
        x = (Jet.variable(s, n) - eps1) * lambda1
        return (1.0 / x.cos() - 1.0) / lambda1

    return jet_curve(domain, alpha)


def _step_weighted(curve: SmoothCurve, at: float, width: float,
                   falling: bool = False):
    """Surgery base ``base(t, orders)``: the second and third derivatives
    of ``curve`` times the smooth step over [at, at + width], rising from 0
    to 1 (or falling from 1 to 0).  The step argument, the step and the
    curve's second derivative are evaluated once for both orders."""
    def base(t, orders):
        x = (np.asarray(t, float) - at) / width
        n = max(orders) - 2
        step = Jet(*(smooth_step(x, k) / width ** k for k in range(n + 1)))
        c = curve.jet(t, n + 2)[2:]
        out = c * (1.0 - step if falling else step)
        return [out[k - 2] for k in orders]

    return base


def _flatten_start(base: SmoothCurve, at: float,
                   window: float) -> SmoothCurve:
    """Replace ``base`` near its left end so that all derivatives vanish at
    ``at`` while the second derivative stays within the band spanned by the
    original one (plus a small redistribution correction).

    The rise happens over 1e-3 of the window; the deleted slope and
    value mass is restored by a plateau and its tilt over the rest, so the
    curve rejoins ``base`` smoothly at ``at + window``.  The plateau and
    its tilt depend on the window's shape alone (``_flatten_window``).
    """
    w = window
    omega = max(1e-3 * w, 1e-5)
    # value and slope vanish at `at`
    win, _ = second_derivative_surgery(
        at, _flatten_window(w, omega), _step_weighted(base, at, omega),
        (0.0, 0.0), base.eval(at + w, 1), base.eval(at + w, 0))
    tail = base.restrict(at + w, base.t_hi)
    return piecewise_curve([(at, at + w, win),
                            (at + w, base.t_hi, tail)])


@per_key(maxsize=8)
def _flatten_window(w: float, omega: float) -> SurgeryWindow:
    """_flatten_start's window of width w, its nodes dense on the rise
    [0, 2 omega]: the plateau over the window and its tilt.  omega is a
    function of w, so the window is built once per width; handle1 uses
    one width."""
    u_nodes = np.concatenate([
        np.linspace(0.0, 2.0 * omega, 129),
        np.linspace(2.0 * omega, w, 1537)[1:],
    ])
    plate = unit_plateaus([(0.0, w)])

    def corrections(u, orders):
        # the plateau, and its tilt: the plateau times u / w - 1/2
        need = (0, 1) if 1 in orders else (0,)
        p = dict(zip(need, plate(u, need)[0]))
        lever = np.asarray(u, float) / w - 0.5
        return [[p[k] for k in orders],
                [lever * p[0] if k == 0 else p[0] / w + lever * p[1]
                 for k in orders]]

    return SurgeryWindow(u_nodes, corrections)


# C-infinity ramp 0 -> 1 on [0,1] with slope close to one (flat ends): the
# integral of the normalized plateau with rise 0.1.
_RAMP = TabulatedAntiderivative(lambda x, k: plateau(x, k, 0.1))


def _read_only_jet(curve: SmoothCurve, ts: np.ndarray, n: int = 3) -> Jet:
    """Orders 0-n of curve at ts, each a read-only array."""
    return Jet(*(read_only(v) for v in curve.jet(ts, n)))


@per_key(maxsize=32)
def _handle1_beta(eps2: float, grid):
    """handle1's outer face at eps2 and grid density, as (beta, so, jet,
    slope).  beta lives on [pi/2, pi/2 + eps2]: beta(pi/2)=0,
    beta'(pi/2)=-2, all derivatives vanish at the outer end, slope profile
    near-linear so the second derivative stays close to its minimal size
    2/eps2.  so is the face's grid, jet beta's orders 0-3 on it and slope
    the float beta.eval(pi/2, 1), which the corner angle reads.  Built once
    per (eps2, grid), the only parameters they read, as a scan's samples
    share few values of them; the curve and the read-only arrays are read,
    never changed, by the handle they go into.  At the default grid a key
    holds about 73 KB (so has its 513-point floor up to eps2 = 0.25) and at
    most about 134 KB (eps2 = 1), so the 32 kept retain about 4.3 MB at
    most.
    An eps2 so small that the table's nodes repeat in floating point
    raises BuildError naming it, which is not cached."""
    a, n = math.pi / 2.0, 2049
    nodes = np.linspace(a, a + eps2, n)         # antiderivative_curve's
    if not (nodes[1:] > nodes[:-1]).all():
        raise BuildError(f"eps2={eps2!r} is below the resolution of beta's "
                         f"{n}-node table on [pi/2, pi/2 + eps2]: its nodes "
                         f"repeat in floating point")

    def integrand(s, orders):           # beta' and its derivatives
        x = (np.asarray(s, float) - a) / eps2
        return [-2.0 * (1.0 - _RAMP(x)) if k == 0 else
                2.0 * _RAMP(x, k) / eps2 ** k for k in orders]

    beta = antiderivative_curve((a, a + eps2), n, integrand)
    so = read_only(grid_points(a, a + eps2, grid, min_points=513))
    return beta, so, _read_only_jet(beta, so), float(beta.eval(a, 1))


@per_key(maxsize=64)
def _handle1_height(lambda1: float, eps1: float, grid):
    """handle1's cap side at (lambda1, eps1) and grid density, as (alpha,
    ss, jet, tan_chain, cap_concavity, top, slope).  The height alpha on
    [eps1, pi/2] is the secant profile ``_alpha_base`` flattened at eps1
    over a window of width w_flat; ss is the cap's grid, dense on the
    flattening window, jet the height's orders 0-3 on it, tan_chain and
    cap_concavity (``_cap_concavity``) the cap's Margins of those names,
    and top and slope the floats alpha.eval(pi/2, 0) and alpha.eval(pi/2,
    1), which the outer face and the corner angle read.  Built once per
    (lambda1, eps1, grid), the only parameters they read, as a scan's
    samples share few of them; the curve and the read-only arrays are
    read, never changed, by the handle they go into.  At the default grid
    a key holds about 210 KB (70 KB of surgery tables, the rest the grid
    and the jet), so the 64 kept retain about 13.7 MB at most.  A height
    below 0 on ss, where ``_handle1_cap`` would read delta, raises
    BuildError, which is not cached."""
    s_hi = math.pi / 2.0
    w_flat = min(0.05, 0.25 * (s_hi - eps1))
    base = _alpha_base(lambda1, eps1, (eps1, s_hi))
    alpha = _flatten_start(base, eps1, w_flat)
    ss = read_only(sorted_unique(np.concatenate([
        grid_points(eps1, s_hi, grid),
        np.linspace(eps1, eps1 + w_flat, 257),
        eps1 + np.linspace(0.0, 3e-3 * w_flat, 65),
    ])))
    jet = _read_only_jet(alpha, ss)
    if np.any(jet[0] < 0):
        raise BuildError(f"the cap height dips below 0, to "
                         f"{float(jet[0].min())!r}")
    interior = ss[ss < s_hi - 1e-9]
    chain = lambda1 * np.tan(interior) - np.tan(lambda1 * (interior - eps1))
    r_max = math.tan(lambda1 * (s_hi - eps1)) / lambda1
    return (alpha, ss, jet,
            _min_margin("tan_chain", interior, chain),
            _cap_concavity(lambda1, eps1, r_max),
            float(alpha.eval(s_hi, 0)), float(alpha.eval(s_hi, 1)))


def _cap_concavity(lambda1: float, eps1: float, r_max: float) -> Margin:
    """The cap_concavity margin: the minimum of -phi'' (``_cap_profile``)
    over a grid on [0, r_max] holding both ends, taken at the two ends.
    With u = arctan(lambda1 r), -phi'' = (1 - lambda1^2) sin(u/lambda1 +
    eps1) cos^3 u, a product of log-concave factors of u on [0, lambda1
    (pi/2 - eps1)], so it is log-concave in u, and so unimodal (Boyd &
    Vandenberghe, *Convex Optimization*, §3.5): over any grid it is least
    at the first or the last point.  Ties go to r = 0, as ``np.argmin``
    sends them to the first point."""
    ends = np.array([0.0, r_max])
    return _min_margin("cap_concavity", ends,
                       -_cap_profile(lambda1, eps1, ends)[1])


def _cap_profile(lambda1: float, eps1: float, rr: np.ndarray):
    """The cap profile phi and its phi'' at rr in the linear-slope model:
    phi = sin(s) sqrt(1 + l^2 r^2) and phi'' = sin(s) (l^2 - 1) / (1 + l^2
    r^2)^1.5, with s = arctan(l r)/l + eps1."""
    sin_s = np.sin(np.arctan(lambda1 * rr) / lambda1 + eps1)
    stretch = 1.0 + lambda1 * lambda1 * rr * rr
    return (sin_s * np.sqrt(stretch),
            sin_s * (lambda1 * lambda1 - 1.0) / stretch ** 1.5)


def corner_angle_handle1(lambda1: float, eps1: float) -> float:
    """Corner angle of the cut in the linear-slope model: arccos of
    (2 a' - F^2) / (sqrt(a'^2 + F^2) sqrt(4 + F^2)) with
    F = sec(lambda1 (pi/2 - eps1)) and a' = sin/cos^2 at the same argument.
    """
    x = lambda1 * (math.pi / 2.0 - eps1)
    if not x < math.pi / 2.0:
        raise BuildError("lambda1 (pi/2 - eps1) must stay below pi/2")
    F = 1.0 / math.cos(x)
    ap = math.sin(x) / math.cos(x) ** 2
    cos_theta = (2.0 * ap - F * F) / (math.sqrt(ap * ap + F * F)
                                      * math.sqrt(4.0 + F * F))
    return math.acos(max(-1.0, min(1.0, cos_theta)))


def _face_speed(dT: Jet, fdS: Jet) -> Jet:
    """Speed |(T', f(T) S')| of a face of dt^2 + f(t)^2 (ds^2 + R(s)^2
    g_sphere) traced as (T, S), from jets of T' and f(T) S'.  The face's
    arc-length nodes ``cumulative_hermite(ts, *speed[:2])`` read only
    orders 0-1, and those come from orders 0-1 of dT and fdS alone."""
    return (dT * dT + fdS * fdS).sqrt()


def _face_warp(fT: Jet, RS: Jet, speed: Jet, u) -> SmoothCurve:
    """The face's warp f(T) R(S), from jets of f(T) and R(S), over its
    arc-length nodes u (the integral of ``speed``) as a table of exact jet
    columns."""
    return table_curve(u, (fT * RS).reparam(Jet(u, *speed)))


def _handle1_arc(h: Jet, sweep: dict, ss) -> np.ndarray:
    """Arc-length nodes on ss of the graph t = height(s), from the
    height's orders 1-2 on ss (the Jet h) and f and f' at the height (its
    ``graph_ii_sweep``'s columns)."""
    fh = h[:2].chain((sweep["f"], sweep["f_d"]))
    return cumulative_hermite(ss, *_face_speed(h[:3].d(), fh))


def _handle1_face(f: SmoothCurve, R: SmoothCurve, h: Jet, sweep: dict, ss,
                  u):
    """The warp table and the (value, slope) principal-curvature tables of
    the graph t = height(s) over its arc-length nodes u, from the height's
    orders 0-3 on ss (the Jet h) and its ``graph_ii_sweep`` on ss, which
    read f to order 1."""
    fh = h.chain((sweep["f"], sweep["f_d"], f.eval(h[0], 2),
                  f.eval(h[0], 3)))
    fa, a1 = fh[0], h[1]
    ii = {"radial": sweep["radial"] / (fa ** 2 + a1 ** 2),
          "sphere": sweep["sphere"] / fa ** 2}
    return (_face_warp(fh, R.jet(ss, 3), _face_speed(h.d(), fh[:3]), u),
            _tabs_from_samples(u, ii))


def _handle1_profile(lambda1: float, lambda2: float, delta: float,
                     eps1: float) -> SmoothCurve:
    """handle1's concave profile f on [-delta, t_max], t_max beyond the
    height the cut at eps1 reaches in the linear-slope model; a delta that
    takes the inner slope to 1 is a BuildError."""
    x_top = lambda1 * (math.pi / 2.0 - eps1)
    alpha_top_lin = (1.0 / math.cos(x_top) - 1.0) / lambda1
    try:
        return make_concave_profile(lambda1, lambda2, delta,
                                    t_max=alpha_top_lin / lambda1 + 10.0)
    except ValueError as exc:           # the inner slope reaches 1
        raise BuildError(f"concave profile infeasible: {exc}") from exc


def _handle1_sphere(K: float, eps1: float, eps2: float) -> SmoothCurve:
    """handle1's sphere warp R(s) = K sin s, on a domain holding both
    faces' grids, [eps1, pi/2] and [pi/2, pi/2 + eps2]."""
    return sine_curve(K, 1.0, 0.0, (0.5 * eps1, math.pi / 2.0 + eps2 + 0.05))


@per_key(maxsize=1)
def _handle1_cap(K: float, lambda1: float, lambda2: float, eps1: float,
                 grid):
    """handle1's cap face at (K, lambda1, lambda2, eps1) and grid density,
    as (ss, cap_ii, u_arc): the cap grid ss of ``_handle1_height``, the
    ``graph_ii_sweep`` of the height on it, its columns read-only, and the
    face's arc-length nodes on ss.  None of them reads n, eps2 or delta:
    the sweep reads R on ss alone and f at heights >= 0 alone, and eps2
    and delta move only the far end of R's domain and the near end of f's,
    so the cap takes eps2 = delta = 0.  Built once per key, the only
    parameters it reads; it keeps one, the key a build just made, which
    its report's sweeps and boundary read.  A key holds five arrays on ss
    besides ss itself, about 140 KB at the default grid (tracemalloc)."""
    _, ss, height, *_ = _handle1_height(lambda1, eps1, grid)
    cap_ii = graph_ii_sweep(_handle1_profile(lambda1, lambda2, 0.0, eps1),
                            _handle1_sphere(K, eps1, 0.0), height, ss)
    cap_ii = {k: read_only(v) for k, v in cap_ii.items()}
    return ss, cap_ii, read_only(_handle1_arc(height, cap_ii, ss))


@per_key(maxsize=256)
def _handle1_cap_margins(K: float, lambda1: float, lambda2: float,
                         eps1: float, grid):
    """The head of ``_handle1_cap``: its radial_ii_cap and sphere_ii_cap
    Margins (frozen) and u_cap, the cap face's arc length.  Built once
    per (K, lambda1, lambda2, eps1, grid) and shared by every sample there
    whatever its n, eps2 and delta.  A key holds no arrays, two Margins
    and a float, under 1 KB, so the 256 kept (the benchmark's handle1-tied
    lattice has 45 such keys) retain under 0.3 MB."""
    ss, cap_ii, u_arc = _handle1_cap(K, lambda1, lambda2, eps1, grid)
    return (_min_margin("radial_ii_cap", ss, cap_ii["radial"]),
            _min_margin("sphere_ii_cap", ss, cap_ii["sphere"]),
            float(u_arc[-1]))


@domain(n=Dims(3), K=Reals(0, 1), lambda1=Reals(0, 1),
        lambda2=Reals(0, 1), eps1=Reals(0, math.pi / 4),
        eps2=Reals(0, 1, "(]"), delta=Reals(0))
def build_handle1(n: int, K: float, lambda1: float, lambda2: float,
                  eps1: float, eps2: float, delta: float,
                  grid=None) -> Report:
    """Cut-cone handle over the stretched core: certifies positivity of the
    graph second fundamental form on both zones, concavity of the cap
    profile, a corner angle below pi/2 and the inner-face curvature floor.

    What a sample shares with others comes from caches, keyed by the
    parameters they read.  ``_handle1_height(lambda1, eps1, grid)`` keeps
    the cap side: the height alpha, the cap grid ss, alpha's jet (orders
    0-3) on ss, the tan_chain and cap_concavity margins, and alpha(pi/2)
    and alpha'(pi/2).  ``_handle1_beta(eps2, grid)`` keeps the outer face:
    beta, its grid so, beta's jet on so and beta'(pi/2); the outer
    height's jet is that jet plus alpha(pi/2) at order 0, as ``beta.plus``
    adds it.  Each face's ``graph_ii_sweep`` reads the height from these
    jets.  The cap face's sweep and arc length read neither n, eps2 nor
    delta: ``_handle1_cap(K, lambda1, lambda2, eps1, grid)`` builds them,
    and ``_handle1_cap_margins`` keeps, per such key, the radial_ii_cap
    and sphere_ii_cap margins and u_cap, so a sample builds only its outer
    face's sweep.

    The cap_concavity margin is certified at the two ends of the cap
    profile's grid on [0, r_max] (``_cap_concavity``): -phi'' there is
    (1 - lambda1^2) sin(u/lambda1 + eps1) cos^3 u with u = arctan(lambda1
    r), log-concave in u and so unimodal, so its least sample on any grid
    holding both ends is at one of them; the value and argmin are those of
    the whole grid, bit for bit.

    The sweeps, with the cap_profile columns (phi, phi'') on that grid, are
    built on the first read of ``Report.sweeps``, and the boundary
    profiles on the first read of ``Report.boundary``: each face's warp
    columns (orders 0-3 over its arc length) from Jet arithmetic, exact to
    rounding, and its principal-curvature profiles as value and slope,
    one stencil per grid (``_tabs_from_samples``).  Both read the cap face
    from ``_handle1_cap``: the face a build has just made when the margins
    missed.  ``Report.aux`` is built on its first read too; the outer
    face's arc length, which ``aux["outer_arc_length"]`` and the outer
    boundary read, is computed once, on the first read of either.
    """
    if not lambda1 < lambda2:
        raise BuildError("need lambda1 < lambda2")
    if not math.pi / 2.0 + eps2 > math.pi / 2.0:
        raise BuildError(f"eps2={eps2!r} is below the rounding of pi/2: "
                         f"the outer face [pi/2, pi/2 + eps2] is empty")
    x_top = lambda1 * (math.pi / 2.0 - eps1)
    if x_top >= math.pi / 2.0 - 1e-9:
        raise BuildError("cut reaches the pole: decrease lambda1 or eps1")

    f = _handle1_profile(lambda1, lambda2, delta, eps1)
    lam = f.info["slope_at_inner"]

    s_hi = math.pi / 2.0
    alpha, ss, height, tan_chain, cap_concavity, alpha_top, ap = \
        _handle1_height(float(lambda1), float(eps1), grid)
    # the outer face descends by eps2 from alpha_top and must stay on the
    # profile's domain [-delta, ...]
    if alpha_top - eps2 < -delta:
        raise BuildError(
            f"need eps2 <= alpha(pi/2) + delta = {alpha_top + delta:.6g} so "
            f"the outer face stays on the concave profile; got eps2={eps2}")

    R_sphere = _handle1_sphere(K, eps1, eps2)

    cap_key = (float(K), float(lambda1), float(lambda2), float(eps1), grid)
    radial_cap, sphere_cap, u_cap = _handle1_cap_margins(*cap_key)
    margins = [radial_cap, sphere_cap, tan_chain]

    beta, so, beta_jet, bp = _handle1_beta(float(eps2), grid)
    height_out = beta_jet + alpha_top       # alpha_out's jet on so
    out_ii = graph_ii_sweep(f, R_sphere, height_out, so)
    margins.append(_min_margin("radial_ii_outer", so, out_ii["radial"]))
    margins.append(_min_margin("sphere_ii_outer", so, out_ii["sphere"]))

    r_max = math.tan(x_top) / lambda1
    margins.append(cap_concavity)
    margins.append(Margin("cap_slope_gap", 1.0 - math.cos(eps1), 0.0))

    # corner angle: actual curve data (alpha' and beta' at pi/2, kept with
    # the faces) against the linear-slope closed form
    F = float(f.eval(alpha_top, 0))
    cos_theta = (-ap * bp - F * F) / (math.sqrt(ap * ap + F * F)
                                      * math.sqrt(bp * bp + F * F))
    theta = math.acos(max(-1.0, min(1.0, cos_theta)))
    theta_cf = corner_angle_handle1(lambda1, eps1)
    margins.append(Margin("corner_angle", math.pi / 2.0 - theta, s_hi))
    agree_tol = 10.0 * (lambda2 - lambda1)
    margins.append(Margin("angle_agreement",
                          agree_tol - abs(theta - theta_cf), s_hi))
    sign_cf = 2.0 * math.sin(x_top) - 1.0
    margins.append(Margin(
        "angle_sign_agreement",
        1.0 if (math.cos(theta) > 0) == (sign_cf > 0) else -1.0, s_hi))
    margins.append(Margin("inner_slope_gap", 1.0 - lam, -delta))

    # the outer face's arc length, built on the first read of the aux or
    # the boundary profiles, whose outer face's far end seeds the next
    # piece's boundary data
    arc = []

    def outer_arc():
        if not arc:
            arc.append(_handle1_arc(height_out, out_ii, so))
        return arc[0]

    def profiles():
        r_arc = outer_arc()
        _, cap_ii, u_arc = _handle1_cap(*cap_key)
        cap_warp, cap_pc = _handle1_face(f, R_sphere, height, cap_ii, ss,
                                         u_arc)
        rim = Corner("rim", theta, ("cap", "outer"),
                     {"cap": u_cap, "outer": 0.0})
        outer_warp, dug_pc = _handle1_face(f, R_sphere, height_out, out_ii,
                                           so, r_arc)
        # past the dug zone the face is a slice with curvature f'/f
        far = beta.plus(alpha_top).eval(s_hi + eps2)
        flat_pc = float(f.eval(far, 1) / f.eval(far, 0))
        tail_len = 2.0 * float(r_arc[-1])
        outer_ii = {
            key: piecewise_curve([
                (0.0, r_arc[-1], dug_pc[key]),
                (r_arc[-1], r_arc[-1] + tail_len,
                 constant_curve(flat_pc, (r_arc[-1], r_arc[-1] + tail_len)))])
            for key in ("radial", "sphere")}
        return {
            "bottom": BoundaryProfile(
                dimension=n, kind="warped-sphere",
                metric={"warp": sine_curve(K, 1.0, 0.0, (eps1, s_hi + eps2)),
                        "descriptor": "stretched-core"},
                ii={"radial": -lam, "sphere": -lam}),
            "cap": BoundaryProfile(
                dimension=n, kind="warped-sphere",
                metric={"warp": cap_warp, "descriptor": "cap"}, ii=cap_pc,
                corners=[rim]),
            "outer": BoundaryProfile(
                dimension=n, kind="warped-sphere",
                metric={"warp": outer_warp, "descriptor": "shared-collar"},
                ii=outer_ii, corners=[rim])}

    def sweeps():
        cap_ii = _handle1_cap(*cap_key)[1]
        rr = grid_points(0.0, r_max, grid, min_points=513)
        phi, phi_dd = _cap_profile(lambda1, eps1, rr)
        return {
            "cap_face": {"t": ss, "columns": {
                "radial_ii": cap_ii["radial"],
                "sphere_ii": cap_ii["sphere"],
                "alpha": height[0]}},
            "outer_face": {"t": so, "columns": {
                "radial_ii": out_ii["radial"],
                "sphere_ii": out_ii["sphere"],
                "beta": beta_jet[0]}},
            "cap_profile": {"t": rr, "columns": {
                "phi": phi, "phi_dd": phi_dd}},
        }

    return Report(
        block="handle1",
        params={"n": n, "K": K, "lambda1": lambda1, "lambda2": lambda2,
                "eps1": eps1, "eps2": eps2, "delta": delta},
        margins=margins,
        boundary=profiles,
        aux=lambda: {"theta": theta, "theta_closed_form": theta_cf,
                     "angle_tolerance": agree_tol, "lambda": lam,
                     "alpha_top": alpha_top, "r_max": r_max,
                     "f_scale_at_corner": F, "u_cap": u_cap,
                     "outer_arc_length": float(outer_arc()[-1]),
                     "curves": {"f": f, "alpha": alpha, "beta": beta}},
        sweeps=sweeps)


# ---------------------------------------------------------------------------
# Second handle piece: the collar dug along a slow graph.
# ---------------------------------------------------------------------------

@domain(a=Reals(0, ends="[)"))
def corner_angle_handle2(a: float) -> float:
    """Corner angle of the dug collar: arccos(-a / sqrt(1 + a^2))."""
    return math.acos(-a / math.sqrt(1.0 + a * a))


def check_handle2_domain(lambda1: float, lambda2: float, b: float) -> None:
    """Raise BuildError unless lambda1 < lambda2 and b < 1/(2 lambda2): the
    domain of build_handle2, and of its closed-form bound."""
    if not lambda1 < lambda2:
        raise BuildError(f"lambda1 must stay below lambda2 = {lambda2!r}, "
                         f"got {lambda1!r}")
    if b >= 1.0 / (2.0 * lambda2):
        raise BuildError(f"b must stay below 1/(2 lambda2) = "
                         f"{1.0 / (2 * lambda2):.4f}")


def closed_form_handle2(lambda1: float, lambda2: float, a: float, b: float,
                        ts: np.ndarray) -> np.ndarray:
    """Conservative closed-form lower bound for the dug face's radial
    second fundamental form at ts in [0, b)."""
    return (-a * a * lambda2 * (1.0 + lambda2 * b)
            - 2.0 * lambda2 / (1.0 + lambda1 * ts)
            + 1.0 / (b - ts))


@per_key(maxsize=8)
def _slope_end_window(w: float) -> SurgeryWindow:
    """_flatten_slope_end's window of width w: one plateau over it."""
    return SurgeryWindow(np.linspace(0.0, w, 2049), unit_plateaus([(0.0, w)]))


def _flatten_slope_end(f: SmoothCurve, tau: float,
                       t_end: float) -> SmoothCurve:
    """Continue f past tau with f'' < 0 so that all derivatives vanish at
    t_end (slope rides down to zero along a plateau profile).  The window
    is built once per width t_end - tau (``_slope_end_window``)."""
    w = t_end - tau
    win, _ = second_derivative_surgery(
        tau, _slope_end_window(w), _step_weighted(f, tau, w, True),
        (f.eval(tau, 0), f.eval(tau, 1)), 0.0)
    return piecewise_curve([(f.t_lo, tau, f), (tau, t_end, win)])


def _handle2_grids(b: float, grid):
    """handle2's sample grids at grid density: ts on the dug face's [0,
    0.98 b] and tf on the face metric's [0, 0.98 (b + 1)]."""
    return (read_only(grid_points(0.0, 0.98 * b, grid, min_points=1025)),
            read_only(grid_points(0.0, 0.98 * (b + 1.0), grid,
                                  min_points=1025)))


@per_key(maxsize=16)
def _handle2_collar(lambda1: float, lambda2: float, b: float, grid):
    """handle2's collar at (lambda1, lambda2, b) and grid density, as (f,
    fv, f1, jet, flatness).  The warp f on [0, b + 1] is the concave
    profile with slopes lambda1 and lambda2, flattened past b + 0.5 so that
    all its derivatives vanish at b + 1; fv and f1 are f and f' on the dug
    face's grid ts, jet f's orders 0-3 on the face metric's grid tf
    (``_handle2_grids``), and flatness ``flatness_margin(f, b + 1)``.
    Built once per (lambda1, lambda2, b, grid), the only parameters they
    read; the curve and the read-only arrays are read, never changed, by
    the handle they go into.  At the default grid a key holds about 134 KB
    of tables and 96 KB per unit of b in its six arrays (about 340 KB at b
    = 1.5, 390 KB at b = 2), so the 16 kept retain about 6.2 MB at b = 2;
    the arrays grow linearly with b and with the grid density."""
    t_end = b + 1.0
    f_raw = make_concave_profile(lambda1, lambda2, delta=0.01,
                                 t_max=t_end + 1.0)
    f = _flatten_slope_end(f_raw.restrict(0.0, t_end + 0.5), b + 0.5, t_end)
    ts, tf = _handle2_grids(b, grid)
    return (f, read_only(f.eval(ts, 0)), read_only(f.eval(ts, 1)),
            _read_only_jet(f, tf), flatness_margin(f, t_end))


def _handle2_graph(a: float, b: float, grid):
    """handle2's dug graph at (a, b) and grid density, as (beta, ts, jet,
    tf, jet_f).  beta on [0, b + 1] is the antiderivative from 0 of beta' =
    a (t/b - 1) chi(t - b), where chi is one up to -1 and zero from 0; ts
    and tf are the grids of ``_handle2_grids``, jet beta's orders 0-2 on ts
    and jet_f its orders 0-3 on tf, read-only, as ``_handle2_face`` keeps
    them.  It is not cached: only ``_handle2_face`` reads it, once per key
    of its own, and the face's head keeps beta for the report's aux."""
    def beta1(t, orders):
        t, n = np.asarray(t, float), max(orders)
        lin = Jet(a * (t / b - 1.0), a / b, 0.0, 0.0)[:n + 1]
        chi = 1.0 - Jet(*(smooth_step(t - b + 1.0, k) for k in range(n + 1)))
        return [v for k, v in enumerate(lin * chi) if k in orders]

    beta = antiderivative_curve((0.0, b + 1.0), 4097, beta1)
    ts, tf = _handle2_grids(b, grid)
    return beta, ts, _read_only_jet(beta, ts, 2), tf, _read_only_jet(beta, tf)


@per_key(maxsize=1)
def _handle2_face(B: SmoothCurve, lambda1: float, lambda2: float, a: float,
                  b: float, grid):
    """What handle2 certifies from the boundary profile B at (lambda1,
    lambda2, a, b) and grid density, as (head, sweeps, pieces): head is
    ``_handle2_face_margins``'s value, sweeps the dug_face and face_metric
    sweeps (read-only columns) and pieces (f, beta's jet on tf, f's jet on
    tf, B'/B at beta's heights on tf, the arc-length nodes, the face
    warp), which the boundary profiles read.  It checks that B is convex
    near its boundary and that its cubic extension reaches the collar's
    depth; a BuildError is not cached.  Built once per key, the only
    parameters it reads: eps and nu enter two scalar margins only.  A key
    holds about 390 KB at the default grid and b = 1.5 (480 KB at b = 2,
    tracemalloc), so it keeps one: the key a build just made, which its
    report's sweeps and boundary read."""
    # written so that NaN fails: every comparison with NaN is False
    probe = np.linspace(0.0, min(B.t_hi, 0.5), 65)
    if not 0 < B.eval(0.0, 0) < math.inf \
            or not np.all(B.eval(probe, 1) < 0) \
            or not np.all(B.eval(probe, 2) < 0):
        raise BuildError("B must have finite B > 0, B' < 0 and B'' < 0 "
                         "near the boundary")

    t_end = b + 1.0
    f, fv, f1, fw, flatness = _handle2_collar(lambda1, lambda2, b, grid)
    beta, ts, (bs, bp, bpp), tf, bt = _handle2_graph(a, b, grid)
    beta_end = float(beta.eval(t_end, 0))
    delta_prime = 1.05 * abs(beta_end)

    # cubic Hermite extension of B to [-delta', 0]; the third derivative is
    # chosen as zero, which keeps B'' constant (hence negative) throughout
    B0, B1, B2 = B.eval(0.0, 0), B.eval(0.0, 1), B.eval(0.0, 2)
    if B1 - B2 * delta_prime >= 0 or B0 - B1 * delta_prime <= 0:
        raise BuildError(
            f"extension infeasible: collar depth {delta_prime:.4f} too "
            f"deep for B'({B1:.4f}), B''({B2:.4f})")
    ext = poly_curve([B0, B1, B2 / 2.0], (-delta_prime, 0.0))
    B_full = piecewise_curve([(-delta_prime, 0.0, ext),
                              (0.0, B.t_hi, B)])

    # dug-face second fundamental form on t in [0, 0.98 b]: the face s =
    # beta(t) is the graph t = alpha(s) of alpha = beta^-1:
    # alpha' = 1/beta', alpha'' = -beta''/beta'^3, normal toward -t
    dug = graph_ii_columns(fv, f1, 1.0 / bp, -bpp / bp ** 3,
                           B_full.eval(bs, 0), B_full.eval(bs, 1), -1.0)
    radial, sphere = dug["radial"], dug["sphere"]
    bracket = -bp ** 2 * f1 * fv - 2.0 * f1 / fv - bpp / bp
    closed_form = closed_form_handle2(lambda1, lambda2, a, b, ts)

    # the face s = beta(t), metric (1 + beta'^2 f^2) dt^2 + ...: its warp
    # over arc length, which the face curvature margins read
    bchain = B_full.jet(bt[0], 3)
    speed = _face_speed(Jet(1.0, 0.0, 0.0), fw[:3] * bt.d())
    arc = read_only(cumulative_hermite(tf, *speed[:2]))
    face_warp = _face_warp(fw, bt.chain(bchain), speed, arc)
    warp, warp_r, warp_rr, _ = face_warp.nodes[1]     # in arc length
    sec_radial = -warp_rr / warp
    sec_sphere = (1.0 - warp_r ** 2) / warp ** 2
    margins = (
        _min_margin("radial_ii", ts, radial),
        _min_margin("sphere_ii", ts, sphere),
        _min_margin("closed_form_radial", ts, closed_form),
        _min_margin("conservativity", ts, bracket + 1e-9 - closed_form),
        _min_margin("face_sec_radial", tf, sec_radial),
        _min_margin("face_sec_sphere", tf, sec_sphere),
        Margin("collar_flatness", 1e-8 - flatness, t_end))
    head = (margins, t_end, beta_end, delta_prime, float(f.eval(t_end, 0)),
            beta, B_full)
    sweeps = {"dug_face": (ts, {"radial_ii": radial, "sphere_ii": sphere,
                                "closed_form": closed_form}),
              "face_metric": (tf, {"warp": warp, "sec_radial": sec_radial,
                                   "sec_sphere": sec_sphere})}
    sweeps = {name: (t, {k: read_only(v) for k, v in columns.items()})
              for name, (t, columns) in sweeps.items()}
    # the graph face's sphere curvature reads B'/B at beta's heights
    B_log_slope = read_only(bchain[1] / bchain[0])
    return head, sweeps, (f, bt, fw, B_log_slope, arc, face_warp)


@per_key(maxsize=64)
def _handle2_face_margins(B: SmoothCurve, lambda1: float, lambda2: float,
                          a: float, b: float, grid):
    """The head of ``_handle2_face``: its seven margins that read neither
    eps nor nu (radial_ii, sphere_ii, closed_form_radial, conservativity,
    face_sec_radial, face_sec_sphere, collar_flatness, frozen), t_end,
    beta_end, delta_prime, f_end, beta (its 4097-node table, about 98 KB)
    and B_full.  Built once per (B, lambda1, lambda2, a, b, grid) and
    shared by every sample there whatever its eps and nu.  A key holds no
    sample arrays, so the 64 kept retain about 6.7 MB besides their Bs."""
    return _handle2_face(B, lambda1, lambda2, a, b, grid)[0]


@domain(lambda1=Reals(0, 1), lambda2=Reals(0, 1), a=Reals(0), b=Reals(1),
        eps=Reals(0), nu=Reals(0))
def build_handle2(B: SmoothCurve, lambda1: float, lambda2: float, a: float,
                  b: float, eps: float, nu: float,
                  grid=None) -> Report:
    """Collar piece dug along the graph s = beta(t) into a cubic extension
    of the boundary profile B; certifies the corner angle, positivity of
    the dug face's second fundamental form (with the conservative closed
    form), positive curvature of the face metric, the inner-face floor
    -nu, and flatness of the collar warp at the far end.

    What a sample shares with others comes from caches keyed by the
    parameters they read.  ``_handle2_collar(lambda1, lambda2, b, grid)``
    keeps the collar warp f, f and f' on the dug face's grid ts, f's jet
    (orders 0-3) on the face metric's grid tf and the flatness of f at b +
    1.  What reads a or B, the dug graph beta (``_handle2_graph``), B's
    extension B_full at beta's heights, the dug face's II columns and the
    face warp, is built once per (B, lambda1, lambda2, a, b, grid) by
    ``_handle2_face``, and its seven margins, which read neither eps nor
    nu, are kept by ``_handle2_face_margins`` with beta; only corner_angle
    and bottom_convexity are per sample.  B is a key by identity, so a scan
    shares one B across its samples (``feasibility`` keeps one default
    profile per scale) and a fresh B builds its face once.

    The sweeps are built on the first read of ``Report.sweeps`` and the
    boundary profiles on the first read of ``Report.boundary``, as handle1
    builds its own, both from ``_handle2_face``: the face a build has just
    made when the margins missed."""
    check_handle2_domain(lambda1, lambda2, b)
    if not isinstance(B, SmoothCurve):
        raise BuildError("B must be a SmoothCurve")
    if B.t_lo > 1e-12:
        raise BuildError("B must be parametrized by distance from its "
                         "boundary (domain starting at 0)")

    l1, l2, fa, fb = float(lambda1), float(lambda2), float(a), float(b)
    key = (B, l1, l2, fa, fb, grid)
    face, t_end, beta_end, delta_prime, f_end, beta, B_full = \
        _handle2_face_margins(*key)
    theta = corner_angle_handle2(a)
    margins = [*face[:4],
               Margin("corner_angle", math.pi / 2.0 + eps - theta, 0.0),
               Margin("bottom_convexity", nu - lambda2, 0.0),
               *face[4:]]
    dim = int(B.info.get("dimension", 0) or 0)

    def profiles():
        f, bt, fw, B_log_slope, arc, face_warp = _handle2_face(*key)[2]
        # curvatures written so the vertical tail |beta'| -> 0 stays finite
        bpf = np.abs(bt[1])
        qf = 1.0 + (fw[0] * bpf) ** 2
        pc_radial = fw[0] * (bt[2] - bpf ** 3 * fw[1] * fw[0]
                             - 2.0 * bpf * fw[1] / fw[0]) / qf ** 1.5
        pc_sphere = ((-bpf * fw[1] * fw[0] - B_log_slope)
                     / (fw[0] * np.sqrt(qf)))
        rim = Corner("rim", theta, ("graph_face", "bottom"),
                     {"graph_face": 0.0, "bottom": 0.0})
        return {
            "bottom": BoundaryProfile(
                dimension=dim, kind="warped-sphere",
                metric={"warp": B.restrict(0.0, B.t_hi),
                        "descriptor": "shared-collar"},
                ii={"radial": -lambda2, "sphere": -lambda2}, corners=[rim]),
            "graph_face": BoundaryProfile(
                dimension=dim, kind="warped-sphere",
                metric={"warp": face_warp, "descriptor": "cap"},
                ii=_tabs_from_samples(arc, {"radial": pc_radial,
                                            "sphere": pc_sphere}),
                corners=[rim]),
            "top": BoundaryProfile(
                dimension=dim, kind="warped-sphere",
                metric={"warp": B.metric_rescale(f_end), "collar_warp": f,
                        "descriptor": "shared-collar"},
                ii={"radial": 0.0, "sphere": 0.0})}

    def sweeps():
        return {name: {"t": t, "columns": dict(columns)}
                for name, (t, columns) in _handle2_face(*key)[1].items()}

    return Report(
        block="handle2",
        params={"lambda1": lambda1, "lambda2": lambda2, "a": a, "b": b,
                "eps": eps, "nu": nu},
        margins=margins,
        boundary=profiles,
        aux={"theta": theta, "t_end": t_end, "beta_end": beta_end,
             "delta_prime": delta_prime, "f_end": f_end,
             "curves": {"f": _handle2_collar(l1, l2, fb, grid)[0],
                        "beta": beta,
                        "B_full": B_full}},
        sweeps=sweeps)


def assemble_handle(n: int, K: float, params1: dict, params2: dict,
                    grid=None) -> Report:
    """Glue the two handle pieces along the shared face and run the corner
    checks: positive cross sums, angle sum below pi, and positive second
    fundamental form on the adjacent faces near the corner.  ``grid`` is
    the sample density of both pieces."""
    rep1 = build_handle1(n, K, **params1, grid=grid)
    if not rep1.passed:
        rep1.block = "handle-assembly"
        return rep1
    R_h = rep1.aux["f_scale_at_corner"] * K
    outer = rep1.boundary["outer"]
    B_hat = outer.metric["warp"].metric_rescale(1.0 / R_h).with_info(
        dimension=n)
    rep2 = build_handle2(B_hat, **params2, grid=grid)
    margins = [Margin(f"piece1:{m.label}", m.min, m.argmin)
               for m in rep1.margins]
    margins += [Margin(f"piece2:{m.label}", m.min, m.argmin)
                for m in rep2.margins]
    if not rep2.passed:
        return Report("handle-assembly",
                           {"n": n, "K": K, **{f"p1_{k}": v for k, v in
                                               params1.items()},
                            **{f"p2_{k}": v for k, v in params2.items()}},
                           margins)

    atlas2 = {"outer": rep2.boundary["bottom"].rescale(R_h),
              "graph_face": rep2.boundary["graph_face"].rescale(R_h),
              "collar": rep2.boundary["top"].rescale(R_h)}
    glue = check_corner_gluing(rep1.boundary, atlas2, "outer", tol=0.0)
    margins += [Margin(f"glue:{m.label}", m.min, m.argmin)
                for m in glue.margins]

    matched = outer.metric["warp"]
    other = atlas2["outer"].metric["warp"]
    ts = np.linspace(0.0, min(matched.t_hi, other.t_hi), 257)
    match_dev = float(np.max(np.abs(matched.eval(ts) - other.eval(ts))))
    margins.append(Margin("boundary_curve_match", 1e-9 - match_dev))

    boundary = {"bottom": rep1.boundary["bottom"],
                "cap": rep1.boundary["cap"],
                "collar": atlas2["collar"]}
    return Report(
        "handle-assembly",
        {"n": n, "K": K, **{f"p1_{k}": v for k, v in params1.items()},
         **{f"p2_{k}": v for k, v in params2.items()}},
        margins, boundary,
        aux={"theta1": rep1.aux["theta"], "theta2": rep2.aux["theta"],
             "angle_sum": rep1.aux["theta"] + rep2.aux["theta"],
             "rescale": R_h, "lambda": rep1.aux["lambda"]},
        sweeps=lambda: {
            **{f"piece1_{k}": v for k, v in rep1.sweeps.items()},
            **{f"piece2_{k}": v for k, v in rep2.sweeps.items()}})


# ---------------------------------------------------------------------------
# Curvature-transfer cylinder over a fibre bundle.
# ---------------------------------------------------------------------------

@per_key(maxsize=32)
def _transfer_curves(C: float):
    """The (h0, fC) tables of the transfer warping system at coupling C.
    ``integrate_transfer_odes`` is looked up as a module global at each
    miss, so a wrapper installed on ``blocks.integrate_transfer_odes``
    sees every table build."""
    return integrate_transfer_odes(C)


def _transfer_identity_columns(jets, p: int, q: int, C: float,
                               f_scale: float, h_scale: float,
                               a_bounds: ABounds) -> dict:
    """``bundle_warped_sweep``'s ric_XX, ric_VV and mixed columns,
    flattened, for the bundle metric with warps f = f_scale F and
    h = h_scale g and unit Ricci floors, from the jets ((g, g'), (F, F'))
    of the transfer tables g = h0 and F = fC at C, arrays of one shape.
    The system's identities stand in for the second derivatives: with
    E = e^{-g^2}, u = F'/F and w = g'/g, f''/f = C E and h''/h = -E, so

        ric_XX = -C E + (q - 1)(1/f^2 - u^2) - p u w
        ric_VV = E + (p - 1)(1/h^2 - w^2) - q u w

    and the A-terms are ``_bundle_warped_columns``'s, as it writes them.
    (ric_tt = (p - qC) E needs no column: the block takes it from its
    lemma.)"""
    (g, g1), (F, F1) = jets
    gg = g * g
    E = np.exp(-gg)
    u = F1 / F
    w = g1 / g
    uw = u * w
    ric_xx = (-C * E + (q - 1) * (f_scale ** -2 / (F * F) - u * u)
              - p * uw)
    ric_vv = E + (p - 1) * (h_scale ** -2 / gg - w * w) - q * uw
    if not a_bounds.trivial:
        fv, hv = f_scale * F, h_scale * g
    if a_bounds.sup_AX2:
        ric_xx -= 2.0 * (hv ** 2 / fv ** 4) * a_bounds.sup_AX2
    ric_xv = ((hv / fv ** 3) * a_bounds.sup_deltaA if a_bounds.sup_deltaA
              else np.zeros_like(E))
    return {"ric_XX_lb": ric_xx.ravel(), "ric_VV_lb": ric_vv.ravel(),
            "ric_XV_abs_ub": ric_xv.ravel()}


# Table segments per run of _transfer_ricci_margins's identity columns.  A
# run's columns are 60 KiB at 15 points a segment: below glibc's 128 KiB
# mmap threshold, so its temporaries reuse freed heap memory.  At 1024
# segments and above the columns cost 2-3 times as much per point, from
# page faults on fresh memory (2 cores, Python 3.11.7, numpy 2.4.6).
_TRANSFER_SEGMENTS = 512


def _transfer_ricci_margins(h0: SmoothCurve, fC: SmoothCurve, p: int,
                            q: int, C: float, f_scale: float,
                            h_scale: float, a_bounds: ABounds, t0: float,
                            n_grid: int, grid) -> list:
    """The transfer block's ric_XX, ric_VV and mixed_dominated margins on
    [0, t0], each the least of ``_transfer_identity_columns`` over samples
    that split every table segment before t0's into m equal parts,
    m = ceil(per_unit h) for the node spacing h (15 at the default 2048
    per unit: a spacing of exactly 1/2048), raised if need be until there
    are as many samples as the grid of [0, t0] has points, n_grid.  The
    samples before t0's segment come in ``hermite_subdivided``'s runs of
    _TRANSFER_SEGMENTS segments; those of t0's segment below t0, and t0,
    come last, through the tables' own jets.  When t0 lies in the first
    segment the samples are that grid.  Each run is reduced to its three
    least margins as it is made; ties and NaN go to the first sample in
    t order, as on one grid."""
    ts, g_cols = h0.nodes
    k = int(np.searchsorted(ts, t0, "right")) - 1     # t0's segment
    if k == 0:
        runs, last = (), np.linspace(0.0, t0, n_grid)
    else:
        h = ts[1] - ts[0]                             # uniform nodes
        per_unit = DEFAULT_GRID_PER_UNIT if grid is None else grid
        m = math.ceil(h * max(per_unit, 1024.0 / t0))
        while True:
            tail = ts[k] + np.arange(m) / m * h
            tail = tail[tail < t0]
            if k * m + len(tail) + 1 >= n_grid:
                break
            m += 1
        runs = hermite_subdivided(ts, (g_cols[:3], fC.nodes[1][:3]), 0, k,
                                  m, _TRANSFER_SEGMENTS)
        last = np.append(tail, t0)
    slack = 1e-12 if a_bounds.trivial else 0.0
    found = []
    for t, jets in itertools.chain(
            runs, [(last, (h0.jet(last, 1), fC.jet(last, 1)))]):
        t = t.ravel()
        cols = _transfer_identity_columns(jets, p, q, C, f_scale, h_scale,
                                          a_bounds)
        dom = (np.sqrt(np.maximum(cols["ric_XX_lb"], 0.0)
                       * np.maximum(cols["ric_VV_lb"], 0.0))
               - cols["ric_XV_abs_ub"])
        found.append([_min_margin("ric_XX", t, cols["ric_XX_lb"]),
                      _min_margin("ric_VV", t, cols["ric_VV_lb"]),
                      _min_margin("mixed_dominated", t, dom + slack)])
    return [per_label[int(np.argmin([mg.min for mg in per_label]))]
            for per_label in zip(*found)]


@domain(p=Dims(2), q=Dims(2), r0=Reals(0), nu=Reals(0), lam=Reals(0, 1),
        a=Reals(0), C=Reals(0, ends="[)"))
def build_transfer_block(p: int, q: int, r0: float, nu: float, lam: float,
                         a: float, C: float, a_bounds: ABounds | None = None,
                         grid=None) -> Report:
    """Cylinder metric built from the transfer warping system, stopped at
    the slope target lam; certifies the four Ricci bounds, domination of
    the mixed term, and the boundary curvature constraints at both ends.
    The base and the fibre carry unit Ricci floors.

    The warping system is tabulated once per C (``_transfer_curves``)
    from its exact series, on ``integrate_transfer_odes``'s default
    horizon t_max = 120; ``aux`` records the table's node intervals
    (``ode_steps``).  t0 is the root of fC' = lam r0 / (h0(0) a); fC' rises
    (fC'' > 0), so it is unique, and HorizonError says that it lies beyond
    the horizon.  fC'/(fC h0 h0') <= 1, which says that fC h0' does not
    rise, holds for small C only, so it is checked on [0, t0], at the
    table's nodes and at t0; a value above 1 raises BuildError naming it.
    Its lower bound 0 is a lemma (fC' >= 0).

    ric_tt = (p - qC) e^{-g^2}, with g = h0 rising from 1, is certified by
    that lemma: (p - qC) e^{-g(t0)^2} at t0 when p > qC, (p - qC)/e at
    t = 0 otherwise.  The other Ricci margins are sampled on the tables'
    own node segments (``_transfer_ricci_margins``): each segment before
    t0's is split into m = ceil(per_unit h) equal parts, h the node
    spacing (15 at the default 2048 per unit, so the samples lie exactly
    1/2048 apart), more if needed to reach grid_points' 1025-point floor,
    and t0's segment gives its points below t0, and t0; the system's
    identities give every row, so a build calls no sweep.  The grid sweep
    on ``grid_points(0, t0, grid, min_points=1025)``, which the CLI writes
    as transfer_ricci.csv, is built with its metric on the first read of
    ``Report.sweeps``."""
    a_bounds = a_bounds or ABounds()

    h0, fC = _transfer_curves(float(C))
    c = r0 / h0.eval(0.0, 0)
    target = lam * c / a
    ts_nodes, fcols = fC.nodes
    fcp = fcols[1]
    if fcp[-1] <= target:
        raise HorizonError(
            f"slope never reaches lam (fC' tops out at {fcp[-1]:.4g}, "
            f"needed lam r0 / (h0(0) a) = {target:.4g} by "
            f"t={ts_nodes[-1]:g}); increase a, decrease r0 or lam, or "
            f"increase C")
    idx = int(np.searchsorted(fcp, target))
    lo, hi = ts_nodes[max(idx - 1, 0)], ts_nodes[min(idx, len(ts_nodes) - 1)]
    t0 = bisect_increasing(lambda t: fC.eval(t, 1), lo, hi, target,
                           tol=1e-14)
    if abs((a / c) * fC.eval(t0, 1) - lam) > 1e-10:
        raise BuildError("slope target not met to 1e-10 by bisection")
    R = float(fC.eval(t0, 0))
    g_t0, g1_t0 = h0.eval(t0, 0), h0.eval(t0, 1)
    g, g1 = h0.nodes[1][0][:idx], h0.nodes[1][1][:idx]
    ratio = np.append(fcp[:idx] / (fcols[0][:idx] * g * g1),
                      fC.eval(t0, 1) / (R * g_t0 * g1_t0))
    if np.max(ratio) > 1.0 + 1e-9:
        i = int(np.argmax(ratio))
        raise BuildError(
            f"fC'/(fC h0 h0') leaves [0, 1] on [0, t0]: {ratio[i]:.6g} at "
            f"t={ts_nodes[i] if i < idx else t0:.6g}, with t0={t0:.6g}")

    d = p - q * C                                     # ric_tt's lemma
    margins = [Margin("ric_tt", d * math.exp(-g_t0 * g_t0), float(t0))
               if d > 0 else Margin("ric_tt", d / math.e, 0.0)]
    margins += _transfer_ricci_margins(
        h0, fC, p, q, C, a / c, a, a_bounds, t0,
        grid_size(0.0, t0, grid, min_points=1025), grid)

    vertical0 = a * h0.eval(0.0, 1) / r0
    margins.append(Margin("vertical_ii_floor", nu - vertical0, 0.0))
    r1 = r0 * g_t0 / (h0.eval(0.0, 0) * R)
    margins.append(Margin("horizontal_ii", lam * R, t0))

    bottom = BoundaryProfile(
        dimension=p + q, kind="bundle-over-base",
        metric={"fibre_scale": r0, "base_scale": 1.0,
                "descriptor": "bundle-over-core"},
        ii={"vertical": -vertical0, "horizontal": 0.0})
    h00 = h0.eval(0.0, 0)
    top = BoundaryProfile(
        dimension=p + q, kind="bundle-over-base",
        metric={"fibre_scale": R * r1, "base_scale": R,
                "descriptor": "bundle-over-core"},
        ii={"vertical": float(a * h00 * g1_t0 / (r0 * g_t0)),
            "horizontal": lam / R})

    return Report(
        block="transfer",
        params={"p": p, "q": q, "r0": r0, "nu": nu, "lam": lam, "a": a,
                "C": C, "sup_AX2": a_bounds.sup_AX2,
                "sup_deltaA": a_bounds.sup_deltaA},
        margins=margins,
        boundary={"bottom": bottom, "top": top},
        aux={"t0": float(t0), "r1": float(r1), "R": R,
             "vertical_ii_at_0": -vertical0,
             "slope_check": float((a / c) * fC.eval(t0, 1)),
             "ode_steps": len(ts_nodes) - 1},
        sweeps=lambda: _transfer_grid_sweep(p, q, h0, fC, a / c, a,
                                            a_bounds, t0, grid),
    )


def _transfer_grid_sweep(p: int, q: int, h0: SmoothCurve, fC: SmoothCurve,
                         f_scale: float, h_scale: float, a_bounds: ABounds,
                         t0: float, grid) -> dict:
    """The transfer block's sweeps: the bundle sweep of its metric, with
    warps f = f_scale fC and h = h_scale h0 on [0, t0] and unit Ricci
    floors, on the grid grid_points(0, t0, grid, min_points=1025)."""
    f = linear_combo([(fC, f_scale)]).restrict(0.0, t0)
    h = linear_combo([(h0, h_scale)]).restrict(0.0, t0)
    metric = BundleWarpedMetric(p, q, f, h, 1.0, 1.0, a_bounds)
    tt = grid_points(0.0, t0, grid, min_points=1025)
    return {"ricci": {"t": tt,
                      "columns": dict(bundle_warped_sweep(metric, tt))}}


# ---------------------------------------------------------------------------
# Trivial circle-bundle variant.
# ---------------------------------------------------------------------------

@domain(q=Dims(2), lam=Reals(0, 1), ric_base_lb=Reals())
def build_s1_block(q: int, lam: float, ric_base_lb: float = 1.0,
                   grid=None) -> Report:
    """Disc-bundle cylinder over a base with unit Ricci floor and a closing
    circle fibre, built from designed sinusoidal warps: the base warp is
    even at 0 with slope lam at the far end, the fibre warp closes the
    circle (odd, unit slope) and flattens at the far end."""
    window = (q * lam, (q - 1) / (2.0 * lam))
    feas = window[1] - window[0]
    if feas <= 0:
        return Report(
            "s1", {"q": q, "lam": lam},
            [Margin("design_window", feas, 0.0)],
            aux={"note": "sinusoidal family infeasible: 2 q lam^2 >= q-1"})
    k = 0.5 * (window[0] + window[1])
    t0 = math.pi / (2.0 * k)

    dom = (0.0, t0)
    f = jet_curve(dom, lambda t, n: 1.0 + (lam / k) * (
        1.0 - (Jet.variable(t, n) * k).cos()))
    h = sine_curve(1.0 / k, k, 0.0, dom)

    metric = BundleWarpedMetric(1, q, f, h, ric_base_lb, 0.0, ABounds(),
                                collapse_start="h")
    tt = grid_points(0.0, t0, grid, min_points=1025)
    sweep = bundle_warped_sweep(metric, tt)
    margins = [
        _min_margin("ric_tt", tt, sweep["ric_tt"]),
        _min_margin("ric_XX", tt, sweep["ric_XX_lb"]),
        _min_margin("ric_VV", tt, sweep["ric_VV_lb"]),
        Margin("design_window", feas, 0.0),
    ]
    par_h = parity_margin(h, 0.0, "odd", fit_width=0.05 * t0)
    par_f = parity_margin(f, 0.0, "even", fit_width=0.05 * t0)
    margins.append(Margin("h_parity_odd", 1e-9 - par_h.max_violation, 0.0))
    margins.append(Margin("f_parity_even", 1e-9 - par_f.max_violation, 0.0))
    margins.append(Margin("horizontal_ii", lam, t0))

    f_end = float(f.eval(t0, 0))
    R = float(h.eval(t0, 0)) / f_end
    top = BoundaryProfile(
        dimension=q + 1, kind="bundle-over-base",
        metric={"fibre_scale": R, "base_scale": 1.0,
                "descriptor": "trivial-circle"},
        ii={"horizontal": lam, "vertical": 0.0})

    return Report(
        "s1", {"q": q, "lam": lam, "ric_base_lb": ric_base_lb},
        margins, boundary={"top": top},
        aux={"k": k, "t0": t0, "R": R, "base_factor_after_rescale": 1.0,
             "circle_ii_at_end": float(h.eval(t0, 1) / h.eval(t0, 0)),
             "h_first_derivative": par_h.first_derivative_value},
        sweeps={"ricci": {"t": tt, "columns": dict(sweep)}})


# ---------------------------------------------------------------------------
# Fibre-disc warp.
# ---------------------------------------------------------------------------

@domain(p=Dims(2), t0=Reals(1))
def build_fibre_disc_warp(p: int, t0: float, grid=None) -> Report:
    """Concave disc warp h with h(0) = 0, h'(0) = 1, h(t0) = 1 and all
    derivatives vanishing at t0; the cross-section curvatures of
    dt^2 + h^2 ds_{p-1}^2 are certified positive away from the flat end.
    The warp is ``aux["curves"]["h"]``.

    The curvature profile -h'' mixes a sinusoidal seed (odd at 0, so the
    closing parity and the third-derivative condition hold) with a sliding
    plateau whose position is solved so the warp tops out at exactly 1.
    """
    wT = 0.2 * t0
    w_hi = 0.985 * t0
    omega = math.pi / (1.02 * t0)
    us = np.linspace(0.0, t0, 4097)

    def seed(u, orders):                # orders 0 and 1 of sin(omega u) taper
        n = max(orders)
        x = (np.asarray(u, float) - (t0 - wT)) / wT
        taper = 1.0 - Jet(*(smooth_step(x, k) / wT ** k for k in range(n + 1)))
        s = (Jet.variable(u, n) * omega).sin() * taper
        return [v for k, v in enumerate(s) if k in orders]

    y, dy = seed(us, (0, 1))
    i1s, i2s = window_mass(us, y, dy), window_moment(us, y, dy)
    # -h'' = (rho/i1s) seed + ((1 - rho)/mass) window, so h'(t0) = 0, and
    # h(t0) = t0 + integral of (t0 - u) h''(u) = 1 fixes the window start
    # mu.  A plateau window inside [0, t0] has mass span*PLATEAU_MASS and
    # moment about t0 equal to that mass times (t0 - mu - span/2), so the
    # height condition is linear in mu.
    for rho, span_frac in itertools.product((0.35, 0.2, 0.1, 0.05),
                                            (0.4, 0.2, 0.1, 0.05)):
        span = span_frac * t0
        mu = t0 - span / 2 - ((t0 - 1.0) - rho * i2s / i1s) / (1.0 - rho)
        if 0.01 * t0 <= mu <= w_hi - span:
            break
    else:
        raise BuildError(
            f"no concave profile in the template family reaches height 1 "
            f"flat at t0={t0}")
    cc = rho / i1s

    # the window's weight comes from the flat-end slope condition, so it is
    # normalised by the window's numerically integrated mass
    h, _ = second_derivative_surgery(
        0.0, SurgeryWindow(us, unit_plateaus([(mu, span)])),
        lambda t, orders: [-cc * v for v in seed(t, [k - 2 for k in orders])],
        (0.0, 1.0), 0.0)

    tt = grid_points(1e-3 * t0, 0.98 * t0, grid, min_points=1025)
    hv, h1, h2 = h.jet(tt)
    sec_rad = -h2 / hv
    sec_sph = (1.0 - h1 ** 2) / hv ** 2
    par = parity_margin(h, 0.0, "odd", fit_width=0.05 * t0)
    margins = [
        _min_margin("sec_radial", tt, sec_rad),
        _min_margin("sec_sphere", tt, sec_sph),
        Margin("sec_radial_at_0", cc * omega, 0.0),
        Margin("parity_odd", 1e-9 - par.max_violation, 0.0),
        Margin("reach_height", 1e-9 - abs(float(h.eval(t0, 0)) - 1.0), t0),
        Margin("flat_at_end", 1e-8 - flatness_margin(h, t0), t0),
    ]
    return Report(
        "fibre-disc", {"p": p, "t0": t0}, margins,
        aux={"omega": omega, "seed_fraction": rho, "plateau_start": float(mu),
             "h_end": float(h.eval(t0, 0)), "curves": {"h": h}},
        sweeps={"warp": {"t": tt, "columns": {"h": hv, "sec_radial": sec_rad,
                                              "sec_sphere": sec_sph}}})


# ---------------------------------------------------------------------------
# Doubly warped sphere transition checker.
# ---------------------------------------------------------------------------

def _sphere_pair_margins(A: SmoothCurve, B: SmoothCurve, tag: str,
                         grid=None) -> list:
    s0 = A.t_hi
    eps = 1e-4 * s0
    sA = grid_points(eps, s0, grid, min_points=513)
    sB = grid_points(0.0, s0 - eps, grid, min_points=513)
    # tip curvature limits -w'''/w' (the sign of w''' alone flips with the
    # closing slope: +1 at s=0 for A, -1 at s=s0 for B)
    out = [
        _min_margin(f"{tag}A_concave", sA, -A.eval(sA, 2)),
        _min_margin(f"{tag}B_concave", sB, -B.eval(sB, 2)),
        Margin(f"{tag}A_tip_curvature", -A.eval(0.0, 3) / A.eval(0.0, 1),
               0.0),
        Margin(f"{tag}B_tip_curvature", -B.eval(s0, 3) / B.eval(s0, 1), s0),
    ]
    pa0 = parity_margin(A, 0.0, "odd", fit_width=0.05 * s0)
    pae = parity_margin(A, s0, "even", fit_width=0.05 * s0)
    pb0 = parity_margin(B, 0.0, "even", fit_width=0.05 * s0)
    pbe = parity_margin(B, s0, "odd", fit_width=0.05 * s0)
    out.append(Margin(f"{tag}A_parity", 1e-6 - max(pa0.max_violation,
                                                   pae.max_violation), 0.0))
    out.append(Margin(f"{tag}B_parity", 1e-6 - max(pb0.max_violation,
                                                   pbe.max_violation), s0))
    return out


@domain(p=Dims(1), q=Dims(2))
def build_sphere_transition(A: SmoothCurve, B: SmoothCurve, p: int, q: int,
                            grid=None) -> Report:
    """Positivity characterization for ds^2 + A^2 ds_{q-1}^2 + B^2 ds_p^2:
    strict concavity of both warps away from their collapse ends, negative
    third derivatives there, the closing parities, and stability of all of
    it along the straight path to the round pair."""
    if abs(A.t_lo) > 1e-12 or abs(B.t_lo) > 1e-12 \
            or abs(A.t_hi - B.t_hi) > 1e-9:
        raise BuildError("A and B must share a domain [0, s0]")
    s0 = A.t_hi
    margins = _sphere_pair_margins(A, B, "", grid)
    Ar = sine_curve(2 * s0 / math.pi, math.pi / (2 * s0), 0.0, (0.0, s0))
    Br = cosine_curve(2 * s0 / math.pi, math.pi / (2 * s0), 0.0, (0.0, s0))
    for lam in (0.25, 0.5, 0.75):
        Am = linear_combo([(A, 1 - lam), (Ar, lam)])
        Bm = linear_combo([(B, 1 - lam), (Br, lam)])
        margins += _sphere_pair_margins(Am, Bm, f"path{lam}:", grid)
    return Report(
        "sphere-transition", {"p": p, "q": q, "s0": s0}, margins,
        aux={"s0": s0})


# ---------------------------------------------------------------------------
# Projective cohomogeneity-one family.
# ---------------------------------------------------------------------------

def _projective_f0() -> SmoothCurve:
    return cosine_curve(2.0 / math.pi, math.pi / 2.0, 0.0, (-1.0, 1.0))


def _projective_h_tilde(s: float):
    amp = 4.0 / ((s + 1.0) * math.pi)
    rate = math.pi * (s + 1.0) / 4.0
    return sine_curve(amp, rate, rate, (-1.0, 1.5))


def _projective_warp(s: float):
    """The family's even warp h on [-1, 1] at s, and the half-width w of
    the join that flattens the sine at (1-s)/(1+s), as (h, w); w is 0 when
    the sine is not flattened."""
    if s == 0.0:
        return _projective_h_tilde(0.0).restrict(-1.0, 1.0), 0.0
    t_flat = (1.0 - s) / (1.0 + s)
    w = min(0.05, 0.45 * (1.0 - t_flat), 0.45 * (t_flat + 1.0))
    if w <= 0:
        return _projective_h_tilde(s).restrict(-1.0, 1.0), w
    rate = math.pi * (s + 1.0) / 4.0
    amp = 4.0 / ((s + 1.0) * math.pi)
    const = constant_curve(amp, (t_flat - 2 * w, 1.0))
    hpp = rate * rate * amp
    h = smooth_join(_projective_h_tilde(s), const, (t_flat - w, t_flat + w),
                    (-1.05 * hpp, 1e-9), band_tol=0.15 * hpp)
    return h.restrict(-1.0, 1.0), w


@per_key(maxsize=8)
def _projective_f0_jet(grid):
    """The family's Ricci grid ts = grid_points(-1, 1, grid), read-only,
    and the odd warp f0's ``cohomog1_jet`` on it, its powers included, as
    (ts, jet).  Built once per grid density, the only parameter they read,
    and shared by every member whatever its s, d and n.  A key holds seven
    arrays of ts's length, about 230 KB at the default grid (4097 points;
    tracemalloc), so the 8 kept retain about 1.9 MB at most."""
    ts = read_only(grid_points(-1.0, 1.0, grid))
    return ts, cohomog1_jet(_projective_f0(), ts, (-1.0, 1.0))


def _key_inequality(h: SmoothCurve, s: float, grid):
    """The key_inequality sweep of the family member at s with even warp
    h, as (tk, key): its grid on the sine zone [-1, (1-s)/(1+s)] (all of
    [-1, 1] at s = 0) and f^2/h^4 - f' h'/(f h) on it, with the limit
    -h'''/h' at t = -1."""
    f0 = _projective_f0()
    upper = (1.0 - s) / (1.0 + s) if s > 0 else 1.0
    tk = grid_points(-1.0, upper, grid, min_points=1025)
    inner = tk > -1.0 + 1e-9
    fv = f0.eval(tk, 0)
    hv, h1 = h.eval(tk, 0), h.eval(tk, 1)
    key = np.empty_like(tk)
    with np.errstate(divide="ignore", invalid="ignore"):
        key[inner] = (fv[inner] ** 2 / hv[inner] ** 4
                      - f0.eval(tk[inner], 1) * h1[inner]
                      / (fv[inner] * hv[inner]))
    key[~inner] = -h.eval(-1.0, 3) / h.eval(-1.0, 1)
    return tk, key


@per_key(maxsize=32)
def _projective_member(s: float, grid):
    """What a family member reads of s and the grid density alone, as (h,
    w, ts, f_jet, h_jet, margins): the warp h and its join half-width w
    (``_projective_warp``); the Ricci grid ts and f0's jet on it, those
    ``_projective_f0_jet(grid)`` holds, not copies; h's ``cohomog1_jet``
    on ts, with the powers the Ricci formulas read; and three Margins on
    the key_inequality sweep's grid, the key cross-term inequality and
    the two trigonometric comparison bounds (the sweep itself is not
    kept).  Built once per (s, grid), and read, never changed, by every
    member at s whatever its d and n.  A key holds h's tables, about 100
    KB, and its jet's six columns, about 190 KB at the default grid
    (tracemalloc), so the 32 kept retain about 9.2 MB at most."""
    h, w = _projective_warp(s)
    ts, f_jet = _projective_f0_jet(grid)
    tk, key = _key_inequality(h, s, grid)
    t_s = 0.25 * math.pi * (tk + 1.0) * (s + 1.0)
    t_0 = 0.25 * math.pi * (tk + 1.0)
    margins = (_min_margin("key_inequality", tk, key + 1e-9),
               _min_margin("trig_sin_bound", tk,
                           (1.0 + s) * np.sin(t_0) - np.sin(t_s) + 1e-12),
               _min_margin("trig_cos_bound", tk,
                           np.cos(t_0) - np.cos(t_s) + 1e-12))
    return h, w, ts, f_jet, cohomog1_jet(h, ts, (-1.0, 1.0)), margins


@domain(d=Dims(among=(2, 4, 8)), n=Dims(2), s=Reals(0, 1, "[]"))
def projective_family_check(d: int, n: int, s: float,
                            grid=None) -> Report:
    """One member of the interpolating family: the fixed odd warp together
    with the flattened sine whose plateau starts at (1-s)/(1+s), joined
    over a half-width of at most 0.05 (``aux["join_halfwidth"]``).

    Certifies Ricci positivity on the grid (endpoints included), the key
    cross-term inequality on the sine zone, and the two trigonometric
    comparison bounds it rests on.  The last three, the warp h and the
    warps' jets on the Ricci grid, with the powers of the warps the
    formulas read, read s and the grid alone and come from
    ``_projective_member(s, grid)``; the Ricci sweep's arithmetic reads d
    and n, and the key_inequality sweep is built on the first read of
    ``Report.sweeps``.
    """
    if d == 8 and n != 2:
        raise BuildError("d = 8 requires n = 2")
    f0 = _projective_f0()
    t_flat = (1.0 - s) / (1.0 + s)
    amp = 4.0 / ((s + 1.0) * math.pi)
    h, w, ts, f_jet, h_jet, key_margins = _projective_member(float(s), grid)
    sweep = cohomog1_columns(CohomogOneMetric(d, n, f0, h), ts, f_jet,
                             h_jet, "projective")
    margins = [
        _min_margin("ric_tt", ts, sweep["ric_tt"]),
        _min_margin("ric_VV", ts, sweep["ric_VV"]),
        _min_margin("ric_XX", ts, sweep["ric_XX"]),
        *key_margins,
    ]

    def sweeps():
        tk, key = _key_inequality(h, float(s), grid)
        return {"ricci": {"t": ts, "columns": dict(sweep)},
                "key_inequality": {"t": tk, "columns": {"key": key}}}

    return Report(
        "projective-family",
        {"d": d, "n": n, "s": s},
        margins,
        aux={"t_flat": t_flat, "join_halfwidth": w,
             "plateau_value": amp, "curves": {"f": f0, "h": h}},
        sweeps=sweeps)


# ---------------------------------------------------------------------------
# The five-dimensional double-disc-bundle family.
# ---------------------------------------------------------------------------

def _wu_h_blend(eps: float, eps_outer: float) -> SmoothCurve:
    """Even warp equal to the odd partner (2/pi) cos(pi t / 2) on
    [-eps, eps] and equal to the constant 2/pi outside (-eps_outer,
    eps_outer), shaped so the positive part of its second derivative stays
    small (the curvature bound is linear in it)."""
    f0 = _projective_f0()
    a, b = eps, eps_outer
    w = b - a
    window = SurgeryWindow(
        np.linspace(0.0, w, 4097),
        unit_plateaus([(0.02 * w, 0.83 * w), (0.87 * w, 0.12 * w)]))
    win, _ = second_derivative_surgery(
        a, window, _step_weighted(f0, a, 0.06 * w, True),
        (f0.eval(a, 0), f0.eval(a, 1)), 0.0, 2.0 / math.pi)
    half = piecewise_curve([
        (0.0, a, f0.restrict(0.0, a)),
        (a, b, win),
        (b, 1.0, constant_curve(2.0 / math.pi, (b, 1.0)))])
    return even_extension(half)


@domain(eps=Reals(0, 1), eps_outer=Reals(0, 1))
def wu_family_check(variant: str = "g00", eps: float = 0.1,
                    eps_outer: float | None = None, grid=None) -> Report:
    """Either the product-like metric (constant even warp) or the blended
    family localizing the odd warp near t = 0, checked for positive Ricci
    curvature along the straight path between the two warps, each sweep
    on the grid and f0's jet that ``_projective_f0_jet(grid)`` holds."""
    f0 = _projective_f0()
    h0 = constant_curve(2.0 / math.pi, (-1.0, 1.0))
    ts, f_jet = _projective_f0_jet(grid)

    def ricci(h):
        return cohomog1_columns(CohomogOneMetric(2, 2, f0, h), ts, f_jet,
                                cohomog1_jet(h, ts, (-1.0, 1.0)), "wu")

    if variant == "g00":
        sweep, labels = ricci(h0), ("ric_tt", "ric_VV", "ric_XX")
        at0 = cohomog1_sweep(CohomogOneMetric(2, 2, f0, h0), np.zeros(1),
                             "wu")
        return Report(
            "wu-family", {"variant": "g00"},
            [_min_margin(k, ts, sweep[k]) for k in labels],
            aux={f"{k}_at_0": float(at0[k][0]) for k in labels},
            sweeps={"ricci": {"t": ts, "columns": dict(sweep)}})
    if variant != "blended":
        raise BuildError(f"unknown variant {variant!r}")
    if eps_outer is None:
        eps_outer = min(0.95, eps + 0.85)
    if not eps < eps_outer:
        raise BuildError("need eps < eps_outer")
    h1 = _wu_h_blend(eps, eps_outer)
    margins = []
    sweeps = {}
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        sweep = ricci(linear_combo([(h1, 1.0 - lam), (h0, lam)]))
        worst = np.minimum(np.minimum(sweep["ric_tt"], sweep["ric_VV"]),
                           sweep["ric_XX"])
        margins.append(_min_margin(f"ric_min_path_{lam:0.2f}", ts, worst))
        if lam in (0.0, 1.0):
            sweeps[f"path_{lam:0.2f}"] = {"t": ts, "columns": dict(sweep)}
    return Report(
        "wu-family", {"variant": "blended", "eps": eps,
                      "eps_outer": eps_outer},
        margins, aux={"eps": eps, "eps_outer": eps_outer,
                      "curves": {"f": f0, "h1": h1}},
        sweeps=sweeps)


@domain(c=Reals(0, ends="[)"), C=Reals(0))
def boundary_conformal_margin(c: float, C: float) -> float:
    """1 - c (3/C^2 + 1/C): positive means the conformal boundary-layer
    estimate keeps its sign for geometry constant c."""
    return 1.0 - c * (3.0 / (C * C) + 1.0 / C)
