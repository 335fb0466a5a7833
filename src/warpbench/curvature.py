"""Closed-form curvature and second-fundamental-form evaluators for the
warped metric ansatze, plus an independent finite-difference Ricci oracle.

Each ansatz has one formula, written as a grid sweep, and the sweeps are
the curvature API: one point is a one-element sweep.  A sweep over more
than _SWEEP_BLOCK points runs in blocks (``_in_blocks``), and a sweep
returns the warp columns it read (see each sweep's docstring), so a builder
does not evaluate them again.

Conventions: boundary second fundamental forms are reported as principal
curvatures with respect to the outward unit normal; a slice {t} x M inside
a cylinder uses the +t normal unless stated otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._util import read_only
from .curves import Jet, SmoothCurve, joint_jet

__all__ = [
    "DoublyWarpedMetric", "BundleWarpedMetric", "CohomogOneMetric",
    "ABounds", "CoordinateChart", "doubly_warped_sweep", "slice_II",
    "graph_ii_columns", "graph_ii_sweep", "bundle_warped_sweep",
    "submersion_shrink_bounds", "cohomog1_sweep", "cohomog1_jet",
    "CohomogJet", "cohomog1_columns", "fd_ricci",
    "doubly_warped_chart", "flat_chart", "oracle_cross_check",
]


@dataclass(frozen=True)
class ABounds:
    """Sup-norm bounds for the integrability tensor of a submersion over
    unit vectors: |A_X|^2 and the divergence pairing."""
    sup_AX2: float = 0.0
    sup_deltaA: float = 0.0

    def __post_init__(self):
        if min(self.sup_AX2, self.sup_deltaA) < 0:
            raise ValueError("bounds must be nonnegative")

    @property
    def trivial(self) -> bool:
        return self.sup_AX2 == self.sup_deltaA == 0.0


# Points per block of a blocked sweep: a float64 column of one block is
# 128 KiB, so a sweep's elementwise temporaries stay in cache and reuse
# freed memory instead of faulting in fresh pages.  Chosen by timing the
# transfer block's bundle sweep (t0 = 33.8, 69k points) at 1024 to 65536;
# re-timed with the per-segment Hermite kernel at 4096 to 65536, medians
# 8.6, 6.9, 6.3, 7.6 and 9.5 ms (2 cores, Python 3.11.7, numpy 2.4.6).
_SWEEP_BLOCK = 16384


def _in_blocks(columns, ts, *rows) -> dict:
    """``columns(ts, *rows)``, a dict of columns each computed point by
    point from ts and the rows (arrays shaped like ts), evaluated on
    consecutive blocks of _SWEEP_BLOCK points, each with its own slice of
    every row, and concatenated; the result is bitwise that of one pass.
    A grid of at most one block (or not one-dimensional) is one pass, with
    no slicing.
    If a block raises (or its columns do not concatenate), the sweep is
    redone as one pass over the whole grid: one pass runs each check over
    every point before the next check, so the first block to fail may
    fail a different check than one pass does, and only the redone pass
    raises the same class and message."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) <= _SWEEP_BLOCK:
        return columns(ts, *rows)
    try:
        parts = [columns(*(a[i:i + _SWEEP_BLOCK] for a in (ts, *rows)))
                 for i in range(0, len(ts), _SWEEP_BLOCK)]
        return {k: np.concatenate([part[k] for part in parts])
                for k in parts[0]}
    except Exception:
        pass
    return columns(ts, *rows)


# ---------------------------------------------------------------------------
# Doubly warped products dt^2 + f^2 ds_p^2 + h^2 ds_q^2.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoublyWarpedMetric:
    p: int
    q: int
    f: SmoothCurve
    h: SmoothCurve
    collapse_start: str | None = None    # warp ("f" or "h") vanishing at t_lo
    collapse_end: str | None = None

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("sphere dimensions must be >= 1")
        fd, hd = self.f.domain, self.h.domain
        if abs(fd[0] - hd[0]) > 1e-9 or abs(fd[1] - hd[1]) > 1e-9:
            raise ValueError("f and h must share a domain")
        for c in (self.collapse_start, self.collapse_end):
            if c not in (None, "f", "h"):
                raise ValueError(f"bad collapse tag {c!r}")

    @property
    def interval(self):
        return self.f.domain

    def rescaled(self, R: float) -> "DoublyWarpedMetric":
        return DoublyWarpedMetric(self.p, self.q,
                                  self.f.metric_rescale(R),
                                  self.h.metric_rescale(R),
                                  self.collapse_start, self.collapse_end)


def _collapse_limits(m: DoublyWarpedMetric, t: float, warp: str,
                     zero_jet, other_jet) -> dict:
    """Sectional values at a declared zero of ``warp`` ("f" or "h") that
    the parity conditions force by derivative-quotient substitution:
    -f''/f and (1-f'^2)/f^2 become -f'''/f' at a zero of f, and the mixed
    plane limit -f'h'/(fh) becomes -h''/h there.  The other two entries
    keep their interior values.  ``zero_jet`` and ``other_jet`` are orders
    0..2 at t of the vanishing warp and of the other one, read from the
    sweep's columns; only the third derivative is evaluated here."""
    zero = m.f if warp == "f" else m.h
    z0, z1, _ = zero_jet
    o0, _, o2 = other_jet
    if abs(z0) > math.sqrt(1e-8 * (1 + abs(t))):
        raise ValueError(
            f"declared collapse of {warp} at t={t} but warp is {z0:.3e}")
    ratio = -zero(t, 3) / z1
    radial, sphere = (("sec_tu", "sec_uu") if warp == "f"
                      else ("sec_tv", "sec_vv"))
    return {radial: ratio, sphere: ratio, "sec_uv": -o2 / o0}


def doubly_warped_sweep(m: DoublyWarpedMetric, ts: np.ndarray) -> dict:
    """Sectional values sec(t^u), sec(t^v), sec(u^v), sec(u1^u2),
    sec(v1^v2) and the Ricci diagonal of dt^2 + f^2 ds_p^2 + h^2 ds_q^2 on
    a grid, with the collapse limits at declared collapse ends, and the
    warps it read: columns "f" and "h" are f(t) and h(t), bitwise
    ``m.f.eval(ts)`` and ``m.h.eval(ts)``."""
    return _in_blocks(functools.partial(_doubly_warped_columns, m), ts)


def _doubly_warped_columns(m: DoublyWarpedMetric, ts: np.ndarray) -> dict:
    lo, hi = m.interval
    slop = 1e-9 * (1 + hi - lo)
    collapsed = {"f": np.zeros(ts.shape, bool), "h": np.zeros(ts.shape, bool)}
    if m.collapse_start:
        collapsed[m.collapse_start] |= ts <= lo + slop
    if m.collapse_end:
        collapsed[m.collapse_end] |= ts >= hi - slop
    (fv, f1, f2), (hv, h1, h2) = joint_jet((m.f, m.h), ts)
    if np.any(((fv <= 0) & ~collapsed["f"]) | ((hv <= 0) & ~collapsed["h"])):
        raise ValueError("warp vanishes without a declared collapse")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = {
            "sec_tu": -f2 / fv,
            "sec_tv": -h2 / hv,
            "sec_uv": -f1 * h1 / (fv * hv),
            "sec_uu": (1.0 - f1 ** 2) / fv ** 2,
            "sec_vv": (1.0 - h1 ** 2) / hv ** 2,
        }
    jets = {"f": (fv, f1, f2), "h": (hv, h1, h2)}
    for warp, mask in collapsed.items():
        zero, other = jets[warp], jets["h" if warp == "f" else "f"]
        for i in np.nonzero(mask)[0]:
            for k, v in _collapse_limits(m, ts[i], warp,
                                         [c[i] for c in zero],
                                         [c[i] for c in other]).items():
                out[k][i] = v
    p, q = m.p, m.q
    out["ric_tt"] = p * out["sec_tu"] + q * out["sec_tv"]
    out["ric_uu"] = (out["sec_tu"] + (p - 1) * out["sec_uu"]
                     + q * out["sec_uv"])
    out["ric_vv"] = (out["sec_tv"] + (q - 1) * out["sec_vv"]
                     + p * out["sec_uv"])
    out["f"], out["h"] = fv, hv
    return out


def slice_II(m: DoublyWarpedMetric, t: float) -> dict:
    """Principal curvatures f'/f (p-block) and h'/h (q-block) of the slice
    {t} x S^p x S^q with respect to the +t normal."""
    fv, hv = m.f(t), m.h(t)
    if fv <= 0 or hv <= 0:
        raise ValueError(f"slice at t={t} touches a collapse point")
    return {"sphere_p": m.f(t, 1) / fv, "sphere_q": m.h(t, 1) / hv}


# ---------------------------------------------------------------------------
# Hypersurfaces cut along the graph of a radial height function.
# ---------------------------------------------------------------------------

def graph_ii_columns(fv, f1, a1, a2, Rv, R1, sgn: float = 1.0) -> dict:
    """Radial and sphere entries of the second fundamental form of the
    graph t = alpha(s) inside dt^2 + f(t)^2 (ds^2 + R(s)^2 ds_{n-2}^2),
    from the columns f(alpha), f'(alpha), alpha', alpha'', R, R':

    radial: (f' f + 2 (f'/f) a'^2 - a'') / sqrt(1 + a'^2/f^2)
    sphere: (f' f - (R'/R) a')   / sqrt(1 + a'^2/f^2)

    times sgn = +1 for the normal toward increasing t, -1 for the other.
    """
    denom = np.sqrt(1.0 + (a1 / fv) ** 2)
    return {"radial": sgn * (f1 * fv + 2.0 * (f1 / fv) * a1 ** 2 - a2)
            / denom,
            "sphere": sgn * (f1 * fv - (R1 / Rv) * a1) / denom}


def graph_ii_sweep(f: SmoothCurve, R: SmoothCurve, alpha: Jet,
                   ss: np.ndarray, orientation: str = "up") -> dict:
    """``graph_ii_columns`` of the graph t = alpha(s) on a grid ss, from
    the height's orders 0-2 at ss: ``alpha`` is a Jet of arrays shaped like
    ss, such as ``height.jet(ss, 2)`` (orders above 2 are not read), so a
    caller that keeps a height's jet on its grid passes it as it is.
    orientation="down" flips the normal toward decreasing t.  Besides
    "radial" and "sphere" it returns the columns it read of f, bitwise its
    ``eval``: "f" and "f_d" are f and f' at alpha(s)."""
    if orientation not in ("up", "down"):
        raise ValueError(orientation)
    return _in_blocks(functools.partial(_graph_ii_columns, f, R,
                                        orientation=orientation),
                      ss, *alpha[:3])


def _graph_ii_columns(f: SmoothCurve, R: SmoothCurve, ss: np.ndarray,
                      a: np.ndarray, a1: np.ndarray, a2: np.ndarray,
                      orientation: str) -> dict:
    fv = f.eval(a, 0)
    Rv = R.eval(ss, 0)
    if np.any(fv <= 0):
        raise ValueError("f(alpha(s)) must be positive")
    if np.any(Rv <= 0):
        raise ValueError("R(s) must be positive")
    f1 = f.eval(a, 1)
    out = graph_ii_columns(fv, f1, a1, a2, Rv, R.eval(ss, 1),
                           1.0 if orientation == "up" else -1.0)
    out.update(f=fv, f_d=f1)
    return out


# ---------------------------------------------------------------------------
# Warped submersion metrics dt^2 + f^2 (base) + h^2 (fibre).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BundleWarpedMetric:
    """Cylinder metric over a fibre bundle, with the integrability tensor
    entering only through sup-norm bounds.

    ricci_base_lb / ricci_fibre_lb are lower Ricci bounds of the base and
    fibre metrics in units of (dim - 1), so a unit round factor has bound
    1.0 exactly.
    """
    p: int                      # fibre dimension
    q: int                      # base dimension
    f: SmoothCurve              # base warp
    h: SmoothCurve              # fibre warp
    ricci_base_lb: float = 1.0
    ricci_fibre_lb: float = 1.0
    a_bounds: ABounds = field(default_factory=ABounds)
    collapse_start: str | None = None   # optional "h": fibre sphere closes

    def __post_init__(self):
        if self.p < 1 or self.q < 2:
            raise ValueError("need fibre dim >= 1, base dim >= 2")

    @classmethod
    def trivial(cls, p, q, f, h, ricci_base_lb=1.0, ricci_fibre_lb=1.0,
                collapse_start=None):
        return cls(p, q, f, h, ricci_base_lb, ricci_fibre_lb, ABounds(),
                   collapse_start)

    @property
    def interval(self):
        return self.f.domain


def bundle_warped_sweep(m: BundleWarpedMetric, ts: np.ndarray) -> dict:
    """Lower bounds for the Ricci diagonal and an upper bound for the mixed
    term.  The unfavorable base A-term, -2 |A_X|^2 in Ric(X, X), enters
    with its sup norm.  The fibre A-term |A V|^2 enters Ric(V, V) with a
    plus sign (O'Neill's formulas; Besse, Einstein Manifolds, 1987,
    section 9.D), so the lower bound drops it and reads no bound on it."""
    return _in_blocks(functools.partial(_bundle_warped_columns, m), ts)


def _bundle_warped_columns(m: BundleWarpedMetric, ts: np.ndarray) -> dict:
    p, q = m.p, m.q
    rb = m.ricci_base_lb * (q - 1)
    rf = m.ricci_fibre_lb * (p - 1)
    f, h, ab = m.f, m.h, m.a_bounds
    (fv, f1, f2), (hv, h1, h2) = joint_jet((f, h), ts)
    lo = m.interval[0]
    slop = 1e-9 * (1 + m.interval[1] - lo)
    if np.any(fv <= 0):
        raise ValueError("base warp must stay positive")
    interior = hv > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ric_tt = -q * f2 / fv - p * h2 / hv
        ric_xx = (-f2 / fv + (rb - (q - 1) * f1 ** 2) / fv ** 2
                  - p * f1 * h1 / (fv * hv))
        # A zero bound drops its A-term.  The term is +0.0 wherever it is
        # finite (fv > 0, and hv > 0 on every row the collapse loop keeps),
        # so the columns keep their bits.  It is inf * 0 = NaN where
        # hv^2 / fv^4 or hv / fv^3 overflows (fv below about 1e-77 at
        # hv ~ 1) or fv is NaN; there the rows keep the other terms' value
        # and a mixed bound of +0.0, the values of a vanishing tensor.
        if ab.sup_AX2:
            ric_xx -= 2.0 * (hv ** 2 / fv ** 4) * ab.sup_AX2
        ric_vv = (-h2 / hv + (rf - (p - 1) * h1 ** 2) / hv ** 2
                  - q * f1 * h1 / (fv * hv))
        ric_xv = ((hv / fv ** 3) * ab.sup_deltaA if ab.sup_deltaA
                  else np.zeros_like(fv))
    if not np.all(interior):
        if m.collapse_start != "h":
            raise ValueError(
                "fibre warp vanishes without a declared collapse")
        for i in np.nonzero(~interior)[0]:
            t = ts[i]
            if abs(t - lo) > slop:
                raise ValueError("fibre collapse away from t_lo")
            # parity-forced limits at the closing fibre sphere:
            # h''/h -> h'''/h' and f'h'/(f h) -> f''/f; the fibre-curvature
            # term vanishes for a circle fibre and needs a round fibre
            # (unit bound, |h'| = 1) otherwise.
            hr = -h.eval(t, 3) / h1[i]
            if p > 1:
                if (abs(m.ricci_fibre_lb - 1.0) > 1e-9
                        or abs(abs(h1[i]) - 1) > 1e-6):
                    raise ValueError(
                        "fibre collapse needs a round fibre with unit "
                        "Ricci bound")
                fib = (p - 1) * hr
            else:
                fib = 0.0
            cross = f2[i] / fv[i]
            ric_tt[i] = -q * f2[i] / fv[i] + p * hr
            ric_xx[i] = (-f2[i] / fv[i]
                         + (rb - (q - 1) * f1[i] ** 2) / fv[i] ** 2
                         - p * cross)
            ric_vv[i] = hr + fib - q * cross
            ric_xv[i] = 0.0
    return {"ric_tt": ric_tt, "ric_XX_lb": ric_xx, "ric_VV_lb": ric_vv,
            "ric_XV_abs_ub": ric_xv}


def submersion_shrink_bounds(ric_base_lb: float, ric_fibre_lb: float,
                             a_bounds: ABounds, r: float) -> dict:
    """Ricci bounds of a submersion metric with fibres shrunk by r, with
    unit-normalized vertical directions:

        Ric(U,U) >= ric_fibre_lb / r^2
        Ric(X,X) >= ric_base_lb - 2 r^2 sup|A_X|^2
        |Ric(U,X)| <= r^2 sup|delta A|

    plus the threshold r* below which both diagonal bounds are positive
    (absent when a lower bound is not positive).
    """
    if r <= 0:
        raise ValueError("r must be positive")
    entries = {
        "ric_vertical_lb": ric_fibre_lb / r ** 2,
        "ric_horizontal_lb": ric_base_lb - 2.0 * r ** 2 * a_bounds.sup_AX2,
        "ric_mixed_abs_ub": r ** 2 * a_bounds.sup_deltaA,
    }
    if ric_base_lb > 0 and ric_fibre_lb > 0:
        if a_bounds.sup_AX2 == 0:
            entries["r_star"] = math.inf
        else:
            entries["r_star"] = math.sqrt(ric_base_lb
                                          / (2.0 * a_bounds.sup_AX2))
    return entries


# ---------------------------------------------------------------------------
# Cohomogeneity-one metrics on [-1, 1] (projective family and the
# five-dimensional double-disc-bundle family).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomogOneMetric:
    d: int                      # real dimension of the scalar field
    n: int
    f: SmoothCurve
    h: SmoothCurve

    def __post_init__(self):
        if self.d not in (2, 4, 8):
            raise ValueError("d must be one of 2, 4, 8")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.d == 8 and self.n != 2:
            raise ValueError("d = 8 requires n = 2")


# A warp vanishes at an end of a cohomogeneity-one sweep when its value
# there is below this.
_COLLAPSE_TOL = 1e-6


def _cohomog1_inner(domain, ts: np.ndarray) -> np.ndarray:
    """The points of ts more than the sweep's slop inside domain; the
    others are the sweep's ends, which take the collapse values."""
    lo, hi = domain
    slop = 1e-9 * (1 + hi - lo)
    return (ts > lo + slop) & (ts < hi - slop)


def _cohomog1_endpoint(m: CohomogOneMetric, t: float, family: str,
                       f_jet, h_jet, thirds) -> dict:
    """Endpoint values by the parity-consistent derivative substitutions.

    At an end where only f vanishes (f odd, h even there) the radial and
    V directions share the isotropic value; at t=-1 of the projective
    family both warps vanish and the whole diagonal is isotropic.
    ``f_jet`` and ``h_jet`` are orders 0..2 at t of f and h, read from the
    sweep's columns, and ``thirds`` the two warps' third derivatives at
    the ends where they vanish (``cohomog1_jet``), as dicts t -> value.
    """
    d, n = m.d, m.n
    fv, f1, _ = f_jet
    hv, h1, h2 = h_jet
    f_zero = abs(fv) < _COLLAPSE_TOL
    h_zero = abs(hv) < _COLLAPSE_TOL
    if not f_zero:
        raise ValueError(
            f"endpoint t={t} is not a collapse of f (f={fv:.3e})")
    fr = -thirds[0][t] / f1
    if family == "projective" and h_zero:
        hr = -thirds[1][t] / h1
        iso = (d - 1) * fr + (n - 1) * d * hr
        return {"ric_tt": iso, "ric_VV": iso, "ric_XX": iso}
    if hv <= 0:
        raise ValueError("h must be positive at this endpoint")
    if family == "projective":
        iso = (d - 1) * fr - (n - 1) * d * h2 / hv
        ric_xx = (-h2 / hv + ((n - 1) * d - 1) * (1 - h1 ** 2) / hv ** 2
                  - (d - 1) * h2 / hv + 3.0 * (d - 1) / hv ** 2)
        return {"ric_tt": iso, "ric_VV": iso, "ric_XX": ric_xx}
    iso = fr - 2.0 * h2 / hv
    ric_xx = (-2.0 * h2 / hv + (1 - h1 ** 2) / hv ** 2 + 3.0 / hv ** 2)
    return {"ric_tt": iso, "ric_VV": iso, "ric_XX": ric_xx}


class CohomogJet(NamedTuple):
    """What a cohomogeneity-one sweep reads of one warp c on its grid ts,
    as ``cohomog1_jet`` gives it: c's orders 0-2 (v, d1, d2); thirds, the
    pairs (t, third derivative of c at t) for each end t of the sweep
    (``_cohomog1_inner``) where c vanishes, the only third derivatives
    ``_cohomog1_endpoint`` divides by; the powers v**2, v**4 and 1 -
    d1**2 the formulas read; the indices of the sweep's ends; and
    first_bad, the first index inside where v <= 0, or None.  Its arrays
    are read-only and its indices a tuple and an int."""
    v: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    thirds: tuple
    v2: np.ndarray
    v4: np.ndarray
    gap: np.ndarray
    ends: tuple
    first_bad: int | None


def cohomog1_jet(c: SmoothCurve, ts: np.ndarray, domain) -> CohomogJet:
    """The CohomogJet of the warp c on ts for a sweep on ``domain``.  What
    it holds reads c and the grid alone, so a caller that keeps a warp's
    jet on its grid passes it to ``cohomog1_columns`` as it is, and a
    sweep's per-sample work is the arithmetic that reads d and n."""
    ts = np.asarray(ts, dtype=float)
    v, d1, d2 = c.jet(ts, 2)
    inner = _cohomog1_inner(domain, ts)
    ends = ~inner
    thirds = tuple((float(t), c(float(t), 3))
                   for t, x in zip(ts[ends], v[ends])
                   if abs(x) < _COLLAPSE_TOL)
    bad = np.flatnonzero(inner & (v <= 0))
    return CohomogJet(read_only(v), read_only(d1), read_only(d2), thirds,
                      read_only(v ** 2), read_only(v ** 4),
                      read_only(1 - d1 ** 2),
                      tuple(np.flatnonzero(ends).tolist()),
                      int(bad[0]) if bad.size else None)


def cohomog1_sweep(m: CohomogOneMetric, ts: np.ndarray,
                   family: str = "projective") -> dict:
    """Ricci diagonal (radial, V and X directions) on a grid of [-1, 1];
    the ends take the collapse values of ``_cohomog1_endpoint``, and a warp
    that vanishes inside raises ValueError.  It is ``cohomog1_columns`` on
    the two warps' jets (``cohomog1_jet``)."""
    ts = np.asarray(ts, dtype=float)
    return cohomog1_columns(m, ts, cohomog1_jet(m.f, ts, m.f.domain),
                            cohomog1_jet(m.h, ts, m.f.domain), family)


def cohomog1_columns(m: CohomogOneMetric, ts: np.ndarray, f_jet, h_jet,
                     family: str = "projective") -> dict:
    """``cohomog1_sweep``'s columns from the jets of m's two warps on ts,
    each as ``cohomog1_jet`` gives it on the domain of m's f: this reads
    m's d and n, and its warps and that domain only through the jets (f's
    gives the ends).  A warp that is not positive inside raises ValueError
    naming the first such point of either; then the formulas run
    (``_cohomog1_columns``), and the ends take the collapse values."""
    ts = np.asarray(ts, dtype=float)
    bad = [j.first_bad for j in (f_jet, h_jet) if j.first_bad is not None]
    if bad:
        raise ValueError(
            f"undeclared singularity at interior t={ts[min(bad)]}")
    out = _in_blocks(functools.partial(_cohomog1_columns, m, family=family),
                     ts, *f_jet[:3], f_jet.v2, f_jet.gap,
                     *h_jet[:3], h_jet.v2, h_jet.v4, h_jet.gap)
    thirds = (dict(f_jet.thirds), dict(h_jet.thirds))
    for i in f_jet.ends:
        for k, v in _cohomog1_endpoint(m, float(ts[i]), family,
                                       [f[i] for f in f_jet[:3]],
                                       [h[i] for h in h_jet[:3]],
                                       thirds).items():
            out[k][i] = v
    return out


def _cohomog1_columns(m: CohomogOneMetric, ts: np.ndarray, fv, f1, f2, fv2,
                      f_gap, hv, h1, h2, hv2, hv4, h_gap,
                      family: str) -> dict:
    """The formulas at every point of ts, from the warps' orders 0-2 and
    the powers their jets keep (``CohomogJet``); f_gap and h_gap are 1 -
    f'^2 and 1 - h'^2.  Only fv * hv and the arithmetic that reads d and
    n are computed here; ts is read only for its blocks (``_in_blocks``)."""
    d, n = m.d, m.n
    with np.errstate(divide="ignore", invalid="ignore"):
        fh = fv * hv
        if family == "projective":
            ric_tt = -(d - 1) * f2 / fv - (n - 1) * d * h2 / hv
            ric_vv = (-f2 / fv + (d - 2) * f_gap / fv2
                      - (n - 1) * d * f1 * h1 / fh
                      + (n - 1) * d * fv2 / hv4)
            ric_xx = (-h2 / hv + ((n - 1) * d - 1) * h_gap / hv2
                      - (d - 1) * f1 * h1 / fh
                      + 3.0 * (d - 1) / hv2
                      - 2.0 * (d - 1) * fv2 / hv4)
        elif family == "wu":
            if (d, n) != (2, 2):
                raise ValueError("the wu formulas require d = n = 2")
            ric_tt = -f2 / fv - 2.0 * h2 / hv
            ric_vv = (-f2 / fv - 2.0 * f1 * h1 / fh
                      + 2.0 * fv2 / hv4)
            ric_xx = (-h2 / hv + h_gap / hv2
                      - f1 * h1 / fh + 3.0 / hv2
                      - 2.0 * fv2 / hv4)
        else:
            raise ValueError(family)
    return {"ric_tt": ric_tt, "ric_VV": ric_vv, "ric_XX": ric_xx}


# ---------------------------------------------------------------------------
# Finite-difference Ricci oracle on coordinate charts.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateChart:
    dim: int
    metric: object              # callable x -> (dim, dim) array
    box: tuple                  # ((lo, hi), ...) open coordinate box
    name: str = "chart"


def flat_chart(n: int) -> CoordinateChart:
    return CoordinateChart(n, lambda x: np.eye(n),
                           tuple((-1.0, 1.0) for _ in range(n)), "flat")


def _sphere_diag(angles: np.ndarray) -> np.ndarray:
    """Diagonal of the round metric on S^k in spherical angles."""
    k = len(angles)
    out = np.ones(k)
    for i in range(1, k):
        out[i] = out[i - 1] * math.sin(angles[i - 1]) ** 2
    return out


def doubly_warped_chart(m: DoublyWarpedMetric) -> CoordinateChart:
    """Spherical-coordinate chart for dt^2 + f^2 ds_p^2 + h^2 ds_q^2 with
    p, q <= 3; the box stays 0.5 away from coordinate poles and 15% of the
    interval away from its ends, where difference quotients of the metric
    degrade."""
    p, q = m.p, m.q
    if p > 3 or q > 3:
        raise ValueError("built-in chart supports p, q <= 3")
    lo, hi = m.interval
    pad = 0.15 * (hi - lo)
    # A finite-difference stencil moves t at only a few of its points, so
    # the squared warps are kept per t for the life of the chart.
    warps_sq = {}

    def metric(x):
        t = float(x[0])
        sq = warps_sq.get(t)
        if sq is None:
            sq = warps_sq[t] = (m.f(t) ** 2, m.h(t) ** 2)
        fa, ha = sq
        diag = np.concatenate([[1.0],
                               fa * _sphere_diag(x[1:1 + p]),
                               ha * _sphere_diag(x[1 + p:1 + p + q])])
        return np.diag(diag)

    box = ((lo + pad, hi - pad),) + tuple(
        (0.5, math.pi - 0.5) for _ in range(p + q))
    return CoordinateChart(1 + p + q, metric, box, "doubly-warped")


def fd_ricci(chart: CoordinateChart, point, step: float = 3e-4) -> np.ndarray:
    """Ricci tensor (lower indices) from second-order central differences
    of the metric through Christoffel symbols; accuracy O(step^2)."""
    x = np.asarray(point, dtype=float)
    n = chart.dim
    if len(x) != n:
        raise ValueError("point dimension mismatch")
    for i, (lo, hi) in enumerate(chart.box):
        if not lo + 2.5 * step <= x[i] <= hi - 2.5 * step:
            raise ValueError(
                f"coordinate {i} too close to the chart boundary for the "
                f"stencil")

    def christoffel(y):
        g = np.asarray(chart.metric(y), dtype=float)
        ginv = np.linalg.inv(g)
        dg = np.empty((n, n, n))
        for a in range(n):
            e = np.zeros(n)
            e[a] = step
            dg[a] = (np.asarray(chart.metric(y + e))
                     - np.asarray(chart.metric(y - e))) / (2 * step)
        # Gamma^c_{ab} = 1/2 g^{cd} (dg[a][d,b] + dg[b][d,a] - dg[d][a,b])
        term = (np.einsum("adb->dab", dg) + np.einsum("bda->dab", dg)
                - np.einsum("dab->dab", dg))
        return 0.5 * np.einsum("cd,dab->cab", ginv, term)

    gamma = christoffel(x)
    dgamma = np.empty((n, n, n, n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = step
        dgamma[a] = (christoffel(x + e) - christoffel(x - e)) / (2 * step)
    ric = (np.einsum("aaij->ij", dgamma)
           - np.einsum("jaai->ij", dgamma)
           + np.einsum("aab,bij->ij", gamma, gamma)
           - np.einsum("aib,baj->ij", gamma, gamma))
    return 0.5 * (ric + ric.T)


def oracle_cross_check(m: DoublyWarpedMetric, n_points: int = 20,
                       seed: int = 0, step: float = 3e-4) -> dict:
    """Compare the closed-form Ricci diagonal against the finite-difference
    oracle at random interior chart points; returns the worst relative
    mismatch and the sampled count.  The oracle is the Richardson
    combination (4 fd_ricci(step/2) - fd_ricci(step)) / 3, so a warp with a
    narrow blending window, where the fourth derivative is large, does not
    read as a mismatch."""
    chart = doubly_warped_chart(m)
    rng = np.random.default_rng(seed)
    xs = [np.array([rng.uniform(lo + 3 * step, hi - 3 * step)
                    for lo, hi in chart.box]) for _ in range(n_points)]
    cf = doubly_warped_sweep(m, np.array([x[0] for x in xs]))
    worst = 0.0
    for i, x in enumerate(xs):
        ric = (4.0 * fd_ricci(chart, x, step / 2)
               - fd_ricci(chart, x, step)) / 3.0
        g = np.asarray(chart.metric(x))
        normalized = np.diag(ric) / np.diag(g)
        expect = np.concatenate([
            [cf["ric_tt"][i]],
            np.full(m.p, cf["ric_uu"][i]),
            np.full(m.q, cf["ric_vv"][i])])
        denom = np.maximum(np.abs(expect), 1e-6)
        worst = max(worst, float(np.max(np.abs(normalized - expect)
                                        / denom)))
        off = ric - np.diag(np.diag(ric))
        worst = max(worst, float(np.max(np.abs(off))
                                 / max(1.0, float(np.max(np.abs(expect))))))
    return {"max_rel_error": worst, "points": n_points}
