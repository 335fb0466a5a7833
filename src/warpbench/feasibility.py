"""The builder registry and parameter-box search: sample the registered
block builders over named parameter intervals and emit admissibility
certificates with margins.

Every certificate is deterministic given (box, predicate, budget, seed) and
every listed sample reproduces a pass when re-run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from ._util import per_key
from .curvature import ABounds
from .curves import cosine_curve, sine_curve

__all__ = ["Interval", "ParamBox", "CertEntry", "Certificate",
           "RefineError", "scan", "refine", "PREDICATES", "check_keys",
           "check_params"]

_OPEN_OFFSET = 1e-6


class RefineError(RuntimeError):
    """refine could not reach its target margin.  ``certificate`` holds the
    refined certificate it reached (None for an empty input certificate).
    Handled by: the CLI ``scan`` command, which writes that certificate
    with a ``fail:`` verdict and exits 1."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False

    def __post_init__(self):
        if not self.lo <= self.hi or (self.lo == self.hi
                                      and (self.open_lo or self.open_hi)):
            raise ValueError(
                f"empty interval {'(' if self.open_lo else '['}{self.lo}, "
                f"{self.hi}{')' if self.open_hi else ']'}")

    def points(self, n: int) -> np.ndarray:
        lo, hi = self.lo, self.hi
        off = _OPEN_OFFSET * (hi - lo if hi > lo else 1.0)
        if self.open_lo:
            lo += off
        if self.open_hi:
            hi -= off
        if n == 1:
            return np.array([0.5 * (lo + hi)])
        return np.linspace(lo, hi, n)


def _as_interval(spec) -> Interval:
    if isinstance(spec, Interval):
        return spec
    if isinstance(spec, (list, tuple)) and len(spec) >= 2:
        flags = spec[2] if len(spec) > 2 else ""
        return Interval(float(spec[0]), float(spec[1]),
                        open_lo="(" in flags, open_hi=")" in flags)
    raise ValueError(f"cannot interpret interval spec {spec!r}")


@dataclass
class ParamBox:
    params: dict                 # name -> Interval (or (lo, hi) tuple)
    resolution: object = 4       # int or dict per axis

    def __post_init__(self):
        self.params = {k: _as_interval(v) for k, v in self.params.items()}

    def axis_resolution(self, name: str) -> int:
        if isinstance(self.resolution, dict):
            return int(self.resolution.get(name, 4))
        return int(self.resolution)

    @property
    def names(self):
        return sorted(self.params)

    def axes(self) -> list:
        """Each axis's lattice points, axes in name order."""
        return [self.params[n].points(self.axis_resolution(n))
                for n in self.names]

    def grid_size(self) -> int:
        size = 1
        for name in self.names:
            size *= self.axis_resolution(name)
        return size

    def full_grid(self):
        names = self.names
        for point in itertools.product(*self.axes()):
            yield {n: float(v) for n, v in zip(names, point)}

    def random_samples(self, budget: int, seed: int):
        """Up to ``budget`` distinct lattice samples, seeded.  Each attempt
        draws one index per axis, axes in name order, from
        ``np.random.default_rng(seed)`` as ``rng.integers(0, size)`` would
        one at a time; an index tuple already drawn is skipped, and at most
        50 budget attempts are made.  The attempts are drawn in refills, as
        many as samples are still needed (at most the attempts left), each
        one ``rng.integers`` call on the tiled axis sizes: numpy draws an
        array ``high`` element by element as it draws a scalar one, so the
        stream, and the samples, are those of the one-at-a-time loop."""
        names, axes = self.names, self.axes()
        sizes = np.array([len(a) for a in axes])
        rng = np.random.default_rng(seed)
        seen = set()
        out = []
        attempts = 0
        while len(out) < budget and attempts < 50 * budget:
            rows = min(budget - len(out), 50 * budget - attempts)
            attempts += rows
            draws = rng.integers(0, np.tile(sizes, rows))
            for idx in map(tuple, draws.reshape(rows, len(names)).tolist()):
                if idx in seen:
                    continue
                seen.add(idx)
                out.append({n: float(a[i])
                            for n, a, i in zip(names, axes, idx)})
        return out

    def to_json_dict(self):
        return {n: {"lo": iv.lo, "hi": iv.hi, "open_lo": iv.open_lo,
                    "open_hi": iv.open_hi,
                    "resolution": self.axis_resolution(n)}
                for n, iv in self.params.items()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ParamBox":
        return cls({n: Interval(v["lo"], v["hi"], v["open_lo"], v["open_hi"])
                    for n, v in data.items()},
                   {n: v["resolution"] for n, v in data.items()})


@dataclass(frozen=True)
class CertEntry:
    params: dict
    min_margin: float
    verdict: str

    def sort_key(self):
        # descending margin, a NaN margin after every other, ties broken
        # lexicographically by name/value
        nan = math.isnan(self.min_margin)
        return (nan, 0.0 if nan else -self.min_margin,
                tuple((k, self.params[k]) for k in sorted(self.params)))


@dataclass
class Certificate:
    predicate: str
    entries: list
    grid: dict = field(default_factory=dict)
    seed: int | None = None
    failures: int = 0

    @property
    def best(self) -> CertEntry | None:
        return self.entries[0] if self.entries else None

    def to_json_dict(self):
        return {
            "predicate": self.predicate,
            "seed": self.seed,
            "failures": self.failures,
            "grid": self.grid,
            "entries": [{"params": e.params, "min_margin": e.min_margin,
                         "verdict": e.verdict} for e in self.entries],
        }


def _run_predicate(fn, sample: dict, fixed: dict, grid=None) -> CertEntry:
    try:
        report = fn(**{**fixed, **sample}, grid=grid)
        margin, verdict = report.min_margin(), report.verdict
    except (blocks.BuildError, blocks.HorizonError) as exc:
        margin, verdict = -math.inf, f"error:{type(exc).__name__}"
    return CertEntry(sample, float(margin), verdict)


@per_key(maxsize=8)
def _default_collar_profile(scale: float = 1.0):
    """Convex boundary profile used when a handle2 scan or scenario does
    not supply one: B > 0, B' < 0, B'' < 0 near the boundary.  One curve
    per scale, shared by every sample, so that handle2's face, keyed by
    its B, is built once per (lambda1, lambda2, a, b, grid) in a scan; it
    is read, never changed."""
    return cosine_curve(0.9 * scale, 1.0, 0.1, (0.0, 1.0))


@blocks.domain(lambda1=blocks.Reals(0, 0.99))
def _handle1_tied(lambda1, **kw):
    return blocks.build_handle1(lambda1=lambda1, lambda2=lambda1 + 0.01, **kw)


def _handle2(B, B_scale=1.0, **kw):
    """build_handle2 on the collar profile B; when B is None, on the
    default profile scaled by B_scale."""
    if B is None:
        B = _default_collar_profile(B_scale)
    return blocks.build_handle2(B, **kw)


@blocks.domain(a=blocks.Reals(0, ends="[)"), **{
    n: blocks.build_handle2.domains[n] for n in ("lambda1", "lambda2", "b")})
def _handle2_closed_form(lambda1, lambda2, a, b, grid=None):
    """Just the conservative closed-form bound for the dug face's radial
    entry, as a single-margin report (monotone decreasing in a >= 0), on
    build_handle2's domain.  The bound grows like 1/b as b falls to 0,
    where it bounds no dug face."""
    blocks.check_handle2_domain(lambda1, lambda2, b)
    ts = np.linspace(0.0, 0.98 * b, 2049)
    vals = blocks.closed_form_handle2(lambda1, lambda2, a, b, ts)
    i = int(np.argmin(vals))
    return blocks.Report(
        "handle2-closed-form",
        {"lambda1": lambda1, "lambda2": lambda2, "a": a, "b": b},
        [blocks.Margin("closed_form_radial", float(vals[i]),
                       float(ts[i]))])


def _handle_assembly(n=4, K=0.9, grid=None, **kw):
    """assemble_handle with the piece parameters prefixed p1_ and p2_."""
    return blocks.assemble_handle(
        n, K, {k[3:]: v for k, v in kw.items() if k.startswith("p1_")},
        {k[3:]: v for k, v in kw.items() if k.startswith("p2_")}, grid=grid)


@blocks.domain(**dict.fromkeys(("sup_AX2", "sup_deltaA"),
                               blocks.Reals(0, ends="[)")))
def _transfer(sup_AX2=0.0, sup_deltaA=0.0, **kw):
    return blocks.build_transfer_block(
        a_bounds=ABounds(sup_AX2, sup_deltaA), **kw)


@blocks.domain(s0=blocks.Reals(0))
def _sphere_transition(p, q, s0, grid=None):
    """The transition from the round pair of warps on [0, s0]."""
    A = sine_curve(2 * s0 / math.pi, math.pi / (2 * s0), 0.0, (0.0, s0))
    B = cosine_curve(2 * s0 / math.pi, math.pi / (2 * s0), 0.0, (0.0, s0))
    return blocks.build_sphere_transition(A, B, p, q, grid=grid)


def _entry(builder, required, optional="", **defaults):
    return {"builder": builder, "required": frozenset(required.split()),
            "optional": frozenset(optional.split()), "defaults": defaults}


# The piece params of the two handles, beside n, K and the collar profile.
_PIECE1 = "lambda1 lambda2 eps1 eps2 delta"
_PIECE2 = "lambda1 lambda2 a b eps nu"

# The builder registry: per block name, the builder (flat keyword params,
# returns a Report), its required params, its optional params (passed
# on only when given) and the defaults a scenario or scan may omit.  Each
# name is both a CLI command and a scan predicate.  Callers look the
# builder up at call time, so it can be replaced in place.
PREDICATES = {
    "handle1": _entry(blocks.build_handle1, "n K " + _PIECE1,
                      n=4, K=0.9, delta=0.05),
    "handle1-tied": _entry(_handle1_tied, "n K lambda1 eps1 eps2 delta",
                           n=4, K=0.9, delta=0.05),
    "handle2": _entry(_handle2, _PIECE2, "B B_scale", B=None),
    "handle2-closed-form": _entry(_handle2_closed_form, "lambda1 lambda2 a b",
                                  lambda1=0.2, lambda2=0.25),
    "handle-assembly": _entry(
        _handle_assembly,
        " ".join([f"p1_{k}" for k in _PIECE1.split()]
                 + [f"p2_{k}" for k in _PIECE2.split()]), "n K"),
    "transfer": _entry(_transfer, "p q r0 nu lam a C",
                       "sup_AX2 sup_deltaA",
                       p=2, q=3, r0=0.1, nu=1.5, lam=0.5),
    "s1": _entry(blocks.build_s1_block, "q lam", "ric_base_lb", q=3),
    "cone": _entry(blocks.build_cone_metric, "n K eps1 eps2 delta t",
                   n=4, K=0.9, delta=0.02, t=1.0),
    "fibre-disc": _entry(blocks.build_fibre_disc_warp, "p t0", p=3),
    "sphere-transition": _entry(_sphere_transition, "p q s0"),
    "projective": _entry(blocks.projective_family_check, "d n s",
                         d=2, n=2),
    "wu-check": _entry(blocks.wu_family_check, "variant", "eps eps_outer"),
}


def check_keys(name: str, keys, required, optional=()) -> None:
    """Raise ValueError naming the keys outside required and optional, or
    else the required keys missing from keys."""
    unknown = set(keys) - set(required) - set(optional)
    if unknown:
        raise ValueError(f"unknown keys for {name!r}: {sorted(unknown)}")
    missing = set(required) - set(keys)
    if missing:
        raise ValueError(f"missing keys for {name!r}: {sorted(missing)}")


def check_params(predicate: str, keys) -> None:
    """check_keys for the params a caller supplies to a registry entry,
    whose defaults supply the rest."""
    spec = PREDICATES[predicate]
    check_keys(predicate, set(keys) | set(spec["defaults"]),
               spec["required"], spec["optional"])


def scan(box: ParamBox, predicate: str, budget: int,
         seed: int = 0, fixed: dict | None = None,
         grid=None) -> Certificate:
    """Evaluate the named block builder at every box sample (full grid when
    the budget allows, otherwise a seeded random subset) and certify the
    passing samples sorted by min-margin.  The certificate's ``fixed``
    lists the scalar params that are not box axes, given or defaulted."""
    if predicate not in PREDICATES:
        raise KeyError(f"unknown predicate {predicate!r}; "
                       f"known: {sorted(PREDICATES)}")
    fixed = fixed or {}
    check_params(predicate, set(box.params) | set(fixed))
    spec = PREDICATES[predicate]
    fixed = {**spec["defaults"], **fixed}
    size = box.grid_size()
    randomized = size > budget
    samples = (box.random_samples(budget, seed) if randomized
               else list(box.full_grid()))
    entries = []
    failures = 0
    for sample in samples:
        entry = _run_predicate(spec["builder"], sample, fixed, grid)
        if entry.verdict == "pass":
            entries.append(entry)
        else:
            failures += 1
    entries.sort(key=CertEntry.sort_key)
    return Certificate(
        predicate=predicate,
        entries=entries,
        grid={"box": box.to_json_dict(), "budget": budget,
              "randomized": randomized, "evaluated": len(samples),
              "fixed": {k: v for k, v in fixed.items()
                        if k not in box.params
                        and isinstance(v, (int, float, str, bool))}},
        seed=seed if randomized else None,
        failures=failures)


def refine(cert: Certificate, target_margin: float,
           box: ParamBox | None = None, max_iter: int = 40,
           fixed: dict | None = None, grid=None) -> Certificate:
    """Shrinking-box bisection around the best certified sample until some
    sample reaches target_margin or the box granularity floor 1e-6; each
    iteration evaluates the full 3-point-per-axis grid of the halved box.
    An unreached target raises RefineError carrying the certificate
    reached."""
    if not cert.entries:
        raise RefineError("cannot refine an empty certificate")
    if cert.best.min_margin >= target_margin:
        return cert
    if box is None:
        box = ParamBox.from_json_dict(cert.grid["box"])
    fixed = {**cert.grid.get("fixed", {}), **(fixed or {})}
    check_params(cert.predicate, set(box.params) | set(fixed))
    spec = PREDICATES[cert.predicate]
    fixed = {**spec["defaults"], **fixed}
    widths = {n: box.params[n].hi - box.params[n].lo for n in box.names}
    best = cert.best
    log = [best]
    scale = 1.0
    stop = f"{max_iter} iterations used"
    for _ in range(max_iter):
        scale *= 0.5
        if scale < 1e-6:
            stop = "granularity floor reached"
            break
        local = {}
        for n in box.names:
            half = 0.5 * widths[n] * scale
            c = best.params[n]
            iv = box.params[n]
            off = _OPEN_OFFSET * max(widths[n], 1e-12)
            lo = max(iv.lo + (off if iv.open_lo else 0.0), c - half)
            hi = min(iv.hi - (off if iv.open_hi else 0.0), c + half)
            local[n] = (lo, max(hi, lo))
        sub = ParamBox(local, 3)
        for sample in sub.full_grid():
            entry = _run_predicate(spec["builder"], sample, fixed, grid)
            if entry.verdict == "pass" and \
                    entry.min_margin > best.min_margin:
                best = entry
        log.append(best)
        if best.min_margin >= target_margin:
            break
    unique = {tuple(sorted(e.params.items())): e for e in log}
    entries = sorted(unique.values(), key=CertEntry.sort_key)
    refined = Certificate(predicate=cert.predicate, entries=entries,
                          grid={**cert.grid, "refined": True,
                                "target_margin": target_margin},
                          seed=cert.seed, failures=cert.failures)
    if best.min_margin < target_margin:
        raise RefineError(
            f"{stop}: best margin {best.min_margin:.4g} < target "
            f"{target_margin:.4g}", refined)
    return refined
