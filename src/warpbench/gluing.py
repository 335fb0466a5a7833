"""Boundary-data gluing checkers: isometric matching, sums of second
fundamental forms, corner angle sums, and multi-block pipelines.

A BoundaryProfile carries everything a gluing hypothesis consumes: the
induced metric (warp curves plus constant factors), principal-curvature
data per direction family, and corner angles.  All principal curvatures
are taken with respect to the outward unit normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import grid_points
from .curves import (SmoothCurve, constant_curve, cosine_curve, line_curve,
                     flatness_margin, sine_curve)

__all__ = [
    "BoundaryProfile", "Corner", "Report", "Margin", "first_failure",
    "PipelineNode", "PipelineEdge", "PipelineGraph",
    "check_perelman", "check_corner_gluing", "assemble_pipeline",
    "curve_from_spec", "graph_from_json",
]

PROFILE_KINDS = ("warped-sphere", "warped-double-sphere", "bundle-over-base")


@dataclass(frozen=True)
class Margin:
    """Minimum of one certified inequality and where it occurs.  A strict
    margin passes when min > 0, a non-strict one when min >= 0."""
    label: str
    min: float
    argmin: float = 0.0
    strict: bool = True


def first_failure(margins) -> Margin | None:
    """The first margin that fails its pass rule, or None."""
    for m in margins:
        if not (m.min > 0.0 if m.strict else m.min >= 0.0):
            return m
    return None


def _json_entries(values: dict) -> dict:
    """The scalar and list entries of values, non-finite floats as their
    repr strings."""
    return {k: repr(v) if isinstance(v, float) and not math.isfinite(v)
            else v for k, v in values.items()
            if isinstance(v, (int, float, str, bool, type(None), list))}


class _BuiltOnFirstRead:
    """A dataclass field given as its value or as a zero-argument function
    that builds it.  The function is called once, on the first read, which
    keeps its result and returns it; an error it raises surfaces at that
    read.  The default is ``dict``: an empty dict, built on first read."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:                 # dataclass reads its default here
            return dict
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass
class Report:
    """Margins certified by one block build or one gluing check.  The
    verdict is derived from the margins: "pass", or "fail:<label>" of the
    first margin that fails its pass rule.  ``boundary`` maps face names to
    BoundaryProfiles and ``sweeps`` sweep names to their grid ``"t"`` and
    named ``"columns"`` on it.  A builder may pass either as a function
    that builds that dict, so they may be built on first read: a caller
    that reads only the margins, as a scan does, never builds them."""
    block: str
    params: dict
    margins: list
    boundary: dict = _BuiltOnFirstRead()
    aux: dict = field(default_factory=dict)
    sweeps: dict = _BuiltOnFirstRead()

    @property
    def verdict(self) -> str:
        bad = first_failure(self.margins)
        return "pass" if bad is None else f"fail:{bad.label}"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def min_margin(self) -> float:
        """The least margin, or NaN when any margin is NaN, wherever it
        stands in the list (the verdict fails at the first NaN)."""
        values = [m.min for m in self.margins]
        if any(math.isnan(v) for v in values):
            return math.nan
        return min(values, default=math.inf)

    def margin(self, label: str) -> Margin:
        for m in self.margins:
            if m.label == label:
                return m
        raise KeyError(label)

    def to_json_dict(self) -> dict:
        return {
            "block": self.block,
            "params": _json_entries(self.params),
            "margins": [{"label": m.label, "min": m.min, "argmin": m.argmin}
                        for m in self.margins],
            "verdict": self.verdict,
            "passed": self.passed,
            "boundary": {name: {"kind": p.kind, "dimension": p.dimension,
                                "families": sorted(p.ii)}
                         for name, p in self.boundary.items()},
            "aux": _json_entries(self.aux),
        }


@dataclass(frozen=True)
class Corner:
    id: str
    angle: float                       # interior dihedral angle, radians
    adjacent: tuple                    # face ids meeting at the corner
    at: dict = field(default_factory=dict)   # face id -> parameter location

    def __post_init__(self):
        if not 0.0 < self.angle < np.pi:
            raise ValueError(f"corner angle {self.angle} outside (0, pi)")


@dataclass
class BoundaryProfile:
    dimension: int
    kind: str
    metric: dict                       # name -> SmoothCurve or float
    ii: dict                           # family -> SmoothCurve or float
    corners: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def rescale(self, R: float) -> "BoundaryProfile":
        """Profile of the same boundary under g -> R^2 g: warp data scales
        by R, principal curvatures by 1/R, angles are unchanged."""
        if R == 1.0:
            return self

        def _met(v):
            if isinstance(v, SmoothCurve):
                return v.metric_rescale(R)
            if isinstance(v, str):
                return v
            return v * R

        met = {k: _met(v) for k, v in self.metric.items()}
        ii = {k: (v.eigen_rescale(R) if isinstance(v, SmoothCurve)
                  else v / R) for k, v in self.ii.items()}
        corners = [Corner(c.id, c.angle, c.adjacent,
                          {f: x * R for f, x in c.at.items()})
                   for c in self.corners]
        return BoundaryProfile(self.dimension, self.kind, met, ii, corners)


def _entry_minmax(entry, other=None):
    """Min of an ii entry (optionally of a family-wise sum) over its grid."""
    if isinstance(entry, SmoothCurve):
        if isinstance(other, SmoothCurve):
            lo = max(entry.t_lo, other.t_lo)
            hi = min(entry.t_hi, other.t_hi)
            if hi <= lo:
                raise ValueError("ii curves do not overlap")
            ts = grid_points(lo, hi, min_points=129)
            vals = entry.eval(ts, 0) + other.eval(ts, 0)
        else:
            ts = grid_points(entry.t_lo, entry.t_hi, min_points=129)
            vals = entry.eval(ts, 0) + (0.0 if other is None else other)
        i = int(np.argmin(vals))
        return float(vals[i]), float(ts[i])
    if isinstance(other, SmoothCurve):
        return _entry_minmax(other, entry)
    return float(entry) + (0.0 if other is None else float(other)), 0.0


def _metric_mismatch(m1: dict, m2: dict) -> tuple:
    if set(m1) != set(m2):
        raise ValueError(
            f"metric descriptors differ: {sorted(m1)} vs {sorted(m2)}")
    worst, where = 0.0, ""
    for key in sorted(m1):
        a, b = m1[key], m2[key]
        if isinstance(a, SmoothCurve) != isinstance(b, SmoothCurve):
            if isinstance(a, str) or isinstance(b, str):
                pass
            else:
                raise ValueError(
                    f"metric entry {key!r} has mismatched types")
        if isinstance(a, str) or isinstance(b, str):
            if a != b:
                raise ValueError(
                    f"declared descriptor {key!r} differs: {a!r} vs {b!r}")
            continue
        if isinstance(a, SmoothCurve):
            lo = max(a.t_lo, b.t_lo)
            hi = min(a.t_hi, b.t_hi)
            if hi <= lo:
                raise ValueError(
                    f"metric curves {key!r} do not overlap")
            ts = grid_points(lo, hi, min_points=129)
            dev = float(np.max(np.abs(a.eval(ts) - b.eval(ts))))
            scale = 1.0 + float(np.max(np.abs(a.eval(ts))))
        else:
            dev = abs(float(a) - float(b))
            scale = 1.0 + abs(float(a))
        if dev / scale > worst:
            worst, where = dev / scale, key
    return worst, where


def check_perelman(b1: BoundaryProfile, b2: BoundaryProfile,
                   rescale: float = 1.0, tol: float = 1e-9,
                   ii_tol: float = 0.0) -> Report:
    """Gluing hypothesis along a shared boundary: induced metrics must
    match within tol (after rescaling b2) and the family-wise sum of
    principal curvatures must be >= -ii_tol everywhere."""
    if b1.kind != b2.kind or b1.dimension != b2.dimension:
        raise ValueError(
            f"profiles are incompatible: {b1.kind}/{b1.dimension} vs "
            f"{b2.kind}/{b2.dimension}")
    b2s = b2.rescale(rescale)
    mismatch, where = _metric_mismatch(b1.metric, b2s.metric)
    margins = [Margin("metric_match", tol - mismatch, strict=False)]
    if set(b1.ii) != set(b2s.ii):
        raise ValueError(
            f"ii families differ: {sorted(b1.ii)} vs {sorted(b2s.ii)}")
    for fam in sorted(b1.ii):
        mn, arg = _entry_minmax(b1.ii[fam], b2s.ii[fam])
        margins.append(Margin(f"ii_sum:{fam}", mn + ii_tol, arg,
                              strict=False))
    return Report("perelman", {"rescale": rescale, "tol": tol,
                               "ii_tol": ii_tol}, margins,
                  aux={"metric_mismatch": mismatch,
                       "worst_metric_entry": where})


def _near_corner_min(entry, location: float):
    """Min of an ii entry within 0.05 of its domain length from the corner
    location: check_corner_gluing's corner band."""
    if not isinstance(entry, SmoothCurve):
        return float(entry)
    lo, hi = entry.domain
    band = 0.05 * (hi - lo)
    a = max(lo, location - band)
    b = min(hi, location + band)
    if b <= a:
        a, b = lo, min(hi, lo + band)
    ts = np.linspace(a, b, 65)
    return float(np.min(entry.eval(ts, 0)))


def check_corner_gluing(b1: dict, b2: dict, shared_face: str,
                        tol: float = 0.0) -> Report:
    """Corner-respecting gluing along shared_face of two boundary atlases
    (dicts face id -> BoundaryProfile).

    Passes iff (i) the principal-curvature sum on the shared face exceeds
    tol, (ii) every matched corner has angle sum below pi - tol and
    (iii) each adjacent face has principal curvatures above tol within
    the corner band, 0.05 of its domain length, of the corner.
    """
    corner_band = 0.05                  # as in _near_corner_min
    if shared_face not in b1 or shared_face not in b2:
        raise ValueError(
            f"face {shared_face!r} missing from an atlas")
    f1, f2 = b1[shared_face], b2[shared_face]
    mismatch, where = _metric_mismatch(f1.metric, f2.metric)
    margins = [Margin("metric_match", 1e-9 - mismatch, strict=False)]
    for fam in sorted(set(f1.ii) & set(f2.ii)):
        mn, arg = _entry_minmax(f1.ii[fam], f2.ii[fam])
        margins.append(Margin(f"ii_sum:{fam}", mn - tol, arg))
    c2 = {c.id: c for c in f2.corners}
    aux = {"corners": [], "metric_mismatch": mismatch}
    for c in f1.corners:
        if c.id not in c2:
            raise ValueError(
                f"corner {c.id!r} has no counterpart")
        other = c2[c.id]
        margins.append(Margin(f"angle_sum:{c.id}",
                              np.pi - tol - (c.angle + other.angle)))
        concave_warps = []
        for atlas, corner in ((b1, c), (b2, other)):
            for face in corner.adjacent:
                if face == shared_face or face not in atlas:
                    continue
                prof = atlas[face]
                loc = corner.at.get(face, 0.0)
                for fam in sorted(prof.ii):
                    mn = _near_corner_min(prof.ii[fam], loc)
                    margins.append(
                        Margin(f"adjacent_ii:{c.id}:{face}:{fam}", mn - tol,
                               loc))
                warp = prof.metric.get("warp")
                if isinstance(warp, SmoothCurve):
                    lo, hi = warp.domain
                    band = corner_band * (hi - lo)
                    a = max(lo, loc - band)
                    b = min(hi, loc + band)
                    ts = np.linspace(a, b, 33)
                    concave_warps.append(bool(np.all(warp.eval(ts, 2) < 0)))
        aux["corners"].append(
            {"id": c.id, "angle_sum": c.angle + other.angle,
             "combined_face": ("warped, concave"
                               if concave_warps and all(concave_warps)
                               else "unstructured")})
    return Report("corner", {"tol": tol, "corner_band": corner_band},
                  margins, aux=aux)


# ---------------------------------------------------------------------------
# Pipelines.
# ---------------------------------------------------------------------------

@dataclass
class PipelineNode:
    id: str
    kind: str                          # "block" | "trusted"
    faces: dict                        # face id -> BoundaryProfile
    citation: str | None = None


@dataclass
class PipelineEdge:
    src: tuple                         # (node id, face id)
    dst: tuple
    kind: str                          # perelman | corner | smooth-match | assumed
    rescale: float = 1.0
    tol: float = 1e-9
    ii_tol: float = 0.0
    junction: dict = field(default_factory=dict)   # face -> parameter value
    citation: str | None = None

    def __post_init__(self):
        if self.kind not in ("perelman", "corner", "smooth-match",
                             "assumed"):
            raise ValueError(f"unknown edge kind {self.kind!r}")
        if self.kind == "assumed" and not self.citation:
            raise ValueError("assumed edges must carry a citation tag")


@dataclass
class PipelineGraph:
    nodes: list
    edges: list

    def node(self, nid: str) -> PipelineNode:
        for n in self.nodes:
            if n.id == nid:
                return n
        raise KeyError(nid)


def _check_acyclic(graph: PipelineGraph):
    adj = {n.id: [] for n in graph.nodes}
    for e in graph.edges:
        adj[e.src[0]].append(e.dst[0])
    state = {nid: 0 for nid in adj}

    def visit(nid):
        if state[nid] == 1:
            raise ValueError("pipeline graph has a cycle in gluing order")
        if state[nid] == 2:
            return
        state[nid] = 1
        for nxt in adj[nid]:
            visit(nxt)
        state[nid] = 2

    for nid in adj:
        visit(nid)


def _check_smooth_match(p1: BoundaryProfile, p2: BoundaryProfile,
                        edge: PipelineEdge) -> Report:
    """Both sides must be flat (all derivatives vanishing, below 1e-8) and
    equal at the junction, so the glued warp is already smooth."""
    margins = []
    mismatch = 0.0
    shared = sorted(set(p1.metric) & set(p2.metric))
    if not any(isinstance(p1.metric[k], SmoothCurve)
               and isinstance(p2.metric[k], SmoothCurve) for k in shared):
        raise ValueError(
            "smooth-match faces share no warp curves")
    for key in shared:
        a, b = p1.metric[key], p2.metric[key]
        if isinstance(a, SmoothCurve) and isinstance(b, SmoothCurve):
            ja = edge.junction.get("src", a.t_hi)
            jb = edge.junction.get("dst", b.t_lo)
            fa, fb = flatness_margin(a, ja), flatness_margin(b, jb)
            margins.append(Margin(f"flat:src:{key}", 1e-8 - fa, ja,
                                  strict=False))
            margins.append(Margin(f"flat:dst:{key}", 1e-8 - fb, jb,
                                  strict=False))
            mismatch = max(mismatch,
                           abs(a.eval(ja) - b.eval(jb) * edge.rescale))
        elif not isinstance(a, SmoothCurve) and not isinstance(b, SmoothCurve):
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    raise ValueError(
                        f"descriptor {key!r} differs across a smooth match")
                continue
            mismatch = max(mismatch, abs(float(a) - float(b) * edge.rescale))
    margins.append(Margin("value_match", 1e-8 - mismatch, strict=False))
    return Report("smooth-match", {"rescale": edge.rescale}, margins,
                  aux={"mismatch": mismatch})


def curve_from_spec(spec) -> SmoothCurve | float | str:
    """Build a curve (or pass through a scalar/tag) from a JSON-style
    spec: {"type": "constant"|"line"|"sine"|"cosine", ...}."""
    if not isinstance(spec, dict):
        return spec
    kind = spec.get("type")
    dom = tuple(spec.get("domain", (0.0, 1.0)))
    if kind == "constant":
        return constant_curve(spec["value"], dom)
    if kind == "line":
        return line_curve(spec.get("intercept", 0.0),
                          spec.get("slope", 0.0), dom)
    if kind == "sine":
        return sine_curve(spec.get("amplitude", 1.0),
                          spec.get("rate", 1.0), spec.get("phase", 0.0),
                          dom)
    if kind == "cosine":
        return cosine_curve(spec.get("amplitude", 1.0),
                            spec.get("rate", 1.0), spec.get("phase", 0.0),
                            dom)
    raise ValueError(f"unknown curve spec type {kind!r}")


def graph_from_json(data: dict) -> PipelineGraph:
    """Read a pipeline of trusted nodes from a JSON object with "nodes"
    and "edges" lists; profile metric/ii entries may be scalars, declared
    tags or curve specs."""
    nodes = []
    for nd in data["nodes"]:
        faces = {}
        for fname, prof in nd["faces"].items():
            corners = [Corner(c["id"], c["angle"], tuple(c["adjacent"]),
                              dict(c.get("at", {})))
                       for c in prof.get("corners", [])]
            faces[fname] = BoundaryProfile(
                dimension=int(prof["dimension"]), kind=prof["kind"],
                metric={k: curve_from_spec(v)
                        for k, v in prof["metric"].items()},
                ii={k: curve_from_spec(v)
                    for k, v in prof["ii"].items()},
                corners=corners)
        nodes.append(PipelineNode(nd["id"], nd.get("kind", "trusted"),
                                  faces, nd.get("citation")))
    edges = [PipelineEdge(tuple(e["src"]), tuple(e["dst"]), e["kind"],
                          e.get("rescale", 1.0), e.get("tol", 1e-9),
                          e.get("ii_tol", 0.0),
                          dict(e.get("junction", {})), e.get("citation"))
             for e in data["edges"]]
    return PipelineGraph(nodes, edges)


def assemble_pipeline(graph: PipelineGraph) -> dict:
    """Run the appropriate checker on every edge; overall verdict passes
    iff every non-assumed edge passes.  Assumed edges are listed with
    their citations instead of silently trusted."""
    _check_acyclic(graph)
    edge_reports = []
    assumed = []
    ok = True
    for e in graph.edges:
        src = graph.node(e.src[0]).faces[e.src[1]]
        dst = graph.node(e.dst[0]).faces[e.dst[1]]
        if e.kind == "assumed":
            assumed.append({"edge": (e.src, e.dst), "citation": e.citation})
            edge_reports.append({"edge": (e.src, e.dst), "kind": e.kind,
                                 "citation": e.citation, "checked": False})
            continue
        if e.kind == "perelman":
            rep = check_perelman(src, dst, e.rescale, e.tol, e.ii_tol)
        elif e.kind == "smooth-match":
            rep = _check_smooth_match(src, dst, e)
        else:                      # corner
            rep = check_corner_gluing(graph.node(e.src[0]).faces,
                                      graph.node(e.dst[0]).faces,
                                      e.src[1], e.ii_tol)
        ok = ok and rep.passed
        edge_reports.append({"edge": (e.src, e.dst), "kind": e.kind,
                             "checked": True, "report": rep})
    return {"passed": ok, "edges": edge_reports, "assumed": assumed}
