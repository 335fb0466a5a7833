"""Spans around the public functions of each warpbench module, recorded
from the benchmark's side, and the per-layer metrics computed from them.

``Tracer.install`` replaces each traced function in every warpbench
namespace that holds it (``from x import f`` copies included), the
builders captured in ``feasibility.PREDICATES``, and ``SmoothCurve.eval``
together with its ``__call__`` alias. Spans stay in memory until
``Tracer.dump``; self time is computed afterwards from the parent links.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def _size(i, key):
    def points(args, kwargs, result):
        t = args[i] if len(args) > i else kwargs.get(key)
        return int(np.size(t))
    return points


def _ode_steps(args, kwargs, result):
    ts, _ = result[0].nodes
    return len(ts) - 1


def _none(args, kwargs, result):
    return 0


# span name -> (module, attribute, points counter)
TRACED = {
    "util.smooth_step": ("_util", "smooth_step", _size(0, "x")),
    "util.plateau": ("_util", "plateau", _size(0, "x")),
    "util.hermite_interp": ("_util", "hermite_interp", _size(3, "t")),
    "util.cumulative_hermite": ("_util", "cumulative_hermite",
                                _size(0, "ts")),
    "curves.integrate_transfer_odes": ("curves", "integrate_transfer_odes",
                                       _ode_steps),
    "curves.SmoothCurve.eval": ("curves", "SmoothCurve.eval", _size(1, "t")),
    "curves.smooth_join": ("curves", "smooth_join", _none),
    "curves.make_concave_profile": ("curves", "make_concave_profile", _none),
    "curves.parity_margin": ("curves", "parity_margin", _none),
    "curvature.doubly_warped_sweep": ("curvature", "doubly_warped_sweep",
                                      _size(1, "ts")),
    "curvature.graph_ii_sweep": ("curvature", "graph_ii_sweep",
                                 _size(3, "ss")),
    "curvature.bundle_warped_sweep": ("curvature", "bundle_warped_sweep",
                                      _size(1, "ts")),
    "curvature.cohomog1_sweep": ("curvature", "cohomog1_sweep",
                                 _size(1, "ts")),
    **{f"blocks.{fn}": ("blocks", fn, _none) for fn in (
        "build_cone_metric", "build_handle1", "build_handle2",
        "assemble_handle", "build_transfer_block", "build_fibre_disc_warp",
        "build_sphere_transition", "projective_family_check")},
    "gluing.assemble_pipeline": ("gluing", "assemble_pipeline", _none),
    "gluing.check_corner_gluing": ("gluing", "check_corner_gluing", _none),
    "gluing.check_perelman": ("gluing", "check_perelman", _none),
    "feasibility.scan": ("feasibility", "scan", _none),
    "scenarios.reference_pipeline": ("scenarios", "reference_pipeline",
                                     _none),
    "cli.run_scenario": ("cli", "run_scenario", _none),
    "cli.emit_plot_data": ("cli", "emit_plot_data", _none),
}

# Every builder a scan calls runs inside one of these spans.
PREDICATE_SPAN = "feasibility.predicate"
REJECTIONS = ("BuildError", "HorizonError")


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, points):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (nid, t0, clock(), parent, 0,
                              type(exc).__name__)
                raise
            finally:
                stack.pop()
            t1 = clock()
            spans[idx] = (nid, t0, t1, parent,
                          points(args, kwargs, result), None)
            return result

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "warpbench" or name.startswith("warpbench.")]
        replaced = {}
        for name, (mod, attr, points) in TRACED.items():
            module = sys.modules[f"warpbench.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                wrapped = self._wrap(orig, name, points)
                for key, value in list(cls.__dict__.items()):
                    if value is orig:
                        setattr(cls, key, wrapped)
                continue
            orig = getattr(module, attr)
            wrapped = replaced[orig] = self._wrap(orig, name, points)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        predicates = sys.modules["warpbench.feasibility"].PREDICATES
        for spec in predicates.values():
            builder = replaced.get(spec["builder"], spec["builder"])
            spec["builder"] = self._wrap(builder, PREDICATE_SPAN, _none)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def aggregate(trace_files) -> dict:
    """Per span name: calls, points, inclusive ms, self ms, error classes;
    plus the samples and rejections seen by scans. Summed over the files."""
    stats = {}
    scan_samples = scan_rejected = 0
    for path in trace_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names, spans = data["names"], data["spans"]
        child_ns = [0] * len(spans)
        for nid, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for i, (nid, t0, t1, parent, n, err) in enumerate(spans):
            name = names[nid]
            s = stats.setdefault(name, {"calls": 0, "points": 0, "ns": 0,
                                        "self_ns": 0, "errors": {}})
            s["calls"] += 1
            s["points"] += n
            s["ns"] += t1 - t0
            s["self_ns"] += t1 - t0 - child_ns[i]
            if err is not None:
                s["errors"][err] = s["errors"].get(err, 0) + 1
            if name == PREDICATE_SPAN and parent >= 0 \
                    and names[spans[parent][0]] == "feasibility.scan":
                scan_samples += 1
                scan_rejected += err in REJECTIONS
    return {"spans": stats, "scan_samples": scan_samples,
            "scan_rejected": scan_rejected}


def layer_metrics(agg: dict, processes: int, scan_passes: int,
                  cold_files: list) -> dict:
    """The per-layer metrics, per traced process. ``scan_passes`` counts
    certified samples; ``cold_files`` lists (report bytes, CSV bytes) of
    each traced CLI run."""
    spans = agg["spans"]
    per = 1.0 / max(processes, 1)
    zero = {"calls": 0, "points": 0, "ns": 0, "self_ns": 0, "errors": {}}

    def get(name):
        return spans.get(name, zero)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for fn in ("smooth_step", "plateau", "hermite_interp",
               "cumulative_hermite"):
        s = get(f"util.{fn}")
        out[f"util.{fn}.calls"] = s["calls"] * per
        out[f"util.{fn}.points"] = s["points"] * per
        out[f"util.{fn}.self_ms"] = s["self_ns"] * 1e-6 * per
        out[f"util.{fn}.ns_per_point"] = ratio(s["self_ns"], s["points"])
    s = get("curves.integrate_transfer_odes")
    out["curves.integrate_transfer_odes.calls"] = s["calls"] * per
    out["curves.integrate_transfer_odes.steps"] = s["points"] * per
    out["curves.integrate_transfer_odes.ms"] = s["ns"] * 1e-6 * per
    out["curves.integrate_transfer_odes.us_per_step"] = \
        ratio(s["ns"] * 1e-3, s["points"])
    s = get("curves.SmoothCurve.eval")
    out["curves.SmoothCurve.eval.calls"] = s["calls"] * per
    out["curves.SmoothCurve.eval.points"] = s["points"] * per
    out["curves.SmoothCurve.eval.self_ms"] = s["self_ns"] * 1e-6 * per
    for fn in ("smooth_join", "make_concave_profile", "parity_margin"):
        s = get(f"curves.{fn}")
        out[f"curves.{fn}.calls"] = s["calls"] * per
        out[f"curves.{fn}.ms"] = s["ns"] * 1e-6 * per
    for fn in ("doubly_warped_sweep", "graph_ii_sweep",
               "bundle_warped_sweep", "cohomog1_sweep"):
        s = get(f"curvature.{fn}")
        out[f"curvature.{fn}.calls"] = s["calls"] * per
        out[f"curvature.{fn}.points"] = s["points"] * per
        out[f"curvature.{fn}.us_per_1k_points"] = \
            ratio(s["ns"], s["points"])
    for name in TRACED:
        if name.startswith("blocks."):
            s = get(name)
            out[f"{name}.calls"] = s["calls"] * per
            out[f"{name}.ms"] = s["ns"] * 1e-6 * per
            out[f"{name}.self_ms"] = s["self_ns"] * 1e-6 * per
            out[f"{name}.errors"] = sum(s["errors"].values()) * per
    builds = get("blocks.build_transfer_block")["calls"]
    out["blocks.transfer_ode_hit_ratio"] = (
        1.0 - get("curves.integrate_transfer_odes")["calls"] / builds
        if builds else 0.0)
    for fn in ("assemble_pipeline", "check_corner_gluing", "check_perelman"):
        s = get(f"gluing.{fn}")
        out[f"gluing.{fn}.calls"] = s["calls"] * per
        out[f"gluing.{fn}.ms"] = s["ns"] * 1e-6 * per
    s = get("feasibility.scan")
    out["feasibility.scan.calls"] = s["calls"] * per
    out["feasibility.scan.samples"] = agg["scan_samples"] * per
    out["feasibility.scan.ms"] = s["ns"] * 1e-6 * per
    out["feasibility.scan.self_ms"] = s["self_ns"] * 1e-6 * per
    out["feasibility.scan.pass_ratio"] = ratio(scan_passes,
                                               agg["scan_samples"])
    out["feasibility.scan.rejected"] = agg["scan_rejected"] * per
    out["scenarios.reference_pipeline.self_ms"] = \
        get("scenarios.reference_pipeline")["self_ns"] * 1e-6 * per
    out["cli.run_scenario.ms"] = get("cli.run_scenario")["ns"] * 1e-6 * per
    s = get("cli.emit_plot_data")
    out["cli.emit_plot_data.calls"] = s["calls"] * per
    out["cli.emit_plot_data.ms"] = s["ns"] * 1e-6 * per
    n_cold = max(len(cold_files), 1)
    out["cli.report_bytes"] = sum(r for r, _ in cold_files) / n_cold
    out["cli.csv_bytes"] = sum(c for _, c in cold_files) / n_cold
    return out
