"""Scenario-driven entry point: run block builders, feasibility scans,
pipelines and characteristic-class tables from a JSON scenario file.

Exit codes: 0 verification passed (or informational command), 1 a
verification margin failed (named on stderr), 2 scenario parse/validation
error (no outputs written), 3 internal fault (exception class and message
on stderr, no outputs written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import blocks, charclasses, feasibility, scenarios
from ._util import write_csv

__all__ = ["run_scenario", "emit_plot_data", "main", "ScenarioError"]


class ScenarioError(ValueError):
    pass


_SCHEMAS = {
    "cone": {"required": {"n", "K", "eps1", "eps2", "delta"},
             "optional": {"t", "t_samples"}},
    "handle1": {"required": {"n", "K", "lambda1", "lambda2", "eps1", "eps2",
                             "delta"}, "optional": set()},
    "handle2": {"required": {"lambda1", "lambda2", "a", "b", "eps", "nu"},
                "optional": {"B_scale"}},
    "assemble-handle": {"required": {"n", "K", "params1", "params2"},
                        "optional": set()},
    "transfer": {"required": {"p", "q", "r0", "nu", "lam", "a", "C"},
                 "optional": {"sup_AX2", "sup_AV2", "sup_deltaA"}},
    "s1": {"required": {"q", "lam"}, "optional": {"ric_base_lb"}},
    "fibre-disc": {"required": {"p", "t0"}, "optional": set()},
    "sphere-transition": {"required": {"p", "q", "s0"}, "optional": set()},
    "projective": {"required": {"d", "n", "s"}, "optional": set()},
    "wu-check": {"required": {"variant"}, "optional": {"eps", "eps_outer"}},
    "conformal-margin": {"required": {"c", "C"}, "optional": set()},
    "sw-table": {"required": set(), "optional": set()},
    "scan": {"required": {"predicate", "box", "budget"},
             "optional": {"resolution", "fixed", "refine_target"}},
    "pipeline": {"required": set(), "optional": {"params"}},
    "pipeline-graph": {"required": {"graph"}, "optional": set()},
}


def _validate(scenario: dict) -> str:
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    command = scenario.get("command")
    if command not in _SCHEMAS:
        raise ScenarioError(f"unknown command {command!r}; known: "
                            f"{sorted(_SCHEMAS)}")
    schema = _SCHEMAS[command]
    keys = set(scenario) - {"command"}
    unknown = keys - schema["required"] - schema["optional"]
    if unknown:
        raise ScenarioError(f"unknown keys for {command!r}: "
                            f"{sorted(unknown)}")
    missing = schema["required"] - keys
    if missing:
        raise ScenarioError(f"missing keys for {command!r}: "
                            f"{sorted(missing)}")
    return command


def _edges_payload(result: dict) -> dict:
    """The "assumed" and "edges" entries of an assembled pipeline."""
    return {"assumed": result["assumed"],
            "edges": [{"edge": e["edge"], "kind": e["kind"],
                       "checked": e["checked"],
                       **({"report": e["report"].to_json_dict()}
                          if e["checked"] else {"citation": e["citation"]})}
                      for e in result["edges"]]}


def _run_command(command: str, sc: dict, grid, seed):
    """Execute one command; returns (payload, sweeps, passed)."""
    if command == "cone":
        t_samples = sc.get("t_samples")
        if t_samples is None:
            t_samples = [sc.get("t", 1.0)]
        payloads, sweeps, ok = [], {}, True
        for t in t_samples:
            _, rep = blocks.build_cone_metric(
                int(sc["n"]), sc["K"], sc["eps1"], sc["eps2"], sc["delta"],
                float(t), grid=grid)
            payloads.append(rep.to_json_dict())
            for name, sweep in rep.sweeps.items():
                sweeps[f"cone_t{t:g}_{name}"] = sweep
            ok = ok and rep.passed
        return {"reports": payloads}, sweeps, ok
    if command == "handle1":
        rep = blocks.build_handle1(int(sc["n"]), sc["K"], sc["lambda1"],
                                   sc["lambda2"], sc["eps1"], sc["eps2"],
                                   sc["delta"], grid=grid)
    elif command == "handle2":
        B = feasibility._default_collar_profile(sc.get("B_scale", 1.0))
        rep = blocks.build_handle2(B, sc["lambda1"], sc["lambda2"],
                                   sc["a"], sc["b"], sc["eps"], sc["nu"],
                                   grid=grid)
    elif command == "assemble-handle":
        rep = blocks.assemble_handle(int(sc["n"]), sc["K"],
                                     dict(sc["params1"]),
                                     dict(sc["params2"]), grid=grid)
    elif command == "transfer":
        ab = blocks.ABounds(sc.get("sup_AX2", 0.0), sc.get("sup_AV2", 0.0),
                            sc.get("sup_deltaA", 0.0))
        rep = blocks.build_transfer_block(int(sc["p"]), int(sc["q"]),
                                          sc["r0"], sc["nu"], sc["lam"],
                                          sc["a"], sc["C"], ab, grid=grid)
    elif command == "s1":
        rep = blocks.build_s1_block(int(sc["q"]), sc["lam"],
                                    sc.get("ric_base_lb", 1.0), grid=grid)
    elif command == "fibre-disc":
        _, rep = blocks.build_fibre_disc_warp(int(sc["p"]), sc["t0"],
                                              grid=grid)
    elif command == "sphere-transition":
        s0 = float(sc["s0"])
        A = blocks.sine_curve(2 * s0 / math.pi, math.pi / (2 * s0), 0.0,
                              (0.0, s0))
        B = blocks.cosine_curve(2 * s0 / math.pi, math.pi / (2 * s0), 0.0,
                                (0.0, s0))
        rep = blocks.build_sphere_transition(A, B, int(sc["p"]),
                                             int(sc["q"]), grid=grid)
    elif command == "projective":
        rep = blocks.projective_family_check(int(sc["d"]), int(sc["n"]),
                                             float(sc["s"]), grid=grid)
    elif command == "wu-check":
        kwargs = {}
        if "eps" in sc:
            kwargs["eps"] = sc["eps"]
        if "eps_outer" in sc:
            kwargs["eps_outer"] = sc["eps_outer"]
        rep = blocks.wu_family_check(sc["variant"], grid=grid, **kwargs)
    elif command == "conformal-margin":
        value = blocks.boundary_conformal_margin(sc["c"], sc["C"])
        return ({"margin": value, "positive": value > 0}, {}, True)
    elif command == "sw-table":
        table = charclasses.omega9_generator_table()
        w1 = charclasses.ring_wi(1)
        w2 = charclasses.ring_wi(2)
        payload = {"omega9": table,
                   "total_classes": {"W1": repr(w1.total_sw()),
                                     "W2": repr(w2.total_sw()),
                                     "CP2": repr(
                                         charclasses.ring_cpn(2)
                                         .total_sw())}}
        return payload, {}, table["rank"] == 2
    elif command == "scan":
        box = feasibility.ParamBox(
            {k: tuple(v) for k, v in sc["box"].items()},
            sc.get("resolution", 4))
        cert = feasibility.scan(box, sc["predicate"], int(sc["budget"]),
                                seed=seed or 0, fixed=sc.get("fixed"),
                                grid=grid)
        if "refine_target" in sc and cert.entries:
            cert = feasibility.refine(cert, sc["refine_target"], grid=grid)
        return cert.to_json_dict(), {}, bool(cert.entries)
    elif command == "pipeline-graph":
        from . import gluing
        graph = gluing.graph_from_json(sc["graph"])
        result = gluing.assemble_pipeline(graph)
        payload = {"passed": result["passed"], **_edges_payload(result)}
        return payload, {}, result["passed"]
    elif command == "pipeline":
        result = scenarios.run_reference_pipeline(sc.get("params"),
                                                  grid=grid)
        payload = {"passed": result["passed"], "blocks": result["blocks"],
                   **_edges_payload(result)}
        sweeps = {}
        for name, rep in result["block_reports"].items():
            for sname, sweep in rep.sweeps.items():
                sweeps[f"{name}_{sname}"] = sweep
        return payload, sweeps, result["passed"]
    else:
        raise ScenarioError(f"unhandled command {command}")
    return rep.to_json_dict(), dict(rep.sweeps), rep.passed


def emit_plot_data(report: dict, outdir: str, sweeps: dict | None = None):
    """One CSV per sweep with a stable, sorted column order.  Returns the
    written paths; an empty report writes nothing."""
    paths = []
    sweeps = sweeps or report.get("sweeps") or {}
    for name, sweep in sorted(sweeps.items()):
        cols = sweep["columns"]
        labels = sorted(cols)
        ts = np.asarray(sweep["t"], dtype=float)
        table = np.column_stack([ts] + [np.asarray(cols[k], dtype=float)
                                        for k in labels])
        path = os.path.join(outdir, f"{name}.csv")
        write_csv(path, ",".join(["t"] + labels), table)
        paths.append(path)
    return paths


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def run_scenario(path: str, grid=None, seed=None, out: str = "out",
                 json_only: bool = False) -> int:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
        command = _validate(scenario)
    except (OSError, json.JSONDecodeError, ScenarioError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    sc = {k: v for k, v in scenario.items() if k != "command"}
    try:
        payload, sweeps, passed = _run_command(command, sc, grid, seed)
    except (blocks.BuildError, blocks.HorizonError, KeyError,
            TypeError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    os.makedirs(out, exist_ok=True)
    report = {"command": command, "scenario": scenario, "passed": passed,
              "result": payload}
    if seed is not None:
        report["seed"] = seed
    text = json.dumps(report, sort_keys=True, indent=1,
                      default=_json_default)
    report_path = os.path.join(out, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    csv_paths = emit_plot_data(report, out, sweeps)

    if json_only:
        print(text)
    else:
        print(f"command : {command}")
        print(f"verdict : {'pass' if passed else 'FAIL'}")
        print(f"report  : {report_path}")
        for p in csv_paths:
            print(f"sweep   : {p}")
    if not passed:
        label = _first_failure(payload) or "unspecified margin"
        print(f"verification failed: {label}", file=sys.stderr)
        return 1
    return 0


def _first_failure(payload) -> str | None:
    """Label of the first failed margin in the payload, depth first: a
    "fail:<label>" verdict string (block reports and pipeline block
    verdicts alike) or the ``details.failed`` label of a failed gluing
    edge report; None if there is none."""
    if isinstance(payload, str):
        return payload[5:] if payload.startswith("fail:") else None
    if isinstance(payload, dict):
        failed = payload.get("details", {}).get("failed")
        if payload.get("passed") is False and isinstance(failed, str):
            return failed
        payload = list(payload.values())
    if isinstance(payload, list):
        for value in payload:
            label = _first_failure(value)
            if label is not None:
                return label
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="warpbench",
        description="Run a verification scenario and write its report.")
    parser.add_argument("--scenario", required=True,
                        help="path to a JSON scenario file")
    parser.add_argument("--grid", type=int, default=None,
                        help="grid samples per unit interval")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized sampling")
    parser.add_argument("--out", default="out",
                        help="output directory for reports and sweeps")
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable report only")
    args = parser.parse_args(argv)
    return run_scenario(args.scenario, grid=args.grid, seed=args.seed,
                        out=args.out, json_only=args.json)


if __name__ == "__main__":
    sys.exit(main())
