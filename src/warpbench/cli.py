"""Scenario-driven entry point: run block builders, feasibility scans,
pipelines and characteristic-class tables from a JSON scenario file.  Each
name in ``feasibility.PREDICATES`` is a block command taking that entry's
params and defaults.

Exit codes: 0 verification passed (or informational command), 1 a
verification margin failed or a scan's refine_target was not reached
(named on stderr), 2 scenario parse/validation error (no outputs
written) or an OSError writing them, 3 internal fault (exception class and
message on stderr; outputs written before it may remain).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import blocks, charclasses, feasibility, gluing, scenarios
from ._util import write_csv

__all__ = ["run_scenario", "emit_plot_data", "main"]


def _edges_payload(result: dict) -> dict:
    """The "assumed" and "edges" entries of an assembled pipeline."""
    return {"assumed": result["assumed"],
            "edges": [{"edge": e["edge"], "kind": e["kind"],
                       "checked": e["checked"],
                       **({"report": e["report"].to_json_dict()}
                          if e["checked"] else {"citation": e["citation"]})}
                      for e in result["edges"]]}


def _cone_family(sc, grid, seed):
    """One cone report per t in t_samples (default: the single t)."""
    spec = feasibility.PREDICATES["cone"]
    params = {**spec["defaults"], **sc}
    t_samples = params.pop("t_samples", None)
    payloads, sweeps, ok = [], {}, True
    for t in [params["t"]] if t_samples is None else t_samples:
        rep = spec["builder"](**{**params, "t": float(t)}, grid=grid)
        payloads.append(rep.to_json_dict())
        for name, sweep in rep.sweeps.items():
            sweeps[f"cone_t{t:g}_{name}"] = sweep
        ok = ok and rep.passed
    return {"reports": payloads}, sweeps, ok


def _conformal_margin(sc, grid, seed):
    value = blocks.boundary_conformal_margin(sc["c"], sc["C"])
    return {"margin": value, "positive": value > 0}, {}, True


def _sw_table(sc, grid, seed):
    table = charclasses.omega9_generator_table()
    payload = {"omega9": table,
               "total_classes": {
                   "W1": repr(charclasses.ring_wi(1).total_sw()),
                   "W2": repr(charclasses.ring_wi(2).total_sw()),
                   "CP2": repr(charclasses.ring_cpn(2).total_sw())}}
    return payload, {}, table["rank"] == 2


def _scan(sc, grid, seed):
    box = feasibility.ParamBox({k: tuple(v) for k, v in sc["box"].items()},
                               sc.get("resolution", 4))
    cert = feasibility.scan(box, sc["predicate"], int(sc["budget"]),
                            seed=seed or 0, fixed=sc.get("fixed"), grid=grid)
    if "refine_target" in sc and cert.entries:
        try:
            cert = feasibility.refine(cert, sc["refine_target"], grid=grid)
        except feasibility.RefineError as exc:
            # an unreached target is the scenario's outcome, not a fault
            return ({**exc.certificate.to_json_dict(),
                     "verdict": f"fail:{exc}"}, {}, False)
    return cert.to_json_dict(), {}, bool(cert.entries)


def _pipeline_graph(sc, grid, seed):
    result = gluing.assemble_pipeline(gluing.graph_from_json(sc["graph"]))
    payload = {"passed": result["passed"], **_edges_payload(result)}
    return payload, {}, result["passed"]


def _pipeline(sc, grid, seed):
    result = scenarios.run_reference_pipeline(sc.get("params"), grid=grid)
    payload = {"passed": result["passed"], "blocks": result["blocks"],
               **_edges_payload(result)}
    sweeps = {}
    for name, rep in result["block_reports"].items():
        for sname, sweep in rep.sweeps.items():
            sweeps[f"{name}_{sname}"] = sweep
    return payload, sweeps, result["passed"]


# Commands that are not a single block build: handler, required keys,
# optional keys.  Every other command is a feasibility.PREDICATES name.
_COMMANDS = {
    "conformal-margin": (_conformal_margin, {"c", "C"}, set()),
    "sw-table": (_sw_table, set(), set()),
    "scan": (_scan, {"predicate", "box", "budget"},
             {"resolution", "fixed", "refine_target"}),
    "pipeline": (_pipeline, set(), {"params"}),
    "pipeline-graph": (_pipeline_graph, {"graph"}, set()),
}


def _validate(scenario: dict) -> str:
    if not isinstance(scenario, dict):
        raise ValueError("scenario must be a JSON object")
    command = scenario.get("command")
    keys = set(scenario) - {"command"}
    if command in _COMMANDS:
        feasibility.check_keys(command, keys, *_COMMANDS[command][1:])
    elif command in feasibility.PREDICATES:
        if command == "cone":
            keys.discard("t_samples")
        feasibility.check_params(command, keys)
    else:
        raise ValueError(f"unknown command {command!r}; known: "
                         f"{sorted([*_COMMANDS, *feasibility.PREDICATES])}")
    return command


def _run_command(command: str, sc: dict, grid, seed):
    """Execute one command; returns (payload, sweeps, passed)."""
    if command in _COMMANDS:
        return _COMMANDS[command][0](sc, grid, seed)
    if command == "cone":
        return _cone_family(sc, grid, seed)
    spec = feasibility.PREDICATES[command]
    rep = spec["builder"](**{**spec["defaults"], **sc}, grid=grid)
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
        path = os.path.join(outdir, f"{name}.csv")
        write_csv(path, ",".join(["t"] + labels),
                  [ts] + [np.asarray(cols[k], dtype=float) for k in labels])
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
    except (OSError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2

    sc = {k: v for k, v in scenario.items() if k != "command"}
    try:
        payload, sweeps, passed = _run_command(command, sc, grid, seed)
    except (blocks.HorizonError, KeyError, TypeError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    report = {"command": command, "scenario": scenario, "passed": passed,
              "result": payload}
    if seed is not None:
        report["seed"] = seed
    report_path = os.path.join(out, "report.json")
    try:
        text = json.dumps(report, sort_keys=True, indent=1,
                          default=_json_default)
        os.makedirs(out, exist_ok=True)
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        csv_paths = emit_plot_data(report, out, sweeps)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

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
    """Label of the first failed margin in the payload, depth first: the
    first "fail:<label>" verdict string (block and edge reports and
    pipeline block verdicts alike); None if there is none."""
    if isinstance(payload, str):
        return payload[5:] if payload.startswith("fail:") else None
    if isinstance(payload, dict):
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
