"""One fresh benchmark process: times the import of warpbench, then runs
its share of a workload and writes timings and outputs as JSON.

Usage: python3 perfbench/child.py PLAN.json RESULT.json

Run by ``run.py`` with ``src`` on PYTHONPATH. Timings cover only the calls
into warpbench; outputs are extracted and files are hashed after each
timed call, and compared with the reference by the parent.
"""

import json
import sys
import time

_t0 = time.perf_counter()
import warpbench  # noqa: E402
import warpbench.cli  # noqa: E402
SETUP_S = time.perf_counter() - _t0

import hashlib  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

from warpbench import blocks, cli, feasibility, scenarios  # noqa: E402

REJECTIONS = (blocks.BuildError, blocks.HorizonError)
MIN_WARM_OPS = 3
CALIBRATION_RUNS = 5


def calibration_ms() -> float:
    """Time of a fixed kernel that does not touch warpbench, in the same
    mix as warpbench's hot paths: numpy temporaries on 4097-point tables
    and an interpreted scalar loop. The parent scales the times next to it
    by its median, which removes the part of a shared host's speed drift
    that both have in common."""
    t = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 4097)
    acc = 0.0
    for _ in range(20):
        y = np.exp(1.0 - 1.0 / (1.0 - np.where(np.abs(x) < 1, x * x, 0.0)))
        z = np.cumsum(0.5 * (y[:-1] + y[1:]))
        acc += float(z[-1]) + float(np.searchsorted(x, 0.3 * x)[7])
    for i in range(7000):
        acc += math.exp(-0.5 * (i * 1e-4) ** 2)
    return (time.perf_counter() - t) * 1e3


def calibrate(n=CALIBRATION_RUNS) -> list:
    return [calibration_ms() for _ in range(n)]


def rss_mb() -> float:
    """Peak RSS so far. Read right after the cold operation, which is the
    same work for every seed, before warm ops and output checks add to it."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _margins(where, margins):
    return [[where, m["label"], m["min"]] for m in margins]


def normalize_pipeline(payload, block_reports=None) -> dict:
    """Verdicts and margins of a pipeline result in JSON form, as the CLI
    writes them; ``block_reports`` adds each block's own margins."""
    verdicts = [["pipeline", "pass" if payload["passed"] else "fail"]]
    verdicts += [[f"block:{k}", v]
                 for k, v in sorted(payload["blocks"].items())]
    margins = []
    for name, rep in sorted((block_reports or {}).items()):
        margins += _margins(f"block:{name}", rep["margins"])
    for e in payload["edges"]:
        (s, sf), (d, df) = e["edge"]
        where = f"edge:{s}.{sf}->{d}.{df}:{e['kind']}"
        if e["checked"]:
            verdicts.append([where, "pass" if e["report"]["passed"]
                             else "fail"])
            margins += _margins(where, e["report"]["margins"])
        else:
            verdicts.append([where, "assumed"])
    return {"verdicts": verdicts, "margins": margins}


def _json_round_trip(obj):
    return json.loads(json.dumps(obj, default=cli._json_default))


def warm_pipeline_outputs(result) -> dict:
    payload = {
        "passed": result["passed"], "blocks": result["blocks"],
        "edges": [{"edge": e["edge"], "kind": e["kind"],
                   "checked": e["checked"],
                   **({"report": e["report"].to_json_dict()}
                      if e["checked"] else {})}
                  for e in result["edges"]]}
    reports = {k: {"margins": [{"label": m.label, "min": m.min}
                               for m in rep.margins]}
               for k, rep in result["block_reports"].items()}
    return normalize_pipeline(_json_round_trip(payload), reports)


def cold_outputs(outdir, csv_sha) -> dict:
    """Margins from report.json, and per CSV its size and sha256; a CSV
    whose hash differs from the reference is summarized for a comparison
    within tolerance."""
    path = os.path.join(outdir, "report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    out = {"report": normalize_pipeline(report["result"]),
           "report_bytes": os.path.getsize(path), "csv": {}}
    for name in sorted(os.listdir(outdir)):
        if not name.endswith(".csv"):
            continue
        path = os.path.join(outdir, name)
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        sha = digest.hexdigest()
        entry = {"bytes": os.path.getsize(path), "sha256": sha}
        if csv_sha.get(name) != sha:
            with open(path, "rb") as fh:
                entry.update(summarize_csv(fh.read()))
        out["csv"][name] = entry
    return out


def summarize_csv(raw: bytes, samples: int = 64) -> dict:
    """Header, row count, column sums and every k-th row (and the last)."""
    lines = raw.decode().splitlines()
    header, rows = lines[0], lines[1:]
    table = np.array([[float(x) for x in r.split(",")] for r in rows])
    stride = max(len(rows) // samples, 1)
    picked = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    return {"header": header, "rows": len(rows),
            "col_sums": table.sum(axis=0).tolist(),
            "col_abs_sums": np.abs(table).sum(axis=0).tolist(),
            "sample_index": picked,
            "sample_rows": table[picked].tolist()}


def outcome_of_error(exc) -> str:
    return "rejected" if isinstance(exc, REJECTIONS) else "error"


def run_pipeline(plan, res):
    workdir = plan["workdir"]
    scenario_path = os.path.join(workdir, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(plan["cli_scenario"], fh)
    outdir = os.path.join(workdir, "out")
    cal = calibrate()
    with open(os.path.join(workdir, "cli.log"), "w") as log:
        saved, sys.stdout = sys.stdout, log
        try:
            t = time.perf_counter()
            rc = cli.run_scenario(scenario_path, out=outdir)
            res["cold_s"] = time.perf_counter() - t
        finally:
            sys.stdout = saved
    res["cold_cal"] = cal + calibrate()
    res["peak_rss_mb"] = rss_mb()
    res["cold_outcome"] = {0: "pass", 1: "fail"}.get(rc, "error")
    res["cold_exit"] = rc
    if rc in (0, 1):
        res["cold_outputs"] = cold_outputs(outdir, plan["csv_sha"])

    # every dealt record runs, so the outcome counts do not depend on speed
    warm = res["warm"] = []
    for i, record in enumerate(plan["records"]):
        op = {"index": plan["indices"][i], "cal": calibration_ms()}
        t = time.perf_counter()
        try:
            result = scenarios.run_reference_pipeline(record)
        except Exception as exc:      # every failure is recorded, not fatal
            op["ms"] = (time.perf_counter() - t) * 1e3
            op["outcome"] = outcome_of_error(exc)
            op["error"] = f"{type(exc).__name__}: {exc}"
        else:
            op["ms"] = (time.perf_counter() - t) * 1e3
            op["outcome"] = "pass" if result["passed"] else "fail"
            op["outputs"] = warm_pipeline_outputs(result)
        warm.append(op)


def _scan(configs, call):
    predicate, box, resolution, fixed = configs[call["config"]]
    box = feasibility.ParamBox({k: tuple(v) for k, v in box.items()},
                               resolution)
    return feasibility.scan(box, predicate, call["budget"],
                            seed=call["seed"], fixed=dict(fixed))


def _scan_op(configs, call) -> dict:
    op = {**call, "cal": calibration_ms()}
    t = time.perf_counter()
    try:
        cert = _scan(configs, call)
    except Exception as exc:          # a sample that aborts the scan
        op["ms"] = (time.perf_counter() - t) * 1e3
        op["outcome"] = outcome_of_error(exc)
        op["error"] = f"{type(exc).__name__}: {exc}"
        return op
    op["ms"] = (time.perf_counter() - t) * 1e3
    op["outcome"] = "done"
    op["evaluated"] = cert.grid["evaluated"]
    op["failures"] = cert.failures
    op["entries"] = [[e.params, e.min_margin, e.verdict]
                     for e in cert.entries]
    return op


def run_scan_mix(plan, res):
    configs = plan["scan_configs"]
    calls = plan["calls"]
    first = plan["first_round"]
    start = time.perf_counter()
    cal = calibrate()
    cold = [_scan_op(configs, c) for c in calls[:first]]
    res["cold_s"] = sum(op["ms"] for op in cold) * 1e-3
    res["cold_cal"] = cal + calibrate()
    res["peak_rss_mb"] = rss_mb()
    res["cold"] = cold
    warm = res["warm"] = []
    for call in calls[first:]:
        if (time.perf_counter() - start >= plan["budget_s"]
                and len(warm) >= MIN_WARM_OPS):
            break
        warm.append(_scan_op(configs, call))


def main(plan_path, result_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    res = {"setup_s": SETUP_S, "setup_cal": calibrate(),
           "numpy": np.__version__}
    tracer = None
    if plan["kind"] == "work":
        if plan["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        if plan["workload"] == "pipeline":
            run_pipeline(plan, res)
        else:
            run_scan_mix(plan, res)
    if tracer is not None:
        res["trace_file"] = os.path.join(plan["workdir"], "trace.json")
        tracer.dump(res["trace_file"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
