"""warpbench benchmark: two closed-loop workloads with one client, each run
as a sequence of fresh single-threaded Python processes.

    python3 perfbench/run.py --workload pipeline --seed 0 --trace 0
    python3 perfbench/run.py --workload all    # both workloads and a summary

Run from anywhere inside a checkout; the package is imported from ``src``.
Prints provenance, the input digest, outcome counts and every metric with
its unit and sample count; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 1``
traces half of the processes and reports the per-layer metrics and the
tracing overhead instead of the end-to-end metrics. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("pipeline", "scan-mix")
IMPORT_PROCESSES = 12       # extra fresh processes that only time the import
WORK_PROCESSES = 7          # processes that run the workload, one at a time
CHILD_TIMEOUT_S = 150
RUN_DEADLINE_S = 170
PASS_SECONDS = 45           # pipeline: one pass over the pool per 45 s
PLAN_SCAN_ROUNDS = 600

# Times are scaled to a host on which child.calibration_ms takes
# CAL_REF_MS; an op's speed factor comes from the calibrations of the ops
# within CAL_WINDOW of it in the same process.
CAL_REF_MS = 4.5
CAL_WINDOW = 2

E2E_UNITS = {"setup_s": "s", "cold_s": "s", "warm_ms": "ms",
             "warm_ops_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here: no package, no reference, or a
    process that did not finish."""


def child_env(workdir):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = workdir
    return env


def run_child(plan: dict, workdir: str, started: float) -> dict:
    """Run one fresh process to completion and return its result."""
    os.makedirs(plan["workdir"], exist_ok=True)
    plan_path = os.path.join(plan["workdir"], "plan.json")
    result_path = os.path.join(plan["workdir"], "result.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    left = RUN_DEADLINE_S - (time.monotonic() - started)
    log_path = os.path.join(plan["workdir"], "child.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), plan_path,
                 result_path], cwd=ROOT, env=child_env(workdir),
                stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, min(CHILD_TIMEOUT_S, left)))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"benchmark process timed out after "
                             f"{exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"benchmark process exited {proc.returncode}:\n"
                         f"{tail}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def load_reference():
    try:
        ref = {"cli": check.load("cli_pipeline.json"),
               "pool": check.load("pipeline_pool.json"),
               "scan": check.load("scan_lattices.json")}
    except FileNotFoundError as exc:
        raise BenchError(f"missing reference: {exc.filename}") from exc
    if ref["pool"]["pool_digest"] != inputs.digest(inputs.pipeline_pool()) \
            or ref["scan"]["configs_digest"] != \
            inputs.digest(inputs.SCAN_CONFIGS) \
            or ref["cli"]["scenario"] != inputs.CLI_SCENARIO:
        raise BenchError("reference does not match the benchmark inputs")
    ref["tables"] = {name: {k: (m, v) for k, m, v in rows}
                     for name, rows in ref["scan"]["tables"].items()}
    return ref


def make_plans(workload, seed, seconds, trace, workdir, ref):
    """Work plans, one per process. In a traced run the processes
    alternate untraced and traced, with the same time share each."""
    n = WORK_PROCESSES + (WORK_PROCESSES % 2 if trace else 0)
    rng = random.Random(f"{seed}:{workload}")
    if workload == "pipeline":
        pool = inputs.pipeline_pool()
        # untraced and traced processes each cover their own permutations
        groups = 2 if trace else 1
        passes = max(1, round(seconds / PASS_SECONDS))
        dealt = [inputs.pipeline_plan(rng, n // groups, passes)
                 for _ in range(groups)]
    plans = []
    for i in range(n):
        plan = {"kind": "work", "workload": workload,
                "trace": bool(trace and i % 2),
                "workdir": os.path.join(workdir, f"work{i}")}
        if workload == "pipeline":
            plan["indices"] = dealt[i % groups][i // groups]
            plan["records"] = [pool[j] for j in plan["indices"]]
            plan["cli_scenario"] = inputs.CLI_SCENARIO
            plan["csv_sha"] = {name: c["sha256"]
                               for name, c in ref["cli"]["csv"].items()}
        else:
            plan["budget_s"] = seconds / n
            plan["calls"] = inputs.scan_plan(rng, PLAN_SCAN_ROUNDS)
            plan["first_round"] = inputs.COLD_ROUNDS * len(inputs.ROUND)
            plan["scan_configs"] = inputs.SCAN_CONFIGS
        plans.append(plan)
    return plans


class Outcomes:
    def __init__(self):
        self.counts = {"pass": 0, "fail": 0, "rejected": 0, "error": 0}
        self.errors = {}
        self.mismatches = []

    def add(self, outcome, n=1, error=None):
        self.counts[outcome] += n
        if outcome == "error":
            cls = (error or "unknown").split(":")[0]
            self.errors[cls] = self.errors.get(cls, 0) + n

    def mismatch(self, problems, n=1):
        self.mismatches += problems
        self.add("error", n, "OutputMismatch")


def check_pipeline(res, ref, outcomes):
    """Counts outcomes and checks the outputs of one pipeline process."""
    bad = check.check_cold_cli(res, ref["cli"])
    if bad:
        outcomes.mismatch(bad)
    else:
        outcomes.add(res["cold_outcome"])
    for op in res["warm"]:
        bad = check.check_warm_pipeline(op, ref["pool"]["records"]
                                        [op["index"]])
        if bad:
            outcomes.mismatch(bad)
        else:
            outcomes.add(op["outcome"], error=op.get("error"))


def check_scans(ops, ref, outcomes):
    for op in ops:
        config = inputs.SCAN_CONFIGS[op["config"]]
        bad, counts = check.check_scan(op, config, ref["tables"][op["config"]])
        if op["outcome"] != "done":
            outcomes.add("error", op["budget"], op["error"])
        elif bad:
            outcomes.mismatch(bad, op["budget"])
        else:
            for outcome, n in counts.items():
                outcomes.add(outcome, n)


def speed_factor(cal_ms) -> float:
    return CAL_REF_MS / statistics.median(cal_ms)


def local_factors(ops) -> list:
    """Speed factor of each op, from the calibrations of its neighbours."""
    cal = [op["cal"] for op in ops]
    return [speed_factor(cal[max(i - CAL_WINDOW, 0):i + CAL_WINDOW + 1])
            for i in range(len(ops))]


def e2e_metrics(workload, results, setup_results, ref, outcomes):
    """End-to-end metrics of the given work processes: for each, the
    calibrated value, the sample count and the raw value."""
    samples = {name: [] for name in E2E_UNITS}   # (raw, speed factor)
    every_warm = []       # warm_ms falls back to these if none completed
    for r in setup_results:
        samples["setup_s"].append((r["setup_s"], speed_factor(r["setup_cal"])))
    work = [0, 0.0, 0.0]          # units of work, raw ms, calibrated ms
    for r in results:
        samples["cold_s"].append((r["cold_s"], speed_factor(r["cold_cal"])))
        samples["peak_rss_mb"].append((r["peak_rss_mb"], 1.0))
        factors = local_factors(r["warm"])
        if workload == "pipeline":
            check_pipeline(r, ref, outcomes)
            for op, f in zip(r["warm"], factors):
                if op["outcome"] in ("pass", "fail"):
                    samples["warm_ms"].append((op["ms"], f))
                every_warm.append((op["ms"], f))
                work[0] += 1
                work[1] += op["ms"]
                work[2] += op["ms"] * f
        else:
            check_scans(r["cold"] + r["warm"], ref, outcomes)
            for op, f in zip(r["warm"], factors):
                every_warm.append((op["ms"] / op["budget"], f))
                if op["outcome"] == "done":
                    samples["warm_ms"].append((op["ms"] / op["evaluated"], f))
                    work[0] += op["evaluated"]
                    work[1] += op["ms"]
                    work[2] += op["ms"] * f
    samples["warm_ms"] = samples["warm_ms"] or every_warm
    out = {}
    for name, pairs in samples.items():
        if name == "warm_ops_per_s":
            continue
        out[name] = (statistics.median(v * f for v, f in pairs), len(pairs),
                     statistics.median(v for v, _ in pairs))
    out["warm_ops_per_s"] = (work[0] / (work[2] * 1e-3) if work[2] else 0.0,
                             work[0],
                             work[0] / (work[1] * 1e-3) if work[1] else 0.0)
    return {name: out[name] for name in E2E_UNITS}


def structure_problems(workload, traced):
    """The structural counts the workloads predict: one transfer ODE
    integration and one CSV emission per pipeline process, none in
    scan-mix."""
    want = 1 if workload == "pipeline" else 0
    bad = []
    for r in traced:
        spans = tracing.aggregate([r["trace_file"]])["spans"]
        for name in ("curves.integrate_transfer_odes", "cli.emit_plot_data"):
            got = spans.get(name, {"calls": 0})["calls"]
            if got != want:
                bad.append(f"{name}: {got} calls in one {workload} "
                           f"process, predicted {want}")
    return bad


def run_workload(workload, seed, seconds, trace, workdir, ref, started):
    plans = make_plans(workload, seed, seconds, trace, workdir, ref)
    setup_plans = [{"kind": "import", "workload": workload, "trace": False,
                    "workdir": os.path.join(workdir, f"import{i}")}
                   for i in range(IMPORT_PROCESSES)]
    # an untimed first import, so byte-compilation is not timed as set-up
    run_child({**setup_plans[0], "workdir": os.path.join(workdir, "warm")},
              workdir, started)
    setup_results = [run_child(p, workdir, started) for p in setup_plans]
    results = []
    for plan in plans:
        res = run_child(plan, workdir, started)
        res["traced"] = plan["trace"]
        results.append(res)
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]

    outcomes = Outcomes()
    metrics = e2e_metrics(workload, untraced, setup_results + untraced, ref,
                          outcomes)
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "processes": len(results),
            "digest": inputs.digest([p.get("records", p.get("calls"))
                                     for p in plans]),
            "numpy": results[0]["numpy"]}
    problems = []
    if traced:
        traced_e2e = e2e_metrics(workload, traced, traced, ref, outcomes)
        problems = structure_problems(workload, traced)
        agg = tracing.aggregate([r["trace_file"] for r in traced])
        passes = sum(len(op["entries"]) for r in traced
                     for op in r.get("cold", []) + r["warm"]
                     if op.get("outcome") == "done")
        cold_files = [(r["cold_outputs"]["report_bytes"],
                       sum(c["bytes"] for c in
                           r["cold_outputs"]["csv"].values()))
                      for r in traced if "cold_outputs" in r]
        layers = tracing.layer_metrics(agg, len(traced), passes, cold_files)
        for name, (value, _, _) in metrics.items():
            slow = traced_e2e[name][0]
            # positive overhead means tracing made the metric worse
            layers[f"trace_overhead.{name}"] = (
                value / slow - 1.0 if name == "warm_ops_per_s"
                else slow / value - 1.0)
        info["layers"] = layers
    info["e2e"] = metrics
    info["outcomes"] = outcomes
    info["problems"] = problems
    return info


def bench_layer_metrics(outcomes):
    c = outcomes.counts
    attempted = sum(c.values())
    return {"bench.ops": attempted, "bench.ops_error": c["error"],
            "bench.ops_rejected": c["rejected"],
            "bench.ops_failed_frac": c["error"] / max(attempted, 1)}


def provenance():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {platform.python_version()}, nproc "
            f"{os.cpu_count()}, cpu {cpu}")


def report(info):
    c, o = info["outcomes"].counts, info["outcomes"]
    print(f"workload {info['workload']}: seed {info['seed']}, "
          f"{info['seconds']} s, trace {info['trace']}, "
          f"{info['processes']} work processes, numpy {info['numpy']}")
    print(f"  inputs digest {info['digest']}")
    errors = ", ".join(f"{k} {v}" for k, v in sorted(o.errors.items()))
    print(f"  outcomes: pass {c['pass']}, fail {c['fail']}, rejected "
          f"{c['rejected']}, error {c['error']}"
          + (f" ({errors})" if errors else ""))
    for problem in o.mismatches[:20] + info["problems"]:
        print(f"  MISMATCH {problem}")
    for name, (value, n, raw) in info["e2e"].items():
        print(f"  {name} = {value:.6g} {E2E_UNITS[name]} (n={n}, "
              f"uncalibrated {raw:.6g})")
    for name, value in info.get("layers", {}).items():
        print(f"  {name} = {value:.6g}")


def result_line(info):
    c = info["outcomes"].counts
    correct = not info["outcomes"].mismatches and not info["problems"]
    if info["trace"]:
        values = {**info["layers"], **bench_layer_metrics(info["outcomes"])}
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, (value, _, _) in info["e2e"].items()}
    return {"correct": correct, "attempted": sum(c.values()),
            "failed": c["error"], "metrics": metrics}


def summary(infos):
    """The six headline numbers under the names users ask for."""
    by = {info["workload"]: info for info in infos}
    pipe, scan = by["pipeline"]["e2e"], by["scan-mix"]["e2e"]
    rows = [("pipeline_cold_s", pipe["cold_s"][0], "s", pipe["cold_s"][1]),
            ("pipeline_warm_s", pipe["warm_ms"][0] * 1e-3, "s",
             pipe["warm_ms"][1]),
            ("scan_samples_per_s", scan["warm_ops_per_s"][0], "1/s",
             scan["warm_ops_per_s"][1])]
    for w, info in by.items():
        e2e = info["e2e"]
        rows.append((f"setup_s[{w}]", e2e["setup_s"][0], "s",
                     e2e["setup_s"][1]))
        rows.append((f"peak_rss_mb[{w}]", e2e["peak_rss_mb"][0], "MB",
                     e2e["peak_rss_mb"][1]))
        counts = info["outcomes"].counts
        n = sum(counts.values())
        rows.append((f"ops_failed_frac[{w}]", counts["error"] / max(n, 1),
                     "ratio", n))
    print("summary:")
    for name, value, unit, n in rows:
        print(f"  {name} = {value:.6g} {unit} (n={n})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "warpbench",
                                       "__init__.py")):
        print("perfbench: no src/warpbench in this checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ref = load_reference()
        print(f"perfbench: {provenance()}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        infos = [run_workload(w, args.seed, args.seconds, args.trace,
                              os.path.join(workdir, w), ref, started)
                 for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for info in infos:
        report(info)
    if len(infos) == 1:
        print(json.dumps(result_line(infos[0])))
        return 0
    if not args.trace:
        summary(infos)
    lines = [result_line(info) for info in infos]
    print(json.dumps({
        "correct": all(r["correct"] for r in lines),
        "attempted": sum(r["attempted"] for r in lines),
        "failed": sum(r["failed"] for r in lines),
        "metrics": {f"{info['workload']}.{name}": m
                    for info, r in zip(infos, lines)
                    for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
