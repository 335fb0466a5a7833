"""Record the reference outputs the benchmark checks against.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes ``perfbench/reference/``: the default CLI pipeline scenario (report
margins and CSV summaries), every record of the warm pipeline pool, and
every lattice point of the scan boxes. Record it once, at the commit that
defines the benchmark; a later change is checked against it, so it is not
re-recorded to make a change pass.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402  (imports warpbench)
import inputs  # noqa: E402
from check import REF_DIR, lattice_key  # noqa: E402
from warpbench import cli, feasibility, scenarios  # noqa: E402


def record_cli(tmp):
    path = os.path.join(tmp, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inputs.CLI_SCENARIO, fh)
    outdir = os.path.join(tmp, "out")
    rc = cli.run_scenario(path, out=outdir)
    return {"scenario": inputs.CLI_SCENARIO, "exit": rc,
            **child.cold_outputs(outdir, {})}


def record_pool():
    pool = inputs.pipeline_pool()
    out = []
    for record in pool:
        try:
            result = scenarios.run_reference_pipeline(record)
        except Exception as exc:
            out.append({"outcome": child.outcome_of_error(exc),
                        "error": f"{type(exc).__name__}: {exc}"})
            continue
        out.append({"outcome": "pass" if result["passed"] else "fail",
                    "outputs": child.warm_pipeline_outputs(result)})
    return {"pool_digest": inputs.digest(pool), "records": out}


def record_lattices():
    tables = {}
    for name, (predicate, box, resolution, fixed) in \
            inputs.SCAN_CONFIGS.items():
        spec = feasibility.PREDICATES[predicate]
        merged = {**spec["defaults"], **fixed}
        pbox = feasibility.ParamBox({k: tuple(v) for k, v in box.items()},
                                    resolution)
        rows = []
        for sample in pbox.full_grid():
            entry = feasibility._run_predicate(spec["builder"], sample,
                                               merged)
            rows.append([lattice_key(sample), entry.min_margin,
                         entry.verdict])
        tables[name] = rows
    return {"configs_digest": inputs.digest(inputs.SCAN_CONFIGS),
            "tables": tables}


def main():
    os.makedirs(REF_DIR, exist_ok=True)
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        parts = {"cli_pipeline.json": record_cli(tmp)}
    parts["pipeline_pool.json"] = record_pool()
    parts["scan_lattices.json"] = record_lattices()
    for name, data in parts.items():
        with open(os.path.join(REF_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
