"""Output checks against the reference recorded in ``reference/``.

Verdict strings and margin labels must match exactly, margin values within
TOL * max(1, |ref|). Each check returns a list of mismatch descriptions;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TOL = 1e-9
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "reference")


def load(name):
    with open(os.path.join(REF_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def close(value, ref, scale=None) -> bool:
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(value, float) and math.isnan(value)
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= TOL * max(1.0, abs(ref) if scale is None
                                         else scale)


def compare_pipeline(out: dict, ref: dict, what: str) -> list:
    bad = []
    if out["verdicts"] != ref["verdicts"]:
        bad.append(f"{what}: verdicts {out['verdicts']} != {ref['verdicts']}")
    if [m[:2] for m in out["margins"]] != [m[:2] for m in ref["margins"]]:
        bad.append(f"{what}: margin labels differ")
        return bad
    for (where, label, v), (_, _, r) in zip(out["margins"], ref["margins"]):
        if not close(v, r):
            bad.append(f"{what}: {where} {label} = {v!r}, reference {r!r}")
    return bad


def compare_csv(name: str, out: dict, ref: dict) -> list:
    if out["sha256"] == ref["sha256"]:
        return []
    what = f"cold CLI {name}"
    if out["header"] != ref["header"] or out["rows"] != ref["rows"]:
        return [f"{what}: header or row count differs"]
    bad = []
    for j, (s, r, a) in enumerate(zip(out["col_sums"], ref["col_sums"],
                                      ref["col_abs_sums"])):
        if not close(s, r, scale=a):
            bad.append(f"{what}: column {j} sum {s!r}, reference {r!r}")
    for i, row, ref_row in zip(ref["sample_index"], out["sample_rows"],
                               ref["sample_rows"]):
        for j, (v, r) in enumerate(zip(row, ref_row)):
            if not close(v, r):
                bad.append(f"{what}: row {i} col {j} = {v!r}, "
                           f"reference {r!r}")
    return bad


def check_cold_cli(res: dict, ref: dict) -> list:
    if res["cold_exit"] != ref["exit"]:
        return [f"cold CLI exit {res['cold_exit']}, reference {ref['exit']}"]
    out = res["cold_outputs"]
    bad = compare_pipeline(out["report"], ref["report"], "cold CLI report")
    if sorted(out["csv"]) != sorted(ref["csv"]):
        bad.append(f"cold CLI CSV files {sorted(out['csv'])}")
        return bad
    for name, entry in out["csv"].items():
        bad += compare_csv(name, entry, ref["csv"][name])
    return bad


def check_warm_pipeline(op: dict, ref: dict) -> list:
    """A record whose reference outcome is an error has no reference
    output; it is compared by nothing but its own outcome."""
    what = f"warm pipeline #{op['index']}"
    if ref["outcome"] == "error":
        return []
    if op["outcome"] != ref["outcome"]:
        return [f"{what}: outcome {op['outcome']} "
                f"({op.get('error', '')}), reference {ref['outcome']}"]
    if ref["outcome"] == "rejected":
        got = op["error"].split(":")[0]
        want = ref["error"].split(":")[0]
        return [] if got == want else [f"{what}: {got}, reference {want}"]
    return compare_pipeline(op["outputs"], ref["outputs"], what)


# -- scans -----------------------------------------------------------------

def lattice_key(params: dict) -> str:
    return ",".join(f"{k}={params[k]:.12g}" for k in sorted(params))


def sampled_subset(box: dict, resolution: dict, budget: int,
                   seed: int) -> list:
    """The lattice samples ``feasibility.scan`` documents for a box larger
    than its budget: distinct seeded index tuples, axes in name order."""
    names = sorted(box)
    axes = {n: np.linspace(box[n][0], box[n][1], resolution[n])
            for n in names}
    rng = np.random.default_rng(seed)
    seen, out, attempts = set(), [], 0
    while len(out) < budget and attempts < 50 * budget:
        attempts += 1
        idx = tuple(int(rng.integers(0, len(axes[n]))) for n in names)
        if idx in seen:
            continue
        seen.add(idx)
        out.append({n: float(axes[n][i]) for n, i in zip(names, idx)})
    return out


def expected_scan(config: tuple, table: dict, budget: int, seed: int):
    """(certified entries in certificate order, sample outcome counts)."""
    _, box, resolution, _ = config
    entries, counts = [], {"pass": 0, "fail": 0, "rejected": 0}
    for sample in sampled_subset(box, resolution, budget, seed):
        margin, verdict = table[lattice_key(sample)]
        if verdict == "pass":
            entries.append((sample, margin))
            counts["pass"] += 1
        elif verdict.startswith("error:"):
            counts["rejected"] += 1
        else:
            counts["fail"] += 1
    entries.sort(key=lambda e: (-e[1], tuple((k, e[0][k])
                                             for k in sorted(e[0]))))
    return entries, counts


def check_scan(op: dict, config: tuple, table: dict) -> tuple:
    """(mismatches, sample outcome counts) of one scan call."""
    what = f"scan {op['config']} budget {op['budget']} seed {op['seed']}"
    entries, counts = expected_scan(config, table, op["budget"], op["seed"])
    if op["outcome"] != "done":
        return [f"{what}: {op['error']}"], counts
    bad = []
    if op["evaluated"] != op["budget"] or \
            op["failures"] != op["budget"] - counts["pass"]:
        bad.append(f"{what}: evaluated {op['evaluated']}, failures "
                   f"{op['failures']}, reference pass count "
                   f"{counts['pass']}")
    got = [lattice_key(p) for p, _, _ in op["entries"]]
    want = [lattice_key(p) for p, _ in entries]
    if got != want:
        bad.append(f"{what}: certificate entries {got}, reference {want}")
        return bad, counts
    for (_, m, verdict), (_, r) in zip(op["entries"], entries):
        if verdict != "pass" or not close(m, r):
            bad.append(f"{what}: entry {verdict} {m!r}, reference {r!r}")
    return bad, counts
