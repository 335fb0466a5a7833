"""Seeded inputs of the two workloads.

Both workloads draw their parameter records from finite sets that the
reference in ``reference/`` covers completely, so every run can be checked
whatever its seed:

- ``pipeline`` draws warm perturbations of the reference pipeline from a
  pool of records sampled once, with POOL_SEED, from the box a notebook user
  would explore around ``DEFAULT_PIPELINE_PARAMS``;
- ``scan-mix`` scans seeded random subsets of four fixed parameter
  lattices, one per ODE-free predicate, and ``feasibility.scan`` only ever
  evaluates lattice points.
"""

from __future__ import annotations

import hashlib
import json
import random

POOL_SEED = 20240604
POOL_SIZE = 56

# The cold operation of ``pipeline``: the default CLI scenario.
CLI_SCENARIO = {"command": "pipeline"}


def _pipeline_record(rng: random.Random) -> dict:
    """One warm pipeline parameter record. The box is the neighbourhood of
    the default parameters a user explores; it is not narrowed around the
    handle margins that make ``reference_pipeline`` raise."""
    def u(lo, hi):
        return round(rng.uniform(lo, hi), 6)

    h1_l1 = u(0.97, 0.985)
    h2_l1 = u(0.005, 0.02)
    return {
        "p": rng.choice((3, 4)),
        "handle1": {"lambda1": h1_l1,
                    "lambda2": round(h1_l1 + u(0.005, 0.01), 6),
                    "eps1": u(0.005, 0.02), "eps2": u(0.05, 0.15),
                    "delta": u(0.03, 0.07)},
        "handle2": {"lambda1": h2_l1,
                    "lambda2": round(h2_l1 + u(0.005, 0.015), 6),
                    "a": u(0.01, 0.04), "b": u(1.2, 1.8),
                    "eps": u(0.05, 0.15), "nu": u(0.02, 0.04)},
        # C is fixed so every warm call hits the transfer ODE cache. The
        # transfer box is tight: the vertical floor needs a / r0 below about
        # 2.06 and the slope target lam * r0 / a stays below 0.27 at C = 0.5
        "transfer": {"r0": u(0.098, 0.102), "nu": 1.25,
                     "lam": u(0.48, 0.52), "a": u(0.196, 0.204), "C": 0.5},
    }


def pipeline_pool() -> list:
    rng = random.Random(POOL_SEED)
    return [_pipeline_record(rng) for _ in range(POOL_SIZE)]


# name -> (predicate, box intervals, per-axis resolution, fixed params).
# The boxes start from the acceptance and feasibility test boxes.
SCAN_CONFIGS = {
    "handle1-tied": ("handle1-tied",
                     {"lambda1": [0.85, 0.99], "eps1": [0.01, 0.1],
                      "eps2": [0.01, 0.1], "delta": [0.02, 0.08]},
                     {"lambda1": 15, "eps1": 3, "eps2": 3, "delta": 3}, {}),
    "handle2": ("handle2",
                {"a": [0.005, 0.08], "b": [1.0, 2.0], "nu": [0.01, 0.05],
                 "eps": [0.05, 0.15]},
                {"a": 4, "b": 3, "nu": 3, "eps": 3},
                {"lambda1": 0.01, "lambda2": 0.02}),
    "cone": ("cone",
             {"eps1": [0.05, 0.2], "eps2": [0.05, 0.2],
              "delta": [0.01, 0.04], "t": [0.0, 1.0]},
             {"eps1": 3, "eps2": 3, "delta": 3, "t": 5}, {}),
    "projective-d2": ("projective", {"s": [0.0, 1.0]}, {"s": 17}, {"d": 2}),
    "projective-d4": ("projective", {"s": [0.0, 1.0]}, {"s": 17}, {"d": 4}),
    "projective-d8": ("projective", {"s": [0.0, 1.0]}, {"s": 17}, {"d": 8}),
}

# One round scans each predicate once; projective picks one of its d.
ROUND = ("handle1-tied", "handle2", "cone", "projective")
BUDGET_RANGE = (4, 12)      # below every lattice size, so scans sample
COLD_ROUNDS = 2             # the cold operation: 8 scans, 96 samples


def _scan_call(rng: random.Random, predicate: str, budget=None) -> dict:
    config = predicate
    if predicate == "projective":
        config = f"projective-d{rng.choice((2, 4, 8))}"
    return {"config": config, "budget": budget or rng.randint(*BUDGET_RANGE),
            "seed": rng.randrange(2 ** 31)}


def scan_plan(rng: random.Random, rounds: int) -> list:
    """Scan calls in rounds; each round visits every predicate once in a
    seeded order, so the predicate mix is the same for every seed. The
    first COLD_ROUNDS rounds, the cold operation, always have the largest
    budget, so its size does not depend on the seed."""
    calls = []
    for r in range(rounds):
        order = list(ROUND)
        rng.shuffle(order)
        budget = BUDGET_RANGE[1] if r < COLD_ROUNDS else None
        calls += [_scan_call(rng, p, budget) for p in order]
    return calls


def pipeline_plan(rng: random.Random, processes: int, passes: int) -> list:
    """Pool indices for each process: ``passes`` seeded permutations of the
    pool, back to back, dealt out in turn. A run evaluates every record
    exactly ``passes`` times and only the order depends on the seed, so its
    outcome counts are the same for every seed and every host speed."""
    out = []
    for _ in range(passes):
        perm = list(range(POOL_SIZE))
        rng.shuffle(perm)
        out += perm
    return [out[i::processes] for i in range(processes)]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
