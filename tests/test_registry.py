"""The builder registry ``feasibility.PREDICATES`` drives both the CLI block
commands and the scans: every entry runs as a CLI command and as a
one-point scan, and the README example scenarios run.

``pinned_outputs.json`` next to this file holds, per registry name, the
recorded ``report.json`` of a CLI run (``cli:<name>``) and the certificate
of a one-point scan (``scan:<name>``) for the parameters in ``PARAMS``, at
grid density GRID.
Floats must be reproduced within 1e-12 * max(1, |ref|), everything else
exactly. Regenerate the file with

    PYTHONPATH=src python tests/test_registry.py

only when an output is meant to change, and record which one and why.
Names the code cannot run as a command or a scan are left out of it.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

import pytest

from warpbench import cli
from warpbench import feasibility as fs

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "pinned_outputs.json")
README = os.path.join(os.path.dirname(HERE), "README.md")
TOL = 1e-12
# Coarse enough to keep the sweep CSVs small; the README examples run at
# the default density.
GRID = 256

HANDLE1 = {"lambda1": 0.985, "lambda2": 0.99, "eps1": 0.01, "eps2": 0.1,
           "delta": 0.05}
HANDLE2 = {"lambda1": 0.01, "lambda2": 0.02, "a": 0.02, "b": 1.5,
           "eps": 0.1, "nu": 0.03}

# One passing parameter record per registry name.
PARAMS = {
    "cone": {"n": 4, "K": 0.9, "eps1": 0.1, "eps2": 0.1, "delta": 0.02,
             "t": 0.5},
    "handle1": {"n": 4, "K": 0.9, **HANDLE1},
    "handle1-tied": {"n": 4, "K": 0.9, "lambda1": 0.98, "eps1": 0.01,
                     "eps2": 0.1, "delta": 0.05},
    "handle2": HANDLE2,
    "handle2-closed-form": {"lambda1": 0.2, "lambda2": 0.25, "a": 0.1,
                            "b": 1.5},
    "handle-assembly": {"n": 3, "K": 0.9,
                        **{f"p1_{k}": v for k, v in HANDLE1.items()},
                        **{f"p2_{k}": v for k, v in HANDLE2.items()}},
    "assemble-handle": {"n": 3, "K": 0.9, "params1": HANDLE1,
                        "params2": HANDLE2},
    "transfer": {"p": 2, "q": 3, "r0": 0.1, "nu": 1.5, "lam": 0.5,
                 "a": 0.2, "C": 0.5},
    "s1": {"q": 3, "lam": 0.45},
    "fibre-disc": {"p": 3, "t0": 2.5},
    "sphere-transition": {"p": 2, "q": 3, "s0": 1.2},
    "projective": {"d": 4, "n": 2, "s": 0.5},
    "wu-check": {"variant": "blended", "eps": 0.1},
    "wu-blended": {"eps": 0.05},
}


def run_cli(scenario: dict, workdir: str, grid=None):
    """Exit code and parsed report.json (None when nothing was written)."""
    path = os.path.join(workdir, "scenario.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    out = os.path.join(workdir, "out")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.run_scenario(path, grid=grid, out=out)
    report = os.path.join(out, "report.json")
    if not os.path.exists(report):
        return code, None
    with open(report, encoding="utf-8") as fh:
        return code, json.load(fh)


def one_point_scan(name: str) -> dict:
    """Certificate of a one-point scan at PARAMS[name], the registry
    defaults left to supply their params (so the certificate echoes them):
    the box pins the first float param, the others are fixed."""
    defaults = fs.PREDICATES[name]["defaults"]
    params = {k: v for k, v in PARAMS[name].items() if k not in defaults}
    axis = next(k for k in sorted(params) if isinstance(params[k], float))
    box = fs.ParamBox({axis: (params[axis], params[axis])}, 1)
    fixed = {k: v for k, v in params.items() if k != axis}
    return fs.scan(box, name, budget=1, fixed=fixed,
                   grid=GRID).to_json_dict()


def assert_close(got, ref, where="$"):
    if isinstance(ref, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        if got == ref or (math.isnan(got) and math.isnan(ref)):
            return
        assert abs(got - ref) <= TOL * max(1.0, abs(ref)), \
            f"{where}: {got!r}, recorded {ref!r}"
    elif isinstance(ref, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(ref), \
            f"{where}: keys {sorted(got)}, recorded {sorted(ref)}"
        for key in ref:
            assert_close(got[key], ref[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), \
            f"{where}: {got!r}, recorded {ref!r}"
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_close(g, r, f"{where}[{i}]")
    else:
        assert type(got) is type(ref) and got == ref, \
            f"{where}: {got!r}, recorded {ref!r}"


def readme_scenarios() -> list:
    """The JSON objects of the README "Example scenarios" block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("Example scenarios:", 1)[1]
    block = block.split("```json", 1)[1].split("```", 1)[0]
    decoder, out, i = json.JSONDecoder(), [], 0
    while block[i:].strip():
        while block[i].isspace():
            i += 1
        scenario, i = decoder.raw_decode(block, i)
        out.append(scenario)
    return out


def _load():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_registry_entry_has_a_record():
    assert sorted(PARAMS) == sorted(fs.PREDICATES)


@pytest.mark.parametrize("name", sorted(fs.PREDICATES))
def test_defaults_are_declared_params(name):
    spec = fs.PREDICATES[name]
    assert not spec["required"] & spec["optional"]
    assert set(spec["defaults"]) <= spec["required"] | spec["optional"]


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_entry_runs_from_cli_and_as_one_point_scan(name, tmp_path):
    pinned = _load()
    code, report = run_cli({"command": name, **PARAMS[name]}, str(tmp_path),
                           GRID)
    assert code == 0 and report["passed"], name
    if f"cli:{name}" in pinned:
        assert_close(report, pinned[f"cli:{name}"])
    cert = one_point_scan(name)
    assert cert["grid"]["evaluated"] == 1
    assert len(cert["entries"]) == 1 and cert["failures"] == 0
    if f"scan:{name}" in pinned:
        assert_close(cert, pinned[f"scan:{name}"])


@pytest.mark.parametrize("name, dim", [
    (name, dim) for name in sorted(PARAMS) for dim in ("n", "p", "q", "d")
    if dim in PARAMS[name]])
def test_non_integer_dimension_is_a_build_error(name, dim, tmp_path, capsys):
    params = {**PARAMS[name], dim: PARAMS[name][dim] + 0.5}
    code, report = run_cli({"command": name, **params}, str(tmp_path), GRID)
    assert code == 2 and report is None
    assert f"dimension {dim} must be an integer" in capsys.readouterr().err
    box = fs.ParamBox({dim: (params[dim], params[dim])}, 1)
    fixed = {k: v for k, v in params.items() if k != dim}
    cert = fs.scan(box, name, budget=1, fixed=fixed, grid=GRID)
    assert cert.entries == [] and cert.failures == 1


@pytest.mark.parametrize("scenario", readme_scenarios(),
                         ids=lambda sc: sc["command"])
def test_readme_example_scenario_passes(scenario, tmp_path):
    code, report = run_cli(scenario, str(tmp_path))
    assert code == 0 and report["passed"]


def collect() -> dict:
    """Name -> recorded output, for every command and scan that runs."""
    out = {}
    for name in sorted(PARAMS):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stderr(io.StringIO()):
                code, report = run_cli({"command": name, **PARAMS[name]},
                                       tmp, GRID)
        if code in (0, 1):
            out[f"cli:{name}"] = report
        try:
            out[f"scan:{name}"] = one_point_scan(name)
        except Exception:   # not a scan predicate in this version
            pass
    return out


if __name__ == "__main__":
    data = json.loads(json.dumps(collect(), default=cli._json_default))
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DATA}", file=sys.stderr)
