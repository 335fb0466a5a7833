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
The regeneration keeps every recorded output that the test still accepts,
so it rewrites only the outputs that moved beyond the tolerance; floor-level
moves of the last digits on another host leave the file as it is.
Names the code cannot run as a command or a scan are left out of it.
"""

import collections.abc
import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import math
import os
import pkgutil
import sys
import tempfile

import numpy as np
import pytest

import warpbench
from warpbench import _util, blocks, cli
from warpbench import curves as cv
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
    "transfer": {"p": 2, "q": 3, "r0": 0.1, "nu": 1.5, "lam": 0.5,
                 "a": 0.2, "C": 0.5},
    "s1": {"q": 3, "lam": 0.45},
    "fibre-disc": {"p": 3, "t0": 2.5},
    "sphere-transition": {"p": 2, "q": 3, "s0": 1.2},
    "projective": {"d": 4, "n": 2, "s": 0.5},
    "wu-check": {"variant": "blended", "eps": 0.1},
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


@pytest.mark.parametrize("name, builder", [
    ("cone", blocks.build_cone_metric),
    ("fibre-disc", blocks.build_fibre_disc_warp)])
def test_registry_names_the_builder_itself(name, builder):
    """The cone and fibre-disc builders return their Report, with the warp
    in its curves, so the registry holds them as they are."""
    assert fs.PREDICATES[name]["builder"] is builder


@pytest.mark.parametrize("name", sorted(fs.PREDICATES))
def test_defaults_are_declared_params(name):
    spec = fs.PREDICATES[name]
    assert not spec["required"] & spec["optional"]
    assert set(spec["defaults"]) <= spec["required"] | spec["optional"]


# The blocks builders an entry's builder hands the params it does not
# declare on to, with the prefix those params carry in the entry.
HANDED_ON = {
    "handle1-tied": [(blocks.build_handle1, "")],
    "handle2": [(blocks.build_handle2, "")],
    "handle-assembly": [(blocks.build_handle1, ""),
                        (blocks.build_handle1, "p1_"),
                        (blocks.build_handle2, "p2_")],
    "transfer": [(blocks.build_transfer_block, "")],
    "sphere-transition": [(blocks.build_sphere_transition, "")],
}
# The collar profile B and its scale are checked as a curve (B > 0, B' < 0
# and B'' < 0 near the boundary), and variant is a name.
UNDECLARED = {"B", "B_scale", "variant"}


@pytest.mark.parametrize("name", sorted(fs.PREDICATES))
def test_every_numeric_param_has_a_declared_domain(name):
    spec = fs.PREDICATES[name]
    declared = {*getattr(spec["builder"], "domains", ())}
    for builder, prefix in HANDED_ON.get(name, ()):
        declared |= {prefix + param for param in builder.domains}
    params = spec["required"] | spec["optional"]
    assert not params - UNDECLARED - declared


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_entry_runs_from_cli_and_as_one_point_scan(name, tmp_path):
    pinned = _load()
    code, report = run_cli({"command": name, **PARAMS[name]}, str(tmp_path),
                           GRID)
    assert code == 0 and report["passed"], name
    assert_close(report, pinned[f"cli:{name}"])
    cert = one_point_scan(name)
    assert cert["grid"]["evaluated"] == 1
    assert len(cert["entries"]) == 1 and cert["failures"] == 0
    assert_close(cert, pinned[f"scan:{name}"])


def _scan_mix_points() -> list:
    """One point of each lattice the benchmark's scan-mix workload scans,
    per predicate: the first, in the lattice's order, that builds."""
    path = os.path.join(os.path.dirname(HERE), "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    points = {}
    for predicate, box, res, fixed in inputs.SCAN_CONFIGS.values():
        box = fs.ParamBox({k: tuple(v) for k, v in box.items()}, res)
        points.setdefault(predicate, [{**fixed, **p}
                                      for p in box.full_grid()])
    return sorted(points.items())


def _reachable_arrays(value, out: list) -> list:
    """Every ndarray reachable from a cached value, appended to out:
    through tuples and lists (a CohomogJet is a tuple), mappings, Jets,
    dataclasses (Margins, a table curve's orders), a SmoothCurve's nodes,
    info and dataclass orders function, and a SurgeryWindow's node
    offsets, columns and mass and moment rows."""
    if isinstance(value, np.ndarray):
        out.append(value)
    elif isinstance(value, (tuple, list)):
        for v in value:
            _reachable_arrays(v, out)
    elif isinstance(value, collections.abc.Mapping):
        for v in value.values():
            _reachable_arrays(v, out)
    elif isinstance(value, cv.Jet):
        _reachable_arrays(value.orders, out)
    elif isinstance(value, cv.SmoothCurve):
        _reachable_arrays((value.nodes, value.info), out)
        if dataclasses.is_dataclass(value._at):
            _reachable_arrays(value._at, out)
    elif isinstance(value, cv.SurgeryWindow):
        _reachable_arrays((value.u, value.columns, value.mass_row,
                           vars(value).get("moment_row")), out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _reachable_arrays(getattr(value, f.name), out)
    return out


def test_every_cached_value_is_read_only(fresh_caches, monkeypatch):
    """Every ``per_key`` cache, filled by each registry entry's sample
    above and one point of each lattice the benchmark scans, built on
    empty caches with their reports' aux, sweeps and boundary profiles
    read, holds only read-only arrays: a write to a shared value would
    change every later sample with its key.  A cache these builds leave
    empty fails the test, so a new cache must be exercised here."""
    modules = [warpbench.curves, warpbench.curvature, blocks, fs,
               warpbench.gluing, warpbench.scenarios]
    values = {}
    for cached in _util._CACHES:
        name = f"{cached.__module__}.{cached.__qualname__}"
        got = values.setdefault(name, [])

        def looked_up(*args, _cached=cached, _got=got):
            value = _cached(*args)
            _got.append(value)
            return value

        for module in modules:
            if getattr(module, cached.__qualname__, None) is cached:
                monkeypatch.setattr(module, cached.__qualname__, looked_up)

    def build(name, params):
        rep = fs.PREDICATES[name]["builder"](
            **{**fs.PREDICATES[name]["defaults"], **params}, grid=GRID)
        rep.aux, rep.sweeps, rep.boundary
        return rep

    for name in sorted(PARAMS):
        build(name, PARAMS[name])
    for name, points in _scan_mix_points():
        for params in points:
            try:
                build(name, params)
                break
            except blocks.BuildError:
                pass
    sizes = {name: info[2] for name, info in _util.cache_stats().items()}
    assert sorted(values) == sorted(sizes)
    assert [name for name in sorted(sizes) if not (sizes[name]
                                                   and values[name])] == []
    for name, got in values.items():
        arrays = _reachable_arrays(got, [])
        writeable = sum(a.flags.writeable for a in arrays)
        assert writeable == 0, f"{name}: {writeable} of {len(arrays)} " \
                               f"arrays writeable"


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


def test_readme_library_quick_start_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Library quick start", 1)[1]
    block = block.split("```python", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == "pass"


# One class per meaning that a caller handles differently; every other bad
# input is a ValueError whose message names the condition.
EXCEPTION_CLASSES = {"BuildError", "HorizonError", "JoinBandError",
                     "NumericalRangeError", "RefineError"}


def test_package_defines_exactly_the_handled_exception_classes():
    found = {}
    for info in pkgutil.iter_modules(warpbench.__path__):
        module = importlib.import_module(f"warpbench.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) \
                    and obj.__module__ == module.__name__:
                found[name] = obj
    assert set(found) == EXCEPTION_CLASSES
    for name, cls in found.items():
        assert cls.__doc__ and cls.__doc__.strip(), name


# Each numeric param of each registry entry's sample in PARAMS is set, one
# at a time, to each of these values.
PROBE_VALUES = (math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1e-300,
                0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0,
                1e300)
PROBE_ERRORS = {"error:BuildError", "error:NumericalRangeError",
                "error:HorizonError"}


def probe_outcome(name: str, params: dict):
    """The verdict of one build of the registry entry, or its handled
    error class as ``error:<class>``, or, for any other exception (a
    warning included, which the suite turns into one), ``uncaught:<class>:
    <message>``; with the report, or None."""
    spec = fs.PREDICATES[name]
    try:
        rep = spec["builder"](**{**spec["defaults"], **params}, grid=GRID)
    except (blocks.BuildError, blocks.HorizonError) as exc:
        return f"error:{type(exc).__name__}", None
    except Exception as exc:
        return f"uncaught:{type(exc).__name__}: {exc}", None
    return rep.verdict, rep


def test_registry_probe_ends_every_build_in_a_handled_outcome():
    """No build at the probe values crashes or over-claims: each ends in
    pass, fail:<label> or a handled error class; no pass has a non-finite
    margin, and no report a finite min_margin beside a NaN margin.  The
    transfer block at C >= p/q fails ric_tt, whose minimum on [0, t0] is
    (p - qC)/e at t = 0 there, and C = 0, where fC' stays 0, is outside
    its domain."""
    outcomes, bad = [], []
    for name in sorted(PARAMS):
        for key, value in PARAMS[name].items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            for v in PROBE_VALUES:
                outcome, rep = probe_outcome(name, {**PARAMS[name], key: v})
                outcomes.append((name, key, v, outcome))
                if not (outcome == "pass" or outcome.startswith("fail:")
                        or outcome in PROBE_ERRORS):
                    bad.append((name, key, v, outcome))
                elif rep is not None:
                    values = [m.min for m in rep.margins]
                    if (outcome == "pass"
                            and not math.isfinite(rep.min_margin())) or (
                            any(math.isnan(m) for m in values)
                            and not math.isnan(rep.min_margin())):
                        bad.append((name, key, v, outcome, values))
    assert bad == []
    assert [o for name, key, v, o in outcomes
            if (name, key) == ("transfer", "C") and v in (2.0, 4.0, 8.0)] \
        == ["fail:ric_tt"] * 3
    assert [o for name, key, v, o in outcomes
            if (name, key) == ("transfer", "C") and v == 0.0] \
        == ["error:BuildError"] * 2


REPORT_KEYS = {"block", "params", "margins", "verdict", "passed",
               "boundary", "aux"}


def test_block_and_edge_results_share_one_report_shape(tmp_path, capsys):
    """Every block result and every checked gluing edge serializes as one
    report shape whose pass flag is its verdict, and a failed edge is
    named on stderr by its verdict label."""
    reports = []
    for name in sorted(PARAMS):
        code, report = run_cli({"command": name, **PARAMS[name]},
                               str(tmp_path), GRID)
        result = report["result"]
        reports += result["reports"] if name == "cone" else [result]
    code, report = run_cli({"command": "pipeline"}, str(tmp_path))
    edges = [e["report"] for e in report["result"]["edges"] if e["checked"]]
    assert {rep["block"] for rep in edges} == {"perelman", "smooth-match"}

    def face(**ii):
        return {"dimension": 3, "kind": "warped-sphere", "ii": ii,
                "metric": {"warp": {"type": "sine", "domain": [0, 1]}}}

    graph = {
        "nodes": [{"id": "a", "faces": {"top": face(all=0.5),
                                        "side": face(s=1.0)}},
                  {"id": "b", "faces": {"side": face(s=1.0),
                                        "low": face(all=-0.9)}}],
        "edges": [{"src": ["a", "side"], "dst": ["b", "side"],
                   "kind": "corner"},
                  {"src": ["a", "top"], "dst": ["b", "low"],
                   "kind": "perelman"}]}
    capsys.readouterr()
    code, report = run_cli({"command": "pipeline-graph", "graph": graph},
                           str(tmp_path))
    assert code == 1
    graph_edges = [e["report"] for e in report["result"]["edges"]]
    assert [rep["verdict"] for rep in graph_edges] == \
        ["pass", "fail:ii_sum:all"]
    assert capsys.readouterr().err == \
        f"verification failed: {graph_edges[1]['verdict'][5:]}\n"
    for rep in reports + edges + graph_edges:
        assert set(rep) == REPORT_KEYS, rep["block"]
        assert rep["passed"] == (rep["verdict"] == "pass"), rep["block"]


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


def regenerated(recorded: dict, current: dict) -> dict:
    """``current`` with each output the test accepts replaced by its
    recorded value, so only outputs that moved beyond the tolerance are
    rewritten."""
    out = {}
    for name, value in current.items():
        try:
            assert_close(value, recorded[name])
        except (KeyError, AssertionError):
            out[name] = value
        else:
            out[name] = recorded[name]
    return out


def test_regeneration_rewrites_only_moves_beyond_the_tolerance():
    recorded = {"a": {"m": 1.0, "n": [2.0]}, "b": {"m": 1.0}}
    current = {"a": {"m": 1.0 + 1e-13, "n": [2.0]}, "b": {"m": 1.0 + 1e-9},
               "c": {"m": 3.0}}
    assert regenerated(recorded, current) == {
        "a": {"m": 1.0, "n": [2.0]}, "b": {"m": 1.0 + 1e-9},
        "c": {"m": 3.0}}


if __name__ == "__main__":
    data = json.loads(json.dumps(collect(), default=cli._json_default))
    if os.path.exists(DATA):
        data = regenerated(_load(), data)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DATA}", file=sys.stderr)
