import hashlib
import json
import math
import os

import numpy as np
import pytest

from warpbench import blocks, cli, feasibility


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestScenarioValidation:
    def test_unknown_command(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"command": "nope"})
        assert cli.run_scenario(path, out=str(tmp_path / "out")) == 2
        assert "unknown command" in capsys.readouterr().err

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_scenario(tmp_path, {"command": "sw-table", "junk": 1})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 2
        assert not out.exists()

    def test_malformed_json_no_partial_outputs(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out = tmp_path / "out"
        assert cli.run_scenario(str(path), out=str(out)) == 2
        assert not out.exists()

    def test_invalid_parameters_exit_2(self, tmp_path):
        path = write_scenario(tmp_path, {
            "command": "handle2", "lambda1": 0.2, "lambda2": 0.25,
            "a": 0.1, "b": 5.0, "eps": 0.1, "nu": 0.3})
        assert cli.run_scenario(path, out=str(tmp_path / "out")) == 2

    def test_scan_with_unknown_box_key_writes_nothing(self, tmp_path,
                                                      capsys):
        path = write_scenario(tmp_path, {
            "command": "scan", "predicate": "s1",
            "box": {"lam": [0.4, 0.55], "junk": [0, 1]}, "budget": 4})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 2
        assert "junk" in capsys.readouterr().err
        assert not out.exists()

    def test_block_missing_param_without_default_exit_2(self, tmp_path,
                                                        capsys):
        path = write_scenario(tmp_path, {"command": "s1", "q": 3})
        assert cli.run_scenario(path, out=str(tmp_path / "out")) == 2
        assert "missing keys for 's1': ['lam']" in capsys.readouterr().err

    def test_collar_profile_from_json_exit_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "command": "handle2", "B": 0.5, "lambda1": 0.01,
            "lambda2": 0.02, "a": 0.02, "b": 1.5, "eps": 0.1, "nu": 0.03})
        assert cli.run_scenario(path, out=str(tmp_path / "out")) == 2
        assert "B must be a SmoothCurve" in capsys.readouterr().err

    def test_builder_preconditions_exit_2(self, tmp_path, capsys):
        for scenario, condition in (
                ({"command": "cone", "n": 4, "K": 0.9, "eps1": 0.334,
                  "eps2": 1.0, "delta": 0.001}, "eps2' = 2 eps2/(1 - delta)"),
                ({"command": "handle1", "n": 4, "K": 0.9, "lambda1": 0.1,
                  "lambda2": 0.2, "eps1": 0.001, "eps2": 0.505,
                  "delta": 0.001}, "outer face")):
            out = tmp_path / scenario["command"]
            path = write_scenario(tmp_path, scenario)
            assert cli.run_scenario(path, out=str(out)) == 2
            assert condition in capsys.readouterr().err
            assert not out.exists()

    def test_unknown_profile_kind_exits_2_through_main(self, tmp_path,
                                                       capsys):
        """A pipeline-graph face of an unknown profile kind is a scenario
        error through the command-line entry point: exit 2, and stderr
        starts with the kind's message."""
        face = {"dimension": 3, "kind": "bogus", "ii": {"all": 0.5},
                "metric": {"warp": {"type": "sine", "domain": [0, 1]}}}
        path = write_scenario(tmp_path, {
            "command": "pipeline-graph",
            "graph": {"nodes": [{"id": "a", "faces": {"top": face}}],
                      "edges": []}})
        out = tmp_path / "bogus"
        assert cli.main(["--scenario", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "scenario error: unknown profile kind")

    def test_scan_box_with_an_empty_interval_exits_2(self, tmp_path,
                                                     capsys):
        """A box axis open at one end with lo == hi is empty: a scenario
        error, with nothing written, not samples outside the axis."""
        path = write_scenario(tmp_path, {
            "command": "scan", "predicate": "projective",
            "box": {"s": [0.5, 0.5, "("]}, "budget": 3})
        out = tmp_path / "out"
        assert cli.main(["--scenario", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "scenario error: empty interval")
        assert not out.exists()


class TestCommands:
    def test_wu_check_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"command": "wu-check",
                                         "variant": "g00"})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        assert report["result"]["verdict"] == "pass"
        assert (out / "ricci.csv").exists()

    def test_sw_table_content(self, tmp_path):
        path = write_scenario(tmp_path, {"command": "sw-table"})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["omega9"]["matrix"] == [[1, 0], [1, 1]]
        assert report["result"]["total_classes"]["W1"] == "1 + a + (a^1)*"

    def test_conformal_margin(self, tmp_path):
        path = write_scenario(tmp_path, {"command": "conformal-margin",
                                         "c": 1.0, "C": 10.0})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["result"]["margin"] - 0.87) < 1e-12

    def test_failing_margin_exit_1_and_named(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "command": "handle1", "n": 4, "K": 0.9, "lambda1": 0.5,
            "lambda2": 0.51, "eps1": 0.05, "eps2": 0.1, "delta": 0.05})
        assert cli.run_scenario(path, out=str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "verification failed" in err

    def test_unreachable_refine_target_exit_1_and_named(self, tmp_path,
                                                         capsys):
        path = write_scenario(tmp_path, {
            "command": "scan", "predicate": "handle2-closed-form",
            "box": {"a": [0.05, 0.5], "b": [1.2, 1.6]}, "resolution": 3,
            "budget": 4, "refine_target": 0.6})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 1
        err = capsys.readouterr().err
        assert "verification failed" in err and "0.3325 < target 0.6" in err
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        cert = report["result"]
        assert cert["grid"]["target_margin"] == 0.6
        assert abs(cert["entries"][0]["min_margin"] - 0.3325) < 1e-4

    def test_projective_dimension_outside_the_family_exit_2(self, tmp_path,
                                                            capsys):
        path = write_scenario(tmp_path, {
            "command": "projective", "d": 3, "n": 2, "s": 0.5})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 2
        assert "d must be one of 2, 4, 8" in capsys.readouterr().err
        assert not out.exists()

    def test_internal_fault_exit_3_and_named(self, tmp_path, capsys,
                                             monkeypatch):
        """A builder's exception outside the handled classes is an
        internal fault: exit 3, named on stderr, no report written."""
        def broken(**params):
            raise RuntimeError("builder defect")

        monkeypatch.setitem(feasibility.PREDICATES["s1"], "builder", broken)
        path = write_scenario(tmp_path, {"command": "s1", "lam": 0.45})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 3
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: builder defect\n"
        assert not (out / "report.json").exists()

    def test_unwritable_out_exit_2_as_output_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"command": "wu-check",
                                         "variant": "g00"})
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert cli.run_scenario(path, out=str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert "verification failed" not in err

    def test_fault_writing_outputs_exit_3(self, tmp_path, capsys,
                                          monkeypatch):
        def broken_writer(path, header, columns):
            raise ValueError("kernel fault")

        monkeypatch.setattr(cli, "write_csv", broken_writer)
        path = write_scenario(tmp_path, {"command": "wu-check",
                                         "variant": "g00"})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 3
        err = capsys.readouterr().err
        assert err == "internal error: ValueError: kernel fault\n"
        assert (out / "report.json").exists()   # written before the fault

    def test_cone_family_emits_one_csv_per_sample(self, tmp_path):
        path = write_scenario(tmp_path, {
            "command": "cone", "n": 4, "K": 0.9, "eps1": 0.1, "eps2": 0.1,
            "delta": 0.02, "t_samples": [0.0, 0.5, 1.0]})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 0
        csvs = sorted(p for p in os.listdir(out) if p.endswith(".csv"))
        assert len(csvs) == 3

    def test_handle1_sweeps_have_sorted_columns(self, tmp_path):
        path = write_scenario(tmp_path, {
            "command": "handle1", "n": 4, "K": 0.9, "lambda1": 0.985,
            "lambda2": 0.99, "eps1": 0.01, "eps2": 0.1, "delta": 0.05})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 0
        header = (out / "cap_profile.csv").read_text().splitlines()[0]
        cols = header.split(",")
        assert cols[0] == "t"
        assert cols[1:] == sorted(cols[1:])

    def test_scan_command(self, tmp_path):
        path = write_scenario(tmp_path, {
            "command": "scan", "predicate": "s1",
            "box": {"lam": [0.4, 0.55]}, "resolution": 3, "budget": 8})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out), seed=5) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["entries"]

    def test_block_runs_with_registry_defaults(self, tmp_path):
        path = write_scenario(tmp_path, {"command": "s1", "lam": 0.45})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["params"]["q"] == \
            feasibility.PREDICATES["s1"]["defaults"]["q"]


class TestPipeline:
    FAILING_HANDLE = {
        "handle1": {"lambda1": 0.975229, "lambda2": 0.984668,
                    "eps1": 0.012827, "eps2": 0.082069, "delta": 0.033236},
        "handle2": {"lambda1": 0.019317, "lambda2": 0.02947, "a": 0.029083,
                    "b": 1.621792, "eps": 0.054691, "nu": 0.035491},
    }

    def test_failed_handle_exit_1_names_the_margin(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"command": "pipeline",
                                         "params": self.FAILING_HANDLE})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 1
        assert "verification failed: radial_ii_outer" in \
            capsys.readouterr().err
        result = json.loads((out / "report.json").read_text())["result"]
        assert result["edges"] == []
        assert result["blocks"]["handle"] == "fail:radial_ii_outer"

    def test_default_pipeline_passes(self, tmp_path):
        path = write_scenario(tmp_path, {"command": "pipeline"})
        assert cli.run_scenario(path, out=str(tmp_path / "out")) == 0

    def test_assemble_handle_uses_the_grid(self, tmp_path):
        params1 = {"lambda1": 0.985, "lambda2": 0.99, "eps1": 0.01,
                   "eps2": 0.1, "delta": 0.05}
        params2 = {"lambda1": 0.01, "lambda2": 0.02, "a": 0.02, "b": 1.5,
                   "eps": 0.1, "nu": 0.03}
        path = write_scenario(tmp_path, {
            "command": "handle-assembly", "n": 3, "K": 0.9,
            **{f"p1_{k}": v for k, v in params1.items()},
            **{f"p2_{k}": v for k, v in params2.items()}})
        rows = {}
        for grid in (None, 4096):
            out = tmp_path / f"out{grid}"
            assert cli.run_scenario(path, grid=grid, out=str(out)) == 0
            rows[grid] = {name: len((out / name).read_text().splitlines())
                          for name in ("piece1_cap_face.csv",
                                       "piece2_dug_face.csv")}
        for name in rows[None]:
            assert rows[4096][name] > rows[None][name]


    def test_failed_gluing_edge_exit_1_names_the_margin(self, tmp_path,
                                                         capsys):
        face = {"dimension": 3, "kind": "warped-sphere",
                "metric": {"warp": {"type": "sine", "domain": [0, 1]}}}
        graph = {
            "nodes": [{"id": "a", "faces": {"top": {**face,
                                                    "ii": {"all": 0.5}}}},
                      {"id": "b", "faces": {"bottom": {**face,
                                                       "ii": {"all": -0.9}}}}],
            "edges": [{"src": ["a", "top"], "dst": ["b", "bottom"],
                       "kind": "perelman"}]}
        path = write_scenario(tmp_path, {"command": "pipeline-graph",
                                         "graph": graph})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 1
        assert "verification failed: ii_sum:all" in capsys.readouterr().err
        edge = json.loads((out / "report.json").read_text())["result"][
            "edges"][0]
        assert edge["report"]["verdict"] == "fail:ii_sum:all"


class TestHandle2CollarProfile:
    def test_scenario_uses_the_default_collar_profile(self, tmp_path):
        params = {"lambda1": 0.01, "lambda2": 0.02, "a": 0.02, "b": 1.5,
                  "eps": 0.1, "nu": 0.03}
        path = write_scenario(tmp_path, {"command": "handle2",
                                         "B_scale": 1.1, **params})
        out = tmp_path / "out"
        cli.run_scenario(path, out=str(out))
        report = json.loads((out / "report.json").read_text())
        direct = blocks.build_handle2(
            feasibility._default_collar_profile(1.1), **params)
        assert [m["min"] for m in report["result"]["margins"]] == \
            [m.min for m in direct.margins]


# Scans through the command-line entry point, by name: (check, scenario
# JSON).  Each exits 0 or 1 (a sample outside the predicate's domain is a
# BuildError, not an internal fault) and certifies no entry with a
# non-finite margin or whose params meet check.  The empty box is one
# sample; the closed-form bound grows like 1/b as b falls to 0;
# build_handle2 needs lambda1 < lambda2; a delta that takes handle1's inner
# slope to 1 or above, and p < 1 in the sphere transition, leave the
# domain; so do a cone delta and a handle1 eps2 of 1e-300, below the
# rounding of the join windows and of pi/2.  A handle2 a of 1e-300 divides
# by zero at the dug face's foot; test_feasibility's
# test_float_overflow_is_a_numerical_range_error checks its error class.
# The handle2 scan over eps and nu reads its face's margins from the cache
# after the first sample, and must still fail every nu at or below lambda2
# (bottom_convexity).  The scans with no check read cached builds
# (TestDeterminism.CACHED_SCANS); at eps1 = 0.05, delta = 0.025 and t = 1
# the inner join's window starts at the collapse point s_lo, up to
# rounding, and the cone_collapse scan reads the collapse limit there from
# the join's columns.
DOMAIN_SCANS = {
    "empty": (None,
        '{"command": "scan", "predicate": "handle2-closed-form", '
        '"box": {}, "budget": 4, "fixed": {"a": 0.1, "b": 1.5}}'),
    "closed": (lambda e: e["s0"] <= 0,
        '{"command": "scan", "predicate": "sphere-transition", '
        '"box": {"s0": [0.0, 1.2]}, "resolution": 3, "budget": 3, '
        '"fixed": {"p": 2, "q": 3}}'),
    "small_b": (lambda e: e["b"] <= 1.0,
        '{"command": "scan", "predicate": "handle2-closed-form", '
        '"box": {"b": [0.0, 1.5]}, "resolution": 3, "budget": 3, '
        '"fixed": {"a": 0.1}}'),
    "lambda1": (lambda e: e["lambda1"] >= 0.25,
        '{"command": "scan", "predicate": "handle2-closed-form", '
        '"box": {"lambda1": [0.1, 0.4]}, "resolution": 4, "budget": 4, '
        '"fixed": {"lambda2": 0.25, "a": 0.1, "b": 1.5}}'),
    "delta": (lambda e: e["delta"] == 3.0,
        '{"command": "scan", "predicate": "handle1-tied", '
        '"box": {"delta": [0.05, 3.0]}, "resolution": 3, "budget": 3, '
        '"fixed": {"lambda1": 0.95, "eps1": 0.05, "eps2": 0.05}}'),
    "sphere_p": (lambda e: e["p"] < 1,
        '{"command": "scan", "predicate": "sphere-transition", '
        '"box": {"p": [-1.0, 2.0]}, "resolution": 4, "budget": 4, '
        '"fixed": {"q": 3, "s0": 1.2}}'),
    "cone_delta": (lambda e: e["delta"] <= 1e-300,
        '{"command": "scan", "predicate": "cone", '
        '"box": {"delta": [1e-300, 0.02]}, "resolution": 3, '
        '"budget": 3, "fixed": {"eps1": 0.1, "eps2": 0.1, "t": 0.5}}'),
    "eps2": (lambda e: e["eps2"] <= 1e-300,
        '{"command": "scan", "predicate": "handle1-tied", '
        '"box": {"eps2": [1e-300, 0.1]}, "resolution": 3, "budget": 3, '
        '"fixed": {"lambda1": 0.985, "eps1": 0.01}}'),
    "handle2_a": (lambda e: e["a"] <= 1e-300,
        '{"command": "scan", "predicate": "handle2", '
        '"box": {"a": [1e-300, 0.02]}, "resolution": 3, "budget": 3, '
        '"fixed": {"lambda1": 0.01, "lambda2": 0.02, "b": 1.5, '
        '"eps": 0.1, "nu": 0.03}}'),
    "handle2_face": (lambda e: e["nu"] <= 0.02,
        '{"command": "scan", "predicate": "handle2", '
        '"box": {"eps": [0.05, 0.15], "nu": [0.01, 0.04]}, '
        '"resolution": 4, "budget": 16, "fixed": {"lambda1": 0.01, '
        '"lambda2": 0.02, "a": 0.02, "b": 1.5}}'),
    "projective_s": (None,
        '{"command": "scan", "predicate": "projective", '
        '"box": {"s": [0.0, 1.0]}, "resolution": 5, "budget": 5, '
        '"fixed": {"d": 4}}'),
    "handle1_eps2": (None,
        '{"command": "scan", "predicate": "handle1-tied", '
        '"box": {"eps2": [0.01, 0.1]}, "resolution": 4, "budget": 4, '
        '"fixed": {"lambda1": 0.985, "eps1": 0.01, "delta": 0.05}}'),
    "handle1_delta": (None,
        '{"command": "scan", "predicate": "handle1-tied", '
        '"box": {"delta": [0.02, 0.08]}, "resolution": 4, "budget": 4, '
        '"fixed": {"lambda1": 0.985, "eps1": 0.01, "eps2": 0.1}}'),
    "handle1_lambda1": (None,
        '{"command": "scan", "predicate": "handle1-tied", '
        '"box": {"lambda1": [0.975, 0.989]}, "resolution": 4, '
        '"budget": 4, "fixed": {"eps1": 0.01, "eps2": 0.1, '
        '"delta": 0.05}}'),
    "cone_t": (None,
        '{"command": "scan", "predicate": "cone", "box": {"t": [0.0, '
        '1.0], "eps2": [0.05, 0.2]}, "resolution": {"t": 5, '
        '"eps2": 3}, "budget": 15, "fixed": {"eps1": 0.1, '
        '"delta": 0.02}}'),
    "cone_collapse": (None,
        '{"command": "scan", "predicate": "cone", "box": {"t": [0.0, '
        '1.0]}, "resolution": 5, "budget": 5, "fixed": {"eps1": 0.05, '
        '"delta": 0.025, "eps2": 0.1}}'),
}


@pytest.mark.parametrize("name", list(DOMAIN_SCANS))
def test_domain_scan_through_main(tmp_path, capsys, name):
    check, scenario = DOMAIN_SCANS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(scenario)
    out = tmp_path / name
    assert cli.main(["--scenario", str(path), "--out", str(out)]) in (0, 1)
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    for e in report["result"]["entries"]:
        assert math.isfinite(float(e["min_margin"])), e
        assert check is None or not check(e["params"]), e


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, tmp_path):
        path = write_scenario(tmp_path, {"command": "projective",
                                         "d": 2, "n": 2, "s": 0.5})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.run_scenario(path, out=str(out1)) == 0
        assert cli.run_scenario(path, out=str(out2)) == 0
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()
        assert (out1 / "ricci.csv").read_bytes() == \
            (out2 / "ricci.csv").read_bytes()


    def test_pipeline_graph_report_byte_identical(self, tmp_path):
        face = {"dimension": 3, "kind": "warped-sphere"}
        sine = {"warp": {"type": "sine", "domain": [0, 1]}}
        graph = {
            "nodes": [
                {"id": "a", "faces": {"top": {**face, "metric": sine,
                                              "ii": {"all": 0.5}}}},
                {"id": "b", "faces": {
                    "bottom": {**face, "metric": sine, "ii": {"all": -0.2}},
                    "top": {**face, "metric": {"warp": 1.0},
                            "ii": {"all": 0.0}}}},
                {"id": "c", "faces": {"bottom": {
                    **face, "metric": {"warp": 1.0}, "ii": {"all": 0.0}}}}],
            "edges": [{"src": ["a", "top"], "dst": ["b", "bottom"],
                       "kind": "perelman"},
                      {"src": ["b", "top"], "dst": ["c", "bottom"],
                       "kind": "assumed", "citation": "declared"}]}
        path = write_scenario(tmp_path, {"command": "pipeline-graph",
                                         "graph": graph})
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.run_scenario(path, out=str(out1)) == 0
        assert cli.run_scenario(path, out=str(out2)) == 0
        text = (out1 / "report.json").read_bytes()
        assert text == (out2 / "report.json").read_bytes()
        edges = json.loads(text)["result"]["edges"]
        assert [e["checked"] for e in edges] == [True, False]
        assert edges[0]["report"]["passed"]
        assert edges[1]["citation"] == "declared"


    # The domain scans below that read cached builds, in an order where
    # each reads what the ones before it left: f0's jet, handle1's cap face
    # margins and outer face, handle2's face margins and the cone's joins,
    # the collapse point at t = 1 included.
    CACHED_SCANS = [json.loads(DOMAIN_SCANS[name][1]) for name in (
        "projective_s", "handle1_eps2", "handle1_delta", "handle1_lambda1",
        "handle2_face", "cone_t", "cone_collapse")]

    def test_scans_on_warm_caches_keep_the_bits_of_empty_caches(
            self, monkeypatch, fresh_caches):
        """Each cached scan, run after the ones before it, certifies what
        a run that empties every cache before each sample certifies: the
        same JSON, bit for bit."""
        def result(sc):
            return json.dumps(cli._scan(sc, None, None)[0],
                              default=cli._json_default)

        warm = [result(sc) for sc in self.CACHED_SCANS]
        run = feasibility._run_predicate

        def on_empty_caches(*args, **kwargs):
            fresh_caches()
            return run(*args, **kwargs)

        monkeypatch.setattr(feasibility, "_run_predicate", on_empty_caches)
        for sc, bits in zip(self.CACHED_SCANS, warm):
            assert result(sc) == bits, sc


class TestEmitPlotData:
    def test_empty_report_writes_nothing(self, tmp_path):
        paths = cli.emit_plot_data({"sweeps": {}}, str(tmp_path))
        assert paths == []
        assert list(tmp_path.iterdir()) == []

    def test_sweep_round_trip(self, tmp_path):
        sweeps = {"demo": {"t": np.linspace(0, 1, 5),
                           "columns": {"b": np.arange(5.0),
                                       "a": np.ones(5)}}}
        paths = cli.emit_plot_data({}, str(tmp_path), sweeps)
        assert len(paths) == 1
        rows = np.loadtxt(paths[0], delimiter=",", skiprows=1)
        with open(paths[0]) as fh:
            header = fh.readline().strip()
        assert header == "t,a,b"
        assert rows.shape == (5, 3)


# sha256 of every file the default {"command": "pipeline"} scenario writes,
# recorded with numpy 2.4 on x86-64 Linux.  A change that moves any byte of
# them says which outputs moved and why, and records the new hashes.
PIPELINE_SHA256 = {
    "disc_warp.csv":
        "671dbb1ba5b741e6b4653c98f34b581f80cfd280f1fc0c9d971fd387416ee679",
    "handle_piece1_cap_face.csv":
        "5661cd6f2f10e849a3d169ad5db2a691e1aa9042fa3ebf3f05bc2c4073528956",
    "handle_piece1_cap_profile.csv":
        "7644ffb16f4b04abd7420245b252779a49cdd510c2b0a64995ceef49378532fa",
    "handle_piece1_outer_face.csv":
        "a76bb4c4e4abb7e56034a26277d47df1097171fcb6dc69822ee169c23a0de4b8",
    "handle_piece2_dug_face.csv":
        "48fe424e05bd46dbc837d1cb4eb6a12045c643d97b4ecdf1ac1b5316fab24f6f",
    "handle_piece2_face_metric.csv":
        "252dd5ca2e9b2d6d9438193986f3532b5ff671a01e5560073aa5ed3fec04c7f9",
    "report.json":
        "f34302584038bbf6b708822c60d83d80fc98b3c585435245ab33655721151c73",
    "transfer_ricci.csv":
        "8afd2dbb94e348faf29dfa79010bb89764d3491726f0261974b8b0ec71a57370",
}


def test_default_pipeline_output_bytes(tmp_path, capsys):
    """The default pipeline through the command-line entry point (what
    ``python -m warpbench.cli`` runs): exit 0 and exactly the pinned
    files, byte for byte."""
    path = write_scenario(tmp_path, {"command": "pipeline"})
    out = tmp_path / "out"
    assert cli.main(["--scenario", path, "--out", str(out)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == PIPELINE_SHA256
    # An oracle of correct rounding apart from the pins: CPython's
    # '%.18e' of every cell's value, on every 13th row and the last.
    csvs = sorted(out.glob("*.csv"))
    assert len(csvs) == 7
    for csv in csvs:
        rows = csv.read_text().splitlines()[1:]
        for row in rows[::13] + rows[-1:]:
            for cell in row.split(","):
                assert cell == "%.18e" % float(cell), (csv.name, cell)
