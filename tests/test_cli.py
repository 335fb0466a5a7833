import hashlib
import json
import os

import numpy as np

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

    def test_internal_fault_exit_3_and_named(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "command": "transfer", "p": 2, "q": 3, "r0": 0.1, "nu": 1.5,
            "lam": 0.5, "a": 0.2, "C": 1.5})
        out = tmp_path / "out"
        assert cli.run_scenario(path, out=str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: IntegratorError: ")
        assert not (out / "report.json").exists()

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
        "2a3cc8434c90940cae6f806be1594cd4438b7dddfcbe1c1d6d99cd903ca525f1",
    "transfer_ricci.csv":
        "12a6045f7249acb9903187adead9f585d2570ff932577c63a9d187b7bcacdc84",
}


def test_default_pipeline_output_bytes(tmp_path, capsys):
    path = write_scenario(tmp_path, {"command": "pipeline"})
    out = tmp_path / "out"
    assert cli.run_scenario(path, out=str(out)) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == PIPELINE_SHA256
