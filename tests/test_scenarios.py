"""The reference pipeline when the handle assembly fails, and the sample
density reaching both handle pieces."""

from warpbench import blocks as bk
from warpbench import feasibility as fs
from warpbench import scenarios as sc

P = sc.DEFAULT_PIPELINE_PARAMS

# handle pieces whose cut-cone outer face has a negative radial entry
FAILING_HANDLE = {
    "handle1": {"lambda1": 0.975229, "lambda2": 0.984668, "eps1": 0.012827,
                "eps2": 0.082069, "delta": 0.033236},
    "handle2": {"lambda1": 0.019317, "lambda2": 0.02947, "a": 0.029083,
                "b": 1.621792, "eps": 0.054691, "nu": 0.035491},
}

# handle pieces that both pass but fail the corner gluing
GLUE_FAILING_HANDLE = {
    "handle1": {"lambda1": 0.971523, "lambda2": 0.978609, "eps1": 0.008448,
                "eps2": 0.121415, "delta": 0.037327},
    "handle2": {"lambda1": 0.014585, "lambda2": 0.02739, "a": 0.013271,
                "b": 1.462329, "eps": 0.134985, "nu": 0.029916},
}

PIECE_SWEEPS = ("piece1_cap_face", "piece1_cap_profile", "piece2_dug_face",
                "piece2_face_metric")


def _sweep_lengths(report):
    return {name: len(report.sweeps[name]["t"]) for name in PIECE_SWEEPS}


class TestFailedHandle:
    def test_graph_is_not_wired(self):
        graph, reports = sc.reference_pipeline(FAILING_HANDLE)
        assert graph is None
        assert reports["handle"].verdict == "fail:radial_ii_outer"

    def test_result_fails_with_every_block_verdict_and_no_edges(self):
        result = sc.run_reference_pipeline(FAILING_HANDLE)
        assert result["passed"] is False
        assert sorted(result["blocks"]) == ["disc", "handle", "transfer",
                                            "transition"]
        assert result["blocks"]["handle"] == "fail:radial_ii_outer"
        assert result["blocks"]["disc"] == "pass"
        assert result["edges"] == []
        assert result["assumed"] == []

    def test_glue_failure_keeps_the_wired_graph(self):
        result = sc.run_reference_pipeline(GLUE_FAILING_HANDLE)
        assert result["passed"] is False
        assert result["blocks"]["handle"] == "fail:glue:ii_sum:radial"
        assert len(result["edges"]) == 6
        assert len(result["assumed"]) == 3


class TestGridReachesBothHandlePieces:
    def test_denser_grid_lengthens_the_piece_sweeps(self):
        base = bk.assemble_handle(P["q"], P["K"], P["handle1"], P["handle2"])
        dense = bk.assemble_handle(P["q"], P["K"], P["handle1"],
                                   P["handle2"], grid=4096)
        assert dense.passed
        n_base, n_dense = _sweep_lengths(base), _sweep_lengths(dense)
        for name in PIECE_SWEEPS:
            assert n_dense[name] > n_base[name], name

    def test_default_grid_is_unchanged(self):
        implicit = bk.assemble_handle(P["q"], P["K"], P["handle1"],
                                      P["handle2"])
        explicit = bk.assemble_handle(P["q"], P["K"], P["handle1"],
                                      P["handle2"], grid=None)
        assert implicit.to_json_dict() == explicit.to_json_dict()

    def test_pipeline_builds_the_handle_at_its_grid(self):
        _, reports = sc.reference_pipeline(grid=4096)
        dense = bk.assemble_handle(P["q"], P["K"], P["handle1"],
                                   P["handle2"], grid=4096)
        assert _sweep_lengths(reports["handle"]) == _sweep_lengths(dense)

    def test_scan_predicate_passes_the_grid_on(self):
        builder = fs.PREDICATES["handle-assembly"]["builder"]
        kw = {**{f"p1_{k}": v for k, v in P["handle1"].items()},
              **{f"p2_{k}": v for k, v in P["handle2"].items()}}
        dense = bk.assemble_handle(4, 0.9, P["handle1"], P["handle2"],
                                   grid=4096)
        assert _sweep_lengths(builder(grid=4096, **kw)) == \
            _sweep_lengths(dense)
