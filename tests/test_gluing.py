import math

import pytest
from hypothesis import given, settings, strategies as st

from warpbench import curves as cv
from warpbench import gluing as gl

PI = math.pi


def warped_profile(scale=1.0, ii_values=(0.0, 0.0), corner=None):
    warp = cv.sine_curve(scale, 1.0 / scale, 0.0, (0.0, scale))
    prof = gl.BoundaryProfile(
        dimension=3, kind="warped-sphere",
        metric={"warp": warp, "descriptor": "round"},
        ii={"radial": ii_values[0], "sphere": ii_values[1]},
        corners=[corner] if corner else [])
    return prof


class TestPerelman:
    def test_totally_geodesic_pair_passes(self):
        rep = gl.check_perelman(warped_profile(), warped_profile())
        assert rep.passed

    def test_constructed_violation_fails_with_deficit(self):
        b1 = warped_profile(ii_values=(-0.5, -0.5))
        b2 = warped_profile(ii_values=(0.3, 0.3))
        rep = gl.check_perelman(b1, b2)
        assert not rep.passed
        assert -rep.margin(rep.verdict[5:]).min == pytest.approx(0.2)

    def test_handle_floor_against_convex_face(self):
        lam = 0.4
        b1 = warped_profile(ii_values=(-lam, -lam))
        b2 = warped_profile(ii_values=(lam + 0.01, lam + 0.01))
        assert gl.check_perelman(b1, b2).passed

    def test_symmetry_under_swap(self):
        R = 1.7
        b1 = warped_profile(ii_values=(0.2, -0.1))
        b2 = warped_profile(scale=1.0 / R,
                            ii_values=(0.2 * R, -0.1 * R))
        fwd = gl.check_perelman(b1, b2, rescale=R)
        bwd = gl.check_perelman(b2, b1, rescale=1.0 / R)
        assert fwd.passed == bwd.passed

    @given(R=st.floats(0.3, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_rescale_covariance(self, R):
        b1 = warped_profile(ii_values=(0.15, -0.1))
        b2 = warped_profile(ii_values=(0.12, 0.2))
        base = gl.check_perelman(b1, b2)
        scaled = gl.check_perelman(b1.rescale(R), b2.rescale(R))
        assert base.passed == scaled.passed
        for m1, m2 in zip(base.margins, scaled.margins):
            if m1.label.startswith("ii_sum"):
                assert abs(m2.min - m1.min / R) < 1e-12 * (1 + abs(m1.min))

    def test_incompatible_kinds_raise(self):
        b1 = warped_profile()
        b2 = gl.BoundaryProfile(3, "bundle-over-base",
                                {"fibre_scale": 0.1, "base_scale": 1.0},
                                {"radial": 0.0, "sphere": 0.0})
        with pytest.raises(ValueError, match="profiles are incompatible"):
            gl.check_perelman(b1, b2)

    def test_metric_mismatch_detected(self):
        b1 = warped_profile()
        b2 = warped_profile()
        b2.metric["warp"] = cv.sine_curve(1.02, 1.0, 0.0, (0.0, 1.0))
        rep = gl.check_perelman(b1, b2, tol=1e-9)
        assert not rep.passed
        assert rep.verdict == "fail:metric_match"


def corner_atlas(theta, adjacent_ii=0.05, shared_ii=(0.1, 0.1)):
    corner = gl.Corner("rim", theta, ("shared", "side"),
                       {"shared": 0.0, "side": 0.0})
    shared = warped_profile(ii_values=shared_ii, corner=corner)
    side = gl.BoundaryProfile(
        dimension=3, kind="warped-sphere",
        metric={"warp": cv.cosine_curve(1.0, 1.0, 0.0, (0.0, 1.0)),
                "descriptor": "cap"},
        ii={"radial": adjacent_ii, "sphere": adjacent_ii},
        corners=[corner])
    return {"shared": shared, "side": side}


class TestCornerGluing:
    def test_right_angles_excluded(self):
        b1 = corner_atlas(PI / 2)
        b2 = corner_atlas(PI / 2)
        rep = gl.check_corner_gluing(b1, b2, "shared")
        assert not rep.passed
        bad = [m for m in rep.margins if m.label == "angle_sum:rim"][0]
        assert bad.min <= 0
        assert rep.verdict == "fail:angle_sum:rim"

    def test_acute_pair_passes(self):
        b1 = corner_atlas(1.2)
        b2 = corner_atlas(1.6)
        rep = gl.check_corner_gluing(b1, b2, "shared")
        assert rep.passed
        assert rep.aux["corners"][0]["combined_face"] == \
            "warped, concave"

    def test_closed_form_pair_sum(self):
        from warpbench import blocks as bk
        theta1 = bk.corner_angle_handle1(0.9, 0.05)
        theta2 = bk.corner_angle_handle2(0.05)
        assert theta2 == pytest.approx(PI / 2 + 0.05, abs=2e-4)
        passes = theta1 + theta2 < PI
        rep = gl.check_corner_gluing(corner_atlas(theta1),
                                     corner_atlas(theta2), "shared")
        assert rep.passed == passes

    def test_negative_adjacent_face_fails(self):
        rep = gl.check_corner_gluing(corner_atlas(1.2, adjacent_ii=-0.01),
                                     corner_atlas(1.2), "shared")
        assert not rep.passed

    def test_missing_corner_counterpart(self):
        b1 = corner_atlas(1.2)
        b2 = corner_atlas(1.2)
        b2["shared"].corners[0] = gl.Corner("other", 1.2,
                                            ("shared", "side"), {})
        with pytest.raises(ValueError, match="has no counterpart"):
            gl.check_corner_gluing(b1, b2, "shared")


def two_node_graph(edge_kind="perelman", ii=0.0, citation=None):
    n1 = gl.PipelineNode("a", "trusted",
                         {"face": warped_profile(ii_values=(ii, ii))})
    n2 = gl.PipelineNode("b", "trusted", {"face": warped_profile()})
    edge = gl.PipelineEdge(("a", "face"), ("b", "face"), edge_kind,
                           citation=citation)
    return gl.PipelineGraph([n1, n2], [edge])


class TestPipeline:
    def test_identical_profiles_pass(self):
        result = gl.assemble_pipeline(two_node_graph())
        assert result["passed"]

    def test_single_failing_edge_fails_pipeline(self):
        result = gl.assemble_pipeline(two_node_graph(ii=-0.5))
        assert not result["passed"]

    def test_assumed_edges_are_listed_not_checked(self):
        graph = two_node_graph("assumed", ii=-5.0, citation="existence")
        result = gl.assemble_pipeline(graph)
        assert result["passed"]
        assert result["assumed"][0]["citation"] == "existence"

    def test_assumed_edge_requires_citation(self):
        with pytest.raises(ValueError):
            gl.PipelineEdge(("a", "f"), ("b", "f"), "assumed")

    def test_cycle_detected(self):
        n1 = gl.PipelineNode("a", "trusted", {"f": warped_profile()})
        n2 = gl.PipelineNode("b", "trusted", {"f": warped_profile()})
        graph = gl.PipelineGraph(
            [n1, n2],
            [gl.PipelineEdge(("a", "f"), ("b", "f"), "perelman"),
             gl.PipelineEdge(("b", "f"), ("a", "f"), "perelman")])
        with pytest.raises(ValueError):
            gl.assemble_pipeline(graph)

    def test_smooth_match_requires_flat_sides(self):
        flat = cv.constant_curve(2.0, (0.0, 1.0))
        steep = cv.sine_curve(1.0, 1.0, 0.3, (0.0, 1.0))
        mk = lambda c: gl.BoundaryProfile(
            3, "warped-sphere", {"warp": c, "descriptor": "collar"},
            {"all": 0.0})
        n1 = gl.PipelineNode("a", "block", {"f": mk(flat)})
        n2 = gl.PipelineNode("b", "block", {"f": mk(steep)})
        good = gl.PipelineGraph(
            [n1, gl.PipelineNode("c", "block", {"f": mk(flat)})],
            [gl.PipelineEdge(("a", "f"), ("c", "f"), "smooth-match",
                             junction={"src": 1.0, "dst": 0.0})])
        bad = gl.PipelineGraph(
            [n1, n2],
            [gl.PipelineEdge(("a", "f"), ("b", "f"), "smooth-match",
                             junction={"src": 1.0, "dst": 0.0})])
        assert gl.assemble_pipeline(good)["passed"]
        result = gl.assemble_pipeline(bad)
        assert not result["passed"]
        assert result["edges"][0]["report"].verdict == "fail:flat:dst:warp"


class TestMargin:
    def test_one_margin_type(self):
        import warpbench
        from warpbench import blocks
        assert blocks.Margin is gl.Margin and warpbench.Margin is gl.Margin

    def test_pass_rule(self):
        zero_strict = gl.Margin("a", 0.0)
        zero_loose = gl.Margin("b", 0.0, strict=False)
        assert zero_strict.strict
        assert gl.first_failure([zero_loose, zero_strict]) is zero_strict
        assert gl.first_failure([zero_loose, gl.Margin("c", 1e-300)]) is None
        assert gl.first_failure([gl.Margin("d", -1e-300, strict=False)]) \
            .label == "d"
        assert gl.first_failure([gl.Margin("e", math.nan,
                                           strict=False)]).label == "e"

    @pytest.mark.parametrize("values, verdict", [
        ((math.nan, 1.0, 2.0), "fail:m0"),
        ((1.0, 2.0, math.nan), "fail:m2"),
        ((-1.0, 2.0, math.nan), "fail:m0"),
    ])
    def test_min_margin_is_nan_beside_a_nan_margin(self, values, verdict):
        """A NaN margin makes min_margin NaN wherever it stands; the
        verdict still names the first margin that fails."""
        rep = gl.Report("check", {}, [gl.Margin(f"m{i}", v)
                                      for i, v in enumerate(values)])
        assert math.isnan(rep.min_margin())
        assert rep.verdict == verdict
        finite = gl.Report("check", {}, [gl.Margin("a", 2.0),
                                         gl.Margin("b", -1.0)])
        assert finite.min_margin() == -1.0
        assert gl.Report("check", {}, []).min_margin() == math.inf

    def test_strict_flag_is_not_serialized(self):
        rep = gl.Report("check", {}, [gl.Margin("a", 0.0, strict=False)])
        assert rep.to_json_dict()["margins"] == [
            {"label": "a", "min": 0.0, "argmin": 0.0}]

    def test_checkers_state_their_pass_rules(self):
        corner = gl.Corner("c", PI / 4, ("face", "side"))
        atlas = {"face": warped_profile(ii_values=(0.5, 0.5),
                                        corner=corner),
                 "side": warped_profile(ii_values=(0.5, 0.5))}
        rep = gl.check_corner_gluing(atlas, atlas, "face")
        assert rep.margins[0].label == "metric_match"
        assert [m.strict for m in rep.margins] == \
            [False] + [True] * (len(rep.margins) - 1)
        rep = gl.check_perelman(warped_profile(), warped_profile())
        assert not any(m.strict for m in rep.margins)
