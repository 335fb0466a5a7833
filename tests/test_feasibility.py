import hashlib
import math
import re

import numpy as np
import pytest

from warpbench import blocks as bk
from warpbench import curvature as kv
from warpbench import curves as cv
from warpbench import feasibility as fs


class TestParamBox:
    def test_open_interval_offset(self):
        iv = fs.Interval(0.0, 1.0, open_lo=True)
        pts = iv.points(3)
        assert pts[0] > 0.0
        assert pts[-1] == 1.0

    @pytest.mark.parametrize("lo,hi,flags,shown", [
        (0.5, 0.5, "(", "(0.5, 0.5]"), (0.5, 0.5, ")", "[0.5, 0.5)"),
        (0.5, 0.5, "()", "(0.5, 0.5)"), (1.0, 0.0, "", "[1.0, 0.0]")])
    def test_empty_interval_is_rejected(self, lo, hi, flags, shown):
        """An open end at lo == hi leaves no point to sample."""
        with pytest.raises(ValueError, match=re.escape(
                f"empty interval {shown}")):
            fs.Interval(lo, hi, open_lo="(" in flags, open_hi=")" in flags)

    def test_closed_point_interval_is_one_point(self):
        assert fs.Interval(0.5, 0.5).points(3).tolist() == [0.5] * 3

    def test_grid_size_and_order(self):
        box = fs.ParamBox({"b": (0.0, 1.0), "a": (2.0, 3.0)}, 2)
        samples = list(box.full_grid())
        assert len(samples) == 4
        assert box.names == ["a", "b"]

    @staticmethod
    def meshgrid_full_grid(box):
        """ParamBox.full_grid as it was written over an ``ij`` meshgrid."""
        axes = [box.params[n].points(box.axis_resolution(n))
                for n in box.names]
        mesh = np.meshgrid(*axes, indexing="ij")
        flat = [m.ravel() for m in mesh]
        for i in range(len(flat[0])):
            yield {n: float(flat[j][i]) for j, n in enumerate(box.names)}

    def test_full_grid_keeps_the_meshgrid_order_and_values(self):
        box = fs.ParamBox({"c": (0.1, 0.7, "()"), "a": (2.0, 3.0),
                           "b": (-1.0, 1.0, "(")},
                          {"a": 3, "b": 2, "c": 4})
        got = list(box.full_grid())
        want = list(self.meshgrid_full_grid(box))
        assert len(got) == box.grid_size() == 24
        assert [list(s) for s in got] == [list(s) for s in want]
        assert [np.float64(list(s.values())).tobytes() for s in got] \
            == [np.float64(list(s.values())).tobytes() for s in want]

    def test_random_sampling_deterministic(self):
        box = fs.ParamBox({"x": (0.0, 1.0), "y": (0.0, 1.0)}, 64)
        s1 = box.random_samples(10, seed=7)
        s2 = box.random_samples(10, seed=7)
        assert s1 == s2

    @pytest.mark.parametrize("budget", [15, 6])
    def test_scan_builds_each_axis_once(self, monkeypatch, budget):
        """A scan, over its full grid or over a random subset, builds each
        axis's lattice points once: Interval.points runs once per axis
        per scan."""
        calls = []
        points = fs.Interval.points

        def counted(iv, n):
            calls.append((iv.lo, n))
            return points(iv, n)

        monkeypatch.setattr(fs.Interval, "points", counted)
        box = fs.ParamBox({"a": (0.005, 0.08), "b": (1.0, 2.0)},
                          {"a": 3, "b": 5})
        for _ in range(2):
            fs.scan(box, "handle2-closed-form", budget)
        assert calls == [(0.005, 3), (1.0, 5)] * 2

    @staticmethod
    def per_axis_samples(box, budget, seed):
        """random_samples as the scalar loop: each attempt draws one
        ``rng.integers(0, size)`` per axis, axes in name order, skips an
        index tuple already drawn, and stops at 50 budget attempts."""
        axes = {n: box.params[n].points(box.axis_resolution(n))
                for n in box.names}
        rng = np.random.default_rng(seed)
        seen, out, attempts = set(), [], 0
        while len(out) < budget and attempts < 50 * budget:
            attempts += 1
            idx = tuple(int(rng.integers(0, len(axes[n])))
                        for n in box.names)
            if idx in seen:
                continue
            seen.add(idx)
            out.append({n: float(axes[n][i])
                        for n, i in zip(box.names, idx)})
        return out

    # perfbench's four scan-mix lattice shapes, one axis, and one-point axes
    SAMPLED_BOXES = {
        "handle1-tied": ({"lambda1": (0.85, 0.99), "eps1": (0.01, 0.1),
                          "eps2": (0.01, 0.1), "delta": (0.02, 0.08)},
                         {"lambda1": 15, "eps1": 3, "eps2": 3, "delta": 3}),
        "handle2": ({"a": (0.005, 0.08), "b": (1.0, 2.0),
                     "nu": (0.01, 0.05), "eps": (0.05, 0.15)},
                    {"a": 4, "b": 3, "nu": 3, "eps": 3}),
        "cone": ({"eps1": (0.05, 0.2), "eps2": (0.05, 0.2),
                  "delta": (0.01, 0.04), "t": (0.0, 1.0)},
                 {"eps1": 3, "eps2": 3, "delta": 3, "t": 5}),
        "projective": ({"s": (0.0, 1.0)}, {"s": 17}),
        "one-axis": ({"x": (0.0, 1.0, "()")}, 5),
        "one-point-axes": ({"b": (2.0, 2.0), "a": (0.0, 1.0),
                            "c": (-1.0, 1.0)}, {"a": 3, "b": 1, "c": 1}),
    }

    @pytest.mark.numpy_contract(
        "an array high draws the stream of one scalar integers call each")
    @pytest.mark.parametrize("name", sorted(SAMPLED_BOXES))
    def test_random_samples_are_the_per_axis_draws(self, name):
        """random_samples draws its attempts in batches; its samples are
        the scalar loop's for 200 seeds at budgets up to perfbench's 12,
        and at the lattice size and past it, where the attempt cap ends
        the draw (for 50 seeds on the one-axis and one-point-axes
        lattices, for fewer on the larger ones)."""
        box = fs.ParamBox(*self.SAMPLED_BOXES[name])
        size = box.grid_size()
        seeds_past = 50 if size <= 5 else 10 if size <= 17 else 1
        for seed in range(200):
            budgets = [b for b in (1, 2, 3, 4, 8, 12) if b < size]
            if seed < seeds_past:
                budgets += [size, size + 1]
            for budget in budgets:
                assert box.random_samples(budget, seed) == \
                    self.per_axis_samples(box, budget, seed), (seed, budget)


class TestScan:
    def test_single_point_box_returns_that_point(self):
        box = fs.ParamBox({"c": (1.0, 1.0), "C": (10.0, 10.0)}, 1)

        def conf(**kw):
            pass
        cert = fs.scan(fs.ParamBox({"t0": (math.pi / 2, math.pi / 2)}, 1),
                       "fibre-disc", budget=4)
        assert len(cert.entries) == 1
        assert cert.entries[0].params == {"t0": math.pi / 2}

    def test_empty_box_scan_evaluates_one_sample(self):
        cert = fs.scan(fs.ParamBox({}), "handle2-closed-form", 4,
                       fixed={"a": 0.1, "b": 1.5})
        assert cert.grid["evaluated"] == 1
        assert [e.params for e in cert.entries] == [{}]

    def test_shallow_slopes_yield_empty_certificate(self):
        box = fs.ParamBox({"lambda1": (0.1, 0.3)},
                          {"lambda1": 3})
        cert = fs.scan(box, "handle1-tied", budget=10,
                       fixed={"eps1": 0.05, "eps2": 0.1})
        assert cert.entries == []
        assert cert.failures == 3

    def test_handle_box_has_passing_samples(self):
        box = fs.ParamBox({"lambda1": (0.975, 0.989), "eps1": (0.01, 0.02)},
                          {"lambda1": 2, "eps1": 2})
        cert = fs.scan(box, "handle1-tied", budget=10,
                       fixed={"eps2": 0.1})
        assert cert.entries
        best = cert.best
        assert best.verdict == "pass"
        # entries are sorted by margin, descending
        margins = [e.min_margin for e in cert.entries]
        assert margins == sorted(margins, reverse=True)

    def test_nan_margins_sort_after_every_other(self):
        """Certificate entries sort by descending min_margin, ties by their
        params, and an entry with a NaN min_margin after every other one,
        -inf (an error) included, whatever order they come in."""
        margins = [0.5, math.nan, 1e-12, -math.inf, 0.5, math.nan, -0.25,
                   math.inf]
        entries = [fs.CertEntry({"i": i}, m, "pass")
                   for i, m in enumerate(margins)]
        rng = np.random.default_rng(14)
        for _ in range(20):
            shuffled = [entries[i] for i in rng.permutation(len(entries))]
            got = [e.params["i"] for e in
                   sorted(shuffled, key=fs.CertEntry.sort_key)]
            assert got == [7, 0, 4, 2, 6, 3, 1, 5]

    def test_determinism(self):
        box = fs.ParamBox({"lam": (0.3, 0.6), "q": (3, 3)},
                          {"lam": 16, "q": 1})
        c1 = fs.scan(box, "s1", budget=6, seed=11)
        c2 = fs.scan(box, "s1", budget=6, seed=11)
        assert c1.to_json_dict() == c2.to_json_dict()

    def test_soundness_at_double_resolution(self):
        box = fs.ParamBox({"lam": (0.4, 0.55)}, {"lam": 3})
        cert = fs.scan(box, "s1", budget=10)
        assert cert.entries
        for entry in cert.entries:
            rep = bk.build_s1_block(3, entry.params["lam"], grid=4096)
            assert rep.passed
            assert rep.min_margin() > 0


class TestRefine:
    def test_target_at_existing_best_returns_input(self):
        box = fs.ParamBox({"lam": (0.4, 0.5)}, {"lam": 2})
        cert = fs.scan(box, "s1", budget=5)
        out = fs.refine(cert, cert.best.min_margin)
        assert out is cert

    def test_refine_closed_form_toward_target(self):
        box = fs.ParamBox({"a": (0.05, 1.2, "("), "b": (1.2, 1.9)},
                          {"a": 4, "b": 3})
        cert = fs.scan(box, "handle2-closed-form", budget=20)
        assert cert.entries
        out = fs.refine(cert, 0.05)
        assert out.best.min_margin >= 0.05
        # the closed-form bound is monotone decreasing in the dig slope,
        # so a certified margin this large pins the slope to a small range
        assert out.best.params["a"] <= 0.55

    def test_empty_certificate_rejected(self):
        empty = fs.Certificate("s1", [], {"box": {}})
        with pytest.raises(fs.RefineError):
            fs.refine(empty, 0.1)

    def test_unreachable_target_raises(self):
        box = fs.ParamBox({"lam": (0.45, 0.5)}, {"lam": 2})
        cert = fs.scan(box, "s1", budget=5)
        with pytest.raises(fs.RefineError):
            fs.refine(cert, 1e9, max_iter=5)

    def test_unreachable_target_carries_the_certificate_reached(self):
        box = fs.ParamBox({"lam": (0.45, 0.5)}, {"lam": 2})
        cert = fs.scan(box, "s1", budget=5)
        with pytest.raises(fs.RefineError, match="< target 1e"
                           ) as info:
            fs.refine(cert, 1e9, max_iter=5)
        reached = info.value.certificate
        assert reached.grid["refined"] and \
            reached.grid["target_margin"] == 1e9
        assert reached.best.min_margin >= cert.best.min_margin


def _stand_in(x, grid=None):
    return bk.Report("stand-in", {"x": x}, [bk.Margin("x", x)])


class TestRefineKeepsOpenEndpoints:
    @pytest.fixture
    def stand_in(self, monkeypatch):
        monkeypatch.setitem(fs.PREDICATES, "stand-in",
                            fs._entry(_stand_in, "x"))

    def test_box_round_trips_through_json(self):
        box = fs.ParamBox({"x": (0.1, 1.0, ")"), "y": (0.0, 2.0, "(")},
                          {"x": 5, "y": 2})
        again = fs.ParamBox.from_json_dict(box.to_json_dict())
        assert again.params == box.params
        assert again.to_json_dict() == box.to_json_dict()

    @pytest.mark.parametrize("pass_box", [False, True])
    def test_excluded_endpoint_is_never_certified(self, stand_in, pass_box):
        box = fs.ParamBox({"x": (0.1, 1.0, ")")}, 4)
        cert = fs.scan(box, "stand-in", budget=4)
        assert cert.best.params["x"] < 1.0
        with pytest.raises(fs.RefineError):
            fs.refine(cert, 1.0, box=box if pass_box else None)

    def test_reachable_target_stays_inside_the_open_box(self, stand_in):
        box = fs.ParamBox({"x": (0.1, 1.0, ")")}, 4)
        cert = fs.scan(box, "stand-in", budget=4)
        out = fs.refine(cert, 0.9999)
        assert all(e.params["x"] < 1.0 for e in out.entries)


class TestScanKeys:
    def test_unknown_box_key_named_before_any_sample(self, monkeypatch):
        calls = []
        monkeypatch.setitem(fs.PREDICATES, "s1", {
            **fs.PREDICATES["s1"], "builder": lambda **kw: calls.append(kw)})
        box = fs.ParamBox({"lam": (0.4, 0.5), "junk": (0.0, 1.0)}, 2)
        with pytest.raises(ValueError, match="junk"):
            fs.scan(box, "s1", budget=4)
        assert calls == []

    def test_unknown_fixed_key_named(self):
        box = fs.ParamBox({"lam": (0.4, 0.5)}, 2)
        with pytest.raises(ValueError, match="unknown keys.*'p'"):
            fs.scan(box, "s1", budget=4, fixed={"p": 3})

    def test_unsupplied_required_param_named(self):
        box = fs.ParamBox({"lambda1": (0.97, 0.98)}, 2)
        with pytest.raises(ValueError, match="missing keys.*'eps1'"):
            fs.scan(box, "handle1-tied", budget=4, fixed={"eps2": 0.1})

    def test_refine_checks_its_fixed_keys(self):
        cert = fs.scan(fs.ParamBox({"lam": (0.4, 0.5)}, 2), "s1", budget=4)
        with pytest.raises(ValueError, match="junk"):
            fs.refine(cert, 10.0, fixed={"junk": 1.0})


class TestBadSamplesAreRejections:
    @pytest.mark.parametrize("predicate, point", [
        ("cone", {"eps1": 0.334, "eps2": 1.0, "delta": 0.001}),
        ("handle1", {"lambda1": 0.1, "lambda2": 0.2, "eps1": 0.001,
                     "eps2": 0.505, "delta": 0.001}),
    ])
    def test_one_point_scan_counts_one_failure(self, predicate, point):
        box = fs.ParamBox({k: (v, v) for k, v in point.items()}, 1)
        cert = fs.scan(box, predicate, budget=1)
        assert cert.entries == [] and cert.failures == 1

    @pytest.mark.parametrize("predicate, box, fixed, condition", [
        ("handle2-closed-form", {"lambda2": (0.0, 0.25)},
         {"lambda1": 0.1, "a": 0.1, "b": 1.5}, "lambda2 must be positive"),
        ("sphere-transition", {"s0": (0.0, 1.2)}, {"p": 2, "q": 3},
         "s0 must be positive"),
        ("sphere-transition", {"p": (0.0, 2.0)}, {"q": 3, "s0": 1.2},
         "dimension p must be at least 1"),
        ("sphere-transition", {"q": (0.0, 4.0)}, {"p": 2, "s0": 1.2},
         "dimension q must be at least 2"),
    ])
    def test_closed_end_of_the_box_is_a_build_error(self, predicate, box,
                                                    fixed, condition):
        """A box that touches a closed end records that sample as a
        BuildError naming the condition; the scan goes on."""
        cert = fs.scan(fs.ParamBox(box, 3), predicate, budget=3,
                       fixed=fixed)
        assert cert.failures == 1 and len(cert.entries) == 2
        spec = fs.PREDICATES[predicate]
        fixed = {**spec["defaults"], **fixed}
        end = {name: 0.0 for name in box}
        entry = fs._run_predicate(spec["builder"], end, fixed)
        assert entry.verdict == "error:BuildError"
        with pytest.raises(bk.BuildError, match=condition):
            spec["builder"](**{**fixed, **end})

    @pytest.mark.parametrize("lambda1", [0.25, 0.3])
    def test_closed_form_rejects_lambda1_from_lambda2_on(self, lambda1):
        """build_handle2 needs lambda1 < lambda2; a closed-form sample
        with lambda1 >= lambda2 is a BuildError naming that condition, so
        a box crossing lambda1 = lambda2 certifies only samples below
        it."""
        builder = fs.PREDICATES["handle2-closed-form"]["builder"]
        with pytest.raises(bk.BuildError,
                           match="lambda1 must stay below lambda2"):
            builder(lambda1=lambda1, lambda2=0.25, a=0.1, b=1.5)
        cert = fs.scan(fs.ParamBox({"lambda1": (0.2, 0.3)}, 3),
                       "handle2-closed-form", budget=3,
                       fixed={"a": 0.1, "b": 1.5})
        assert cert.failures == 2
        assert [e.params["lambda1"] for e in cert.entries] == [0.2]

    @pytest.mark.parametrize("lambda1, b", [(0.25, 1.5), (0.2, 2.0)])
    def test_closed_form_and_handle2_reject_one_domain(self, lambda1, b):
        """The closed form and build_handle2 state lambda1 < lambda2 and
        b < 1/(2 lambda2) once: a sample outside either is the same
        BuildError from both."""
        closed = fs.PREDICATES["handle2-closed-form"]["builder"]
        params = {"lambda1": lambda1, "lambda2": 0.25, "a": 0.1, "b": b}
        with pytest.raises(bk.BuildError) as want:
            closed(**params)
        with pytest.raises(bk.BuildError) as got:
            bk.build_handle2(fs._default_collar_profile(), eps=0.1, nu=0.3,
                             **params)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("b", [0.0, 1e-300])
    def test_closed_form_rejects_b_below_the_dug_graph(self, b):
        """The closed form grows like 1/b as b falls to 0 (+inf at 0,
        1e300 at 1e-300); outside build_handle2's b > 1 it is a
        BuildError, so a box reaching 0 does not rank those samples
        first."""
        builder = fs.PREDICATES["handle2-closed-form"]["builder"]
        with pytest.raises(bk.BuildError, match="b must exceed 1"):
            builder(lambda1=0.2, lambda2=0.25, a=0.1, b=b)
        cert = fs.scan(fs.ParamBox({"b": (b, 1.5)}, 3),
                       "handle2-closed-form", budget=3, fixed={"a": 0.1})
        assert cert.failures == 2
        assert [e.params["b"] for e in cert.entries] == [1.5]
        assert math.isfinite(cert.best.min_margin)

    @pytest.mark.parametrize("predicate, box, fixed, name", [
        ("handle1-tied", {"eps1": (0.01, 0.02)},
         {"lambda1": 0.98, "eps2": 0.1, "delta": math.nan}, "delta"),
        *(("handle2", {"nu": (0.02, 0.03)} if name != "nu" else
           {"a": (0.02, 0.03)},
           {"lambda1": 0.01, "lambda2": 0.02, "a": 0.02, "b": 1.5,
            "eps": 0.1, "nu": 0.03, name: math.nan}, name)
          for name in ("a", "b", "eps", "nu")),
        *(("handle2-closed-form", {"lambda2": (0.24, 0.25)},
           {"a": 0.1, "b": 1.5, name: math.nan}, name)
          for name in ("a", "b")),
    ])
    def test_nan_parameter_is_a_build_error(self, predicate, box, fixed,
                                            name):
        """NaN fails every range check: the sample is a BuildError that
        names the parameter, and the scan goes on."""
        fixed = {k: v for k, v in fixed.items() if k not in box}
        cert = fs.scan(fs.ParamBox(box, 2), predicate, budget=2,
                       fixed=fixed)
        assert cert.failures == 2 and cert.entries == []
        spec = fs.PREDICATES[predicate]
        fixed = {**spec["defaults"], **fixed}
        sample = {k: lo for k, (lo, _) in box.items()}
        entry = fs._run_predicate(spec["builder"], sample, fixed)
        assert entry.verdict == "error:BuildError"
        with pytest.raises(bk.BuildError, match=f"^{name} must"):
            spec["builder"](**{**fixed, **sample})

    def test_handle1_delta_past_the_unit_inner_slope(self):
        """A finite delta that takes the concave profile's inner slope to
        1 or above is a BuildError naming delta and the slope; the scan
        goes on."""
        spec = fs.PREDICATES["handle1-tied"]
        fixed = {**spec["defaults"], "lambda1": 0.95, "eps1": 0.05,
                 "eps2": 0.05}
        entry = fs._run_predicate(spec["builder"], {"delta": 3.0}, fixed)
        assert entry.verdict == "error:BuildError"
        with pytest.raises(bk.BuildError, match="delta=3.0 too large: slope"):
            spec["builder"](**{**fixed, "delta": 3.0})
        cert = fs.scan(fs.ParamBox({"delta": (0.05, 3.0)}, 3),
                       "handle1-tied", budget=3, fixed=fixed)
        assert cert.failures >= 1
        assert all(e.params["delta"] < 3.0 for e in cert.entries)

    def test_fixed_lists_only_the_params_not_scanned(self):
        """A certificate's grid.fixed lists the params a scan did not
        scan, given or defaulted, and not the default of a scanned axis;
        refine, which reads it, still samples that axis from the box."""
        given = {"lambda1": 0.985, "eps1": 0.01, "eps2": 0.1}
        cert = fs.scan(fs.ParamBox({"delta": (0.02, 0.08)}, 3),
                       "handle1-tied", budget=3, fixed=given, grid=256)
        assert cert.entries
        assert cert.grid["fixed"] == {"n": 4, "K": 0.9, **given}
        with pytest.raises(fs.RefineError, match="^1 iterations used"):
            fs.refine(cert, 10.0, max_iter=1, grid=256)

    @pytest.mark.parametrize("predicate, name, hi, fixed, condition", [
        ("cone", "delta", 0.02, {"eps1": 0.1, "eps2": 0.1, "t": 0.5},
         r"delta=1e-300 is below the rounding of the junctions"),
        ("handle1-tied", "eps2", 0.1, {"lambda1": 0.985, "eps1": 0.01},
         r"eps2=1e-300 is below the rounding of pi/2"),
    ])
    def test_width_below_rounding_is_a_build_error(self, predicate, name,
                                                   hi, fixed, condition):
        """A width so small that the interval it spans from a point rounds
        to that point (the cone's join windows s -+ delta, handle1's outer
        face [pi/2, pi/2 + eps2]) is a BuildError naming the width, and
        the scan goes on to certify the wider samples."""
        cert = fs.scan(fs.ParamBox({name: (1e-300, hi)}, 3), predicate,
                       budget=3, fixed=fixed)
        assert cert.failures >= 1 and cert.entries
        assert all(e.params[name] > 1e-300 for e in cert.entries)
        spec = fs.PREDICATES[predicate]
        fixed = {**spec["defaults"], **fixed}
        entry = fs._run_predicate(spec["builder"], {name: 1e-300}, fixed)
        assert entry.verdict == "error:BuildError"
        with pytest.raises(bk.BuildError, match=condition):
            spec["builder"](**{**fixed, name: 1e-300})

    @pytest.mark.parametrize("eps2, verdict", [
        (1e-15, "error:BuildError"), (1e-13, "error:BuildError"),
        (1e-11, "fail:radial_ii_outer")])
    def test_handle1_eps2_with_repeated_beta_nodes(self, eps2, verdict):
        """An eps2 above the rounding of pi/2 but so small that beta's
        2049 nodes on [pi/2, pi/2 + eps2] repeat in floating point is a
        BuildError naming eps2, raised before the table divides by a zero
        node gap; from 1e-11 the nodes are distinct and the outer face
        fails its radial margin."""
        spec = fs.PREDICATES["handle1-tied"]
        fixed = {**spec["defaults"], "lambda1": 0.95, "eps1": 0.05}
        entry = fs._run_predicate(spec["builder"], {"eps2": eps2}, fixed)
        assert entry.verdict == verdict
        if verdict.startswith("error:"):
            with pytest.raises(bk.BuildError,
                               match=f"^eps2={eps2!r} is below the "
                                     f"resolution of beta's 2049-node"):
                spec["builder"](**{**fixed, "eps2": eps2})
        else:
            assert math.isfinite(entry.min_margin)

    @pytest.mark.parametrize("delta, verdict", [
        (1e-14, "error:BuildError"), (1e-13, "error:BuildError"),
        (1e-12, "fail:ric_radial")])
    def test_cone_delta_with_repeated_join_nodes(self, delta, verdict):
        """A cone delta above the rounding of the junctions but so small
        that the outer join's 2049 nodes on [s2 - delta, s2 + delta] repeat
        in floating point is a BuildError naming delta and the junction,
        raised before the join's Hermite table divides by a zero node gap
        (at 1e-14, a NumericalRangeError) or certifies a margin read off a
        degenerate table (at 1e-13, fail:slope_band_s1_lower); from 1e-12
        the nodes are distinct, the outer slope band fails, and so does the
        Ricci floor, which reads the joins' second derivatives on their own
        nodes where no grid point falls."""
        spec = fs.PREDICATES["cone"]
        fixed = {**spec["defaults"], "eps1": 0.1, "eps2": 0.1, "t": 0.5}
        entry = fs._run_predicate(spec["builder"], {"delta": delta}, fixed)
        assert entry.verdict == verdict
        if verdict.startswith("error:"):
            with pytest.raises(bk.BuildError,
                               match=rf"^delta={delta!r} is below the "
                                     rf"resolution of the outer join's "
                                     rf"2049-node table on \[s2 - delta"):
                spec["builder"](**{**fixed, "delta": delta})
        else:
            assert math.isfinite(entry.min_margin)
            rep = spec["builder"](**{**fixed, "delta": delta})
            assert rep.margin("slope_band_s2_upper").min < 0

    # the numpy fault of each predicate below whose fault is not a Python
    # OverflowError: 1 / B' at handle2's dug face's foot, the exp of
    # make_concave_profile in handle1, the fibre disc's taper
    NUMPY_FAULTS = {"handle2": "FloatingPointError: divide by zero",
                    "handle1": "FloatingPointError: overflow",
                    "fibre-disc": "FloatingPointError: overflow"}

    @pytest.mark.parametrize("predicate, name, lo, hi, fixed, builder", [
        ("s1", "lam", 1e-300, 0.5, {}, "build_s1_block"),
        ("s1", "q", 3.0, 1e300, {"lam": 0.45}, "build_s1_block"),
        ("sphere-transition", "s0", 1e-300, 1.2, {"p": 2, "q": 3},
         "_sphere_transition"),
        # the transfer ODE's nodes overflow on its first table
        ("transfer", "C", 0.5, 1e300, {"a": 0.2}, "build_transfer_block"),
        ("handle2", "a", 1e-300, 0.02,
         {"lambda1": 0.01, "lambda2": 0.02, "b": 1.5, "eps": 0.1,
          "nu": 0.03}, "build_handle2"),
        ("handle1", "delta", 0.05, 1e300,
         {"lambda1": 0.985, "lambda2": 0.99, "eps1": 0.01, "eps2": 0.1},
         "build_handle1"),
        ("fibre-disc", "t0", 2.5, 1e300, {}, "build_fibre_disc_warp"),
    ])
    def test_float_overflow_is_a_numerical_range_error(self, predicate, name,
                                                       lo, hi, fixed,
                                                       builder):
        """A value inside the declared domain whose arithmetic leaves the
        float range, in Python or in numpy, is a NumericalRangeError (a
        BuildError) naming the builder, the params and the fault, not a
        warning or a margin read from a NaN, and a scan whose box reaches
        it completes."""
        spec = fs.PREDICATES[predicate]
        fixed = {**spec["defaults"], **fixed}
        extreme = lo if lo < 1e-200 else hi
        entry = fs._run_predicate(spec["builder"], {name: extreme}, fixed,
                                  grid=256)
        assert entry.verdict == "error:NumericalRangeError"
        assert entry.min_margin == -math.inf
        fault = self.NUMPY_FAULTS.get(predicate, "OverflowError")
        with pytest.raises(bk.NumericalRangeError,
                           match=f"^{builder} left the float range at .*"
                                 f"{re.escape(f'{name}={extreme!r}')}.*: "
                                 f"{fault}"):
            spec["builder"](**{**fixed, name: extreme}, grid=256)
        cert = fs.scan(fs.ParamBox({name: (lo, hi)}, 2), predicate,
                       budget=2, fixed=fixed, grid=256)
        assert cert.failures >= 1
        assert all(e.params[name] != extreme for e in cert.entries)

    def test_numerical_range_error_names_a_curve_param_by_type(self):
        """A param that is not a number or a string (a curve B) is named
        by its type, so the message carries no object address."""
        @bk.domain(lam=bk.Reals(0))
        def divides(B, lam, grid=None):
            return 1 / 0

        with pytest.raises(bk.NumericalRangeError, match=re.escape(
                "divides left the float range at B=<SmoothCurve>, "
                "lam=0.5, grid=None: ZeroDivisionError: division by zero")):
            divides(fs._default_collar_profile(), 0.5, grid=None)

    # a sample of each predicate that builds without error, with every
    # numeric param the predicate takes
    HANDLE1 = {"lambda1": 0.985, "lambda2": 0.99, "eps1": 0.01,
               "eps2": 0.1, "delta": 0.05}
    HANDLE2 = {"lambda1": 0.01, "lambda2": 0.02, "a": 0.02, "b": 1.5,
               "eps": 0.1, "nu": 0.03}
    FINITE_SAMPLES = {
        "handle1": {"n": 4, "K": 0.9, **HANDLE1},
        "handle1-tied": {"n": 4, "K": 0.9, "lambda1": 0.95, "eps1": 0.05,
                         "eps2": 0.05, "delta": 0.05},
        "handle2": {**HANDLE2, "B_scale": 1.0},
        "handle2-closed-form": {"lambda1": 0.2, "lambda2": 0.25, "a": 0.1,
                                "b": 1.5},
        "handle-assembly": {"n": 3, "K": 0.9,
                            **{f"p1_{k}": v for k, v in HANDLE1.items()},
                            **{f"p2_{k}": v for k, v in HANDLE2.items()}},
        "transfer": {"p": 2, "q": 3, "r0": 0.1, "nu": 1.5, "lam": 0.5,
                     "a": 0.2, "C": 0.5, "sup_AX2": 0.0,
                     "sup_deltaA": 0.0},
        "s1": {"q": 3, "lam": 0.45, "ric_base_lb": 1.0},
        "cone": {"n": 4, "K": 0.9, "eps1": 0.1, "eps2": 0.1, "delta": 0.02,
                 "t": 0.5},
        "fibre-disc": {"p": 3, "t0": 2.5},
        "sphere-transition": {"p": 2, "q": 3, "s0": 1.2},
        "projective": {"d": 2, "n": 2, "s": 0.5},
        "wu-check": {"variant": "blended", "eps": 0.1, "eps_outer": 0.9},
    }

    @pytest.mark.parametrize("predicate, name, value", [
        (predicate, name, value)
        for predicate, sample in FINITE_SAMPLES.items()
        for name in sample if name != "variant"
        for value in (math.inf, -math.inf, math.nan)])
    def test_infinite_parameter_is_a_build_error(self, predicate, name,
                                                 value):
        """An infinite or NaN value of any numeric param is a BuildError
        sample; the scan goes on."""
        spec = fs.PREDICATES[predicate]
        fixed = {**spec["defaults"], **self.FINITE_SAMPLES[predicate]}
        assert not fs._run_predicate(spec["builder"], {}, fixed) \
            .verdict.startswith("error")
        entry = fs._run_predicate(spec["builder"], {name: value}, fixed)
        assert entry.verdict == "error:BuildError"

    def test_nan_collar_profile_is_a_build_error(self):
        """Every comparison with NaN is False, so the check that the
        collar profile has B > 0, B' < 0 and B'' < 0 is written to fail on
        NaN."""
        spec = fs.PREDICATES["handle2"]
        fixed = {**spec["defaults"], **self.FINITE_SAMPLES["handle2"]}
        entry = fs._run_predicate(spec["builder"], {"B_scale": math.nan},
                                  fixed)
        assert entry.verdict == "error:BuildError"
        with pytest.raises(bk.BuildError, match="^B must have finite B > 0"):
            spec["builder"](**{**fixed, "B_scale": math.nan})

    def test_projective_dimension_outside_the_family(self):
        box = fs.ParamBox({"s": (0.2, 0.8)}, 3)
        cert = fs.scan(box, "projective", 3, fixed={"d": 3})
        assert cert.entries == [] and cert.failures == 3


class TestScanBuildsNoProfiles:
    """A scan reads only margins and verdicts, so its handle builds
    difference no principal-curvature column: the boundary profiles are
    built once, on the first read of ``Report.boundary``."""

    H1 = dict(n=4, K=0.9, lambda1=0.985, lambda2=0.99, eps1=0.01,
              eps2=0.1, delta=0.05)
    H2 = dict(lambda1=0.01, lambda2=0.02, a=0.02, b=1.5, eps=0.1, nu=0.03)

    @staticmethod
    def counted(monkeypatch):
        """Calls of blocks._tabs_from_samples and blocks.gradient_on."""
        calls = {"_tabs_from_samples": 0, "gradient_on": 0}
        for name in calls:
            def counting(*args, real=getattr(bk, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(bk, name, counting)
        return calls

    @staticmethod
    def counted_cap_profiles(monkeypatch):
        """The grid sizes of the calls of blocks._cap_profile."""
        sizes = []
        real = bk._cap_profile

        def counting(lambda1, eps1, rr):
            sizes.append(len(rr))
            return real(lambda1, eps1, rr)

        monkeypatch.setattr(bk, "_cap_profile", counting)
        return sizes

    @pytest.mark.usefixtures("fresh_caches")
    def test_handle1_tied_scan_builds_no_cap_profile(self, monkeypatch):
        """Each (lambda1, eps1) key evaluates its cap profile at the grid's
        two ends only, once, for the cap_concavity margin kept with the cap
        side: the scan's four samples are four keys, and the build after
        it a fifth.  The cap_profile columns are built with the sweeps, on
        their first read."""
        sizes = self.counted_cap_profiles(monkeypatch)
        cert = fs.scan(fs.ParamBox({"lambda1": (0.975, 0.989),
                                    "eps1": (0.01, 0.02)}, 2),
                       "handle1-tied", budget=4, fixed={"eps2": 0.1})
        assert cert.entries
        assert sizes == [2] * 4
        rep = bk.build_handle1(**self.H1)
        assert sizes == [2] * 5
        sweeps = rep.sweeps
        assert sizes[5:] == [len(sweeps["cap_profile"]["t"])]
        assert rep.sweeps is sweeps
        assert len(sizes) == 6

    @pytest.mark.usefixtures("fresh_caches")
    def test_projective_scan_builds_no_key_sweep(self, monkeypatch):
        """The key_inequality column is computed once per (s, grid), for
        the margins the check keeps, and not per sample: scans at three d
        over five s compute it five times.  Its sweep is built on the
        first read of ``Report.sweeps``."""
        calls = []
        real = bk._key_inequality

        def counting(h, s, grid):
            calls.append(s)
            return real(h, s, grid)

        monkeypatch.setattr(bk, "_key_inequality", counting)
        box = fs.ParamBox({"s": (0.0, 1.0)}, 5)
        for d in (2, 4, 8):
            cert = fs.scan(box, "projective", budget=5, fixed={"d": d})
            assert len(cert.entries) == 5
        assert calls == [0.0, 0.25, 0.5, 0.75, 1.0]
        rep = bk.projective_family_check(2, 2, 0.5)
        assert len(calls) == 5
        sweeps = rep.sweeps
        assert calls[5:] == [0.5]
        assert rep.sweeps is sweeps
        assert rep.margin("key_inequality").min == float(
            np.min(sweeps["key_inequality"]["columns"]["key"]) + 1e-9)

    # sha256 of the cone's ricci sweep (t, then each column's name and
    # bytes by name) at (4, 0.9, 0.1, 0.1, 0.02, 0.5), grid 256, as the
    # build computed it on every sample before the margins became closed
    # forms; recorded with numpy 2.4 on x86-64 Linux
    CONE_SWEEP_SHA256 = (
        "4584258d7770829bd4f8ead2e6d61ffab887e6bcaf6dda5f69813d22815f5fe2")

    @pytest.mark.usefixtures("fresh_caches")
    def test_cone_scan_builds_no_sweep(self, monkeypatch):
        """A cone scan certifies the Ricci floor by its closed forms and
        runs no doubly_warped_sweep; the sweep is built on the first read
        of ``Report.sweeps``, once, with the bits it always had: those of
        the sweep of the report's warp on the grid over [s_lo, s_hi]."""
        calls = []
        real = bk.doubly_warped_sweep

        def counting(m, ts):
            calls.append(len(ts))
            return real(m, ts)

        monkeypatch.setattr(bk, "doubly_warped_sweep", counting)
        box = fs.ParamBox({"eps1": (0.05, 0.2), "eps2": (0.05, 0.2),
                           "delta": (0.01, 0.04), "t": (0.0, 1.0)},
                          {"eps1": 3, "eps2": 3, "delta": 3, "t": 5})
        cert = fs.scan(box, "cone", budget=40, seed=5)
        assert cert.entries and calls == []
        rep = bk.build_cone_metric(4, 0.9, 0.1, 0.1, 0.02, 0.5, grid=256)
        assert calls == []
        sweeps = rep.sweeps
        assert rep.sweeps is sweeps and calls == [len(sweeps["ricci"]["t"])]
        ss = bk.grid_points(rep.aux["s_lo"], rep.aux["s_hi"], 256)
        warp = rep.aux["curves"]["warp"]
        want = real(kv.DoublyWarpedMetric(3, 1, warp,
                                          cv.constant_curve(1.0, warp.domain),
                                          collapse_start="f"), ss)
        got = sweeps["ricci"]
        assert got["t"].tobytes() == ss.tobytes()
        for name, column in (("ric_radial", "ric_tt"),
                             ("ric_sphere", "ric_uu"), ("warp", "f")):
            assert got["columns"][name].tobytes() == want[column].tobytes()
        digest = hashlib.sha256(got["t"].tobytes())
        for name in sorted(got["columns"]):
            digest.update(name.encode())
            digest.update(got["columns"][name].tobytes())
        assert digest.hexdigest() == self.CONE_SWEEP_SHA256

    # handle1's outer_arc_length at H1, and the sha256 of the cone warp's
    # orders 0-3 on grid_points(s_lo, s_hi, 256) at (4, 0.9, 0.1, 0.1,
    # 0.02, 0.5), as every build computed them with its margins before
    # Report.aux was built on first read; recorded with numpy 2.4 on
    # x86-64 Linux
    H1_OUTER_ARC = "0x1.8006714f8a26ap+1"
    CONE_WARP_SHA256 = (
        "cd881116efac609516bd98b16c62938d7b03f4921d99e672faaaf114e756b72f")

    @staticmethod
    def counted_calls(monkeypatch, name):
        """The argument tuples of the calls of blocks.<name>."""
        calls = []
        real = getattr(bk, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bk, name, counting)
        return calls

    @pytest.mark.usefixtures("fresh_caches")
    def test_warm_scans_build_no_arc_and_no_warp(self, monkeypatch):
        """A handle1-tied or cone scan on warm caches computes no outer arc
        length (``_handle1_arc``) and composes no cone warp (``sin_of``):
        only ``Report.aux``, the boundary and the sweeps read them.  A
        build computes each once, on the first read of any of those, with
        the bits builds computed with their margins."""
        scans = [
            (fs.ParamBox({"lambda1": (0.975, 0.989),
                          "eps1": (0.01, 0.02)}, 2),
             "handle1-tied", 4, {"eps2": 0.1}),
            (fs.ParamBox({"eps1": (0.05, 0.2), "eps2": (0.05, 0.2),
                          "delta": (0.01, 0.04), "t": (0.0, 1.0)},
                         {"eps1": 3, "eps2": 3, "delta": 3, "t": 5}),
             "cone", 40, {})]
        cone = (4, 0.9, 0.1, 0.1, 0.02, 0.5)
        # the caches' cap faces and cone joins, which compute an arc and
        # a sine of their own when they miss
        certs = [fs.scan(box, p, budget, seed=5, fixed=fixed)
                 for box, p, budget, fixed in scans]
        bk.build_handle1(**self.H1)
        bk.build_cone_metric(*cone, grid=256)
        arcs = self.counted_calls(monkeypatch, "_handle1_arc")
        warps = self.counted_calls(monkeypatch, "sin_of")
        assert [fs.scan(box, p, budget, seed=5, fixed=fixed)
                for box, p, budget, fixed in scans] == certs
        assert all(cert.entries for cert in certs)
        h1 = bk.build_handle1(**self.H1)
        rep = bk.build_cone_metric(*cone, grid=256)
        assert arcs == [] and warps == []

        assert h1.aux["outer_arc_length"].hex() == self.H1_OUTER_ARC
        assert len(arcs) == 1
        outer = h1.boundary["outer"].metric["warp"]
        assert outer.t_hi == h1.aux["outer_arc_length"] and len(arcs) == 1

        warp = rep.aux["curves"]["warp"]
        assert len(warps) == 1
        ss = bk.grid_points(rep.aux["s_lo"], rep.aux["s_hi"], 256)
        digest = hashlib.sha256()
        for k in range(4):
            digest.update(warp.eval(ss, k).tobytes())
        assert digest.hexdigest() == self.CONE_WARP_SHA256
        assert rep.sweeps["ricci"]["columns"]["warp"].tobytes() == \
            warp.eval(ss).tobytes()
        assert len(warps) == 1

    def test_handle_scans_build_no_profiles(self, monkeypatch):
        calls = self.counted(monkeypatch)
        h1 = fs.scan(fs.ParamBox({"lambda1": (0.975, 0.989),
                                  "eps1": (0.01, 0.02)}, 2),
                     "handle1-tied", budget=4, fixed={"eps2": 0.1})
        h2 = fs.scan(fs.ParamBox({"a": (0.01, 0.03), "b": (1.2, 1.5)}, 2),
                     "handle2", budget=4,
                     fixed={k: self.H2[k]
                            for k in ("lambda1", "lambda2", "eps", "nu")})
        # passing samples ran their builders to the end
        assert h1.entries and h2.entries
        assert calls == {"_tabs_from_samples": 0, "gradient_on": 0}

    @pytest.mark.parametrize("build, faces", [
        (lambda: bk.build_handle1(**TestScanBuildsNoProfiles.H1), 2),
        (lambda: bk.build_handle2(fs._default_collar_profile(),
                                  **TestScanBuildsNoProfiles.H2), 1)],
        ids=["handle1", "handle2"])
    def test_boundary_is_built_once_on_first_read(self, monkeypatch, build,
                                                  faces):
        calls = self.counted(monkeypatch)
        rep = build()
        assert calls == {"_tabs_from_samples": 0, "gradient_on": 0}
        boundary = rep.boundary
        assert calls == {"_tabs_from_samples": faces, "gradient_on": faces}
        assert rep.boundary is boundary
        assert rep.to_json_dict()["boundary"].keys() == boundary.keys()
        assert calls == {"_tabs_from_samples": faces, "gradient_on": faces}
