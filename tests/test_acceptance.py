"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Tolerances are pinned here and nowhere else."""

import math
import time

import numpy as np

from warpbench import blocks as bk
from warpbench import charclasses as cc
from warpbench import curvature as kv
from warpbench import curves as cv
from warpbench import feasibility as fs
from warpbench import gluing as gl
from warpbench import scenarios as sc

PI = math.pi


def report(num, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}: {label}"
          + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {num} failed: {label} {extra}"


def test_01_round_sphere_oracle():
    start = time.time()
    f = cv.sine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
    h = cv.cosine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
    m = kv.DoublyWarpedMetric(2, 2, f, h, collapse_start="f",
                              collapse_end="h")
    ts = np.linspace(0.0, PI / 2, 2048)
    sweep = kv.doubly_warped_sweep(m, ts)
    sec_dev = max(float(np.max(np.abs(sweep[k] - 1.0)))
                  for k in ("sec_tu", "sec_tv", "sec_uv", "sec_uu",
                            "sec_vv"))
    ric_dev = float(np.max(np.abs(sweep["ric_tt"] - 4.0)))
    elapsed = time.time() - start
    report(1, "round-sphere sectional/Ricci values on a 2048-grid",
           sec_dev < 1e-8 and ric_dev < 1e-8 and elapsed < 1.0,
           f"sec dev {sec_dev:.2e}, ric dev {ric_dev:.2e}, "
           f"{elapsed:.2f}s")


def test_02_finite_difference_oracle_equivalence():
    start = time.time()
    f = cv.sine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
    h = cv.cosine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
    metrics = [
        kv.DoublyWarpedMetric(2, 2, f, h, collapse_start="f",
                              collapse_end="h"),
        kv.DoublyWarpedMetric(3, 3, f, h, collapse_start="f",
                              collapse_end="h"),
    ]
    dom = (0.3, 1.2)
    fg = cv.curve_from_derivs(dom, lambda t: 1.2 + 0.3 * np.cos(t),
                              lambda t: -0.3 * np.sin(t),
                              lambda t: -0.3 * np.cos(t),
                              lambda t: 0.3 * np.sin(t))
    hg = cv.curve_from_derivs(dom, lambda t: 1.5 + 0.2 * np.sin(t),
                              lambda t: 0.2 * np.cos(t),
                              lambda t: -0.2 * np.sin(t),
                              lambda t: -0.2 * np.cos(t))
    metrics.append(kv.DoublyWarpedMetric(2, 3, fg, hg))
    total_points = 0
    worst = 0.0
    for i, m in enumerate(metrics):
        rep = kv.oracle_cross_check(m, n_points=17, seed=10 + i)
        worst = max(worst, rep["max_rel_error"])
        total_points += rep["points"]
    elapsed = time.time() - start
    report(2, "closed-form Ricci vs finite-difference oracle",
           total_points >= 50 and worst < 1e-4 and elapsed < 30.0,
           f"{total_points} points, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_03_concave_profile_properties():
    ok = True
    detail = []
    for l1, l2 in ((0.5, 0.7), (0.9, 0.95)):
        delta = 0.1
        f = cv.make_concave_profile(l1, l2, delta, t_max=20.0)
        ts = np.linspace(-delta, 20.0, 4096)
        margins = (float(np.min(-f.eval(ts, 2))),
                   float(np.min(f.eval(ts, 1) - l1)),
                   float(np.min(f.eval(ts, 1) / f.eval(ts, 0)
                                - l1 / (1 + l1 * ts))))
        ok = ok and all(m > 0 for m in margins)
        detail.append(f"({l1},{l2}): min margins "
                      + ",".join(f"{m:.2e}" for m in margins))
    report(3, "concave profile properties on [-delta, 20]", ok,
           "; ".join(detail))


def test_04_transfer_ode_residuals_and_properties():
    ok = True
    detail = []
    for C in (0.01, 0.1):
        h0, fc = cv.integrate_transfer_odes(C)
        res = cv.transfer_ode_residuals(h0, fc, C)
        worst = max(res.values())
        ts, hcols = h0.nodes
        _, fcols = fc.nodes
        g, g1, g2 = hcols[0], hcols[1], hcols[2]
        f0, f1, f2 = fcols[0], fcols[1], fcols[2]
        ratio = f1 / (f0 * g * g1)
        props = (np.all(g1 > 0) and np.all(g2 < 0)
                 and np.all(f1[1:] > 0) and np.all(f2 > 0)
                 and np.all(ratio >= -1e-9) and np.all(ratio <= 1 + 1e-9)
                 and np.all(np.diff((f0 * g1)[len(ts) // 2:]) <= 1e-12))
        ok = ok and worst < 1e-8 and bool(props)
        detail.append(f"C={C}: residual {worst:.2e}")
    report(4, "transfer ODE residuals and nodewise properties", ok,
           "; ".join(detail))


def test_05_handle_feasibility_scan():
    start = time.time()
    box = fs.ParamBox({"lambda1": (0.85, 0.99), "eps1": (0.01, 0.1),
                       "eps2": (0.01, 0.1)},
                      {"lambda1": 15, "eps1": 3, "eps2": 2})
    cert = fs.scan(box, "handle1-tied", budget=200)
    nonempty = bool(cert.entries)
    best_passes = nonempty and cert.best.verdict == "pass"
    theta_ok = False
    if nonempty:
        params = cert.best.params
        rep = bk.build_handle1(4, 0.9, lambda1=params["lambda1"],
                               lambda2=params["lambda1"] + 0.01,
                               eps1=params["eps1"], eps2=params["eps2"],
                               delta=0.05)
        theta_ok = rep.passed and rep.aux["theta"] < PI / 2
    # closed-form angle sign agreement at every buildable sample
    signs_ok = True
    for sample in box.full_grid():
        l1 = sample["lambda1"]
        if l1 + 0.01 >= 1.0:
            continue
        r = bk.build_handle1(4, 0.9, lambda1=l1, lambda2=l1 + 0.01,
                             eps1=sample["eps1"], eps2=sample["eps2"],
                             delta=0.05)
        signs_ok = signs_ok and r.margin("angle_sign_agreement").min > 0
    elapsed = time.time() - start
    report(5, "cut-cone handle feasibility scan",
           nonempty and best_passes and theta_ok and signs_ok
           and elapsed < 300.0,
           f"{len(cert.entries)} passing samples, best "
           f"{cert.best.params if nonempty else None}, {elapsed:.0f}s")


def test_06_collar_handle_refine():
    fixed = {"lambda1": 0.01, "lambda2": 0.02, "b": 1.5, "eps": 0.1,
             "nu": 0.03}
    assert fixed["b"] < 1.0 / (2 * fixed["lambda2"])
    box = fs.ParamBox({"a": (0.005, 0.08)}, {"a": 4})
    cert = fs.scan(box, "handle2", budget=10, fixed=fixed)
    if cert.entries:
        # all margins positive is the target; the flatness margin caps the
        # reachable minimum at its 1e-8 tolerance
        cert = fs.refine(cert, 1e-9, fixed=fixed)
    ok = bool(cert.entries)
    detail = ""
    if ok:
        a = cert.best.params["a"]
        rep = fs.PREDICATES["handle2"]["builder"](B=None, a=a, **fixed)
        theta_ok = rep.aux["theta"] <= PI / 2 + 0.1
        conservative = rep.margin("conservativity").min >= 0
        ok = rep.passed and theta_ok and conservative
        detail = (f"a={a:.4f}, theta={rep.aux['theta']:.4f}, "
                  f"conservativity {rep.margin('conservativity').min:.2e}")
    report(6, "collar handle margins and conservative closed form", ok,
           detail)


def test_07_cone_family():
    ok = True
    detail = []
    n, K = 4, 0.9
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = bk.build_cone_metric(n, K, 0.1, 0.1, 0.02, t)
        ok = ok and rep.passed
        detail.append(f"t={t}: min {rep.min_margin():.2e}")
    rep1 = bk.build_cone_metric(n, K, 0.1, 0.1, 0.02, 1.0)
    # at t=1 the bound is (n-1) K^2, so dividing the metric by K^2 gives
    # exactly Ric >= n-1 with the same relative margins
    ok = ok and abs(rep1.aux["ric_bound"] / K ** 2 - (n - 1)) < 1e-12
    report(7, "cone family Ricci floors and the rescaled endpoint", ok,
           "; ".join(detail))


def test_08_projective_families():
    ok = True
    worst_ric = math.inf
    worst_key = math.inf
    for d, n in ((2, 2), (2, 3), (4, 2), (8, 2)):
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            rep = bk.projective_family_check(d, n, s)
            ric_min = min(rep.margin(k).min
                          for k in ("ric_tt", "ric_VV", "ric_XX"))
            key_min = rep.margin("key_inequality").min - 1e-9
            trig_ok = (rep.margin("trig_sin_bound").min > 0
                       and rep.margin("trig_cos_bound").min > 0)
            ok = ok and ric_min > 0 and key_min >= -1e-9 and trig_ok
            worst_ric = min(worst_ric, ric_min)
            worst_key = min(worst_key, key_min)
    report(8, "projective families over (d, n, s)", ok,
           f"worst Ricci margin {worst_ric:.2e}, worst key margin "
           f"{worst_key:.2e}")


def test_09_wu_family():
    rep = bk.wu_family_check("g00")
    expected = ((PI / 2) ** 2, 3 * (PI / 2) ** 2, PI ** 2 / 2)
    got = (rep.aux["ric_tt_at_0"], rep.aux["ric_VV_at_0"],
           rep.aux["ric_XX_at_0"])
    diag_ok = all(abs(a - b) < 1e-6 for a, b in zip(got, expected))
    blended = bk.wu_family_check("blended", eps=0.1)
    path_ok = blended.passed and len(blended.margins) == 5
    report(9, "five-dimensional family diagonal and blended path",
           rep.passed and diag_ok and path_ok,
           f"diag {tuple(round(g, 6) for g in got)}, blended min "
           f"{blended.min_margin():.3f}")


def test_10_stiefel_whitney_table():
    w1, w2, cp2 = cc.ring_wi(1), cc.ring_wi(2), cc.ring_cpn(2)
    mono_a = [{"index": 3, "exponent": 1}, {"index": 2, "exponent": 3}]
    mono_b = [{"index": 7, "exponent": 1}, {"index": 2, "exponent": 1}]
    values = (repr(w1.total_sw()) == "1 + a + (a^1)*"
              and repr(w2.total_sw()) == "1 + a + (a^3)*"
              and cc.sw_number([w2], mono_a) == 1
              and cc.sw_number([w2], mono_b) == 0
              and cc.sw_number([w1, cp2], mono_a) == 1
              and cc.sw_number([w1, cp2], mono_b) == 1)
    table = cc.omega9_generator_table()
    report(10, "characteristic numbers and the rank-2 generator table",
           values and table["matrix"] == [[1, 0], [1, 1]]
           and table["rank"] == 2,
           f"matrix {table['matrix']}")


def test_11_gluing_checkers():
    def prof(ii, scale=1.0):
        warp = cv.sine_curve(scale, 1.0 / scale, 0.0, (0.0, scale))
        return gl.BoundaryProfile(3, "warped-sphere",
                                  {"warp": warp, "descriptor": "round"},
                                  {"radial": ii, "sphere": ii})

    geodesic_pass = gl.check_perelman(prof(0.0), prof(0.0)).passed
    violation = gl.check_perelman(prof(-0.5), prof(0.3))
    violation_fails = (not violation.passed and abs(
        -violation.margin(violation.verdict[5:]).min - 0.2) < 1e-12)
    flat = cv.constant_curve(2.0, (0.0, 1.0))
    mk = lambda: gl.BoundaryProfile(3, "warped-sphere",
                                    {"warp": flat, "descriptor": "c"},
                                    {"all": 0.0})
    graph = gl.PipelineGraph(
        [gl.PipelineNode("a", "block", {"f": mk()}),
         gl.PipelineNode("b", "block", {"f": mk()})],
        [gl.PipelineEdge(("a", "f"), ("b", "f"), "smooth-match",
                         junction={"src": 1.0, "dst": 0.0})])
    flat_match_passes = gl.assemble_pipeline(graph)["passed"]
    cov_ok = True
    base = gl.check_perelman(prof(0.15), prof(0.12))
    for R in (0.5, 2.0, 7.5):
        scaled = gl.check_perelman(prof(0.15).rescale(R),
                                   prof(0.12).rescale(R))
        for m1, m2 in zip(base.margins, scaled.margins):
            if m1.label.startswith("ii_sum"):
                cov_ok = cov_ok and abs(m2.min - m1.min / R) \
                    <= 1e-12 * (1 + abs(m1.min))
    report(11, "gluing checkers: violations fail, matches pass, "
               "rescale covariance",
           geodesic_pass and violation_fails and flat_match_passes
           and cov_ok)


def test_12_end_to_end_pipeline():
    start = time.time()
    result = sc.run_reference_pipeline()
    elapsed = time.time() - start
    checked = [e for e in result["edges"] if e["checked"]]
    all_checked_pass = all(e["report"].passed for e in checked)
    report(12, "decomposition pipeline with default found parameters",
           result["passed"] and all_checked_pass and elapsed < 600.0,
           f"{len(checked)} checked edges, {len(result['assumed'])} "
           f"assumed, blocks {result['blocks']}, {elapsed:.0f}s")
