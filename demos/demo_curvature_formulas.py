"""Closed-form curvature of doubly warped products, cross-checked against
the finite-difference Ricci oracle.

Run:  python demos/demo_curvature_formulas.py
"""

import numpy as np

from warpbench import (DoublyWarpedMetric, doubly_warped_sweep,
                       oracle_cross_check, sine_curve, cosine_curve,
                       slice_II)

PI = np.pi

# The warp pair (sin, cos) on [0, pi/2] closes both sphere factors and
# produces the unit round sphere: every sectional curvature is 1 and the
# Ricci tensor is (dim - 1) times the metric.
f = sine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
h = cosine_curve(1.0, 1.0, 0.0, (0.0, PI / 2))
round_s5 = DoublyWarpedMetric(2, 2, f, h, collapse_start="f",
                              collapse_end="h")

ts = np.linspace(0.0, PI / 2, 2048)
sweep = doubly_warped_sweep(round_s5, ts)
print("unit round sphere from the (sin, cos) warp pair")
for key in ("sec_tu", "sec_uv", "sec_vv", "ric_tt"):
    vals = sweep[key]
    print(f"  {key:8s}: min {vals.min(): .12f}  max {vals.max(): .12f}")

print("\nslice principal curvatures at t = pi/4 "
      "(cot and -tan of the angle):")
print(f"  {slice_II(round_s5, PI / 4)}")

# The oracle recomputes the Ricci tensor from nothing but the coordinate
# metric via finite differences of Christoffel symbols; agreement to
# relative 1e-4 is the acceptance bar, typical agreement is ~1e-5.
rep = oracle_cross_check(round_s5, n_points=20, seed=0)
print(f"\nfinite-difference oracle, 20 random chart points: "
      f"worst relative error {rep['max_rel_error']:.2e}")

# A generic cylinder metric (no collapse): the formulas hold for any
# positive warps, and the oracle agrees there too.
dom = (0.3, 1.2)
from warpbench.curves import curve_from_derivs
fg = curve_from_derivs(dom, lambda t: 1.2 + 0.3 * np.cos(t),
                       lambda t: -0.3 * np.sin(t),
                       lambda t: -0.3 * np.cos(t),
                       lambda t: 0.3 * np.sin(t))
hg = curve_from_derivs(dom, lambda t: 1.5 + 0.2 * np.sin(t),
                       lambda t: 0.2 * np.cos(t),
                       lambda t: -0.2 * np.sin(t),
                       lambda t: -0.2 * np.cos(t))
generic = DoublyWarpedMetric(2, 3, fg, hg)
rep = oracle_cross_check(generic, n_points=20, seed=1)
print(f"generic cylinder metric, 20 points:          "
      f"worst relative error {rep['max_rel_error']:.2e}")
