"""The curvature-transfer cylinder: a coupled warping ODE system whose
solution trades fibre convexity for base convexity, plus a feasibility
scan over the admissible (a, C) box.

Run:  python demos/demo_transfer.py
"""

from warpbench import (build_transfer_block, integrate_transfer_odes,
                       transfer_ode_residuals, ParamBox, scan)

C = 0.5
h0, fc = integrate_transfer_odes(C)
ts = h0.nodes[0]
print(f"warping system at C = {C} on [0, {ts[-1]:g}]: tabulated from its "
      f"Taylor series in g - 1 on {len(ts) - 1} node intervals")
res = transfer_ode_residuals(h0, fc, C)
print("  node residuals " + ", ".join(f"{k}={v:.1e}"
                                      for k, v in res.items()))
for t in (0.0, 5.0, 20.0, 60.0, ts[-1]):
    print(f"  t={t:6.1f}  h0={h0(t):.4f}  h0'={h0(t, 1):.4f}  "
          f"fC={fc(t):8.3f}  fC'={fc(t, 1):.4f}")

print("\nbuilding the transfer block (fibre dim 2 over base dim 3):")
rep = build_transfer_block(p=2, q=3, r0=0.1, nu=1.5, lam=0.5, a=0.2, C=0.5)
print(f"verdict: {rep.verdict}")
for m in rep.margins:
    print(f"  {m.label:22s} {m.min: .5g}")
print(f"aux: t0={rep.aux['t0']:.3f}  r1={rep.aux['r1']:.5f}  "
      f"R={rep.aux['R']:.3f}  ode_steps={rep.aux['ode_steps']}")

print("\nthe reported fibre scale r1 shrinks with the warp amplitude a:")
for a in (0.28, 0.24, 0.2):
    r = build_transfer_block(p=2, q=3, r0=0.1, nu=2.5, lam=0.5, a=a, C=0.5)
    print(f"  a={a:.2f} -> r1={r.aux['r1']:.5f} ({r.verdict})")

print("\nbrute scan over the (a, C) box (slope target 0.5):")
box = ParamBox({"a": (0.0, 0.2, "("), "C": (0.0, 0.5, "(")},
               {"a": 4, "C": 4})
cert = scan(box, "transfer", budget=20, fixed={"nu": 1.5})
print(f"  {len(cert.entries)} passing samples out of "
      f"{cert.grid['evaluated']}")
if cert.best:
    print(f"  best: {cert.best.params} margin {cert.best.min_margin:.3g}")
