"""An independent reference for the transfer warping system: classical
fourth-order Runge-Kutta (RK4) steps on a uniform grid, in Python floats.

The package tabulates the system from its exact series
(``curves.integrate_transfer_odes``); the tests compare those tables with
this integrator's nodes."""

import functools

import numpy as np

from warpbench import curves as cv


@functools.lru_cache(maxsize=None)
def rk4_nodes(C, t_max, n):
    """(g, F, F') at the n + 1 nodes of ``linspace(0, t_max, n + 1)``, from
    n RK4 steps of g' = e^{-g^2/2}, F'' = C e^{-g^2} F with g(0) = F(0) = 1
    and F'(0) = 0, as an (n + 1, 3) array.

    numpy's exp is used, converted back to float, so that with the
    operation order of the elementwise array form of RK4 (stage k =
    (e^{-g^2/2}, F', C e^{-g^2} F)) the nodes are bitwise those of that
    form.  Kept per (C, t_max, n) for the session, read-only, since the
    fine reference tables take about 0.4 s each."""
    h = t_max / n
    hh = 0.5 * h
    h6 = h / 6.0
    exp = np.exp
    ys = np.empty((n + 1, 3))
    g, F, P = 1.0, 1.0, 0.0
    ys[0] = (g, F, P)
    flat = memoryview(ys.reshape(-1))   # item writes beat row assignment
    for j in range(3, 3 * n + 3, 3):
        a1, c1 = float(exp(-0.5 * g * g)), C * float(exp(-g * g)) * F
        g2, F2, P2 = g + hh * a1, F + hh * P, P + hh * c1
        a2, c2 = float(exp(-0.5 * g2 * g2)), C * float(exp(-g2 * g2)) * F2
        g3, F3, P3 = g + hh * a2, F + hh * P2, P + hh * c2
        a3, c3 = float(exp(-0.5 * g3 * g3)), C * float(exp(-g3 * g3)) * F3
        g4, F4, P4 = g + h * a3, F + h * P3, P + h * c3
        a4, c4 = float(exp(-0.5 * g4 * g4)), C * float(exp(-g4 * g4)) * F4
        g, F, P = (g + h6 * (a1 + 2 * a2 + 2 * a3 + a4),
                   F + h6 * (P + 2 * P2 + 2 * P3 + P4),
                   P + h6 * (c1 + 2 * c2 + 2 * c3 + c4))
        flat[j], flat[j + 1], flat[j + 2] = g, F, P
    ys.flags.writeable = False
    return ys


def rk4_curves(C, t_max, n):
    """(g, F) as table curves on the n-step RK4 nodes, their higher
    derivative columns from the right-hand side, as the package's tables
    carry them."""
    ys = rk4_nodes(C, t_max, n)
    ts = np.linspace(0.0, t_max, n + 1)
    g, fc, fcp = ys[:, 0], ys[:, 1], ys[:, 2]
    e_half = np.exp(-0.5 * g * g)
    e_full = np.exp(-g * g)
    return (cv.table_curve(ts, (g, e_half, -g * e_full,
                                e_half * e_full * (2.0 * g * g - 1.0))),
            cv.table_curve(ts, (fc, fcp, C * e_full * fc,
                                C * e_full * (fcp - 2.0 * g * e_half * fc))))
