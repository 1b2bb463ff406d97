"""The residual checker: the closed-form soliton substituted into the
Hirota-Satsuma equations, with derivatives by finite differences.

A test helper, not a test module (pytest collects only ``test_*.py``).
Criterion 9 of the acceptance gate and the ``test_residual_*`` tests in
``test_analytic.py`` use it.
"""

from typing import Callable

import numpy as np

from ckdv.analytic import SolitonParams, hs_soliton


# fourth-order centered stencils used by the residual check
def _d1(f: Callable[[float], np.ndarray], u: float, delta: float) -> np.ndarray:
    return (-f(u + 2 * delta) + 8 * f(u + delta) - 8 * f(u - delta) + f(u - 2 * delta)) / (
        12.0 * delta
    )


def _d3(f: Callable[[float], np.ndarray], u: float, delta: float) -> np.ndarray:
    return (
        f(u - 3 * delta)
        - 8 * f(u - 2 * delta)
        + 13 * f(u - delta)
        - 13 * f(u + delta)
        + 8 * f(u + 2 * delta)
        - f(u + 3 * delta)
    ) / (8.0 * delta**3)


def verify_residual(p: SolitonParams, x, t: float, delta: float = 1e-3):
    """Residuals of the closed form in both Hirota-Satsuma equations.

    Derivatives are taken with fourth-order centered differences of spacing
    ``delta``, so a genuine solution returns residuals at the truncation
    level (~delta^4 times fifth derivatives) rather than zero. Works on
    scalar or array ``x``; returns the pair (r1, r2).
    """
    x = np.asarray(x, dtype=float)
    f_t = _d1(lambda tv: hs_soliton(x, tv, p), t, delta)
    f_x = _d1(lambda xv: hs_soliton(xv, t, p), x, delta)
    f_xxx = _d3(lambda xv: hs_soliton(xv, t, p), x, delta)
    th1, th2 = hs_soliton(x, t, p)

    r1 = f_t[0] - 0.25 * f_xxx[0] - 1.5 * th1 * f_x[0] + 3.0 * th2 * f_x[1]
    r2 = f_t[1] + 0.5 * f_xxx[1] + 1.5 * th1 * f_x[1]
    if x.ndim == 0:
        return float(r1), float(r2)
    return r1, r2
