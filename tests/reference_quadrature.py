"""Test-side reference: composite-Simpson quadrature on the square [0, t_max]^2.

The library reduces E(F^2) and its series to 1-d integrals over t1 - t2
(tglab.metrics); this independent tensor-product Simpson rule checks them
against their 2-d definitions, and checks the closed forms.  It doubles the panels per axis from 64 until two grids
agree to the relative tolerance rtol, up to 2^13 panels.
"""

import numpy as np

from tglab.errors import QuadratureError

_MAX_PANELS = 1 << 12


def _simpson_2d(f, t_max: float, n: int) -> float:
    t = np.linspace(0.0, t_max, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= t_max / n / 3.0
    # the integrand must broadcast: t1 is a column, t2 a row
    vals = np.asarray(f(t[:, None], t[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (t.size, t.size))
    return float(w @ vals @ w)


def simpson_2d(f, t_max: float, rtol: float = 1e-9) -> float:
    """Integral of f(t1, t2) over [0, t_max]^2 to relative tolerance rtol."""
    n = 64
    prev = _simpson_2d(f, t_max, n)
    while n <= _MAX_PANELS:
        n *= 2
        cur = _simpson_2d(f, t_max, n)
        if abs(cur - prev) <= rtol * max(abs(cur), abs(prev), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(f"2-d Simpson did not reach rtol={rtol} within {n} panels")
