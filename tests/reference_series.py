"""Test-side references for the paper's alternating series of E(F^2) and its
resource-overhead ratio.

E(F^2) admits alternating series in either of two tilt regions,

    E(F^2) = Theta_pre sum_n (-1)^n K^n I_n,      K = Theta_pre/Theta_other - 1,
    I_n = int int (U V/(U+V)) (V/(U+V))^n dt1 dt2,

convergent where |K| < 1 (the R_I region tan^2 theta_b < 2 tan^2 theta_a
carries prefactor Theta_1, R_J the mirror image).  Divided by V, I_n's
integrand is (1/(1 + w)) (1/(1 + 1/w))^n and J_n's (U for V in I_n's
numerator) is (1/(1 + w))^(n+1), functions of w = V/U alone; `series_moments`
reads every order as one batched `expect` of the library's law of S, as
`expected_f_sq` reads E(F^2).  I_1 = I_0/2 makes `metrics.efsq_first_order`
integration-free up to I_0, which these series pin.
"""

import math
from dataclasses import dataclass

import numpy as np

from tglab.errors import QuadratureError
from tglab.metrics import ExpectationResult, _law, _thetas


@dataclass(frozen=True)
class SeriesTerms:
    i_values: tuple
    region: str              # "R_I" (prefactor Theta_1) or "R_J" (Theta_2)


def series_moments(pa, pb, max_order: int, numerator: str = "V") -> np.ndarray:
    """I_n (numerator "V") or J_n (numerator "U") moments up to max_order, all
    orders in one batched integral."""
    if numerator not in ("U", "V"):
        raise QuadratureError(f"series numerator must be 'V' or 'U', got {numerator!r}")
    if max_order < 0:
        raise QuadratureError(f"series order must be at least 0, got {max_order}")
    orders = np.arange(max_order + 1)[:, None]

    def kernel(w):              # U/(U + V) times (V or U)/(U + V) to the n
        up = 1.0 / (1.0 + w)
        return up * (1.0 / (1.0 + 1.0 / w) if numerator == "V" else up) ** orders
    return _law(pa, pb).expect(kernel)


def series_region(theta_a: float, theta_b: float) -> tuple[str, float, float]:
    """(region, prefactor, K) of the better-converging series."""
    th1, th2 = map(float, _thetas(theta_a, theta_b))
    if th1 == 0.0 or th2 == 0.0:
        raise QuadratureError("degenerate tilts lie outside both series regions")
    k_i = th1 / th2 - 1.0
    k_j = th2 / th1 - 1.0
    candidates = [("R_I", th1, k_i), ("R_J", th2, k_j)]
    valid = [c for c in candidates if abs(c[2]) < 1.0]
    if not valid:
        raise QuadratureError(
            f"tilts ({theta_a:.4g}, {theta_b:.4g}) lie outside both series regions (|K| >= 1)")
    return min(valid, key=lambda c: abs(c[2]))


def efsq_series(theta_a: float, theta_b: float, pa, pb,
                order: int) -> tuple[ExpectationResult, SeriesTerms]:
    """Alternating-series evaluation of E(F^2) in the better-converging region."""
    region, prefactor, k = series_region(theta_a, theta_b)
    moments = series_moments(pa, pb, order)
    powers = (-k) ** np.arange(order + 1)
    value = float(prefactor * np.dot(powers, moments))
    tail = prefactor * abs(k) ** (order + 1) * moments[-1] / max(1.0 - abs(k), 1e-12)
    return ExpectationResult(value, tail), SeriesTerms(tuple(moments), region)


def resource_ratio(p_gate: float, n: float) -> float:
    """Overhead factor p^(-log n) (natural logarithm), for relative reporting."""
    if not (0.0 < p_gate <= 1.0):
        raise QuadratureError(f"gate probability must lie in (0, 1], got {p_gate}")
    if not n > 1.0:
        raise QuadratureError(f"computation size must exceed 1, got {n}")
    return p_gate ** (-math.log(n))
