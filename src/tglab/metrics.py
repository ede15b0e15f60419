"""Gate-quality expectations, series machinery, and the strategy comparison.

With X and Y the joint click-density terms (see heralding), one double
heralding application has gate fidelity excess F = sqrt(X Y) / (X + Y)
(the state fidelity is f = 1/2 + F), and

    E(F)   = sqrt(Theta_1 Theta_2) (int sqrt(P_A P_B) dt)^2
    E(F^2) = int int Theta_1 Theta_2 U V / (Theta_1 U + Theta_2 V) dt1 dt2

with U = P_A(t1) P_B(t2), V = P_B(t1) P_A(t2).  E(F^2) admits alternating
series in either of two tilt regions,

    E(F^2) = Theta_pre sum_n (-1)^n K^n I_n,      K = Theta_pre/Theta_other - 1,
    I_n = int int (U V/(U+V)) (V/(U+V))^n dt1 dt2,

convergent where |K| < 1 (the R_I region tan^2 theta_b < 2 tan^2 theta_a
carries prefactor Theta_1, R_J the mirror image); I_1 = I_0 / 2 makes the
first-order form Theta_L (1 - K/2) I_0 integration-free up to I_0.

Divided by V, each integrand is a function of w = V/U alone, under the density
V (t1 ~ P_B, t2 ~ P_A): Theta_1 Theta_2 / (Theta_1 + Theta_2 w) for E(F^2),
(1/(1 + w)) (1/(1 + 1/w))^n for I_n and (1/(1 + w))^(n+1) for J_n (U for V in
I_n's numerator).  For critically damped profiles w = e^(-S), S = 2 (g_B - g_A)
(t1 - t2), so each is a 1-d integral over the difference of two Gamma(3) click
times; E(F^2) and its series take no other profile pair.  Each is one batched
`leakage.integrate` call per sign of t1 - t2, over every tilt pair of an
`expected_f_sq` call or every order of a `series_moments` call: nested Simpson
levels, new nodes only, at most BLOCK_CELLS integrand values at once.

Distribution-level quantities (the fidelity histogram and the post-selection
comparison) integrate over the exact product-measure mixture decomposition
of Q12 in profile-CDF coordinates, where every midpoint cell carries equal
mass; a few thousand nodes per axis resolve the 1e-4 fidelity window.  F on
the grid comes from per-axis density ratios, in row blocks of at most
BLOCK_CELLS = 2^16 cells; rows and columns where a density vanishes hold F = 0,
counted, not built.  One grid pass serves every first-attempt success mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .heralding import DhContext, big_thetas, joint_terms
from .leakage import (BLOCK_CELLS, RELATIVE_TOLERANCE, CriticallyDamped, LeakageProfile,
                      critically_damped_difference_density, integrate, overlap_integral)
from .tilted_graph import QUARTER_PI

MAX_F = 0.5
MODES = ("3f2", "exact")       # first-attempt success models


@dataclass(frozen=True)
class ExpectationResult:
    value: float
    method: str
    estimated_error: float


@dataclass(frozen=True)
class SeriesTerms:
    i_values: tuple
    region: str              # "R_I" (prefactor Theta_1) or "R_J" (Theta_2)


@dataclass(frozen=True)
class FidelityHistogram:
    edges: np.ndarray
    masses: np.ndarray

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


@dataclass(frozen=True)
class ComparisonReport:
    """First-attempt comparison of post-selection against the adaptive strategy.

    p_postselect is the window mass.  p_outside_window is the full
    first-attempt success probability of the adaptive strategy, counting
    within-window segments as deterministic successes; p_outside_only is the
    plain out-of-window contribution (it vanishes as the window grows).  So
    p_total = p_postselect + p_outside_window = 2 p_postselect + p_outside_only,
    as the paper's Section IV figures (3.3% / 35.7% / 39.0%) pin.
    """

    p_postselect: float
    p_outside_window: float
    p_total: float
    p_outside_only: float
    epsilon: float
    mode: str


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------

def expected_f(theta_a: float, theta_b: float, pa: LeakageProfile,
               pb: LeakageProfile) -> ExpectationResult:
    """Closed form for E(F): the tilt factor times the profile overlap squared."""
    th1, th2 = big_thetas(theta_a, theta_b)
    value = math.sqrt(th1 * th2) * overlap_integral(pa, pb) ** 2
    return ExpectationResult(value, "closed-form", 2.0 * RELATIVE_TOLERANCE * value)


def _expectation_v(kernel, pa, pb, what: str):
    """E_V[kernel(w)] for two critically damped profiles: w = V/U = e^(-S) with
    S = 2 (g_B - g_A) D and D = t1 - t2, one integral over |D| per sign of D, so
    each is smooth.  kernel maps a 1-d array w to shape (..., len(w)), a batch
    integrated at once; it must take its limits at w = inf and w = 0.
    """
    if not (isinstance(pa, CriticallyDamped) and isinstance(pb, CriticallyDamped)):
        raise QuadratureError(f"{what} needs two critically damped profiles, got {pa!r}, {pb!r}")
    slope = 2.0 * (pb.g - pa.g)
    with np.errstate(over="ignore", divide="ignore"):   # e^(-S) overflows, 1/w for w = 0
        above = integrate(lambda r: critically_damped_difference_density(pb.g, pa.g, r)
                          * kernel(np.exp(-slope * r)), pb.t_max)
        below = integrate(lambda r: critically_damped_difference_density(pa.g, pb.g, r)
                          * kernel(np.exp(slope * r)), pa.t_max)
    return above + below


def _thetas(theta_a, theta_b):
    """(Theta_1, Theta_2) as arrays broadcast over finite tilts, from big_thetas."""
    if not (np.all(np.isfinite(theta_a)) and np.all(np.isfinite(theta_b))):
        raise QuadratureError("tilts must be finite")
    return np.vectorize(big_thetas, otypes=[float, float])(theta_a, theta_b)


def expected_f_sq(theta_a, theta_b, pa: LeakageProfile,
                  pb: LeakageProfile) -> ExpectationResult:
    """E(F^2) = E_V[Theta_1 Theta_2 / (Theta_1 + Theta_2 w)] (critically damped pair).

    Tilts may be arrays, broadcast together; one batched integral covers every
    entry.  The value is a float for scalar tilts and an ndarray otherwise;
    entries with Theta_1 = 0 or Theta_2 = 0 are 0.
    """
    th1, th2 = _thetas(theta_a, theta_b)
    live = (th1 > 0.0) & (th2 > 0.0)
    value = np.zeros(th1.shape)
    if live.any():
        a, b = th1[live][:, None], th2[live][:, None]
        value[live] = _expectation_v(lambda w: a * b / (a + b * w), pa, pb, "E(F^2)")
    value = float(value) if value.ndim == 0 else value
    return ExpectationResult(value, "quadrature", 2.0 * RELATIVE_TOLERANCE * value)


def series_moments(pa: LeakageProfile, pb: LeakageProfile, max_order: int,
                   numerator: str = "V") -> np.ndarray:
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
    return _expectation_v(kernel, pa, pb, "series moments")


def _series_region(theta_a: float, theta_b: float) -> tuple[str, float, float]:
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


def efsq_series(theta_a: float, theta_b: float, pa: LeakageProfile, pb: LeakageProfile,
                order: int) -> tuple[ExpectationResult, SeriesTerms]:
    """Alternating-series evaluation of E(F^2) in the better-converging region."""
    region, prefactor, k = _series_region(theta_a, theta_b)
    moments = series_moments(pa, pb, order)
    powers = (-k) ** np.arange(order + 1)
    value = float(prefactor * np.dot(powers, moments))
    tail = prefactor * abs(k) ** (order + 1) * moments[-1] / max(1.0 - abs(k), 1e-12)
    return (ExpectationResult(value, f"series{order}", tail),
            SeriesTerms(tuple(moments), region))


def efsq_first_order(theta_a: float, theta_b: float, pa: LeakageProfile,
                     pb: LeakageProfile) -> ExpectationResult:
    """First-order form Theta_L (1 - K/2) I_0, exact on the diagonal.

    Up to the constant I_0 this is independent of the leakage profiles
    (I_1 = I_0/2 needs no extra integration).
    """
    th1, th2 = map(float, _thetas(theta_a, theta_b))
    th_l, th_s = max(th1, th2), min(th1, th2)
    if th_s == 0.0:
        return ExpectationResult(0.0, "series1", 0.0)
    i0 = float(series_moments(pa, pb, 0)[0])
    k = th_l / th_s - 1.0
    value = th_l * (1.0 - 0.5 * k) * i0
    return ExpectationResult(value, "series1", abs(th_l * 0.5 * k**2 * i0))


# ---------------------------------------------------------------------------
# Distribution-level quantities
# ---------------------------------------------------------------------------

def _grid_sum(theta_a, theta_b, pa, pb, nodes, per_block):
    """Sum of per_block(F), additive over cells, on both product-measure components,
    each weighted once by its cell mass.  F = 1/(w + 1/w) with w = sqrt(X/Y), a row
    factor sqrt(Theta_1 P_A / Theta_2 P_B)(t1) times a column factor sqrt(P_B / P_A)(t2),
    in row blocks of at most BLOCK_CELLS cells that reuse two buffers.  Rows and
    columns where a density vanishes hold F = 0: their cells are counted, not built.
    """
    if nodes < 1:
        raise QuadratureError(f"need at least 1 node per axis, got {nodes}")
    th1, th2 = big_thetas(theta_a, theta_b)
    u = (np.arange(nodes) + 0.5) / nodes
    total = 0.0 * per_block(np.zeros(1))                 # a zero of per_block's shape
    for p1, p2, th in ((pa, pb, th1), (pb, pa, th2)):
        if th == 0.0:
            continue
        t1 = p1.inverse_cdf(u)
        t2 = p2.inverse_cdf(u)
        a, b, c, d = th1 * pa.density(t1), th2 * pb.density(t1), pb.density(t2), pa.density(t2)
        rows, cols = (a > 0.0) & (b > 0.0), (c > 0.0) & (d > 0.0)
        rows, cols = np.sqrt(a[rows]) / np.sqrt(b[rows]), np.sqrt(c[cols]) / np.sqrt(d[cols])
        acc = per_block(np.zeros(1)) * (nodes**2 - rows.size * cols.size)   # F = 0 cells
        step = max(1, BLOCK_CELLS // max(1, cols.size))
        w, tmp = np.empty((2, min(step, rows.size), cols.size))
        for lo in range(0, rows.size, step):
            r = rows[lo:lo + step]
            with np.errstate(over="ignore"):             # w = inf only where F < 1e-300
                e = np.multiply.outer(r, cols, out=w[:r.size])
            np.divide(1.0, e, out=e, where=e > 1.0)      # e = min(w, 1/w)
            e /= np.add(1.0, np.square(e, out=tmp[:r.size]), out=tmp[:r.size])
            acc = acc + per_block(e.ravel())
        total = total + acc * (th * p1.total_mass * p2.total_mass / nodes**2)
    return total


def fidelity_histogram(theta_a: float, theta_b: float, pa: LeakageProfile, pb: LeakageProfile,
                       bins: int = 200, nodes: int = 1500) -> FidelityHistogram:
    """Mass of each F-bin under the joint click density (sub-normalised).  F comes
    from per-axis density ratios in blocks; its zero-density cells fall in bin 0."""
    if bins < 10:
        raise QuadratureError(f"need at least 10 fidelity bins, got {bins}")
    edges = np.linspace(0.0, MAX_F, bins + 1)
    masses = _grid_sum(theta_a, theta_b, pa, pb, nodes,
                       lambda f: np.histogram(np.clip(f, 0.0, MAX_F, out=f), bins=edges)[0])
    return FidelityHistogram(edges, masses)


def first_attempt_success(f, mode: str):
    """Probability that a merge/bridge of fidelity excess F succeeds first try.

    3f2 mode: the 3 F^2 approximation; exact mode: the method-(ii) outcome
    tree 2F^2 + 2F^4/(1-2F^2).
    """
    if mode not in MODES:
        raise QuadratureError(f"unknown comparison mode {mode!r}")
    f2 = np.square(np.asarray(f, dtype=float))
    if mode == "3f2":
        out = 3.0 * f2
    else:                       # 2 (F^2 + F^4 / (1 - 2 F^2)), few block-sized temporaries
        den = np.minimum(f2, 0.25)
        den *= -2.0
        den += 1.0
        out = np.square(f2)
        out /= den
        out += f2
        out *= 2.0
    return float(out) if np.ndim(out) == 0 else out


def compare_strategies(pa: LeakageProfile, pb: LeakageProfile, epsilon: float,
                       modes=MODES, nodes: int = 2000) -> list[ComparisonReport]:
    """Post-selection versus adaptive growth on the first merge/bridge attempt,
    one report per first-attempt success mode, in the order of modes.

    Both qubits enter untilted (theta = pi/4), as in the paper's Section IV.
    p_postselect is the window mass; p_outside_window adds the out-of-window
    first-attempt successes to it; p_total is their sum.  F comes from per-axis
    density ratios in blocks, one grid pass for all modes; its zero-density
    cells take the same window test.
    """
    if not 0.0 < epsilon < math.inf:
        raise QuadratureError(f"window width must be positive and finite, got {epsilon}")
    if isinstance(modes, str):
        raise QuadratureError(f"modes is a sequence of mode names, got the string {modes!r}")
    threshold = MAX_F - epsilon

    def window_sums(f):         # [cells in the window, each mode's successes outside it]
        win = f > threshold
        out = f[~win]
        return np.array([np.count_nonzero(win)]
                        + [first_attempt_success(out, mode).sum() for mode in modes])
    p_post, *p_outs = map(float, _grid_sum(QUARTER_PI, QUARTER_PI, pa, pb, nodes, window_sums))
    return [ComparisonReport(p_post, p_post + p_out, p_post + (p_post + p_out), p_out,
                             epsilon, mode) for mode, p_out in zip(modes, p_outs)]


def resource_ratio(p_gate: float, n: float) -> float:
    """Overhead factor p^(-log n) (natural logarithm), for relative reporting."""
    if not (0.0 < p_gate <= 1.0):
        raise QuadratureError(f"gate probability must lie in (0, 1], got {p_gate}")
    if not n > 1.0:
        raise QuadratureError(f"computation size must exceed 1, got {n}")
    return p_gate ** (-math.log(n))


def fidelity_value(theta_a: float, theta_b: float, pa: LeakageProfile, pb: LeakageProfile,
                   t1, t2):
    """F = sqrt(XY)/(X+Y) at given click times (vectorised), 0 where both terms vanish."""
    x, y = joint_terms(t1, t2, DhContext(theta_a, theta_b, pa, pb))
    out = np.sqrt(x * y) / np.where(x + y > 0.0, x + y, 1.0)
    return float(out) if np.ndim(out) == 0 else out
