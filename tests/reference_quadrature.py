"""Test-side references: the per-point doubling Simpson rule and the per-point
E(F^2) it gave, composite-Simpson quadrature on the square [0, t_max]^2, and
the dense midpoint grid of the distribution-level metrics.

`tglab.leakage.integrate` integrates a batch of integrands at once on nested
levels, evaluating only the new nodes of each level.  simpson_doubling is the
rule it replaced: one integrand, every node of each level evaluated again, a
fresh weighted sum per level.  per_point_expected_f_sq is `expected_f_sq` as it
was before the batch: one pair of such integrals per tilt pair.

The library reduces E(F^2) and its series to 1-d integrals over t1 - t2
(tglab.metrics); this independent tensor-product Simpson rule checks them
against their 2-d definitions, and checks the closed forms.  It doubles the panels per axis from 64 until two grids
agree to the relative tolerance rtol, up to 2^13 panels.

The library evaluates the fidelity grid of `compare_strategies` and
`fidelity_histogram` from per-axis density ratios, in row blocks.  The dense
path below builds the full nodes x nodes X, Y and F arrays from outer products
of the densities and adds up the same window and bin counts: the blocked grid
must reproduce its counts exactly, save where the dense X Y underflows (see
positive_cell_mass), and its sums to rounding.
"""

import math

import numpy as np

from tglab.errors import QuadratureError
from tglab.heralding import big_thetas
from tglab.leakage import critically_damped_difference_density
from tglab.metrics import MAX_F

_MAX_PANELS = 1 << 12


def _simpson_nodes(t_max: float, n: int):
    """Nodes and weights of the composite Simpson rule with n panels on [0, t_max]."""
    t = np.linspace(0.0, t_max, n + 1)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= t_max / n / 3.0
    return t, w


def _simpson_value(f, t_max: float, n: int) -> float:
    t, w = _simpson_nodes(t_max, n)
    return float(np.dot(w, np.asarray(f(t), dtype=float)))


def simpson_doubling(f, t_max: float, rtol: float = 1e-9) -> float:
    """Integral of a scalar integrand f over [0, t_max]: Simpson panels double
    from 64 until two levels agree to rtol, up to 2^21 panels."""
    n = 64
    prev = _simpson_value(f, t_max, n)
    while n <= 1 << 20:
        n *= 2
        cur = _simpson_value(f, t_max, n)
        if abs(cur - prev) <= rtol * max(abs(cur), abs(prev), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(f"Simpson doubling did not reach rtol={rtol} within {n} panels")


def per_point_expected_f_sq(theta_a, theta_b, pa, pb) -> float:
    """E(F^2) = Theta_2 E_V[sigma(S + log Theta_1/Theta_2)] for one tilt pair of
    a critically damped pair, by two simpson_doubling integrals over |t1 - t2|."""
    th1, th2 = big_thetas(theta_a, theta_b)
    if th1 == 0.0 or th2 == 0.0:
        return 0.0
    shift = math.log(th1 / th2)
    slope = 2.0 * (pb.g - pa.g)

    def sigmoid(z):
        return np.exp(-np.logaddexp(0.0, -z))

    above = simpson_doubling(lambda r: critically_damped_difference_density(pb.g, pa.g, r)
                             * sigmoid(slope * r + shift), pb.t_max)
    below = simpson_doubling(lambda r: critically_damped_difference_density(pa.g, pb.g, r)
                             * sigmoid(-slope * r + shift), pa.t_max)
    return th2 * (above + below)


def _simpson_2d(f, t_max: float, n: int) -> float:
    t, w = _simpson_nodes(t_max, n)
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


def dense_mixture_cells(theta_a, theta_b, pa, pb, nodes):
    """Yield (F values, per-cell mass) for both product-measure components,
    F = sqrt(X Y) / (X + Y) from dense outer products of the densities."""
    th1, th2 = big_thetas(theta_a, theta_b)
    u = (np.arange(nodes) + 0.5) / nodes
    for p1, p2, th in ((pa, pb, th1), (pb, pa, th2)):
        if th == 0.0:
            continue
        t1 = p1.inverse_cdf(u)
        t2 = p2.inverse_cdf(u)
        x = th1 * np.outer(pa.density(t1), pb.density(t2))
        y = th2 * np.outer(pb.density(t1), pa.density(t2))
        s = x + y
        with np.errstate(invalid="ignore", divide="ignore"):
            f = np.where(s > 0.0, np.sqrt(x * y) / np.where(s > 0.0, s, 1.0), 0.0)
        yield f.ravel(), th * p1.total_mass * p2.total_mass / nodes**2


def dense_fidelity_histogram(theta_a, theta_b, pa, pb, bins, nodes):
    """The bin masses of `fidelity_histogram` on the dense grid."""
    edges = np.linspace(0.0, MAX_F, bins + 1)
    masses = np.zeros(bins)
    for f, cell in dense_mixture_cells(theta_a, theta_b, pa, pb, nodes):
        hist, _ = np.histogram(np.clip(f, 0.0, MAX_F), bins=edges)
        masses += hist * cell
    return masses


def dense_compare_strategies(pa, pb, epsilon, mode, nodes):
    """(p_postselect, p_outside_window, p_total, p_outside_only) on the dense grid."""
    p_post = 0.0
    p_out = 0.0
    for f, cell in dense_mixture_cells(math.pi / 4, math.pi / 4, pa, pb, nodes):
        win = f > MAX_F - epsilon
        p_post += cell * int(np.count_nonzero(win))
        f = f[~win]
        success = 3.0 * f**2 if mode == "3f2" else (
            2.0 * f**2 + 2.0 * f**4 / (1.0 - np.minimum(2.0 * f**2, 0.5)))
        p_out += cell * float(success.sum())
    p_outside_window = p_post + p_out
    return p_post, p_outside_window, p_post + p_outside_window, p_out


def positive_cell_mass(pa, pb, nodes):
    """The mass of the untilted grid cells where Theta_1 P_A(t1), Theta_2 P_B(t1),
    P_B(t2) and P_A(t2) are all positive: the window F > 0 in exact arithmetic.
    The dense F is also 0 where X, Y or X Y underflows."""
    th1, th2 = big_thetas(math.pi / 4, math.pi / 4)
    u = (np.arange(nodes) + 0.5) / nodes
    mass = 0.0
    for p1, p2, th in ((pa, pb, th1), (pb, pa, th2)):
        t1 = p1.inverse_cdf(u)
        t2 = p2.inverse_cdf(u)
        rows = (th1 * pa.density(t1) > 0.0) & (th2 * pb.density(t1) > 0.0)
        cols = (pb.density(t2) > 0.0) & (pa.density(t2) > 0.0)
        cells = int(np.count_nonzero(np.outer(rows, cols)))
        mass += th * p1.total_mass * p2.total_mass / nodes**2 * cells
    return mass
