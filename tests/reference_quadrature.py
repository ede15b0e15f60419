"""Test-side references: the Simpson doubling rule that `tglab.leakage.integrate`
used before its Gauss-Legendre panels and the per-point E(F^2) it gave,
composite-Simpson quadrature on the square [0, t_max]^2, Gauss-Legendre rules
that follow the structure of an integrand (the density of t1 - t2, the union
knots of two tabulations), and the dense midpoint grid of the
distribution-level metrics.

`tglab.leakage.integrate` integrates a batch of integrands at once by
composite 16-point Gauss-Legendre on equal panels, doubling their number.
simpson_doubling is the rule it replaced, for one integrand: composite Simpson
panels doubling from 64, every node of each level evaluated afresh (the
library's batched version evaluated only the new ones).  per_point_expected_f_sq
is `expected_f_sq` on that rule, one pair of integrals per tilt pair.

The library reduces E(F^2) and its series to 1-d integrals over t1 - t2
(tglab.metrics); this independent tensor-product Simpson rule checks them
against their 2-d definitions, and checks the closed forms.  It doubles the panels per axis from 64 until two grids
agree to the relative tolerance rtol, up to 2^13 panels.

For two critically damped profiles the library reads `compare_strategies`
and `fidelity_histogram` off the closed-form law of D = t1 - t2.  The
Gauss-Legendre references below integrate the density of D instead, on panels
that halve towards both ends of each interval, split at D = 0 and at the
window edges, with F = 1/(2 cosh((S + x)/2)) written out afresh; gl_expected_f_sq
takes E(F^2) the same way, to rounding.  segment_overlap integrates the overlap
of two tabulations segment by segment between their union knots, where both
densities are linear, so no panel straddles a kink.

Every other pair the library reads off a binned law of S.  The midpoint grid
below is the path that law replaced: the product measure in profile-CDF
coordinates, where every cell carries equal mass, F from per-axis density
ratios in row blocks (grid_sum, with grid_window_sums for `compare`).  The
dense path builds the full nodes x nodes X, Y and F arrays from outer products
of the densities instead.  binned_law_terms reads a built binned law whole, with
no blocks: every cell's two Gauss-Legendre points and every atom pair as one
list of weights and values of w = e^S, one kernel call each.
"""

import math

import numpy as np

from tglab.errors import QuadratureError
from tglab.heralding import big_thetas
from tglab.leakage import BLOCK_CELLS, Tabulated, critically_damped_difference_density
from tglab.metrics import MAX_F, MODES, first_attempt_success
from tglab.tilted_graph import QUARTER_PI

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
    from 64 until two levels agree to rtol, up to 2^21 panels (the library's rule
    before Gauss-Legendre panels)."""
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


def profile_mass(p) -> float:
    """A profile's mass from its densities: 1 for a critically damped one, the
    trapezoid sum of its table for a tabulated one."""
    return float(np.trapezoid(p.densities, p.times)) if isinstance(p, Tabulated) else 1.0


def grid_sum(theta_a, theta_b, pa, pb, nodes, per_block):
    """Sum of per_block(F), additive over cells, on both product-measure components
    of a pair, each weighted by its cell mass.  F = 1/(w + 1/w) with w = sqrt(X/Y), a
    row factor sqrt(P_A / P_B)(t1) sqrt(Theta_1 / Theta_2) times a column factor
    sqrt(P_B / P_A)(t2), in row blocks of at most BLOCK_CELLS cells that reuse two
    buffers.  Rows and columns where a density vanishes, and every cell when a Theta
    does, hold F = 0: their cells are counted, not built.  The rows are chosen on the
    densities alone, so a Theta P that underflows while P > 0 still builds its row.

    For Theta_1 = Theta_2 the B x A component is the mirror of A x B: its w is 1/w
    of the transposed cell, F(w) = F(1/w), and its cell mass and zero-cell count are
    A x B's.  So A x B alone is built, weighted by Theta_1 + Theta_2.
    """
    th1, th2 = big_thetas(theta_a, theta_b)
    u = (np.arange(nodes) + 0.5) / nodes
    total = 0.0 * per_block(np.zeros(1))                 # a zero of per_block's shape
    parts = ((pa, pb, th1 + th2),) if th1 == th2 else ((pa, pb, th1), (pb, pa, th2))
    ratio = math.sqrt(th1 / th2) if th1 > 0.0 and th2 > 0.0 else 0.0    # 0: F = 0 everywhere
    for p1, p2, th in parts:
        if th == 0.0:
            continue
        t1 = p1.inverse_cdf(u)
        t2 = p2.inverse_cdf(u)
        a, b, c, d = pa.density(t1), pb.density(t1), pb.density(t2), pa.density(t2)
        rows, cols = (a > 0.0) & (b > 0.0) & (ratio > 0.0), (c > 0.0) & (d > 0.0)
        rows = np.sqrt(a[rows]) / np.sqrt(b[rows]) * ratio
        cols = np.sqrt(c[cols]) / np.sqrt(d[cols])
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
        total = total + acc * (th * profile_mass(p1) * profile_mass(p2) / nodes**2)
    return total


def grid_window_sums(pa, pb, threshold: float, nodes: int):
    """(window mass, out-of-window successes of each of MODES) on the grid, one pass."""
    def window_sums(f):         # [cells in the window, each mode's successes outside it]
        out = f[f <= threshold]     # F is never NaN: every column built has c > 0
        return np.array([f.size - out.size]
                        + [first_attempt_success(out, mode).sum() for mode in MODES])
    p_post, *p_outs = map(float, grid_sum(QUARTER_PI, QUARTER_PI, pa, pb, nodes, window_sums))
    return p_post, p_outs


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
        yield f.ravel(), th * profile_mass(p1) * profile_mass(p2) / nodes**2


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


_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_HALVINGS = 2.0 ** -np.arange(30, 0, -1)
_CUTS = np.concatenate([[0.0], _HALVINGS, 1.0 - _HALVINGS[-2::-1], [1.0]])


def _gl_interval_sums(f, lo, hi):
    """Integral of a vectorised f over each [lo_k, hi_k]: 32-node Gauss-Legendre on
    panels that halve towards both ends, down to 2^-30 of the interval."""
    a = lo[:, None] + (hi - lo)[:, None] * _CUTS[:-1]
    b = lo[:, None] + (hi - lo)[:, None] * _CUTS[1:]
    half = (0.5 * (b - a))[..., None]
    t = (0.5 * (a + b))[..., None] + half * _GL_X
    return (half * _GL_W * f(t)).sum(axis=(-1, -2))


def difference_integrals(pa, pb, lo, hi, f=None):
    """int over [lo_k, hi_k] of the density of D = T_A - T_B (times f(D) if given)
    for two critically damped profiles, split at D = 0 and clipped to the support."""
    lo, hi = np.atleast_1d(np.asarray(lo, float)), np.atleast_1d(np.asarray(hi, float))
    total = np.zeros(lo.shape)
    for g1, g2, sign, t_max in ((pa.g, pb.g, 1.0, pa.t_max), (pb.g, pa.g, -1.0, pb.t_max)):
        # the side of sign D, as r = sign D in [0, t_max]
        r_lo = np.clip(np.minimum(sign * lo, sign * hi), 0.0, t_max)
        r_hi = np.clip(np.maximum(sign * lo, sign * hi), 0.0, t_max)

        def integrand(r, g1=g1, g2=g2, sign=sign):
            dens = critically_damped_difference_density(g1, g2, r)
            return dens if f is None else dens * f(sign * r)
        for k in range(0, lo.size, 64):
            part = slice(k, k + 64)
            total[part] += _gl_interval_sums(integrand, r_lo[part], r_hi[part])
    return total


def gl_compare_strategies(pa, pb, epsilon, mode):
    """(p_postselect, p_outside_window, p_total, p_outside_only) of a critically
    damped pair, from Gauss-Legendre integrals over D split at the window edges."""
    total = sum(big_thetas(math.pi / 4, math.pi / 4))
    slope = 2.0 * (pb.g - pa.g)
    threshold = MAX_F - epsilon
    if threshold <= 0.0:
        return total, total, 2.0 * total, 0.0
    edge = 2.0 * math.acosh(1.0 / (2.0 * threshold)) / abs(slope)

    def success(d):
        with np.errstate(over="ignore"):                 # cosh overflows: F = 0
            f2 = (1.0 / (2.0 * np.cosh(0.5 * slope * d))) ** 2
        return 3.0 * f2 if mode == "3f2" else 2.0 * f2 + 2.0 * f2**2 / (1.0 - 2.0 * f2)

    p_post = total * float(difference_integrals(pa, pb, -edge, edge)[0])
    p_out = total * float(difference_integrals(pa, pb, [-math.inf, edge], [-edge, math.inf],
                                               success).sum())
    return p_post, p_post + p_out, 2.0 * p_post + p_out, p_out


def gl_fidelity_histogram(theta_a, theta_b, pa, pb, bins):
    """The bin masses of `fidelity_histogram` for a critically damped pair of
    distinct couplings: each bin's two z-intervals, z = S + log(Theta_1/Theta_2),
    mapped to D in each mixture component and integrated by Gauss-Legendre."""
    th1, th2 = big_thetas(theta_a, theta_b)
    edges = np.linspace(0.0, MAX_F, bins + 1)
    masses = np.zeros(bins)
    if th1 == 0.0 or th2 == 0.0:                     # X or Y vanishes: F = 0
        masses[0] = th1 + th2
        return masses
    with np.errstate(divide="ignore"):
        z = 2.0 * np.arccosh(1.0 / (2.0 * edges))
    x = math.log(th1 / th2)
    slope = 2.0 * (pb.g - pa.g)
    # A x B has S = slope D, B x A (D mirrored) S = -slope D
    for th, s in ((th1, slope), (th2, -slope)):
        for z_lo, z_hi in ((z[1:], z[:-1]), (-z[:-1], -z[1:])):
            d1, d2 = (z_lo - x) / s, (z_hi - x) / s
            masses += th * difference_integrals(pa, pb, np.minimum(d1, d2), np.maximum(d1, d2))
    return masses


def gl_expected_f_sq(theta_a, theta_b, pa, pb) -> float:
    """E(F^2) of a critically damped pair for one tilt pair: the density of
    D = T_A - T_B against Theta_2 sigma(log(Theta_1/Theta_2) - 2 (g_B - g_A) D), that
    is Theta_1 Theta_2 / (Theta_1 + Theta_2 w) with w = V/U, by difference_integrals."""
    th1, th2 = big_thetas(theta_a, theta_b)
    if th1 == 0.0 or th2 == 0.0:
        return 0.0
    shift, slope = math.log(th1 / th2), 2.0 * (pb.g - pa.g)

    def kernel(d):
        return th2 * np.exp(-np.logaddexp(0.0, slope * d - shift))
    return float(difference_integrals(pa, pb, -math.inf, math.inf, kernel)[0])


def segment_overlap(pa, pb) -> float:
    """int sqrt(P_A P_B) dt of two tabulated profiles: 32-node Gauss-Legendre on
    each segment between their union knots, where both densities are linear."""
    t = np.union1d(pa.times, pb.times)
    half = 0.5 * np.diff(t)[:, None]
    nodes = t[:-1, None] + half * (_GL_X + 1.0)
    return float((half * _GL_W * np.sqrt(pa.density(nodes) * pb.density(nodes))).sum())


def binned_law_terms(law):
    """(weights, w) of metrics._TabulatedLaw `law` over all of S, unblocked: the two
    Gauss-Legendre points of every hat cell (whose edges include S = 0), then every
    atom pair, so that E[kernel(w)] = (weights * kernel(w)).sum(-1)."""
    h, hats, tilts = law.h, law.hats, law.tilts
    cells = hats.size - 1
    u = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])[:, None]
    s = -0.5 * cells * h + h * (np.arange(cells) + u)
    dens = 0.5 * (hats[:-1] + (hats[1:] - hats[:-1]) * u
                  + (6.0 / h) * (tilts[:-1] - tilts[1:]) * u * (1.0 - u))
    pairs = np.multiply.outer(law.atoms_a, law.atoms_b).ravel()
    return (np.concatenate([dens.ravel(), pairs]),
            np.exp(np.concatenate([s.ravel(), np.subtract.outer(law.pos, law.pos).ravel()])))
