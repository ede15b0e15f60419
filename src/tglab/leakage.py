"""Calibrated photon-leakage densities of atom-cavity systems.

Conventions: hbar = 1, so the Jaynes-Cummings coupling g and the cavity
leakage rate kappa are inverse times and every density P(t) is a
probability per unit time on t >= 0.  A profile may carry total mass
below 1 to represent photon loss; sampling always renormalises.

The critically damped cavity (kappa = 4g) has the closed-form density
C(t, g) = 4 g^3 t^2 exp(-2 g t) for t > 0, which is the Gamma(3, 2g)
shape; CriticallyDamped(g).density evaluates it.  Arbitrary calibrated
profiles are supported through tabulation (linear interpolation inside the
grid, zero outside).

Sampling inverts a tabulated CDF, whose nodes and the overlap of two tabulated
profiles follow each profile's own knots.  A float quantile in [0, 1), as a
sampler draws, takes a scalar bisection path that equals np.interp bit for bit.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ProfileError, QuadratureError

_CDF_TABLE_SIZE = 8193
TABULATION_POINTS = 2**16 + 1  # where a pair with one tabulated side tabulates the other


@dataclass(frozen=True)
class CavityParams:
    """Jaynes-Cummings coupling strength and cavity leakage rate."""

    g: float
    kappa: float

    def __post_init__(self):
        if not (np.isfinite(self.g) and self.g > 0):
            raise ProfileError(f"coupling strength must be positive and finite, got {self.g}")
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ProfileError(f"cavity leakage rate must be positive and finite, got {self.kappa}")


def critically_damped_difference_density(g1: float, g2: float, r):
    """Density of T1 - T2 at r >= 0 (vectorised) for independent critically
    damped click times T1, T2 with couplings g1, g2; swap g1 and g2 for -r.

    With r_i = 2 g_i and c = r_1 + r_2 it is
    (r_1 r_2)^3 / 4 exp(-r_1 r) (2 r^2 / c^3 + 12 r / c^4 + 24 / c^5).
    """
    r1, r2 = 2.0 * g1, 2.0 * g2
    c = r1 + r2
    return (r1 * r2) ** 3 / 4.0 * np.exp(-r1 * r) * (2.0 * r * r + 12.0 * r / c + 24.0 / c**2) / c**3


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

class LeakageProfile:
    """Base class: a calibrated emission density P(t) with mass in (0, 1]."""

    def density(self, t):
        raise NotImplementedError

    @property
    def t_max(self) -> float:
        """Truncation point: integrated tail mass beyond it is < 1e-12."""
        raise NotImplementedError

    @cached_property
    def _inverse_cdf_table(self) -> "_CdfTable":
        return _CdfTable(self)

    def sample(self, rng: np.random.Generator, size=None):
        """Draw times from the renormalised density via the tabulated inverse CDF."""
        return self.inverse_cdf(rng.random(size))

    def cdf(self, t):
        """Renormalised cumulative distribution, linear between table nodes."""
        table = self._inverse_cdf_table
        return np.interp(t, table.grid, table.cdf)

    def inverse_cdf(self, u):
        """Quantile function of the renormalised density (tabulated).

        A Python or NumPy float u in [0, 1) takes a scalar path, np.interp's
        own arithmetic bit for bit; any other u goes to np.interp.
        """
        table = self._inverse_cdf_table
        if isinstance(u, float) and 0.0 <= u < 1.0:
            u, xp, fp = float(u), table.cdf_items, table.grid_items
            j = bisect_right(xp, u) - 1                 # xp[j] <= u < xp[j + 1]: xp ends at 1
            out = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]) * (u - xp[j]) + fp[j]
            return out if out == out else fp[j]     # an infinite slope times 0 at a knot
        return np.interp(u, table.cdf, table.grid)


class _CdfTable:
    """A profile's renormalised trapezoid CDF on _CDF_TABLE_SIZE uniform nodes of
    [0, t_max] and a Tabulated profile's own times: read-only arrays for
    np.interp, and memoryviews of the same bytes (items: Python floats) to bisect."""

    __slots__ = ("grid", "cdf", "grid_items", "cdf_items")

    def __init__(self, profile: LeakageProfile):
        t = np.linspace(0.0, profile.t_max, _CDF_TABLE_SIZE)
        if isinstance(profile, Tabulated):
            t = np.union1d(t, profile.times)
        p = profile.density(t)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(t))])
        if cdf[-1] <= 0.0:
            raise ProfileError("cannot sample from a zero-mass profile")
        cdf = cdf / cdf[-1]
        t.setflags(write=False)
        cdf.setflags(write=False)
        self.grid, self.cdf = t, cdf
        self.grid_items, self.cdf_items = memoryview(t), memoryview(cdf)


class CriticallyDamped(LeakageProfile):
    """Closed-form critically damped cavity profile, unit mass."""

    def __init__(self, g: float):
        if not 1e-100 <= g <= 1e100:       # so g^3 and (20/g)^2 are finite normal doubles
            raise ProfileError(f"coupling strength g must lie in [1e-100, 1e100], got {g}")
        self.g = float(g)

    def density(self, t):
        """4 g^3 t^2 exp(-2 g t) with a Heaviside cutoff at t = 0.

        Accepts scalar or ndarray t; rejects non-finite input.  A Python or NumPy
        float t in (0, inf) takes a scalar path (math.exp), equal to rounding.
        """
        g = self.g
        if isinstance(t, float) and 0.0 < t < math.inf:
            t = float(t)
            return 4.0 * g**3 * (t * t) * math.exp(-2.0 * g * t)
        t = np.asarray(t, dtype=float)
        if not np.all(np.isfinite(t)):
            raise ProfileError("non-finite time passed to CriticallyDamped.density")
        out = np.where(t > 0, 4.0 * g**3 * t**2 * np.exp(-2.0 * g * np.where(t > 0, t, 0.0)),
                       0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def t_max(self) -> float:
        # Gamma(3, 2g) survival at t = 20/g is ~4e-15.
        return 20.0 / self.g

    def __repr__(self):
        return f"CriticallyDamped(g={self.g})"


class Tabulated(LeakageProfile):
    """Profile given on a strictly ascending time grid starting at 0.

    Linear interpolation between grid points, implicit zero outside.
    """

    def __init__(self, times, densities):
        times = np.asarray(times, dtype=float)
        densities = np.asarray(densities, dtype=float)
        if times.ndim != 1 or times.shape != densities.shape or times.size < 2:
            raise ProfileError("tabulated profile needs matching 1-d time/density arrays of length >= 2")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(densities))):
            raise ProfileError("tabulated profile contains non-finite entries")
        if times[0] != 0.0:
            raise ProfileError("tabulated time grid must start at 0")
        if np.any(np.diff(times) <= 0):
            raise ProfileError("tabulated time grid must be strictly ascending")
        if np.any(densities < 0):
            raise ProfileError("tabulated densities must be non-negative")
        mass = float(np.trapezoid(densities, times))
        if mass <= 0.0:
            raise ProfileError("tabulated profile has zero mass")
        if mass > 1.0 + 1e-9:
            raise ProfileError(f"tabulated profile mass {mass} exceeds 1")
        self.times = times
        self.densities = densities
        self._mass = min(mass, 1.0)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.times, self.densities, left=0.0, right=0.0)
        return float(out) if out.ndim == 0 else out

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def __repr__(self):
        return f"Tabulated({self.times.size} points, mass={self._mass:.6g})"


def tabulate_profile(profile: LeakageProfile, points: int) -> Tabulated:
    """Any profile as a Tabulated one, sampled on `points` uniform nodes of [0, t_max]."""
    t = np.linspace(0.0, profile.t_max, points)
    return Tabulated(t, profile.density(t))


def as_tabulated(profile: LeakageProfile) -> Tabulated:
    """The profile if it is Tabulated, else its tabulation at TABULATION_POINTS: how a
    pair with a tabulated side, or any pair but two critically damped profiles, is read."""
    return profile if isinstance(profile, Tabulated) else tabulate_profile(profile, TABULATION_POINTS)


def load_profile_csv(path) -> Tabulated:
    """Load a two-column `time,density` CSV (UTF-8, BOM allowed, header row required).
    Any defect of the file, a check of Tabulated included, raises ProfileError
    with the path leading its message."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ProfileError("empty profile file")
            if [h.strip().lower() for h in header[:2]] != ["time", "density"]:
                raise ProfileError(f"expected header 'time,density', got {header!r}")
            times, densities = [], []
            for row in reader:
                if not row:
                    continue
                try:
                    times.append(float(row[0]))
                    densities.append(float(row[1]))
                except (ValueError, IndexError):
                    raise ProfileError(f"malformed row {row!r}") from None
        return Tabulated(times, densities)
    except UnicodeDecodeError as exc:
        raise ProfileError(f"{path}: not valid UTF-8 ({exc})") from None
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# Every library integral runs to this relative tolerance.  At most BLOCK_CELLS
# values are built at once: integrand values (batch elements times nodes) and
# oracle gathers.
RELATIVE_TOLERANCE = 1e-9
BLOCK_CELLS = 1 << 16

# The 16-point Gauss-Legendre rule on [0, 1].  Written out: a table computed at
# import loads numpy.polynomial or LAPACK, and their memory, into every run.
_GL_NODES = np.array([
    0.005299532504175033, 0.02771248846338371, 0.06718439880608412, 0.12229779582249849,
    0.19106187779867811, 0.2709916111713863, 0.35919822461037054, 0.4524937450811813,
    0.5475062549188188, 0.6408017753896295, 0.7290083888286137, 0.8089381222013219,
    0.8777022041775016, 0.9328156011939158, 0.9722875115366163, 0.994700467495825])
_GL_WEIGHTS = np.array([
    0.013576229705877048, 0.031126761969323947, 0.04757925584124639, 0.06231448562776694,
    0.07479799440828837, 0.08457825969750127, 0.09130170752246179, 0.09472530522753425,
    0.09472530522753425, 0.09130170752246179, 0.08457825969750127, 0.07479799440828837,
    0.06231448562776694, 0.04757925584124639, 0.031126761969323947, 0.013576229705877048])


def _panel_sum(f, t_max: float, panels: int, shape: tuple, chunk: int) -> np.ndarray:
    """The Gauss-Legendre rule on `panels` equal panels of [0, t_max], f evaluated
    chunk nodes at a time."""
    width, nodes = t_max / panels, panels * _GL_NODES.size
    total = np.zeros(shape)
    for lo in range(0, nodes, chunk):
        panel, k = np.divmod(np.arange(lo, min(nodes, lo + chunk)), _GL_NODES.size)
        vals = np.asarray(f((panel + _GL_NODES[k]) * width), dtype=float)
        if vals.shape != shape + k.shape:
            raise QuadratureError("integrand must return an array of shape (..., len(t)), "
                                  "the same batch shape on every call")
        total += (vals * _GL_WEIGHTS[k]).sum(axis=-1)
    return total * width


def integrate(f, t_max: float):
    """Deterministic integral of f over [0, t_max] to RELATIVE_TOLERANCE (1e-9).

    f must be vectorised: it maps a 1-d array t of times to values of shape
    (..., len(t)), the last axis being time, so one call integrates a whole
    batch of integrands; a scalar integrand is the batch of shape ().  The
    result has the batch shape: a float for a scalar integrand, else an ndarray.

    Composite 16-point Gauss-Legendre on equal panels, doubling from 8 panels
    (128 nodes), at most BLOCK_CELLS values per call of f.  The doubling stops
    when every element of two successive levels agrees,
    |cur - prev| <= 1e-9 max(|cur|, |prev|); disagreement still at 2^16 panels,
    after fewer than 2^21 nodes in all, raises QuadratureError.
    """
    if not (np.isfinite(t_max) and t_max > 0):
        raise QuadratureError(f"t_max must be positive and finite, got {t_max}")
    probe = np.asarray(f(np.array([0.5 * t_max])), dtype=float)
    if probe.shape[-1:] != (1,):
        raise QuadratureError("integrand must return an array of shape (..., len(t))")
    shape = probe.shape[:-1]
    chunk = max(1, BLOCK_CELLS // max(1, math.prod(shape)))
    n = 8
    prev = _panel_sum(f, t_max, n, shape, chunk)
    while n < 1 << 16:
        n *= 2
        cur = _panel_sum(f, t_max, n, shape, chunk)
        scale = np.maximum(np.maximum(abs(cur), abs(prev)), 1e-300)
        if np.all(abs(cur - prev) <= RELATIVE_TOLERANCE * scale):
            return float(cur) if cur.ndim == 0 else cur
        prev = cur
    raise QuadratureError(f"quadrature did not reach rtol={RELATIVE_TOLERANCE} within {n} panels")


# The 16-point rule after the substitution x = s^2 (3 - 2 s) on [0, 1], whose dx/ds
# vanishes at both ends: where a linear density falls to zero at a knot, sqrt(P_A P_B)
# has a square-root end in x but is smooth in s.
_KNOT_NODES = _GL_NODES**2 * (3.0 - 2.0 * _GL_NODES)
_KNOT_WEIGHTS = 6.0 * _GL_WEIGHTS * _GL_NODES * (1.0 - _GL_NODES)


def _cell_rule(cells: np.ndarray) -> np.ndarray:
    """int sqrt(P_A P_B) by the substituted rule over each cell where both densities
    are linear; `cells` has a column per cell: P_A at its left and right ends, the
    same for P_B, and its width.  At most BLOCK_CELLS values per block."""
    blocks = np.array_split(cells[:, :, None], -(-cells.shape[1] * _KNOT_NODES.size // BLOCK_CELLS), axis=1)
    return np.concatenate([(h * _KNOT_WEIGHTS * np.sqrt((a0 + (a1 - a0) * _KNOT_NODES)
                                                         * (b0 + (b1 - b0) * _KNOT_NODES))).sum(axis=1)
                           for a0, a1, b0, b1, h in blocks])


def overlap_integral(pa: LeakageProfile, pb: LeakageProfile) -> float:
    """Bhattacharyya overlap of two profiles, int sqrt(P_A P_B) dt in [0, 1].

    Two critically damped profiles read the closed form
    8 (g_A g_B)^{3/2} / (g_A + g_B)^3, written as (2 sqrt(g_A g_B) / (g_A + g_B))^3 so
    that it is 1 exactly when the couplings coincide.  Any other pair, each side
    through as_tabulated, is linear on each cell between the union knots and takes
    _cell_rule on each cell, halved until its halves agree with it to
    RELATIVE_TOLERANCE of their value plus the cell's width's share of the integral.
    """
    if isinstance(pa, CriticallyDamped) and isinstance(pb, CriticallyDamped):
        return (2.0 * math.sqrt(pa.g * pb.g) / (pa.g + pb.g)) ** 3
    pa, pb = as_tabulated(pa), as_tabulated(pb)
    knots, total = np.union1d(pa.times, pb.times), 0.0
    lo, hi = knots[:-1], knots[1:]
    # a density is zero past its last knot, so a cell starting there starts at 0
    cells = np.array([pa.density(lo) * (lo < pa.t_max), pa.density(hi),
                      pb.density(lo) * (lo < pb.t_max), pb.density(hi), hi - lo])
    for _ in range(64):
        a0, a1, b0, b1, h = cells
        am, bm = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
        left, right = np.array([a0, am, b0, bm, 0.5 * h]), np.array([am, a1, bm, b1, 0.5 * h])
        whole, halves = _cell_rule(cells), _cell_rule(left) + _cell_rule(right)
        split = abs(halves - whole) > RELATIVE_TOLERANCE * (halves + (total + halves.sum()) * h / knots[-1])
        total += float(halves[~split].sum())
        if not split.any():
            return total
        cells = np.c_[left[:, split], right[:, split]]
    raise QuadratureError(f"overlap did not reach rtol={RELATIVE_TOLERANCE} within 64 halvings")
