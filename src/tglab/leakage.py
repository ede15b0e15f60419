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

Sampling inverts a tabulated CDF.  A single float quantile takes a scalar
bisection path that equals np.interp bit for bit.
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

        A Python or NumPy float u takes a scalar path that returns a float
        equal to np.interp's value bit for bit.
        """
        table = self._inverse_cdf_table
        if isinstance(u, float):
            return _interp_scalar(float(u), table.cdf_items, table.grid_items)
        return np.interp(u, table.cdf, table.grid)


class _CdfTable:
    """A profile's renormalised trapezoid CDF on _CDF_TABLE_SIZE uniform nodes
    of [0, t_max]: read-only arrays for np.interp, and memoryviews of the same
    bytes (whose items are Python floats) for the scalar path."""

    __slots__ = ("grid", "cdf", "grid_items", "cdf_items")

    def __init__(self, profile: LeakageProfile):
        t = np.linspace(0.0, profile.t_max, _CDF_TABLE_SIZE)
        p = profile.density(t)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(t))])
        if cdf[-1] <= 0.0:
            raise ProfileError("cannot sample from a zero-mass profile")
        cdf = cdf / cdf[-1]
        t.setflags(write=False)
        cdf.setflags(write=False)
        self.grid, self.cdf = t, cdf
        self.grid_items, self.cdf_items = memoryview(t), memoryview(cdf)


def _interp_scalar(x: float, xp, fp) -> float:
    """np.interp(x, xp, fp) for one float, bit for bit: a NaN stays NaN, x is
    clamped to [xp[0], xp[-1]], j is the last knot with xp[j] <= x (the last of
    equal knots), a knot returns its value, and a NaN interpolant is retried
    from the right knot."""
    if x != x:
        return x
    j = bisect_right(xp, x) - 1
    if j < 0:
        return fp[0]
    if j == len(xp) - 1 or xp[j] == x:
        return fp[j]
    slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
    out = slope * (x - xp[j]) + fp[j]
    if out != out:
        out = slope * (x - xp[j + 1]) + fp[j + 1]
        if out != out and fp[j] == fp[j + 1]:
            out = fp[j]
    return out


class CriticallyDamped(LeakageProfile):
    """Closed-form critically damped cavity profile, unit mass."""

    def __init__(self, g: float):
        if not (np.isfinite(g) and g > 0):
            raise ProfileError(f"coupling strength must be positive and finite, got {g}")
        self.g = float(g)

    def density(self, t):
        """4 g^3 t^2 exp(-2 g t) with a Heaviside cutoff at t = 0.

        Accepts scalar or ndarray t; rejects non-finite input.  A Python or
        NumPy float t takes a scalar path (math.exp), which agrees with the
        array path to rounding.
        """
        g = self.g
        if isinstance(t, float):
            t = float(t)
            if not math.isfinite(t):
                raise ProfileError("non-finite time passed to CriticallyDamped.density")
            return 4.0 * g**3 * (t * t) * math.exp(-2.0 * g * t) if t > 0 else 0.0
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


def tabulate_profile(profile: LeakageProfile, points: int = 4097) -> Tabulated:
    """Any profile as a Tabulated one, sampled on `points` uniform nodes of [0, t_max]."""
    t = np.linspace(0.0, profile.t_max, points)
    return Tabulated(t, profile.density(t))


def load_profile_csv(path) -> Tabulated:
    """Load a two-column `time,density` CSV (UTF-8, BOM allowed, header row required)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ProfileError(f"{path}: empty profile file") from None
        if [h.strip().lower() for h in header[:2]] != ["time", "density"]:
            raise ProfileError(f"{path}: expected header 'time,density', got {header!r}")
        times, densities = [], []
        for row in reader:
            if not row:
                continue
            try:
                times.append(float(row[0]))
                densities.append(float(row[1]))
            except (ValueError, IndexError):
                raise ProfileError(f"{path}: malformed row {row!r}") from None
    return Tabulated(times, densities)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# Every library integral runs to this relative tolerance, starting from this
# many Simpson panels.  At most BLOCK_CELLS values are built at once: integrand
# values (batch elements times nodes) and oracle gathers.
RELATIVE_TOLERANCE = 1e-9
START_PANELS = 64
BLOCK_CELLS = 1 << 16


def _node_sum(f, first: int, n: int, step: float, shape: tuple, chunk: int) -> np.ndarray:
    """Sum over the last axis of f at the nodes k step, k = first, first + 2, ... < n,
    built and evaluated chunk nodes at a time."""
    total = np.zeros(shape)
    for lo in range(first, n, 2 * chunk):
        t = np.arange(lo, min(n, lo + 2 * chunk), 2) * step
        vals = np.asarray(f(t), dtype=float)
        if vals.shape != shape + t.shape:
            raise QuadratureError("integrand must return an array of shape (..., len(t)), "
                                  "the same batch shape on every call")
        total += vals.sum(axis=-1)
    return total


def integrate(f, t_max: float):
    """Deterministic integral of f over [0, t_max] to RELATIVE_TOLERANCE (1e-9).

    f must be vectorised: it maps a 1-d array t of times to values of shape
    (..., len(t)), the last axis being time, so one call integrates a whole
    batch of integrands; a scalar integrand is the batch of shape ().  The
    result has the batch shape: a float for a scalar integrand, else an ndarray.

    Composite Simpson, nested: panels double from START_PANELS, each level
    evaluating f only at its new (odd) nodes and keeping running sums of the
    end, odd and even nodes, at most BLOCK_CELLS values per call of f.  The
    doubling stops when every element of two successive levels agrees,
    |cur - prev| <= 1e-9 max(|cur|, |prev|); disagreement still at 2^21
    panels raises QuadratureError.
    """
    if not (np.isfinite(t_max) and t_max > 0):
        raise QuadratureError(f"t_max must be positive and finite, got {t_max}")
    ends = np.asarray(f(np.array([0.0, t_max])), dtype=float)
    if ends.shape[-1:] != (2,):
        raise QuadratureError("integrand must return an array of shape (..., len(t))")
    shape = ends.shape[:-1]
    chunk = max(1, BLOCK_CELLS // max(1, math.prod(shape)))
    ends = ends.sum(axis=-1)
    n = START_PANELS
    step = t_max / n
    even = _node_sum(f, 2, n, step, shape, chunk)
    odd = _node_sum(f, 1, n, step, shape, chunk)
    prev = (ends + 4.0 * odd + 2.0 * even) * (step / 3.0)
    while n <= 1 << 20:
        n *= 2
        step = t_max / n
        even += odd
        odd = _node_sum(f, 1, n, step, shape, chunk)
        cur = (ends + 4.0 * odd + 2.0 * even) * (step / 3.0)
        scale = np.maximum(np.maximum(abs(cur), abs(prev)), 1e-300)
        if np.all(abs(cur - prev) <= RELATIVE_TOLERANCE * scale):
            return float(cur) if cur.ndim == 0 else cur
        prev = cur
    raise QuadratureError(f"quadrature did not reach rtol={RELATIVE_TOLERANCE} within {n} panels")


def overlap_integral(pa: LeakageProfile, pb: LeakageProfile) -> float:
    """Bhattacharyya overlap of two profiles, int sqrt(P_A P_B) dt in [0, 1].

    Integrated over both profiles' support.  Equals
    8 (g_A g_B)^{3/2} / (g_A + g_B)^3 for two critically damped profiles;
    1 exactly when the profiles coincide.
    """

    def integrand(t):
        return np.sqrt(pa.density(t) * pb.density(t))

    return integrate(integrand, max(pa.t_max, pb.t_max))
