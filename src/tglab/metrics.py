"""Gate-quality expectations, the fidelity distribution, and the strategy comparison.

With X and Y the joint click-density terms (see heralding), one double
heralding application has gate fidelity excess F = sqrt(X Y) / (X + Y)
(the state fidelity is f = 1/2 + F), and

    E(F)   = sqrt(Theta_1 Theta_2) (int sqrt(P_A P_B) dt)^2
    E(F^2) = int int Theta_1 Theta_2 U V / (Theta_1 U + Theta_2 V) dt1 dt2

with U = P_A(t1) P_B(t2), V = P_B(t1) P_A(t2).  The first-order form of E(F^2),
Theta_L (1 - K/2) I_0 with Theta_L the larger tilt factor and K = Theta_L/Theta_S - 1,
is exact on the diagonal and needs the one integral I_0 = int int U V/(U+V).

Divided by V, each integrand is a function of w = V/U alone, under the density
V (t1 ~ P_B, t2 ~ P_A): Theta_1 Theta_2 / (Theta_1 + Theta_2 w) for E(F^2) and
1/(1 + w) for I_0.  Each is one `expect` of any pair's law of S (below), batched
over every tilt pair of an `expected_f_sq` call, at most leakage.BLOCK_CELLS
kernel values per block.  For critically damped profiles w = e^(-S),
S = 2 (g_B - g_A) D with D = t1 - t2, a difference of two Gamma(3) click times,
and `expect` is one `leakage.integrate` call per sign of D: Gauss-Legendre
panels, on which these smooth integrands come out good to rounding.

Distribution-level quantities (the fidelity histogram and the post-selection
comparison) take the mixture Theta_1 (A x B) + Theta_2 (B x A) of Q12, under
which F = 1/(2 cosh((S + x)/2)), x = log(Theta_1/Theta_2), S = L(t1) - L(t2)
with L = log(P_A/P_B); B x A has the mirror image of A x B's law of S.  Every
pair is read off its law of S: each bin, and the window, is a set of
S-intervals whose mass is a difference of its CDF, and the out-of-window
successes of every mode are one `expect` over |S| past the window edge.  For a
critically damped pair S is a multiple of D = t1 - t2, whose CDF is closed
form, so these are exact up to rounding.  Any other pair takes the binned law
of two tabulated profiles, each side through leakage.as_tabulated: L#P_A and
L#P_B in _LAW_BINS uniform L-bins, exact per bin, with a first-moment tilt, and
convolved by FFT into hat cells (see _TabulatedLaw); an atom of L (a segment
where P_A / P_B is constant) adds the other measure's bins, shifted, to the same
cells, and atom pairs stay exact, read off the atoms.  It reads the README
pair's 2049-point tabulation to about 1e-8 relative (E(F^2) to about 1e-9), and a
mixed pair (P_A against that tabulation's P_B) to about 1e-7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .heralding import big_thetas
from .leakage import (BLOCK_CELLS, RELATIVE_TOLERANCE, CriticallyDamped, LeakageProfile,
                      Tabulated, as_tabulated, critically_damped_difference_density,
                      integrate, overlap_integral)
from .tilted_graph import QUARTER_PI

MAX_F = 0.5
MODES = ("3f2", "exact")       # first-attempt success models
_S_CUT = 80.0                  # |S| past which out-of-window successes are negligible
_LAW_BINS = 2**14              # uniform L-bins of a tabulated pair's law of S
_SINGULAR_CUT = 2.0**-32       # where a piece's unbounded L range stops (a fraction of it)
_PIECE_BLOCK = 2048            # law pieces and cells handled at once
_GL2_NODES = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])  # on [0, 1]


@dataclass(frozen=True)
class ExpectationResult:
    value: float
    estimated_error: float


@dataclass(frozen=True)
class FidelityHistogram:
    edges: np.ndarray
    masses: np.ndarray


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
    th1, th2 = map(float, _thetas(theta_a, theta_b))
    value = math.sqrt(th1 * th2) * overlap_integral(pa, pb) ** 2
    return ExpectationResult(value, 2.0 * RELATIVE_TOLERANCE * value)


@dataclass(frozen=True)
class _DifferenceLaw:
    """Law of D = t1 - t2 for t1 ~ P_A, t2 ~ P_B, two critically damped profiles.

    Their click times are Gamma(3) with rates 2 g_A and 2 g_B, and the fidelity
    depends on them only through S = slope D, slope = 2 (g_B - g_A).  The B x A
    mixture component (t1 ~ P_B, t2 ~ P_A) has the mirror image -D.
    """

    pa: CriticallyDamped
    pb: CriticallyDamped
    mass = finite_mass = 1.0        # unit-mass profiles, and every D is finite

    @property
    def slope(self) -> float:
        return 2.0 * (self.pb.g - self.pa.g)

    def cdf(self, d):
        """(P(D <= d), P(D > d)) at an array of d, +-inf included, each side from the
        Gamma(3) tail polynomial of its own sign of d, so the smaller keeps its digits.

        For d >= 0, with a = 2 g_A, b = 2 g_B, sigma = a/(a + b), rho = 1 - sigma and
        u = a d, P(D > d) = rho^3 e^(-u) (1 + u + u^2/2 + 3 sigma (1 + u) + 6 sigma^2);
        swapping the profiles gives P(D < -d).  u is capped where e^(-u) is 0.
        """
        def tail(r1, r2, d):
            c = r1 + r2
            sigma, u = r1 / c, np.minimum(r1 * np.maximum(d, 0.0), 1000.0)
            return (r2 / c) ** 3 * np.exp(-u) * (1.0 + u + 0.5 * u * u
                                                 + 3.0 * sigma * (1.0 + u) + 6.0 * sigma**2)
        d = np.asarray(d, dtype=float)
        a, b = 2.0 * self.pa.g, 2.0 * self.pb.g
        above, below = tail(a, b, d), tail(b, a, -d)
        right = d >= 0.0
        return np.where(right, 1.0 - above, below), np.where(right, above, 1.0 - below)

    def window(self, d: float) -> float:
        """P(|D| < d), d >= 0, from positive terms, so a small mass keeps its digits:
        P(0 < D <= d) = rho^3 (P_3 + 3 sigma P_2 + 6 sigma^2 P_1)(u), sigma, rho and u as
        in cdf, with P_k(u) = P(N >= k), N ~ Poisson(u), summed over N >= k for u <= 3,
        else (P(N <= 2) < 1/2) as a complement.  Swapped profiles give P(-d <= D < 0)."""
        def side(r1, r2):
            sigma, u = r1 / (r1 + r2), r1 * d
            if u > 3.0:
                p1, p2, p3 = 1.0 - np.exp(-u) * np.cumsum([1.0, u, 0.5 * u * u])
            else:
                terms = np.cumprod(np.append(1.0, u / np.arange(1.0, 40.0)))   # u^j / j!
                p1, p2, p3 = (math.exp(-u) * math.fsum(terms[k:]) for k in (1, 2, 3))
            return (1.0 - sigma) ** 3 * (p3 + 3.0 * sigma * p2 + 6.0 * sigma**2 * p1)
        a, b = 2.0 * self.pa.g, 2.0 * self.pb.g
        return side(a, b) + side(b, a)

    def expect(self, kernel, lo: float = 0.0, hi: float = math.inf):
        """E_V[kernel(w)] over lo <= |D| <= hi: t1 ~ P_B and t2 ~ P_A, the mirror image
        of this law, and w = V/U = e^(-S).  One integral over |D| per sign of D, so
        each is smooth; each stops at its profile's t_max, and a side whose support
        ends below lo adds 0.  kernel maps a 1-d array w to shape (..., len(w)), a
        batch integrated at once; it must take its limits at w = inf and w = 0.
        """
        slope = self.slope
        total = 0.0 * kernel(np.ones(1))[..., 0]          # a zero of the batch shape
        with np.errstate(over="ignore", divide="ignore"):   # e^(-S) overflows, 1/w for w = 0
            for p1, p2, sign in ((self.pb, self.pa, -1.0), (self.pa, self.pb, 1.0)):
                end = min(hi, p1.t_max)
                if lo < end:
                    total = total + integrate(
                        lambda r: critically_damped_difference_density(p1.g, p2.g, lo + r)
                        * kernel(np.exp(sign * slope * (lo + r))), end - lo)
        return total


class _TabulatedLaw:
    """Law of S = L(t1) - L(t2), L = log(P_A / P_B), for t1 ~ P_A and t2 ~ P_B, two
    tabulated profiles; the B x A component has the mirror image -S.  It has
    _DifferenceLaw's interface with D = S (slope 1), sub-normalised to the profiles'
    masses.

    Between the union knots both densities are linear inside their own support and
    0 past their t_max, so each segment is one of: mass of one density where the
    other is 0, which sits at L = +-inf (F = 0; decided on the raw densities); an
    atom at its L where P_A / P_B is constant; or a piece where L is monotone with
    the inverse t(l) = (b0 e^l - a0) / (a1 - b1 e^l).  So the mass that
    mu_A = L#P_A and mu_B = L#P_B put in each of _LAW_BINS uniform bins of width h
    over the finite L range is exact, from the quadratic antiderivative.  Each
    bin's first moment about its centre (2-point Gauss-Legendre in t on each piece)
    tilts its uniform density linearly, clipped to stay >= 0: the pushforward
    densities jump at the knots, and a uniform bin would leave an O(h^2) error
    there.  The masses convolve (FFT) into hat-shaped cells centred on S = k h, and
    the tilts into a zero-mass quadratic term on the same cells.  An atom adds the
    other measure's bins, shifted by its L, to the same cells, and the L range takes
    in every atom.  The atoms are kept once (with B's tail sums), and each atom pair,
    an exact atom at S = pos_i - pos_j, is read from them in blocks: memory is linear
    in the atoms.  A piece where one density vanishes at an end has L unbounded
    there: the range stops at the L a fraction _SINGULAR_CUT of the piece from that
    end, and the mass past it falls in the end bin.
    """

    slope = 1.0

    def __init__(self, pa: Tabulated, pb: Tabulated):
        pieces, inf_a, inf_b = self._split(pa, pb)
        self._bin_pieces(*pieces)
        self._convolve()
        self._fold_atoms()
        self.hats_cdf = np.cumsum(self.hats)
        self.tail_b = np.append(np.cumsum(self.atoms_b[::-1])[::-1], 0.0)   # b_k + b_k+1 + ...
        finite_a = self.atoms_a.sum() + self.cum_a[-1]
        finite_b = self.atoms_b.sum() + self.cum_b[-1]
        self.finite_mass = finite_a * finite_b
        self.mass = (finite_a + inf_a) * (finite_b + inf_b)

    def _split(self, pa: Tabulated, pb: Tabulated):
        """Sort the union-knot segments: set the atoms (position, mass under P_A and
        under P_B) and return the monotone pieces (both densities at each end, L at
        each end and the width) with the masses at L = +inf under mu_A and -inf under mu_B."""
        t = np.union1d(pa.times, pb.times)
        wid = np.diff(t)
        (a0, a1), (b0, b1) = (self._ends(p, t) for p in (pa, pb))
        mass_a, mass_b = 0.5 * (a0 + a1) * wid, 0.5 * (b0 + b1) * wid
        has_a, has_b = (a0 > 0.0) | (a1 > 0.0), (b0 > 0.0) | (b1 > 0.0)
        atom = has_a & has_b & (a0 * b1 == a1 * b0)
        with np.errstate(divide="ignore", invalid="ignore"):   # log 0; 0 - 0 where no mass
            l0, l1 = np.log(a0) - np.log(b0), np.log(a1) - np.log(b1)
        self.pos, inverse = np.unique(np.where((a1 > 0.0) & (b1 > 0.0), l1, l0)[atom],
                                      return_inverse=True)
        self.atoms_a = np.bincount(inverse, mass_a[atom], self.pos.size)
        self.atoms_b = np.bincount(inverse, mass_b[atom], self.pos.size)
        cont = has_a & has_b & ~atom
        return ([v[cont] for v in (a0, a1, b0, b1, l0, l1, wid)],
                mass_a[has_a & ~has_b].sum(), mass_b[has_b & ~has_a].sum())

    @staticmethod
    def _ends(p: Tabulated, t):
        """Density at the left and right end of each segment, 0 past p's t_max."""
        inside = t[1:] <= p.t_max
        v = p.density(t)
        return np.where(inside, v[:-1], 0.0), np.where(inside, v[1:], 0.0)

    def _bin_pieces(self, a0, a1, b0, b1, l0, l1, wid):
        """Set the bins (lo, h) and each measure's cumulative bin masses and tilts
        (first moments about the bin centres), cutting each piece at the bin edges,
        about _PIECE_BLOCK parts at a time."""
        bins = _LAW_BINS
        sa, sb = (a1 - a0) / wid, (b1 - b0) / wid

        def ell_at(seg, f):                            # L a fraction f into each given piece
            with np.errstate(divide="ignore"):         # a density that underflows to 0
                return (np.log(a0[seg] * (1.0 - f) + a1[seg] * f)
                        - np.log(b0[seg] * (1.0 - f) + b1[seg] * f))
        every = slice(None)
        ends = np.concatenate([np.where(np.isfinite(l0), l0, ell_at(every, _SINGULAR_CUT)),
                               np.where(np.isfinite(l1), l1,
                                        ell_at(every, 1.0 - _SINGULAR_CUT)), self.pos])
        lo, hi = (ends.min(), ends.max()) if ends.size else (0.0, 1.0)
        self.lo, self.h = lo, (hi - lo) / bins if hi > lo else 1.0
        h = self.h

        def bin_of(ell):
            return np.clip(np.floor((ell - lo) / h), 0, bins - 1).astype(np.intp)
        rise = l1 > l0
        k_lo, k_hi = bin_of(np.minimum(l0, l1)), bin_of(np.maximum(l0, l1))
        self.cum_a, self.cum_b = np.zeros(bins + 1), np.zeros(bins + 1)
        self.tilt_a, self.tilt_b = np.zeros(bins), np.zeros(bins)
        parts = np.cumsum(k_hi - k_lo + 1)
        start = 0
        while start < wid.size:
            stop = max(start + 1, int(np.searchsorted(parts, parts[start] + _PIECE_BLOCK)))
            count = k_hi[start:stop] - k_lo[start:stop] + 1
            seg = np.repeat(np.arange(start, stop), count)
            first = np.cumsum(count) - count
            k = np.arange(seg.size) - np.repeat(first, count) + k_lo[seg]
            inner = k < k_hi[seg]                      # the part ends at an inner edge
            tau_hi = np.where(rise, wid, 0.0)[seg]
            ell, s = lo + h * (k[inner] + 1), seg[inner]
            q = np.exp(-np.abs(ell))                   # e^l or e^-l, never overflowing
            up = ell > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = (np.where(up, b0[s] - a0[s] * q, b0[s] * q - a0[s])
                       / np.where(up, sa[s] * q - sb[s], sa[s] - sb[s] * q))
            tau_hi[inner] = np.clip(tau, 0.0, wid[s])
            tau_lo = np.empty_like(tau_hi)
            tau_lo[1:] = tau_hi[:-1]
            tau_lo[first] = np.where(rise, 0.0, wid)[start:stop]
            # 2-point Gauss-Legendre for the first moment about the bin centre; L off
            # the bin only where a density underflows
            half, centre = 0.5 * np.abs(tau_hi - tau_lo), lo + h * (k + 0.5)
            fracs = [(tau_lo + x * (tau_hi - tau_lo)) / wid[seg] for x in _GL2_NODES]
            offsets = [np.clip(ell_at(seg, f) - centre, -0.5 * h, 0.5 * h) for f in fracs]
            k0 = k.min()                               # the block's bins from k0 on
            k -= k0
            for cum, tilt, p0, p1, slope in ((self.cum_a, self.tilt_a, a0, a1, sa),
                                             (self.cum_b, self.tilt_b, b0, b1, sb)):
                p0, p1, slope = p0[seg], p1[seg], slope[seg]
                part = np.bincount(k, np.abs(tau_hi * (p0 + 0.5 * slope * tau_hi)
                                             - tau_lo * (p0 + 0.5 * slope * tau_lo)))
                cum[1 + k0:1 + k0 + part.size] += part
                part = np.bincount(k, half * sum((p0 * (1.0 - f) + p1 * f) * off
                                                 for f, off in zip(fracs, offsets)))
                tilt[k0:k0 + part.size] += part
            start = stop
        for cum, tilt in ((self.cum_a, self.tilt_a), (self.cum_b, self.tilt_b)):
            limit = cum[1:] * (h / 6.0)                # past it, part of the bin's density < 0
            np.clip(tilt, -limit, limit, out=tilt)
            np.cumsum(cum, out=cum)

    def _convolve(self):
        """Set the hat masses and tilts of S on the nodes k = 0 .. 2 bins + 2, centred on
        S = (k - bins - 1) h; the two end nodes are empty, and so are their neighbours
        until _fold_atoms."""
        from numpy.fft import irfft, rfft            # loaded only where a pair needs it
        n = 2 * (self.cum_a.size - 1)
        fb = rfft(np.diff(self.cum_b)[::-1], n)
        tilts = rfft(self.tilt_a, n)
        tilts *= fb                                    # A's tilts against B's masses
        fa = rfft(np.diff(self.cum_a), n)
        fb *= fa
        self.hats = np.zeros(n + 3)
        irfft(fb, n, out=self.hats[2:-1])
        rfft(self.tilt_b[::-1], n, out=fb)
        fa *= fb
        tilts -= fa                                    # less A's masses against B's tilts
        del fa, fb                                     # freed first: the law's peak memory
        self.tilts = np.zeros(n + 3)
        irfft(tilts, n, out=self.tilts[2:-1])
        self.hats[-2] = self.tilts[-2] = 0.0           # past the convolution: 0 up to rounding
        np.maximum(self.hats, 0.0, out=self.hats)

    def _fold_atoms(self):
        """Add each atom's products with the other measure's bins to the hat cells: an
        atom at p shifts A's bins by -p (X - p) and B's, reversed with their tilts
        negated, by p (p - Y), each bin split between the two nodes around its centre,
        so its mass and first moment stay exact; a cell spreads a density jump at an
        end of the copy by O(h).  The bins keep their order, so each split is a slice."""
        h, bins = self.h, self.tilt_a.size
        a_bins = np.diff(self.cum_a), self.tilt_a                  # X - p
        b_bins = np.diff(self.cum_b)[::-1], -self.tilt_b[::-1]     # p - Y, from the top down
        for p, wa, wb in zip(self.pos, self.atoms_a, self.atoms_b):
            # first: the node of bin 0's centre, in [1.5, bins + 1.5] as lo <= p <= lo + bins h
            for w, first, copy in ((wb, (self.lo - p) / h + bins + 1.5, a_bins),
                                   (wa, (p - self.lo) / h + 1.5, b_bins)):
                k = math.floor(first)
                for values, add in zip((self.hats, self.tilts), copy):
                    values[k:k + bins] += (w * (k + 1 - first)) * add
                    values[k + 1:k + 1 + bins] += (w * (first - k)) * add

    def cdf(self, d):
        """(P(S <= d), P(S > d)) at an array of d, +-inf included: the hat cells' CDF,
        cell j read at the fraction u of it, and each a_i times B's atoms at pos_j >=
        pos_i - d (as rounded), at most BLOCK_CELLS atom-point pairs at a time."""
        s = np.asarray(d, dtype=float).ravel()
        cells = self.hats.size - 1
        q = np.clip((s + 0.5 * cells * self.h) / self.h, 0.0, cells)
        j = np.minimum(np.floor(q), cells - 1).astype(np.intp)
        u = q - j
        v = 1.0 - u
        below = (self.hats_cdf[j] - 0.5 * self.hats[j] * v * v
                 + 0.5 * self.hats[j + 1] * u * u
                 - (self.tilts[j] * (1.0 - u * u * (3.0 - 2.0 * u))
                    + self.tilts[j + 1] * (1.0 - v * v * (3.0 - 2.0 * v))) / self.h)
        below += np.where(s == math.inf, self.mass - self.finite_mass, 0.0)
        block = max(1, BLOCK_CELLS // max(1, self.pos.size))
        for start in range(0, s.size, block):
            cut = slice(start, start + block)
            firsts = np.searchsorted(self.pos, self.pos - s[cut, None])   # points x atoms
            below[cut] += (self.atoms_a * self.tail_b[firsts]).sum(-1)
        below = below.reshape(np.shape(d))
        return below, self.mass - below

    def window(self, d: float) -> float:
        """P(-d < S <= d), d >= 0: P(|S| < d) but for an atom at S = d."""
        below = self.cdf([d, -d])[0]
        return float(below[0] - below[1])

    def expect(self, kernel, lo: float = 0.0, hi: float = math.inf):
        """E[kernel(w)] over lo <= |S| <= hi with w = e^S, as _DifferenceLaw.expect.  At
        S = x0 + (i + u) h, u in [0, 1], the cells' density is (hats[i] (1 - u) +
        hats[i + 1] u) / h + 6 (tilts[i] - tilts[i + 1]) u (1 - u) / h^2: 2-point
        Gauss-Legendre on each cell cut at the limits, at most _PIECE_BLOCK cells at a
        time; then the atom pairs in blocks.  At most BLOCK_CELLS kernel values at once."""
        h, hats, tilts, cells = self.h, self.hats, self.tilts, self.hats.size - 1
        x0 = -0.5 * cells * h
        total = 0.0 * kernel(np.ones(1))[..., 0]           # a zero of the batch shape
        block = max(1, min(_PIECE_BLOCK, BLOCK_CELLS // (2 * total.size)))
        with np.errstate(over="ignore", divide="ignore"):   # e^s overflows, 1/w for w = 0
            for cut_lo, cut_hi in ((lo, hi), (-hi, -lo)):
                first = max(0, math.floor((max(cut_lo, x0) - x0) / h))
                last = min(cells, math.ceil((min(cut_hi, -x0) - x0) / h))
                for start in range(first, last, block):
                    stop = min(start + block, last)
                    if not (hats[start:stop + 1].any() or tilts[start:stop + 1].any()):
                        continue                            # empty cells add exactly 0
                    i, j = slice(start, stop), slice(start + 1, stop + 1)   # each cell's nodes
                    left = x0 + h * np.arange(start, stop)
                    a, b = np.maximum(left, cut_lo), np.minimum(left + h, cut_hi)
                    s = a + np.multiply.outer(_GL2_NODES, b - a)   # both points of each cell
                    u = (s - left) / h
                    dens = (hats[i] + (hats[j] - hats[i]) * u
                            + (6.0 / h) * (tilts[i] - tilts[j]) * u * (1.0 - u))
                    dens *= np.maximum(b - a, 0.0) / (2.0 * h)
                    total = total + (dens.ravel() * kernel(np.exp(s.ravel()))).sum(-1)
            n = self.pos.size
            block = max(1, BLOCK_CELLS // total.size)
            for start in range(0, n * n, block):      # atom pair i n + j at S = pos_i - pos_j
                i, j = np.divmod(np.arange(start, min(start + block, n * n)), n)
                s = self.pos[i] - self.pos[j]
                keep = (np.abs(s) >= lo) & (np.abs(s) <= hi)
                mass = self.atoms_a[i[keep]] * self.atoms_b[j[keep]]
                total = total + (mass * kernel(np.exp(s[keep]))).sum(-1)
            return total


def _law(pa, pb) -> _DifferenceLaw | _TabulatedLaw:
    """The law of S of a pair, which every quantity reads: closed form for two
    critically damped profiles, else binned, each side through as_tabulated."""
    if isinstance(pa, CriticallyDamped) and isinstance(pb, CriticallyDamped):
        return _DifferenceLaw(pa, pb)
    return _TabulatedLaw(as_tabulated(pa), as_tabulated(pb))


def _thetas(theta_a, theta_b):
    """(Theta_1, Theta_2) as arrays broadcast over finite tilts, from big_thetas."""
    if not (np.all(np.isfinite(theta_a)) and np.all(np.isfinite(theta_b))):
        raise QuadratureError("tilts must be finite")
    return np.vectorize(big_thetas, otypes=[float, float])(theta_a, theta_b)


def expected_f_sq(theta_a, theta_b, pa: LeakageProfile,
                  pb: LeakageProfile) -> ExpectationResult:
    """E(F^2) = E_V[Theta_1 Theta_2 / (Theta_1 + Theta_2 w)], read off the pair's law.

    Tilts may be arrays, broadcast together; one batched integral covers every
    entry.  The value is a float for scalar tilts and an ndarray otherwise;
    entries with Theta_1 = 0 or Theta_2 = 0 are 0.
    """
    th1, th2 = _thetas(theta_a, theta_b)
    live = (th1 > 0.0) & (th2 > 0.0)
    value = np.zeros(th1.shape)
    if live.any():
        a, b = th1[live][:, None], th2[live][:, None]
        value[live] = _law(pa, pb).expect(lambda w: a * b / (a + b * w))
    value = float(value) if value.ndim == 0 else value
    return ExpectationResult(value, 2.0 * RELATIVE_TOLERANCE * value)


def efsq_first_order(theta_a: float, theta_b: float, pa: LeakageProfile,
                     pb: LeakageProfile) -> ExpectationResult:
    """First-order form Theta_L (1 - K/2) I_0, exact on the diagonal.

    Up to the constant I_0 = E_V[1/(1 + w)] this is independent of the leakage
    profiles: the paper's alternating series has I_1 = I_0/2, so its first-order
    term needs no integral beyond I_0.
    """
    th1, th2 = map(float, _thetas(theta_a, theta_b))
    th_l, th_s = max(th1, th2), min(th1, th2)
    if th_s == 0.0:
        return ExpectationResult(0.0, 0.0)
    i0 = float(_law(pa, pb).expect(lambda w: 1.0 / (1.0 + w)))
    k = th_l / th_s - 1.0
    value = th_l * (1.0 - 0.5 * k) * i0
    return ExpectationResult(value, abs(th_l * 0.5 * k**2 * i0))


# ---------------------------------------------------------------------------
# Distribution-level quantities
# ---------------------------------------------------------------------------

def _law_histogram(th1: float, th2: float, law: _DifferenceLaw | _TabulatedLaw,
                   edges) -> np.ndarray:
    """Bin masses as differences of the law's CDF at the S-edges of each F-bin.

    F = 1/(2 cosh(z/2)) with z = S + x, x = log(Theta_1/Theta_2), so the bin
    [f_i, f_i+1) is |z| in (z_i+1, z_i], z_i = 2 arccosh(1/(2 f_i)): one interval
    on each side of z = 0, that is of S = -x.  Each side's masses are differences
    of a cumulative sequence made monotone, so no bin is negative.
    """
    if law.slope == 0.0 or th1 == 0.0 or th2 == 0.0:  # F takes one value: an atom
        f = math.sqrt(th1 * th2) / (th1 + th2) if th1 + th2 > 0.0 else 0.0
        return np.histogram([f], bins=edges)[0] * ((th1 + th2) * law.mass)
    with np.errstate(divide="ignore"):
        z = 2.0 * np.arccosh(0.5 / edges)             # inf at F = 0, 0 at F = 1/2
    x, scale = math.log(th1 / th2), abs(law.slope)
    # th_d weighs the component with S = |slope| D (A x B for a positive slope)
    th_d, th_mirror = (th1, th2) if law.slope > 0.0 else (th2, th1)

    def split(v):                                     # (mass(z <= v), mass(z > v))
        below, above = law.cdf((v - x) / scale)
        mirror_le, mirror_gt = law.cdf((x - v) / scale)
        return th_d * below + th_mirror * mirror_gt, th_d * above + th_mirror * mirror_le

    rising = (split(z)[1], split(-z)[0])              # mass(z > z_i), mass(z <= -z_i)
    return sum(np.diff(np.maximum.accumulate(c)) for c in rising)


def fidelity_histogram(theta_a: float, theta_b: float, pa: LeakageProfile, pb: LeakageProfile,
                       bins: int = 200) -> FidelityHistogram:
    """Mass of each F-bin under the joint click density (sub-normalised), read off
    the pair's law of S as CDF differences: exact for the closed-form law of
    t1 - t2, about 1e-8 per bin for the binned law.  F = 0 where a density
    vanishes falls in bin 0.
    """
    if bins < 10:
        raise QuadratureError(f"need at least 10 fidelity bins, got {bins}")
    th1, th2 = map(float, _thetas(theta_a, theta_b))
    edges = np.linspace(0.0, MAX_F, bins + 1)
    return FidelityHistogram(edges, _law_histogram(th1, th2, _law(pa, pb), edges))


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
    else:                       # the cap keeps the denominator >= 1/2 for any F
        out = 2.0 * (f2 + np.square(f2) / (1.0 - 2.0 * np.minimum(f2, 0.25)))
    return float(out) if np.ndim(out) == 0 else out


def _law_window_sums(law: _DifferenceLaw | _TabulatedLaw, threshold: float):
    """(window mass, out-of-window successes of each of MODES), untilted.

    Untilted, F = 1/(2 cosh(S/2)) > threshold is |D| < edge, and F is even in S,
    so both mixture components give the same sums over |D|.
    """
    total = sum(big_thetas(QUARTER_PI, QUARTER_PI))
    if threshold <= 0.0 or law.slope == 0.0:      # F > threshold at every finite S
        return float(total * law.finite_mass), np.zeros(len(MODES))
    scale = abs(law.slope)
    edge = 2.0 * math.acosh(0.5 / threshold) / scale

    def successes(w):
        f = 1.0 / (np.sqrt(w) + 1.0 / np.sqrt(w))
        return np.array([first_attempt_success(f, mode) for mode in MODES])
    # Beyond |S| = _S_CUT the successes are below 3 e^(-_S_CUT) ~ 5e-35; stopping
    # there keeps a steep pair's decay, over 1/slope, resolved by the Gauss-Legendre
    # panels.
    return (float(total * law.window(edge)),
            total * law.expect(successes, edge, max(edge, _S_CUT / scale)))


def compare_strategies(pa: LeakageProfile, pb: LeakageProfile,
                       epsilon: float) -> list[ComparisonReport]:
    """Post-selection versus adaptive growth on the first merge/bridge attempt,
    one report per first-attempt success mode, in the order of MODES.

    Both qubits enter untilted (theta = pi/4), as in the paper's Section IV.
    p_postselect is the window mass; p_outside_window adds the out-of-window
    first-attempt successes to it; p_total is their sum.  The window mass is read
    off the pair's law of S, and one integral over |S| outside the window gives
    every mode's successes: exact for the closed-form law of t1 - t2, about 1e-7
    relative for the binned law, where F = 0 (a vanishing density) is never in
    the window.
    """
    if not 0.0 < epsilon < math.inf:
        raise QuadratureError(f"window width must be positive and finite, got {epsilon}")
    p_post, p_outs = _law_window_sums(_law(pa, pb), MAX_F - epsilon)
    return [ComparisonReport(p_post, p_post + float(p), p_post + (p_post + float(p)),
                             float(p), epsilon, mode) for mode, p in zip(MODES, p_outs)]
