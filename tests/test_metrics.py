import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tglab import metrics
from tglab.errors import QuadratureError
from tglab.heralding import DhContext, big_thetas, success_probability
from tglab.leakage import BLOCK_CELLS, CriticallyDamped, Tabulated, tabulate_profile
from tglab.metrics import (
    MAX_F,
    MODES,
    compare_strategies,
    efsq_first_order,
    efsq_series,
    expected_f,
    expected_f_sq,
    fidelity_histogram,
    fidelity_value,
    first_attempt_success,
    resource_ratio,
    series_moments,
)

QUARTER_PI = math.pi / 4
PA = CriticallyDamped(10.0)
PB = CriticallyDamped(12.5)
OVERLAP_CLOSED = 8.0 * (10.0 * 12.5) ** 1.5 / 22.5**3


@functools.cache
def untilted_sqrt_xy_integral():
    """int int sqrt(X Y) / sqrt(Theta_1 Theta_2): the tilts enter only as that factor."""
    from reference_quadrature import simpson_2d

    def integrand(t1, t2):
        return np.sqrt(PA.density(t1) * PB.density(t2) * PB.density(t1) * PA.density(t2))
    return simpson_2d(integrand, max(PA.t_max, PB.t_max), rtol=1e-7)


class TestExpectedF:
    @pytest.mark.parametrize("g", [10.0, 0.5])
    def test_identical_profiles_quarter(self, g):
        # g = 0.5 has support to t = 40, far past a fixed [0, 2] window
        p = CriticallyDamped(g)
        assert expected_f(QUARTER_PI, QUARTER_PI, p, p).value == pytest.approx(0.25, abs=1e-8)
        assert expected_f_sq(QUARTER_PI, QUARTER_PI, p, p).value == pytest.approx(0.125, abs=1e-8)

    def test_example_pair_value(self):
        res = expected_f(QUARTER_PI, QUARTER_PI, PA, PB)
        assert res.value == pytest.approx(0.240855, abs=1e-5)
        assert res.value == pytest.approx(0.25 * OVERLAP_CLOSED**2, abs=1e-9)

    @pytest.mark.parametrize("theta_a", np.linspace(0.25, 1.3, 5))
    @pytest.mark.parametrize("theta_b", np.linspace(0.3, 1.35, 5))
    def test_quadrature_cross_check(self, theta_a, theta_b):
        # int int sqrt(X Y) against the closed form, criterion-5 style
        th1, th2 = big_thetas(theta_a, theta_b)
        val = math.sqrt(th1 * th2) * untilted_sqrt_xy_integral()
        assert val == pytest.approx(expected_f(theta_a, theta_b, PA, PB).value, abs=1e-6)

    def test_x_flip_invariance(self):
        for ta, tb in [(0.3, 0.9), (0.7, 1.2)]:
            a = expected_f(ta, tb, PA, PB).value
            b = expected_f(math.pi / 2 - ta, math.pi / 2 - tb, PA, PB).value
            assert a == pytest.approx(b, abs=1e-12)


class TestExpectedFSq:
    def test_degenerate_tilts_vanish(self):
        assert expected_f_sq(0.0, 0.7, PA, PB).value == 0.0
        assert expected_f_sq(0.4, math.pi / 2, PA, PB).value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 0.6, QUARTER_PI, 1.1])
    def test_diagonal_zero_order_exact(self, theta):
        th1, _ = big_thetas(theta, theta)
        i0 = series_moments(PA, PB, 0)[0]
        assert expected_f_sq(theta, theta, PA, PB).value == pytest.approx(th1 * i0, abs=1e-6)

    def test_diagonal_dominates_antidiagonal(self):
        # the Fig.-4 cross-section property on a grid of sin^2 offsets
        for d in np.linspace(0.0, 0.35, 8):
            ta = math.asin(math.sqrt(0.5 + d))
            tb = math.asin(math.sqrt(0.5 - d))
            diag = expected_f_sq(ta, ta, PA, PB).value
            anti = expected_f_sq(ta, tb, PA, PB).value
            assert diag >= anti - 1e-12

    def test_moment_and_variance_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            ta, tb = rng.uniform(0.15, 1.4, 2)
            ef = expected_f(ta, tb, PA, PB).value
            efsq = expected_f_sq(ta, tb, PA, PB).value
            assert efsq <= 0.5 * ef + 1e-12          # F never exceeds 1/2
            assert efsq >= ef**2 - 1e-12             # non-negative variance

    @pytest.mark.parametrize("quantity", [("efsq", 0.3, 0.9), ("efsq", 1.2, 0.4), ("I", 0),
                                          ("I", 3), ("J", 3)], ids=str)
    def test_matches_2d_reference(self, quantity):
        # the 1-d integrals over t1 - t2 against the 2-d definitions
        from reference_quadrature import simpson_2d
        kind, *args = quantity

        def integrand(t1, t2):
            u = PA.density(t1) * PB.density(t2)
            v = PB.density(t1) * PA.density(t2)
            if kind == "efsq":
                th1, th2 = big_thetas(*args)
                u, v = th1 * u, th2 * v
            s = u + v
            s[s == 0.0] = np.inf          # the integrand vanishes with both densities
            out = u * v / s
            if kind != "efsq":
                out *= ((v if kind == "I" else u) / s) ** args[0]
            return out

        if kind == "efsq":
            value = expected_f_sq(*args, PA, PB).value
        else:
            value = series_moments(PA, PB, args[0], numerator="V" if kind == "I" else "U")[-1]
        ref = simpson_2d(integrand, max(PA.t_max, PB.t_max), rtol=1e-8)
        assert value == pytest.approx(ref, rel=1e-8)

    def test_surface_matches_per_point_doubling(self):
        # the 21 x 21 `efsq-surface` grid in one batched call against the
        # per-point doubling Simpson, one pair of integrals per tilt pair
        from reference_quadrature import per_point_expected_f_sq
        theta = np.arcsin(np.sqrt(np.linspace(0.02, 0.98, 21)))
        got = expected_f_sq(theta[:, None], theta[None, :], PA, PB).value
        want = np.array([[per_point_expected_f_sq(ta, tb, PA, PB) for tb in theta]
                         for ta in theta])
        assert got.shape == (21, 21)
        assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))

    @pytest.mark.parametrize("ga, gb", [(1.0, 200.0), (200.0, 1.0)])
    def test_overflowing_ratio_takes_its_limits(self, ga, gb):
        # S = 2 (g_B - g_A) (t1 - t2) spans +-7960 here, so w = e^(-S) overflows
        # to inf on one side of t1 = t2 and underflows to 0 on the other
        from reference_quadrature import per_point_expected_f_sq
        pa, pb = CriticallyDamped(ga), CriticallyDamped(gb)
        thetas = [(0.7, 0.8), (0.3, 1.2), (QUARTER_PI, QUARTER_PI)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [expected_f_sq(ta, tb, pa, pb).value for ta, tb in thetas]
            i, j = series_moments(pa, pb, 4), series_moments(pa, pb, 4, numerator="U")
        want = [per_point_expected_f_sq(ta, tb, pa, pb) for ta, tb in thetas]
        assert np.all(np.isfinite(i)) and np.all(np.isfinite(j))
        assert got == pytest.approx(want, rel=1e-9)
        # on the diagonal K = 0, so E(F^2) = Theta I_0; and J_n = I_n by symmetry
        assert big_thetas(QUARTER_PI, QUARTER_PI)[0] * i[0] == pytest.approx(want[2], rel=1e-9)
        assert i[1] == pytest.approx(i[0] / 2, rel=1e-9)
        assert j == pytest.approx(i, rel=1e-9)

    def test_array_tilts_broadcast(self):
        res = expected_f_sq(np.array([0.0, 0.7, 1.2]), np.array([[0.0], [0.8]]), PA, PB)
        assert isinstance(res.value, np.ndarray) and res.value.shape == (2, 3)
        assert np.all(res.value[0] == 0.0) and np.all(res.value[:, 0] == 0.0)
        for j, ta in ((1, 0.7), (2, 1.2)):
            scalar = expected_f_sq(ta, 0.8, PA, PB)
            assert type(scalar.value) is float
            assert res.value[1, j] == pytest.approx(scalar.value, rel=1e-9)
            assert res.estimated_error[1, j] == pytest.approx(scalar.estimated_error, rel=1e-9)

    @pytest.mark.parametrize("thetas", [(math.nan, 0.3), (0.3, math.inf), (-math.inf, 0.3),
                                        (np.array([0.7, math.nan]), 0.3)], ids=str)
    def test_non_finite_tilts_rejected_before_integrating(self, thetas, monkeypatch):
        def integrate(f, t_max):
            raise AssertionError("integrated non-finite tilts")

        monkeypatch.setattr("tglab.metrics.integrate", integrate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="finite"):
                expected_f_sq(*thetas, PA, PB)
            if np.ndim(thetas[0]) == 0:
                with pytest.raises(QuadratureError, match="finite"):
                    efsq_series(*thetas, PA, PB, 4)
                with pytest.raises(QuadratureError, match="finite"):
                    efsq_first_order(*thetas, PA, PB)
                with pytest.raises(QuadratureError, match="finite"):
                    expected_f(*thetas, PA, PB)
                with pytest.raises(QuadratureError, match="finite"):
                    fidelity_histogram(*thetas, PA, PB)


class TestSeries:
    def test_unknown_numerator_rejected(self):
        with pytest.raises(QuadratureError, match="numerator"):
            series_moments(PA, PB, 3, numerator="X")

    def test_negative_order_rejected(self):
        with pytest.raises(QuadratureError, match="order"):
            efsq_series(0.7, 0.8, PA, PB, -1)
        with pytest.raises(QuadratureError, match="order"):
            series_moments(PA, PB, -1)

    def test_i1_is_half_i0(self):
        mom = series_moments(PA, PB, 1)
        assert mom[1] / mom[0] == pytest.approx(0.5, abs=1e-9)

    def test_j_equals_i(self):
        i = series_moments(PA, PB, 4)
        j = series_moments(PA, PB, 4, numerator="U")
        assert np.abs(i - j).max() < 1e-9

    def test_terms_positive_decreasing(self):
        mom = series_moments(PA, PB, 6)
        assert np.all(mom > 0)
        assert np.all(np.diff(mom) < 0)

    def test_order8_matches_quadrature(self):
        res, terms = efsq_series(0.7, 0.8, PA, PB, 8)
        quad = expected_f_sq(0.7, 0.8, PA, PB)
        assert res.value == pytest.approx(quad.value, abs=1e-4)
        assert res.estimated_error < 1e-4

    def test_region_selection(self):
        # theta_a < theta_b puts Theta_1 > Theta_2... the smaller prefactor wins
        _, terms = efsq_series(0.7, 0.8, PA, PB, 4)
        assert terms.region == "R_J"
        _, terms = efsq_series(0.8, 0.7, PA, PB, 4)
        assert terms.region == "R_I"

    def test_union_covers_nondegenerate_tilts(self):
        # the two regions only exclude degenerate tilts; far off the diagonal
        # the surviving series converges slowly (large estimated error)
        res, terms = efsq_series(0.1, 1.45, PA, PB, 4)
        assert terms.region == "R_J"
        assert res.estimated_error > 1e-3

    def test_outside_both_regions(self):
        with pytest.raises(QuadratureError):
            efsq_series(0.0, 0.7, PA, PB, 4)      # degenerate tilt


class TestFirstOrder:
    def test_diagonal_reduces_to_zeroth(self):
        th1, _ = big_thetas(0.6, 0.6)
        i0 = series_moments(PA, PB, 0)[0]
        assert efsq_first_order(0.6, 0.6, PA, PB).value == pytest.approx(th1 * i0, abs=1e-12)

    def test_antidiagonal_agreement_near_centre(self):
        # the Fig.-9 green-curve comparison inside the convergent zone
        for s2 in (0.45, 0.48, 0.52, 0.55):
            ta = math.asin(math.sqrt(s2))
            tb = math.asin(math.sqrt(1.0 - s2))
            fo = efsq_first_order(ta, tb, PA, PB).value
            ex = expected_f_sq(ta, tb, PA, PB).value
            assert fo == pytest.approx(ex, rel=0.10)

    def test_shape_independent_ratio(self):
        pc, pd = CriticallyDamped(5.0), CriticallyDamped(6.0)
        for ta, tb in [(0.6, 0.9), (1.0, 0.8)]:
            r1 = efsq_first_order(ta, tb, PA, PB).value / series_moments(PA, PB, 0)[0]
            r2 = efsq_first_order(ta, tb, pc, pd).value / series_moments(pc, pd, 0)[0]
            assert r1 == pytest.approx(r2, abs=1e-9)


class TestFidelityHistogram:
    def test_total_mass_is_success_probability(self):
        for ta, tb in [(QUARTER_PI, QUARTER_PI), (0.6, 1.0)]:
            hist = fidelity_histogram(ta, tb, PA, PB, bins=40)
            assert hist.masses.sum() == pytest.approx(success_probability(ta, tb), abs=1e-6)

    def test_identical_profiles_all_mass_at_half(self):
        p = CriticallyDamped(10.0)
        hist = fidelity_histogram(QUARTER_PI, QUARTER_PI, p, p, bins=50)
        assert hist.masses[-1] == pytest.approx(0.5, abs=1e-9)
        assert hist.masses[:-1].sum() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("thetas", [(QUARTER_PI, QUARTER_PI), (0.6, 1.0), (0.0, 1.0)])
    def test_identical_profiles_put_one_atom_in_its_bin(self, thetas):
        # equal couplings make S = 0 exactly: all mass at F = sqrt(Th1 Th2)/(Th1 + Th2)
        th1, th2 = big_thetas(*thetas)
        hist = fidelity_histogram(*thetas, PA, CriticallyDamped(PA.g), bins=50)
        f = math.sqrt(th1 * th2) / (th1 + th2)
        k = min(int(f / MAX_F * 50), 49)
        assert hist.masses[k] == th1 + th2
        assert np.count_nonzero(hist.masses) == 1

    def test_window_mass_reproduces_postselect_number(self):
        mass = compare_strategies(PA, PB, 1e-4)[0].p_postselect
        assert mass == pytest.approx(0.033, abs=0.003)

    def test_bin_count_enforced(self):
        with pytest.raises(QuadratureError):
            fidelity_histogram(QUARTER_PI, QUARTER_PI, PA, PB, bins=5)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-4, math.nan, math.inf])
    def test_window_width_enforced(self, epsilon):
        with pytest.raises(QuadratureError):
            compare_strategies(PA, PB, epsilon)


class TestCompareStrategies:
    def test_3f2_mode_reproduces_reported_numbers(self):
        rep = compare_strategies(PA, PB, 1e-4)[0]
        assert rep.p_postselect == pytest.approx(0.033, abs=0.003)
        assert rep.p_outside_window == pytest.approx(0.357, abs=0.005)
        assert rep.p_total == pytest.approx(0.390, abs=0.006)
        assert rep.p_total == pytest.approx(rep.p_postselect + rep.p_outside_window, abs=1e-12)

    def test_exact_mode_reported_alongside(self):
        approx, rep = compare_strategies(PA, PB, 1e-4)
        assert (approx.mode, rep.mode) == MODES == ("3f2", "exact")
        assert 0.0 < rep.p_outside_only < rep.p_outside_window
        assert rep.p_outside_only < approx.p_outside_only   # 2F^2 + ... < 3F^2 below 1/2

    @pytest.mark.parametrize("epsilon", [1e-4, 0.5])
    @pytest.mark.parametrize("pair", ["readme", "csv-2049"])
    def test_reports_python_floats(self, pair, epsilon):
        # a window that holds every finite S reads the law's mass, a NumPy float for
        # the binned law
        for rep in compare_strategies(*GRID_PAIRS[pair], epsilon):
            for value in (rep.p_postselect, rep.p_outside_window, rep.p_total,
                          rep.p_outside_only):
                assert type(value) is float

    def test_first_attempt_forms(self):
        assert first_attempt_success(0.5, "3f2") == pytest.approx(0.75)
        assert first_attempt_success(0.5, "exact") == pytest.approx(0.75)
        f = 0.3
        assert first_attempt_success(f, "exact") == pytest.approx(
            2 * f**2 + 2 * f**4 / (1 - 2 * f**2))

    def test_wide_window_limit(self):
        rep = compare_strategies(PA, PB, 0.5)[0]
        assert rep.p_postselect == pytest.approx(0.5, abs=1e-9)
        assert rep.p_outside_only == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_window_width(self):
        reps = [compare_strategies(PA, PB, eps)[0]
                for eps in (1e-4, 1e-3, 1e-2, 0.1, 0.5)]
        posts = [r.p_postselect for r in reps]
        outs = [r.p_outside_only for r in reps]
        assert all(a <= b + 1e-12 for a, b in zip(posts, posts[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(outs, outs[1:]))


# The README pair, its 2049-point tabulated twin (P_B is 0 on (1.6, 2.0]), a
# mixed pair of P_A and the twin's P_B, a near-identical pair, and two far-apart
# pairs whose densities underflow.  The twin and the mixed pair take the binned
# law of S; the others are critically damped, so the library reads them off the
# closed-form law of t1 - t2.
GRID_PAIRS = {
    "readme": (PA, PB),
    "csv-2049": (tabulate_profile(PA, 2049), tabulate_profile(PB, 2049)),
    "mixed-2049": (PA, tabulate_profile(PB, 2049)),
    "g-3-3.1": (CriticallyDamped(3.0), CriticallyDamped(3.1)),
    "g-0.5-40": (CriticallyDamped(0.5), CriticallyDamped(40.0)),
    "g-0.05-80": (CriticallyDamped(0.05), CriticallyDamped(80.0)),
}
FAR_APART = ("g-0.5-40", "g-0.05-80")
CLOSED_FORM = [pair for pair, (pa, pb) in GRID_PAIRS.items()
               if isinstance(pa, CriticallyDamped) and isinstance(pb, CriticallyDamped)]
GRID_NODES = 500          # four row blocks per component, the last one short


# P_A is 5e-324, the least subnormal, on (1, 2], where P_B holds its mass, and P_B
# is 1e-150 on [0, 1], where P_A holds its.  The knots are exact in binary, so the
# two masses round alike.
_KNOTS = [0.0, 1.0, 1.0 + 2.0**-30, 2.0 + 2.0**-30]
TINY_PAIR = (Tabulated(_KNOTS, [0.99, 0.99, 5e-324, 5e-324]),
             Tabulated(_KNOTS, [1e-150, 1e-150, 0.99, 0.99]))


def assert_close(got, want, rel=1e-14):
    assert abs(got - want) <= rel * abs(want), (got, want)


def assert_law_compare(rep, pa, pb, epsilon, mode):
    # exact up to rounding: 1e-9 relative, or 1e-15 absolute on a far-apart
    # pair's tiny window mass (a difference of CDF values near 1)
    from reference_quadrature import gl_compare_strategies
    want = gl_compare_strategies(pa, pb, epsilon, mode)
    got = (rep.p_postselect, rep.p_outside_window, rep.p_total, rep.p_outside_only)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


def assert_law_histogram(hist, thetas, pa, pb):
    from reference_quadrature import gl_fidelity_histogram
    assert np.all(hist.masses >= 0.0)
    assert abs(hist.masses.sum() - sum(big_thetas(*thetas))) <= 1e-12
    want = gl_fidelity_histogram(*thetas, pa, pb, hist.masses.size)
    assert np.abs(hist.masses - want).max() <= 1e-14


def assert_grid_compare(rep, pa, pb, epsilon, mode):
    # the binned law against the dense grid at GRID_NODES: the grid's window is a
    # count of cells, measured within 1.8e-4 relative of the law at epsilon = 1e-4;
    # a window that holds every cell with F > 0 leaves only rounding
    from reference_quadrature import dense_compare_strategies
    want = dense_compare_strategies(pa, pb, epsilon, mode, GRID_NODES)
    got = (rep.p_postselect, rep.p_outside_window, rep.p_total, rep.p_outside_only)
    assert got == pytest.approx(want, rel=1e-3 if epsilon < 0.5 else 1e-10, abs=0.0)


def assert_grid_histogram(hist, thetas, pa, pb):
    # the binned law against the dense grid at GRID_NODES: each bin within the
    # grid's error (measured <= 3.8e-5), the whole mass to rounding
    from reference_quadrature import dense_fidelity_histogram
    want = dense_fidelity_histogram(*thetas, pa, pb, hist.masses.size, GRID_NODES)
    assert np.all(hist.masses >= 0.0)
    assert abs(hist.masses.sum() - want.sum()) <= 1e-13
    assert np.abs(hist.masses - want).max() <= 1e-4


def grid_histogram(theta_a, theta_b, pa, pb, bins, nodes):
    """fidelity_histogram's bin masses from the test-side blocked grid."""
    from reference_quadrature import grid_sum
    edges = np.linspace(0.0, MAX_F, bins + 1)
    def counts(f):
        return np.histogram(np.clip(f, 0.0, MAX_F, out=f), bins=edges)[0]
    return grid_sum(theta_a, theta_b, pa, pb, nodes, counts)


class TestAgainstDenseGrid:
    """The closed-form law of the critically damped pairs against Gauss-Legendre
    integrals over t1 - t2, and against the dense outer-product grid where that
    grid loses mass; the binned law of the twin, the mixed pair and TINY_PAIR
    against the dense grid, within its discretisation error."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("pair, epsilon", [
        (pair, eps) for pair in GRID_PAIRS for eps in (1e-4, 0.5, 0.7)
        if not (pair in FAR_APART and eps == 0.5)])
    def test_compare_matches(self, pair, epsilon, mode):
        pa, pb = GRID_PAIRS[pair]
        rep = compare_strategies(pa, pb, epsilon)[MODES.index(mode)]
        if pair in CLOSED_FORM:
            assert_law_compare(rep, pa, pb, epsilon, mode)
        else:
            assert_grid_compare(rep, pa, pb, epsilon, mode)

    @pytest.mark.parametrize("ga, gb, epsilon", [
        (0.05, 80.0, 1e-4), (0.5, 40.0, 1e-4), (10.0, 12.5, 1e-4), (1.0, 3.0, 0.3),
        (3.0, 3.1, 0.45)])
    def test_window_mass_keeps_its_digits(self, ga, gb, epsilon):
        # a sum of positive terms: both orders of the pair give the same mass, and it
        # matches Gauss-Legendre to 1e-12 relative, also where it is 6e-11
        from reference_quadrature import gl_compare_strategies
        want = gl_compare_strategies(CriticallyDamped(ga), CriticallyDamped(gb), epsilon, "3f2")
        got = [compare_strategies(CriticallyDamped(a), CriticallyDamped(b), epsilon)[0]
               for a, b in ((ga, gb), (gb, ga))]
        assert got[0].p_postselect == got[1].p_postselect
        assert_close(got[0].p_postselect, want[0], rel=1e-12)

    @pytest.mark.parametrize("pair", FAR_APART)
    def test_window_above_zero_keeps_cells_the_dense_grid_underflows(self, pair):
        # At epsilon = 1/2 the window is F > 0, which holds for every click pair.
        # Far apart, the dense grid's X, Y or X Y underflows to 0 in some cells
        # whose densities are all positive; the law keeps all the mass.
        from reference_quadrature import dense_compare_strategies
        pa, pb = GRID_PAIRS[pair]
        for mode, rep in zip(MODES, compare_strategies(pa, pb, 0.5)):
            dense = dense_compare_strategies(pa, pb, 0.5, mode, GRID_NODES)
            assert rep.p_postselect == sum(big_thetas(QUARTER_PI, QUARTER_PI))
            assert dense[0] < rep.p_postselect
            assert rep.p_outside_only == dense[3] == 0.0

    def test_mirror_component_has_the_same_counts(self):
        # Theta_1 == Theta_2: the B x A component is the transpose of A x B with
        # w -> 1/w, and F(w) = F(1/w), so the grid builds A x B alone, weighted twice
        from reference_quadrature import dense_mixture_cells
        pa, pb = GRID_PAIRS["csv-2049"]
        (f_ab, cell_ab), (f_ba, cell_ba) = dense_mixture_cells(QUARTER_PI, QUARTER_PI, pa, pb,
                                                               GRID_NODES)
        assert cell_ab == cell_ba
        square = (GRID_NODES, GRID_NODES)
        np.testing.assert_allclose(f_ba.reshape(square).T, f_ab.reshape(square), rtol=1e-14)
        for epsilon in (1e-4, 0.5, 0.7):
            assert (np.count_nonzero(f_ab > MAX_F - epsilon)
                    == np.count_nonzero(f_ba > MAX_F - epsilon))
        edges = np.linspace(0.0, MAX_F, 201)
        assert np.array_equal(np.histogram(np.clip(f_ab, 0.0, MAX_F), bins=edges)[0],
                              np.histogram(np.clip(f_ba, 0.0, MAX_F), bins=edges)[0])

    @staticmethod
    def tiny_pair(swap, thetas):
        # At P_B's nodes Theta P_A underflows to 0 while P_A > 0: the dense grid's
        # B x A cells hold F = 0 there
        pa, pb = TINY_PAIR
        theta = big_thetas(*thetas)[0]
        p = pa.density(pb.inverse_cdf((np.arange(GRID_NODES) + 0.5) / GRID_NODES))
        assert np.any((theta * p == 0.0) & (p > 0.0))
        return (pb, pa) if swap else (pa, pb)

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("thetas", [(QUARTER_PI, QUARTER_PI), (0.6, 0.6)])
    def test_underflowing_theta_p_keeps_the_histogram(self, swap, thetas):
        # the law's F ~ 1e-162 and the dense grid's F = 0 share bin 0, which holds
        # all of the mass in either order
        from reference_quadrature import dense_fidelity_histogram
        pa, pb = self.tiny_pair(swap, thetas)
        hist = fidelity_histogram(*thetas, pa, pb, bins=200)
        want = dense_fidelity_histogram(*thetas, pa, pb, 200, GRID_NODES)
        assert np.count_nonzero(want) == 1
        np.testing.assert_allclose(hist.masses, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("epsilon", [1e-4, 0.7])
    def test_underflowing_theta_p_keeps_the_window(self, swap, epsilon):
        # F = 0 and F ~ 1e-162 fall on the same side of a window edge away from 0
        # (at epsilon = 1/2 the window is F > 0, which tells them apart).  The law
        # also reads the 2^-30-wide ramp between the pieces, where no node of the
        # grid lands; it adds under 1e-19 to each sum
        from reference_quadrature import dense_compare_strategies
        pa, pb = self.tiny_pair(swap, (QUARTER_PI, QUARTER_PI))
        for mode, rep in zip(MODES, compare_strategies(pa, pb, epsilon)):
            want = dense_compare_strategies(pa, pb, epsilon, mode, GRID_NODES)
            got = (rep.p_postselect, rep.p_outside_window, rep.p_total, rep.p_outside_only)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-19)

    def test_underflowing_theta_p_reads_the_same_in_either_order(self):
        # At epsilon = 1/2 the window is F > 0.  The dense grid's X Y underflows in
        # every cell and reads an empty window; the law keeps each cell's F > 0
        # whichever profile comes first, so the window holds the whole mass
        from reference_quadrature import dense_compare_strategies, profile_mass
        pa, pb = TINY_PAIR
        reports = [compare_strategies(p, q, 0.5) for p, q in ((pa, pb), (pb, pa))]
        assert reports[0] == reports[1]
        whole = sum(big_thetas(QUARTER_PI, QUARTER_PI)) * profile_mass(pa) * profile_mass(pb)
        for mode, rep in zip(MODES, reports[0]):
            assert rep.p_postselect == pytest.approx(whole, rel=1e-14)
            assert rep.p_outside_only == 0.0
            assert dense_compare_strategies(pa, pb, 0.5, mode, GRID_NODES)[0] < whole

    @pytest.mark.parametrize("thetas", [(QUARTER_PI, QUARTER_PI), (0.6, 0.6), (0.6, 1.0),
                                        (0.0, 1.0)])
    @pytest.mark.parametrize("pair", GRID_PAIRS)
    def test_histogram_matches(self, pair, thetas):
        pa, pb = GRID_PAIRS[pair]
        hist = fidelity_histogram(*thetas, pa, pb, bins=200)
        if pair in CLOSED_FORM:
            assert_law_histogram(hist, thetas, pa, pb)
        else:
            assert_grid_histogram(hist, thetas, pa, pb)

    @pytest.mark.parametrize("pair", ["readme", "csv-2049"])
    def test_command_defaults_match(self, pair):
        # the pair as `compare` and `fidelity-hist` run it, against the test-side
        # grid at 4000 nodes (measured within 1.8e-5 of the law on both pairs) and,
        # for the twin's bins, at 1500 nodes (within 8.6e-6); the README pair also
        # against Gauss-Legendre
        from reference_quadrature import grid_window_sums
        pa, pb = GRID_PAIRS[pair]
        rel = 2e-5 if pair == "readme" else 5e-5
        reps = compare_strategies(pa, pb, 1e-4)
        hist = fidelity_histogram(QUARTER_PI, QUARTER_PI, pa, pb, bins=200)
        grid_post, grid_outs = grid_window_sums(pa, pb, MAX_F - 1e-4, 4000)
        for rep, grid_out in zip(reps, grid_outs):
            if pair == "readme":
                assert_law_compare(rep, pa, pb, 1e-4, rep.mode)
            assert_close(rep.p_postselect, grid_post, rel=rel)
            assert_close(rep.p_outside_window, grid_post + grid_out, rel=rel)
            assert_close(rep.p_outside_only, grid_out, rel=rel)
        if pair == "readme":
            assert_law_histogram(hist, (QUARTER_PI, QUARTER_PI), pa, pb)
        else:
            grid = grid_histogram(QUARTER_PI, QUARTER_PI, pa, pb, 200, 1500)
            assert np.abs(hist.masses - grid).max() <= 2e-5


def traced_peaks(pa, pb):
    """tracemalloc peaks of the commands' compare and fidelity-hist calls on a pair."""
    tracemalloc.start()
    try:
        compare_strategies(pa, pb, 1e-4)
        compare_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fidelity_histogram(QUARTER_PI, QUARTER_PI, pa, pb)
        hist_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return compare_peak, hist_peak


def test_law_peak_allocation_stays_small():
    # on the tabulated twin: the binned law's pieces and cells go in blocks, so no
    # array outgrows the 2 x _LAW_BINS cells of S
    assert max(traced_peaks(*GRID_PAIRS["csv-2049"])) < 4 * 2**20


def test_twin_surface_peak_allocation_stays_small():
    # the 21 x 21 `efsq-surface` batch takes fewer cells per block, so it keeps the
    # twin's bound, where 2048-cell blocks would peak at 31 MB
    theta = np.arcsin(np.sqrt(np.linspace(0.02, 0.98, 21)))
    tracemalloc.start()
    try:
        expected_f_sq(theta[:, None], theta[None, :], *GRID_PAIRS["csv-2049"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_mixed_pair_peak_allocation_stays_small():
    # the mixed pair's 65537-point tabulation of P_A brings about 67k knot
    # segments, which set its peak; it keeps the bound it had on the grid
    assert max(traced_peaks(*GRID_PAIRS["mixed-2049"])) < 16 * 2**20


def identical_pair():
    p = GRID_PAIRS["csv-2049"][0]
    return p, Tabulated(p.times, p.densities)


LAW_PAIRS = {"csv-2049": GRID_PAIRS["csv-2049"], "tiny": TINY_PAIR,
             "tiny-swapped": TINY_PAIR[::-1], "identical": identical_pair()}
HIST_THETAS = [(QUARTER_PI, QUARTER_PI), (0.6, 1.0), (0.0, 1.0)]
FINE_PAIRS = [(10.0, 12.5), (3.0, 3.1), (1.0, 3.0)]


class TestTabulatedLaw:
    """compare, fidelity-hist, E(F^2) and its series for two tabulated profiles, or a
    mixed pair, read off the binned law of S = L(t1) - L(t2)."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def values(pa, pb, epsilon=1e-4):
        return np.array([[r.p_postselect, r.p_outside_window, r.p_total, r.p_outside_only]
                         for r in compare_strategies(pa, pb, epsilon)])

    @staticmethod
    def surface(pa, pb):
        """The 21 x 21 `efsq-surface` grid of a pair."""
        theta = np.arcsin(np.sqrt(np.linspace(0.02, 0.98, 21)))
        return expected_f_sq(theta[:, None], theta[None, :], pa, pb).value

    def test_twin_surface_and_moments_agree_with_the_closed_form(self):
        # the 2049-point tabulation's own error, 1.5e-6 on the surface and 9e-6 at I_6
        np.testing.assert_allclose(self.surface(*GRID_PAIRS["csv-2049"]), self.surface(PA, PB),
                                   rtol=2e-6, atol=0.0)
        np.testing.assert_allclose(series_moments(*GRID_PAIRS["csv-2049"], 6),
                                   series_moments(PA, PB, 6), rtol=2e-5, atol=0.0)

    def test_twin_surface_and_moments_agree_with_a_four_times_finer_law(self, monkeypatch):
        pa, pb = GRID_PAIRS["csv-2049"]
        coarse, moments = self.surface(pa, pb), series_moments(pa, pb, 6)
        monkeypatch.setattr(metrics, "_LAW_BINS", 4 * metrics._LAW_BINS)
        np.testing.assert_allclose(coarse, self.surface(pa, pb), rtol=2e-9, atol=0.0)
        np.testing.assert_allclose(moments, series_moments(pa, pb, 6), rtol=1e-8, atol=0.0)

    def test_twin_surface_is_symmetric_under_swapping_the_pair(self):
        # swapping the profiles swaps U and V, and swapping the tilts Theta_1 and Theta_2
        pa, pb = GRID_PAIRS["csv-2049"]
        np.testing.assert_allclose(self.surface(pb, pa).T, self.surface(pa, pb),
                                   rtol=1e-8, atol=0.0)

    def test_twin_diagonal_is_first_order(self):
        pa, pb = GRID_PAIRS["csv-2049"]
        diagonal = np.diagonal(self.surface(pa, pb))
        theta = np.arcsin(np.sqrt(np.linspace(0.02, 0.98, 21)))
        first = [efsq_first_order(t, t, pa, pb).value for t in theta]
        np.testing.assert_allclose(diagonal, first, rtol=1e-14, atol=0.0)

    def test_identical_profiles_are_one_atom_pair(self):
        # all the mass sits in one atom at S = 0, so w = 1
        from reference_quadrature import profile_mass
        pa, pb = LAW_PAIRS["identical"]
        m2 = profile_mass(pa) * profile_mass(pb)
        assert expected_f_sq(QUARTER_PI, QUARTER_PI, pa, pb).value == pytest.approx(
            m2 / 8.0, rel=1e-14)
        np.testing.assert_allclose(series_moments(pa, pb, 6), m2 / 2.0 ** np.arange(1, 8),
                                   rtol=1e-14, atol=0.0)

    def test_twin_surface_keeps_each_kernel_call_in_a_block(self, monkeypatch):
        # 441 tilt pairs share each call, so a 2048-cell block would take 1.8M values
        sizes = []
        expect = metrics._TabulatedLaw.expect

        def spy(law, kernel, *limits):
            def counted(w):
                out = kernel(w)
                sizes.append(out.size)
                return out
            return expect(law, counted, *limits)

        monkeypatch.setattr(metrics._TabulatedLaw, "expect", spy)
        self.surface(*GRID_PAIRS["csv-2049"])
        assert sizes and max(sizes) <= BLOCK_CELLS

    def test_agrees_with_a_four_times_finer_law(self, monkeypatch):
        pa, pb = GRID_PAIRS["csv-2049"]
        thetas = [(QUARTER_PI, QUARTER_PI), (0.6, 1.0)]
        coarse = self.values(pa, pb)
        coarse_hists = [fidelity_histogram(*th, pa, pb).masses for th in thetas]
        monkeypatch.setattr(metrics, "_LAW_BINS", 4 * metrics._LAW_BINS)
        np.testing.assert_allclose(coarse, self.values(pa, pb), rtol=1e-6, atol=0.0)
        for hist, th in zip(coarse_hists, thetas):
            assert np.abs(hist - fidelity_histogram(*th, pa, pb).masses).max() <= 1e-9

    def assert_agrees_with_the_closed_form_law(self, pa, pb, pc, pd):
        np.testing.assert_allclose(self.values(pa, pb), self.values(pc, pd), rtol=1e-6, atol=0.0)
        for th in HIST_THETAS[:2]:
            got, want = (fidelity_histogram(*th, p, q).masses for p, q in ((pa, pb), (pc, pd)))
            assert np.abs(got - want).max() <= 1e-8

    @pytest.mark.parametrize("ga, gb", FINE_PAIRS)
    def test_agrees_with_the_closed_form_law_on_fine_tabulations(self, ga, gb):
        # a 65537-point tabulation is within ~1e-8 of its profile, which bounds the gap
        pc, pd = CriticallyDamped(ga), CriticallyDamped(gb)
        self.assert_agrees_with_the_closed_form_law(tabulate_profile(pc, 65537),
                                                    tabulate_profile(pd, 65537), pc, pd)

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("ga, gb", FINE_PAIRS)
    def test_mixed_pair_agrees_with_the_closed_form_law(self, ga, gb, swap):
        # the library tabulates the critically damped side at the same resolution
        pc, pd = CriticallyDamped(ga), CriticallyDamped(gb)
        pa, pb = pc, tabulate_profile(pd, 65537)
        if swap:
            pa, pb, pc, pd = pb, pa, pd, pc
        self.assert_agrees_with_the_closed_form_law(pa, pb, pc, pd)

    @pytest.mark.parametrize("swap", [False, True])
    def test_far_apart_mixed_pair_keeps_its_window(self, swap):
        # the window mass is 4.5e-7: a 2000-node grid read 0 here and 8000 nodes
        # read it 33% low; the law is within 6.3e-5 of the closed form
        pc, pd = CriticallyDamped(0.5), CriticallyDamped(40.0)
        pairs = [(pc, tabulate_profile(pd, 65537)), (pc, pd)]
        if swap:
            pairs = [pair[::-1] for pair in pairs]
        got, want = (self.values(*pair) for pair in pairs)
        assert np.all(want > 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-3, atol=0.0)

    def test_grid_approaches_the_law_on_the_mixed_pair(self):
        # the test-side grid, the path the law replaced for mixed pairs: each
        # doubling of its nodes brings every sum closer to the law
        from reference_quadrature import grid_window_sums
        pa, pb = GRID_PAIRS["mixed-2049"]
        law = self.values(pa, pb)
        errors = []
        for nodes in (1000, 2000, 4000, 8000):
            post, outs = grid_window_sums(pa, pb, MAX_F - 1e-4, nodes)
            errors.append(np.array([post, *outs]) / law[[0, 0, 1], [0, 3, 3]] - 1.0)
        errors = np.abs(errors)
        assert np.all(np.diff(errors, axis=0) < 0.0)
        assert np.all(errors[0] < 1e-3) and np.all(errors[-1] < 1e-5)

    def test_dense_grid_approaches_the_law(self):
        # the window is a count of cells, so its error does not fall steadily; the
        # out-of-window successes converge from above
        from reference_quadrature import grid_window_sums
        pa, pb = GRID_PAIRS["csv-2049"]
        law = self.values(pa, pb)
        errors = []
        for nodes in (500, 1000, 2000, 4000):
            post, outs = grid_window_sums(pa, pb, MAX_F - 1e-4, nodes)
            errors.append(np.array([post, *outs]) / law[[0, 0, 1], [0, 3, 3]] - 1.0)
        errors = np.array(errors)
        assert np.all(np.abs(errors[:, 0]) < 1e-3) and np.all(np.abs(errors[2:, 0]) < 5e-5)
        assert np.all(errors[:, 1:] > 0.0) and np.all(np.diff(errors[:, 1:], axis=0) < 0.0)
        assert np.all(errors[-1, 1:] < 2e-5)

    def test_log_ratio_unbounded_at_both_ends(self):
        # P_A vanishes at t = 0 and P_B at t = 1, so L runs from -inf to +inf and the
        # bins stop short of both ends; against the grid at 4000 nodes (error ~1e-4)
        from reference_quadrature import grid_window_sums
        t = np.linspace(0.0, 1.0, 257)
        pa, pb = Tabulated(t, 2.0 * t), Tabulated(t, 2.0 * (1.0 - t))
        for epsilon in (1e-4, 0.1):
            law = self.values(pa, pb, epsilon)[0]
            post, (out, _) = grid_window_sums(pa, pb, MAX_F - epsilon, 4000)
            assert law[0] == pytest.approx(post, rel=5e-4)
            assert law[3] == pytest.approx(out, rel=5e-4)

    @pytest.mark.parametrize("epsilon", [1e-4, 0.1, 0.5, 0.7])
    def test_identical_profiles_are_all_in_the_window(self, epsilon):
        from reference_quadrature import profile_mass
        pa, pb = LAW_PAIRS["identical"]
        total = sum(big_thetas(QUARTER_PI, QUARTER_PI)) * profile_mass(pa) * profile_mass(pb)
        for rep in compare_strategies(pa, pb, epsilon):
            assert rep.p_postselect == pytest.approx(total, rel=1e-14)
            assert rep.p_outside_only == 0.0
        hist = fidelity_histogram(QUARTER_PI, QUARTER_PI, pa, pb)
        assert hist.masses[-1] == pytest.approx(total, rel=1e-14)
        assert np.count_nonzero(hist.masses) == 1

    @pytest.mark.parametrize("epsilon", [1e-4, 0.5, 0.7])
    def test_tiny_pair_reads_the_same_in_either_order(self, epsilon):
        # S depends on the densities alone and Theta enters only as the shift x, so
        # Theta P_A underflowing where P_A = 5e-324 changes nothing (the grid's trap)
        same = [self.values(p, q, epsilon) for p, q in (TINY_PAIR, TINY_PAIR[::-1])]
        np.testing.assert_allclose(same[0], same[1], rtol=1e-12, atol=1e-300)
        if epsilon == 0.5:
            assert same[0][0, 0] > 0.49

    @pytest.mark.parametrize("thetas", HIST_THETAS)
    @pytest.mark.parametrize("pair", LAW_PAIRS)
    def test_histogram_holds_the_whole_mass(self, pair, thetas):
        from reference_quadrature import profile_mass
        pa, pb = LAW_PAIRS[pair]
        hist = fidelity_histogram(*thetas, pa, pb)
        assert np.all(hist.masses >= 0.0)
        want = sum(big_thetas(*thetas)) * profile_mass(pa) * profile_mass(pb)
        assert hist.masses.sum() == pytest.approx(want, rel=1e-12)


class TestResourceRatio:
    def test_unit_probability(self):
        assert resource_ratio(1.0, 10.0) == 1.0
        assert resource_ratio(1.0, 1e6) == 1.0

    def test_order_of_magnitude_rule(self):
        n = 1e4
        ratio = resource_ratio(0.03, n) / resource_ratio(0.3, n)
        assert ratio == pytest.approx(0.1 ** -math.log(n), rel=1e-9)

    def test_example_overhead_ratio(self):
        n = 1e6
        got = resource_ratio(0.033, n) / resource_ratio(0.39, n)
        assert got == pytest.approx((0.033 / 0.39) ** -math.log(n), rel=1e-9)

    def test_validation(self):
        with pytest.raises(QuadratureError):
            resource_ratio(0.0, 10)
        with pytest.raises(QuadratureError):
            resource_ratio(0.5, 1.0)


class TestMonteCarloConsistency:
    def test_sampled_histogram_matches_quadrature(self):
        from reference_heralding import click_rows, sample_clicks_rows
        theta_a, theta_b = 0.6, 1.0
        ctx = DhContext(theta_a, theta_b, PA, PB)
        rng = np.random.default_rng(31)
        n = 100_000
        t1, t2 = sample_clicks_rows(ctx, click_rows(ctx, rng, n))
        f = fidelity_value(theta_a, theta_b, PA, PB, t1, t2)
        hist = fidelity_histogram(theta_a, theta_b, PA, PB, bins=10)
        p = success_probability(theta_a, theta_b)
        counts, _ = np.histogram(f, bins=hist.edges)
        for k in range(10):
            frac = hist.masses[k] / p          # conditional bin probability
            se = math.sqrt(max(frac * (1 - frac), 1e-12) / n)
            # 3 sigma statistical plus a 3e-4 margin
            assert abs(counts[k] / n - frac) < 3 * se + 3e-4

    def test_sampled_moments_match_quadrature(self):
        from reference_heralding import click_rows, sample_clicks_rows
        theta_a, theta_b = 0.7, 1.0
        ctx = DhContext(theta_a, theta_b, PA, PB)
        rng = np.random.default_rng(4242)
        n = 100_000
        t1, t2 = sample_clicks_rows(ctx, click_rows(ctx, rng, n))
        f = fidelity_value(theta_a, theta_b, PA, PB, t1, t2)
        p = success_probability(theta_a, theta_b)
        ef = expected_f(theta_a, theta_b, PA, PB).value / p
        efsq = expected_f_sq(theta_a, theta_b, PA, PB).value / p
        for sample, target in ((f, ef), (f**2, efsq)):
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - target) < 3 * se
