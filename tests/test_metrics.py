import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tglab.errors import QuadratureError
from tglab.heralding import DhContext, big_thetas, sample_clicks_array, success_probability
from tglab.leakage import CriticallyDamped, tabulate_profile
from tglab.metrics import (
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
        from reference_quadrature import simpson_2d
        th1, th2 = big_thetas(theta_a, theta_b)

        def integrand(t1, t2):
            x = th1 * PA.density(t1) * PB.density(t2)
            y = th2 * PB.density(t1) * PA.density(t2)
            return np.sqrt(x * y)

        val = simpson_2d(integrand, max(PA.t_max, PB.t_max), rtol=1e-7)
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

    @pytest.mark.parametrize("pair", ["tabulated", "mixed"])
    def test_other_profile_pairs_rejected_before_integrating(self, pair, monkeypatch):
        pa = tabulate_profile(PA, 257)
        pb = tabulate_profile(PB, 257) if pair == "tabulated" else PB

        def integrate(f, t_max):
            raise AssertionError("integrated a pair it rejects")

        monkeypatch.setattr("tglab.metrics.integrate", integrate)
        with pytest.raises(QuadratureError, match="critically damped"):
            expected_f_sq(0.7, 0.8, pa, pb)
        with pytest.raises(QuadratureError, match="critically damped"):
            expected_f_sq(np.array([0.7, 0.3]), np.array([[0.8], [1.1]]), pa, pb)
        with pytest.raises(QuadratureError, match="critically damped"):
            series_moments(pa, pb, 3)


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
            hist = fidelity_histogram(ta, tb, PA, PB, bins=40, nodes=400)
            assert hist.total_mass == pytest.approx(success_probability(ta, tb), abs=1e-6)

    def test_identical_profiles_all_mass_at_half(self):
        p = CriticallyDamped(10.0)
        hist = fidelity_histogram(QUARTER_PI, QUARTER_PI, p, p, bins=50, nodes=300)
        assert hist.masses[-1] == pytest.approx(0.5, abs=1e-9)
        assert hist.masses[:-1].sum() == pytest.approx(0.0, abs=1e-12)

    def test_window_mass_reproduces_postselect_number(self):
        mass = compare_strategies(PA, PB, 1e-4, nodes=2000)[0].p_postselect
        assert mass == pytest.approx(0.033, abs=0.003)

    def test_bin_count_enforced(self):
        with pytest.raises(QuadratureError):
            fidelity_histogram(QUARTER_PI, QUARTER_PI, PA, PB, bins=5)

    @pytest.mark.parametrize("nodes", [0, -3])
    def test_node_count_enforced(self, nodes):
        with pytest.raises(QuadratureError):
            fidelity_histogram(QUARTER_PI, QUARTER_PI, PA, PB, nodes=nodes)
        with pytest.raises(QuadratureError):
            compare_strategies(PA, PB, 1e-4, nodes=nodes)

    @pytest.mark.parametrize("epsilon", [0.0, -1e-4, math.nan, math.inf])
    def test_window_width_enforced(self, epsilon):
        with pytest.raises(QuadratureError):
            compare_strategies(PA, PB, epsilon, nodes=10)


class TestCompareStrategies:
    def test_3f2_mode_reproduces_reported_numbers(self):
        (rep,) = compare_strategies(PA, PB, 1e-4, ("3f2",))
        assert rep.p_postselect == pytest.approx(0.033, abs=0.003)
        assert rep.p_outside_window == pytest.approx(0.357, abs=0.005)
        assert rep.p_total == pytest.approx(0.390, abs=0.006)
        assert rep.p_total == pytest.approx(rep.p_postselect + rep.p_outside_window, abs=1e-12)

    def test_exact_mode_reported_alongside(self):
        approx, rep = compare_strategies(PA, PB, 1e-4, ("3f2", "exact"))
        assert rep.mode == "exact"
        assert 0.0 < rep.p_outside_only < rep.p_outside_window
        assert rep.p_outside_only < approx.p_outside_only   # 2F^2 + ... < 3F^2 below 1/2

    @pytest.mark.parametrize("pair", ["readme", "csv-2049"])
    def test_all_modes_in_one_pass_equal_per_mode_runs(self, pair):
        pa, pb = GRID_PAIRS[pair]
        apart = [compare_strategies(pa, pb, 1e-4, (mode,), nodes=GRID_NODES)[0]
                 for mode in MODES]
        assert compare_strategies(pa, pb, 1e-4, MODES, nodes=GRID_NODES) == apart
        assert compare_strategies(pa, pb, 1e-4, MODES[::-1], nodes=GRID_NODES) == apart[::-1]

    @pytest.mark.parametrize("modes", ["3f2", ("3f2", "exct")])
    def test_modes_validated(self, modes):
        with pytest.raises(QuadratureError, match="mode"):
            compare_strategies(PA, PB, 1e-4, modes, nodes=10)

    def test_first_attempt_forms(self):
        assert first_attempt_success(0.5, "3f2") == pytest.approx(0.75)
        assert first_attempt_success(0.5, "exact") == pytest.approx(0.75)
        f = 0.3
        assert first_attempt_success(f, "exact") == pytest.approx(
            2 * f**2 + 2 * f**4 / (1 - 2 * f**2))

    def test_wide_window_limit(self):
        (rep,) = compare_strategies(PA, PB, 0.5, ("3f2",), nodes=600)
        assert rep.p_postselect == pytest.approx(0.5, abs=1e-9)
        assert rep.p_outside_only == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_window_width(self):
        reps = [compare_strategies(PA, PB, eps, ("3f2",), nodes=600)[0]
                for eps in (1e-4, 1e-3, 1e-2, 0.1, 0.5)]
        posts = [r.p_postselect for r in reps]
        outs = [r.p_outside_only for r in reps]
        assert all(a <= b + 1e-12 for a, b in zip(posts, posts[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(outs, outs[1:]))


# The README pair, its 2049-point tabulated twin (P_B is 0 on (1.6, 2.0]),
# a near-identical pair, and two far-apart pairs whose densities underflow.
GRID_PAIRS = {
    "readme": (PA, PB),
    "csv-2049": (tabulate_profile(PA, 2049), tabulate_profile(PB, 2049)),
    "g-3-3.1": (CriticallyDamped(3.0), CriticallyDamped(3.1)),
    "g-0.5-40": (CriticallyDamped(0.5), CriticallyDamped(40.0)),
    "g-0.05-80": (CriticallyDamped(0.05), CriticallyDamped(80.0)),
}
FAR_APART = ("g-0.5-40", "g-0.05-80")
GRID_NODES = 500          # four row blocks per component, the last one short


def assert_close(got, want, rel=1e-14):
    assert abs(got - want) <= rel * abs(want), (got, want)


class TestAgainstDenseGrid:
    """The blocked per-axis grid against the dense outer-product grid."""

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
        from reference_quadrature import dense_compare_strategies
        pa, pb = GRID_PAIRS[pair]
        (rep,) = compare_strategies(pa, pb, epsilon, (mode,), nodes=GRID_NODES)
        post, out_window, total, out_only = dense_compare_strategies(pa, pb, epsilon, mode,
                                                                     GRID_NODES)
        assert rep.p_postselect == post
        assert_close(rep.p_outside_window, out_window)
        assert_close(rep.p_total, total)
        assert_close(rep.p_outside_only, out_only)

    @pytest.mark.parametrize("pair", FAR_APART)
    def test_window_above_zero_keeps_cells_the_dense_grid_underflows(self, pair):
        # At epsilon = 1/2 the window is F > 0.  Far apart, the dense grid's
        # X, Y or X Y underflows to 0 in some cells whose densities are all
        # positive; the blocked grid keeps them (F ~ 1e-160 there).
        from reference_quadrature import dense_compare_strategies, positive_cell_mass
        pa, pb = GRID_PAIRS[pair]
        for mode, rep in zip(MODES, compare_strategies(pa, pb, 0.5, MODES, nodes=GRID_NODES)):
            dense = dense_compare_strategies(pa, pb, 0.5, mode, GRID_NODES)
            assert rep.p_postselect == positive_cell_mass(pa, pb, GRID_NODES)
            assert dense[0] <= rep.p_postselect
            assert rep.p_outside_only == dense[3] == 0.0

    @pytest.mark.parametrize("thetas", [(QUARTER_PI, QUARTER_PI), (0.6, 1.0), (0.0, 1.0)])
    @pytest.mark.parametrize("pair", GRID_PAIRS)
    def test_histogram_matches(self, pair, thetas):
        from reference_quadrature import dense_fidelity_histogram
        pa, pb = GRID_PAIRS[pair]
        hist = fidelity_histogram(*thetas, pa, pb, bins=200, nodes=GRID_NODES)
        assert np.array_equal(hist.masses,
                              dense_fidelity_histogram(*thetas, pa, pb, 200, GRID_NODES))

    @pytest.mark.parametrize("pair", ["readme", "csv-2049"])
    def test_command_defaults_match(self, pair):
        # the node counts `compare` and `fidelity-hist` run with
        from reference_quadrature import dense_compare_strategies, dense_fidelity_histogram
        pa, pb = GRID_PAIRS[pair]
        for mode, rep in zip(MODES, compare_strategies(pa, pb, 1e-4, MODES, nodes=2000)):
            post, out_window, total, out_only = dense_compare_strategies(pa, pb, 1e-4, mode, 2000)
            assert rep.p_postselect == post
            assert_close(rep.p_outside_window, out_window)
            assert_close(rep.p_total, total)
            assert_close(rep.p_outside_only, out_only)
        hist = fidelity_histogram(QUARTER_PI, QUARTER_PI, pa, pb, bins=200, nodes=1500)
        assert np.array_equal(hist.masses,
                              dense_fidelity_histogram(QUARTER_PI, QUARTER_PI, pa, pb, 200, 1500))


def test_grid_peak_allocation_stays_small():
    # a dense 2000 x 2000 grid takes 238 MB, a 1500 x 1500 one 107 MB
    pa, pb = CriticallyDamped(10.0), CriticallyDamped(12.5)
    tracemalloc.start()
    try:
        compare_strategies(pa, pb, 1e-4, MODES, nodes=2000)
        compare_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        fidelity_histogram(QUARTER_PI, QUARTER_PI, pa, pb, nodes=1500)
        hist_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert compare_peak < 16 * 2**20
    assert hist_peak < 16 * 2**20


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
        theta_a, theta_b = 0.6, 1.0
        ctx = DhContext(theta_a, theta_b, PA, PB)
        rng = np.random.default_rng(31)
        n = 100_000
        t1, t2 = sample_clicks_array(ctx, rng, n)
        f = fidelity_value(theta_a, theta_b, PA, PB, t1, t2)
        hist = fidelity_histogram(theta_a, theta_b, PA, PB, bins=10, nodes=2500)
        p = success_probability(theta_a, theta_b)
        counts, _ = np.histogram(f, bins=hist.edges)
        for k in range(10):
            frac = hist.masses[k] / p          # conditional bin probability
            se = math.sqrt(max(frac * (1 - frac), 1e-12) / n)
            # 3 sigma statistical plus the histogram's own bin-boundary
            # resolution at 2500 nodes per axis
            assert abs(counts[k] / n - frac) < 3 * se + 3e-4

    def test_sampled_moments_match_quadrature(self):
        theta_a, theta_b = 0.7, 1.0
        ctx = DhContext(theta_a, theta_b, PA, PB)
        rng = np.random.default_rng(4242)
        n = 100_000
        t1, t2 = sample_clicks_array(ctx, rng, n)
        f = fidelity_value(theta_a, theta_b, PA, PB, t1, t2)
        p = success_probability(theta_a, theta_b)
        ef = expected_f(theta_a, theta_b, PA, PB).value / p
        efsq = expected_f_sq(theta_a, theta_b, PA, PB).value / p
        for sample, target in ((f, ef), (f**2, efsq)):
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - target) < 3 * se
