import math
import tracemalloc

import numpy as np
import pytest

from tglab.cli import emit_csv
from tglab.errors import ProfileError, QuadratureError
from tglab.leakage import (
    CavityParams,
    CriticallyDamped,
    Tabulated,
    _interp_scalar,
    integrate,
    load_profile_csv,
    overlap_integral,
    tabulate_profile,
)


def closed_form_overlap(ga, gb):
    return 8.0 * (ga * gb) ** 1.5 / (ga + gb) ** 3


class TestCriticallyDampedDensity:
    def test_heaviside_cutoff(self):
        assert CriticallyDamped(10.0).density(0.0) == 0.0
        assert CriticallyDamped(10.0).density(-0.3) == 0.0

    def test_maximum_at_inverse_g(self):
        # maximising 4 g^3 t^2 exp(-2gt) gives t* = 1/g, value 4 g / e^2
        g = 10.0
        density = CriticallyDamped(g).density
        assert density(1.0 / g) == pytest.approx(40.0 * math.exp(-2.0), rel=1e-12)
        t = np.linspace(1e-4, 1.0, 3000)
        assert density(t).max() <= 40.0 * math.exp(-2.0) + 1e-12

    @pytest.mark.parametrize("g", [0.5, 10.0, 12.5, 80.0])
    def test_unit_normalisation(self, g):
        prof = CriticallyDamped(g)
        val = integrate(prof.density, prof.t_max)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_inputs(self):
        for bad_g in (-1.0, 0.0, float("nan"), float("inf")):
            with pytest.raises(ProfileError):
                CriticallyDamped(bad_g)
        for bad in (float("nan"), float("inf"), np.float64("nan"), np.float64("inf")):
            with pytest.raises(ProfileError):
                CriticallyDamped(10.0).density(bad)
            with pytest.raises(ProfileError):
                CriticallyDamped(10.0).density(np.array([0.1, bad]))

    @pytest.mark.parametrize("g", [0.5, 10.0, 12.5])
    def test_scalar_path_matches_array_path(self, g):
        density = CriticallyDamped(g).density
        for t in (0.0, -0.3, 1e-9, 0.13, 2.0, 20.0 / g):
            (expect,) = density(np.array([t]))
            for scalar in (t, np.float64(t)):
                got = density(scalar)
                assert type(got) is float
                assert got == pytest.approx(expect, rel=1e-15, abs=0.0)


class TestCavityParams:
    def test_validation(self):
        CavityParams(10.0, 40.0)
        with pytest.raises(ProfileError):
            CavityParams(0.0, 40.0)
        with pytest.raises(ProfileError):
            CavityParams(10.0, -1.0)


class TestIntegrate:
    def test_zero_integrand(self):
        assert integrate(lambda t: np.zeros_like(t), 2.0) == 0.0

    def test_product_of_normalised_densities(self):
        from reference_quadrature import simpson_2d
        pa, pb = CriticallyDamped(10.0), CriticallyDamped(12.5)
        val = simpson_2d(lambda t1, t2: pa.density(t1) * pb.density(t2), max(pa.t_max, pb.t_max))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_determinism(self):
        f = lambda t: np.exp(-3.0 * t) * t**2
        assert integrate(f, 1.0) == integrate(f, 1.0)

    def test_nonconvergence_reported(self):
        # panel budget of a 1-d integral is finite; a wild oscillator blows it
        with pytest.raises(QuadratureError):
            integrate(lambda t: np.sin(2.0e9 * t) * t, 1.0)

    @pytest.mark.parametrize("t_max", [-1.0, 0.0, math.inf, math.nan])
    def test_window_validation(self, t_max):
        with pytest.raises(QuadratureError):
            integrate(lambda t: np.ones_like(t), t_max)

    def test_integrand_shape_enforced(self):
        with pytest.raises(QuadratureError):
            integrate(lambda t: 1.0, 1.0)
        with pytest.raises(QuadratureError):       # the batch shape changes between calls
            integrate(lambda t: np.ones((t.size % 3 + 1, t.size)), 1.0)

    def test_batch_matches_per_integrand_doubling(self):
        # the nested batched rule against the per-integrand doubling it replaced
        from reference_quadrature import simpson_doubling
        rates = np.array([0.5, 3.0, 10.0, 40.0])
        powers = np.arange(3)

        def f(t):
            return t ** powers[:, None, None] * np.exp(-rates[:, None] * t)

        got = integrate(f, 1.0)
        assert isinstance(got, np.ndarray) and got.shape == (3, 4)
        for k in powers:
            for j, rate in enumerate(rates):
                want = simpson_doubling(lambda t: t**k * np.exp(-rate * t), 1.0)
                assert abs(got[k, j] - want) <= 1e-9 * abs(want)
        assert type(integrate(lambda t: np.exp(-t), 1.0)) is float

    def test_every_element_meets_the_stopping_rule(self):
        # a huge constant agrees at once; a small fast oscillation needs far
        # more panels, and the batch must double until it agrees as well
        from reference_quadrature import simpson_doubling
        k = 300.0
        big, slow = integrate(lambda t: np.stack([np.full_like(t, 1e9), np.cos(k * t)]), 1.0)
        assert big == pytest.approx(1e9, rel=1e-15)
        assert slow == pytest.approx(math.sin(k) / k, rel=1e-9)
        assert slow == pytest.approx(simpson_doubling(lambda t: np.cos(k * t), 1.0), rel=1e-9)

    def test_nonconvergent_batch_stays_in_small_memory(self):
        # at 2^21 panels the new nodes of a batch of 4 take 32 MB in one piece
        freqs = 2.0e9 * np.arange(1, 5)[:, None]
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError, match="did not reach"):
                integrate(lambda t: np.sin(freqs * t) * t, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestOverlapIntegral:
    def test_identical_profiles(self):
        p = CriticallyDamped(10.0)
        assert overlap_integral(p, p) == pytest.approx(1.0, abs=1e-9)

    def test_example_pair_closed_form(self):
        val = overlap_integral(CriticallyDamped(10.0), CriticallyDamped(12.5))
        assert val == pytest.approx(0.981539, abs=1e-6)
        assert val == pytest.approx(closed_form_overlap(10.0, 12.5), abs=1e-9)

    def test_symmetry_and_bound(self):
        pa, pb = CriticallyDamped(10.0), CriticallyDamped(25.0)
        ab = overlap_integral(pa, pb)
        assert ab == pytest.approx(overlap_integral(pb, pa), abs=1e-12)
        assert ab < 1.0

    def test_disjoint_support_limit(self):
        # overlap decreases monotonically as g_B runs away from g_A
        vals = [overlap_integral(CriticallyDamped(10.0), CriticallyDamped(gb))
                for gb in (12.5, 25.0, 50.0, 100.0, 400.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    def test_tabulated_reproduces_closed_form(self):
        pa = CriticallyDamped(10.0)
        pb = CriticallyDamped(12.5)
        ta, tb = tabulate_profile(pa, 8193), tabulate_profile(pb, 8193)
        assert overlap_integral(ta, tb) == pytest.approx(overlap_integral(pa, pb), abs=1e-6)


class TestTabulated:
    def test_validation(self):
        with pytest.raises(ProfileError):
            Tabulated([0.1, 0.2], [1.0, 1.0])  # does not start at 0
        with pytest.raises(ProfileError):
            Tabulated([0.0, 0.0, 0.1], [1.0, 1.0, 1.0])  # not strictly ascending
        with pytest.raises(ProfileError):
            Tabulated([0.0, 0.1], [-1.0, 1.0])  # negative density
        with pytest.raises(ProfileError):
            Tabulated([0.0, 1.0], [0.0, 0.0])  # zero mass
        with pytest.raises(ProfileError):
            Tabulated([0.0, 1.0], [4.0, 4.0])  # mass above 1

    def test_sub_unit_mass_allowed(self):
        p = Tabulated([0.0, 1.0, 2.0], [0.0, 0.5, 0.0])
        assert repr(p) == "Tabulated(3 points, mass=0.5)"
        assert integrate(p.density, p.t_max) == pytest.approx(0.5)

    def test_density_zero_outside_grid(self):
        p = Tabulated([0.0, 1.0], [0.5, 0.5])
        assert p.density(1.5) == 0.0
        assert p.density(0.25) == pytest.approx(0.5)

    def test_declared_mass_matches_quadrature(self):
        p = tabulate_profile(CriticallyDamped(10.0), 8193)
        val = integrate(p.density, p.t_max)
        assert val == pytest.approx(np.trapezoid(p.densities, p.times), abs=1e-8)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        p = tabulate_profile(CriticallyDamped(12.5), 257)
        path = tmp_path / "prof.csv"
        t = np.linspace(0.0, p.t_max, 257)
        emit_csv([("time", "density"), *zip(t, p.density(t))], path)
        q = load_profile_csv(path)
        assert np.array_equal(q.densities, p.density(t))

    def test_csv_byte_order_mark_allowed(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM
        p = CriticallyDamped(10.0)
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        t = np.linspace(0.0, p.t_max, 257)
        emit_csv([("time", "density"), *zip(t, p.density(t))], plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_profile_csv(plain), load_profile_csv(marked)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.densities, b.densities)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\n1.0,0.0\n")
        with pytest.raises(ProfileError):
            load_profile_csv(path)


class TestSampling:
    def test_seeded_determinism(self):
        p = CriticallyDamped(10.0)
        a = p.sample(np.random.default_rng(42), size=100)
        b = p.sample(np.random.default_rng(42), size=100)
        assert np.array_equal(a, b)
        assert float(p.sample(np.random.default_rng(7))) == float(p.sample(np.random.default_rng(7)))

    def test_empirical_mean_matches_gamma_shape(self):
        # mean of Gamma(3, rate 2g) is 3/(2g); 3 standard errors at 1e6 draws
        g = 10.0
        p = CriticallyDamped(g)
        draws = p.sample(np.random.default_rng(2024), size=1_000_000)
        mean, se = draws.mean(), draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(mean - 3.0 / (2.0 * g)) < 3.0 * se

    def test_kolmogorov_smirnov_against_analytic_cdf(self):
        # analytic CDF of Gamma(3, 2g): 1 - e^{-x}(1 + x + x^2/2), x = 2 g t
        g = 12.5
        p = CriticallyDamped(g)
        draws = np.sort(p.sample(np.random.default_rng(99), size=1_000_000))
        x = 2.0 * g * draws
        cdf = 1.0 - np.exp(-x) * (1.0 + x + 0.5 * x**2)
        n = draws.size
        ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(0, n) / n))
        assert ks < 0.002

    def test_zero_mass_profile_rejected(self):
        with pytest.raises(ProfileError):
            Tabulated([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])


def _csv_twin(tmp_path, g):
    """A critically damped profile as a 2049-point calibrated CSV file, loaded back."""
    t = np.linspace(0.0, 20.0 / g, 2049)
    path = tmp_path / f"twin_{g}.csv"
    emit_csv([("time", "density"), *zip(t, CriticallyDamped(g).density(t))], path)
    return load_profile_csv(path)


class TestScalarInverseCdf:
    @pytest.mark.parametrize("kind", ["critically_damped", "csv"])
    @pytest.mark.parametrize("g", [10.0, 12.5])
    def test_bit_identical_to_np_interp(self, kind, g, tmp_path):
        profile = CriticallyDamped(g) if kind == "critically_damped" else _csv_twin(tmp_path, g)
        knots = profile.cdf(np.linspace(0.0, profile.t_max, 8193)).tolist()
        if kind == "critically_damped":
            assert len(knots) - len(set(knots)) > 200      # the equal-knot rule is exercised
        u = (knots + [math.nextafter(k, -math.inf) for k in knots]
             + [math.nextafter(k, math.inf) for k in knots]
             + [0.0, 1.0 - 2.0**-53] + np.random.default_rng(11).random(100_000).tolist())
        want = profile.inverse_cdf(np.array(u))             # the array branch is np.interp
        got = np.array([profile.inverse_cdf(x) for x in u])
        assert got.tobytes() == want.tobytes()
        assert all(type(profile.inverse_cdf(x)) is float for x in (0.3, np.float64(0.3)))

    def test_degenerate_tables_follow_np_interp(self):
        # infinite slopes (a subnormal knot gap), infinite values (a NaN slope
        # between two), equal knots
        xp = [0.0, 5e-324, 1e-300, 0.4, 0.5, 0.5, 0.5, 1.0, 2.0]
        fp = [0.0, 1.0, 1e308, math.inf, math.inf, math.inf, -1.0, 3.0, 3.0]
        xs = sorted({y for x in xp + [-1.0, 0.25, 0.75, 1.5, 3.0]
                     for y in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))})
        want = np.interp(xs, xp, fp)
        got = np.array([_interp_scalar(x, xp, fp) for x in xs])
        assert got.tobytes() == want.tobytes()

    def test_nan_and_clamping(self):
        p = CriticallyDamped(10.0)
        assert math.isnan(p.inverse_cdf(math.nan))
        assert p.inverse_cdf(-0.5) == 0.0
        assert p.inverse_cdf(1.5) == p.t_max

