import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from tglab import leakage
from tglab.cli import emit_csv
from tglab.errors import ProfileError, QuadratureError
from tglab.leakage import (
    CavityParams,
    CriticallyDamped,
    Tabulated,
    integrate,
    load_profile_csv,
    overlap_integral,
    tabulate_profile,
)


def closed_form_overlap(ga, gb):
    # 8 (g_A g_B)^{3/2} / (g_A + g_B)^3, grouped so that equal couplings give 1 exactly
    return (2.0 * math.sqrt(ga * gb) / (ga + gb)) ** 3


# A peak of mass 1 (and one of mass 0.995 with a 1e-3 tail) narrower than the
# 8193-node table's spacing of [0, 10]
PEAK_TIMES = [0.0, 9e-4, 1e-3, 1.1e-3, 10.0]
PEAK = Tabulated(PEAK_TIMES, [0.0, 0.0, 1e4, 0.0, 0.0])
PEAK_WITH_TAIL = Tabulated(PEAK_TIMES, [0.0, 0.0, 0.995e4, 0.0, 1e-3])


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

    @pytest.mark.parametrize("g", [1e-300, 1e300, 9.9e-101, 1.01e100])
    def test_rejects_couplings_outside_the_range(self, g):
        # past it g^3 or (20/g)^2 is not a finite normal double: nan densities at
        # 1e-300, an OverflowError at 1e300
        with pytest.raises(ProfileError, match=r"\[1e-100, 1e100\]"):
            CriticallyDamped(g)

    @pytest.mark.parametrize("g", [1e-100, 1e-3, 10.0, 1e3, 1e100])
    def test_couplings_in_the_range_have_finite_densities(self, g):
        prof = CriticallyDamped(g)
        t = np.linspace(0.0, prof.t_max, 2049)
        values = prof.density(t)
        assert np.all(np.isfinite(values)) and values.max() > 0.0
        assert math.isfinite(prof.density(float(t[100])))

    def test_scalar_path_takes_only_positive_finite_times(self, monkeypatch):
        calls, exp = [], math.exp
        monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
        density = CriticallyDamped(10.0).density
        for t in (1e-9, np.float64(0.13), 0.0, -0.3, np.array(0.13)):
            assert type(density(t)) is float
        for t in (math.nan, math.inf, -math.inf):
            with pytest.raises(ProfileError):
                density(t)
        assert len(calls) == 2

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
        # the batched Gauss-Legendre rule against the per-integrand Simpson
        # doubling it replaced
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

    def test_node_table_is_16_point_gauss_legendre(self):
        x, w = np.polynomial.legendre.leggauss(16)
        assert np.max(np.abs(leakage._GL_NODES - 0.5 * (x + 1.0))) <= 1e-15
        assert np.max(np.abs(leakage._GL_WEIGHTS - 0.5 * w)) <= 1e-15

    def test_import_builds_no_node_table(self):
        # a table from leggauss would load numpy.polynomial, and its memory, into
        # every run; the rule's table is written out
        code = ("import sys, tglab.cli, tglab.metrics; "
                "print(any(m.startswith('numpy.polynomial') for m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.strip() == "False"


class TestOverlapIntegral:
    def test_identical_profiles(self):
        p = CriticallyDamped(10.0)
        assert overlap_integral(p, p) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("g", [1e-100, 0.1, 0.3, 1.7, 10.0, 12.5, 1e100])
    def test_identical_critically_damped_profiles_read_one_exactly(self, g):
        # (g g)^{3/2} and (g + g)^3 round apart for g = 0.3; sqrt(g g) is g exactly
        assert overlap_integral(CriticallyDamped(g), CriticallyDamped(g)) == 1.0

    def test_example_pair_closed_form(self, monkeypatch):
        # two critically damped profiles read the closed form: nothing is tabulated
        monkeypatch.setattr(leakage, "tabulate_profile", None)
        val = overlap_integral(CriticallyDamped(10.0), CriticallyDamped(12.5))
        assert val == pytest.approx(0.981539, abs=1e-6)
        assert val == closed_form_overlap(10.0, 12.5)
        assert val == pytest.approx(8.0 * (10.0 * 12.5) ** 1.5 / 22.5**3, rel=1e-15)

    @pytest.mark.parametrize("ga, gb", [(10.0, 12.5), (1.0, 200.0), (3.0, 3.1), (10.0, 40.0),
                                        (5.0, 5.0001), (10.0, 10.0)])
    def test_closed_form_agrees_with_the_quadrature_it_replaced(self, ga, gb):
        # `integrate` of sqrt(P_A P_B) over both supports, the path two critically
        # damped profiles took before the closed form
        pa, pb = CriticallyDamped(ga), CriticallyDamped(gb)
        quad = integrate(lambda t: np.sqrt(pa.density(t) * pb.density(t)), max(pa.t_max, pb.t_max))
        assert overlap_integral(pa, pb) == pytest.approx(quad, rel=1e-14, abs=0.0)

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

    def test_kinked_twin_meets_the_tolerance(self):
        # sqrt(P_A P_B) of two 2049-point tabulations kinks at every knot; both the
        # library and the reference integrate each union-knot segment
        from reference_quadrature import segment_overlap
        twin = [tabulate_profile(CriticallyDamped(g), 2049) for g in (10.0, 12.5)]
        assert overlap_integral(*twin) == pytest.approx(segment_overlap(*twin), rel=0.0, abs=1e-13)

    def test_narrow_peak_is_not_missed(self):
        # equal panels over [0, 10] put no node in the peak at 8 and 16 panels
        assert overlap_integral(PEAK, PEAK) == pytest.approx(1.0, rel=0.0, abs=1e-12)
        assert overlap_integral(PEAK, PEAK_WITH_TAIL) == pytest.approx(
            math.sqrt(0.995), rel=0.0, abs=1e-6)

    def test_mixed_pair_finds_a_narrow_peak(self):
        # equal panels over [0, 20/g] read 0 at 8 and 16 panels and stopped there;
        # the critically damped side is tabulated at TABULATION_POINTS instead
        cd = CriticallyDamped(10.0)
        got = overlap_integral(cd, PEAK)
        assert got == overlap_integral(PEAK, cd)
        assert f"{got:.3e}" == "8.349e-04"
        # dense midpoint reference over the peak with the closed-form density
        edges = np.linspace(9e-4, 1.1e-3, 1_000_001)
        mid = 0.5 * (edges[1:] + edges[:-1])
        dense = float(np.sqrt(cd.density(mid) * PEAK.density(mid)).sum() * (edges[1] - edges[0]))
        assert dense == pytest.approx(8.3486e-4, rel=1e-5)
        assert got == pytest.approx(dense, rel=1e-4)

    @pytest.mark.parametrize("times_a, dens_a, times_b, dens_b, exact", [
        # P_A rises from 0 on [0, 0.5], so sqrt(P_A P_B) there is sqrt(t): plain
        # 16-point Gauss-Legendre on that cell is 1.4e-5 off
        ([0.0, 0.5, 1.0], [0.0, 4 / 3, 4 / 3], [0.0, 1.0], [1.0, 1.0],
         math.sqrt(8 / 3) * 2 / 3 * 0.5**1.5 + math.sqrt(4 / 3) * 0.5),
        ([0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0], [0.0, 1.0, 0.0], math.pi / 4),
        # a triangle 2e-3 wide in a span of 1000, so its cells' width share of the
        # tolerance is 2e-15 of their value
        ([0.0, 1e-3, 2e-3, 1e3], [0.0, 1e3, 0.0, 0.0], [0.0, 1e3], [1e-3, 1e-3], 4e-3 / 3),
    ], ids=["ramp", "vee_and_tent", "narrow_triangle"])
    def test_square_root_ends_need_no_halving(self, monkeypatch, times_a, dens_a, times_b,
                                              dens_b, exact):
        calls, rule = [], leakage._cell_rule
        monkeypatch.setattr(leakage, "_cell_rule", lambda cells: calls.append(cells) or rule(cells))
        got = overlap_integral(Tabulated(times_a, dens_a), Tabulated(times_b, dens_b))
        assert got == pytest.approx(exact, rel=1e-12)
        assert len(calls) == 3                              # the cells and their two halves

    def test_density_near_zero_at_a_knot_is_halved_to_the_tolerance(self):
        # P_A = 1e-4 at both ends: one rule on each cell, unhalved, is 1.9e-7 off
        peaked, flat = Tabulated([0.0, 1.0, 2.0], [1e-4, 0.99, 1e-4]), Tabulated([0.0, 2.0], [0.5, 0.5])
        exact = math.sqrt(0.5) * 2 * 2 / 3 * (0.99**1.5 - 1e-4**1.5) / (0.99 - 1e-4)
        assert overlap_integral(peaked, flat) == pytest.approx(exact, rel=1e-10)

    def test_tabulated_reproduces_closed_form(self):
        pa = CriticallyDamped(10.0)
        pb = CriticallyDamped(12.5)
        ta, tb = tabulate_profile(pa, 8193), tabulate_profile(pb, 8193)
        assert overlap_integral(ta, tb) == pytest.approx(overlap_integral(pa, pb), abs=1e-6)

    def test_cell_rule_builds_at_most_block_cells_values_a_block(self):
        cells = np.random.default_rng(5).random((5, 1 << 17))
        x, w = leakage._KNOT_NODES, leakage._KNOT_WEIGHTS
        a0, a1, b0, b1, h = cells[:, :, None]
        want = (h * w * np.sqrt((a0 + (a1 - a0) * x) * (b0 + (b1 - b0) * x))).sum(axis=1)
        tracemalloc.start()
        got = leakage._cell_rule(cells)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert peak < 8 * 2**20             # one unblocked (cells, 16) array is 16 MB

    def test_density_past_the_last_knot_is_zero(self):
        # P_A = 1 on [0, 1] and 0 after it, P_B = 0.5 on [0, 2]: the overlap is sqrt(0.5)
        short, long = Tabulated([0.0, 1.0], [1.0, 1.0]), Tabulated([0.0, 2.0], [0.5, 0.5])
        assert overlap_integral(short, long) == pytest.approx(math.sqrt(0.5), rel=1e-14)
        assert overlap_integral(long, short) == pytest.approx(math.sqrt(0.5), rel=1e-14)


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


class TestKnotAlignedTable:
    @pytest.mark.parametrize("profile", [PEAK, PEAK_WITH_TAIL], ids=["peak", "peak_with_tail"])
    def test_narrow_peak_is_sampled(self, profile):
        # on the uniform nodes alone the peak had no mass: PEAK raised "cannot
        # sample from a zero-mass profile" and PEAK_WITH_TAIL drew only its tail
        draws = profile.sample(np.random.default_rng(3), size=100_000)
        assert np.mean((draws >= 9e-4) & (draws <= 1.1e-3)) >= 0.99
        assert 9e-4 < profile.inverse_cdf(0.5) < 1.1e-3
        assert 9e-4 < profile.inverse_cdf(np.array([0.5]))[0] < 1.1e-3

    @pytest.mark.parametrize("kind", ["critically_damped", "twin", "csv"])
    def test_uniform_node_tables_are_unchanged(self, kind, tmp_path):
        # the 2049-point twin's knots are every fourth of the 8193 uniform nodes,
        # so joining them leaves its table, and every draw, as before
        profile = {"critically_damped": lambda: CriticallyDamped(10.0),
                   "twin": lambda: tabulate_profile(CriticallyDamped(10.0), 2049),
                   "csv": lambda: _csv_twin(tmp_path, 10.0)}[kind]()
        t = np.linspace(0.0, profile.t_max, 8193)
        p = profile.density(t)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (p[1:] + p[:-1]) * np.diff(t))])
        cdf = cdf / cdf[-1]
        u = np.random.default_rng(17).random(10_000)
        assert profile.inverse_cdf(u).tobytes() == np.interp(u, cdf, t).tobytes()
        scalar = np.array([profile.inverse_cdf(x) for x in u[:1000].tolist()])
        assert scalar.tobytes() == np.interp(u[:1000], cdf, t).tobytes()


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

    def test_infinite_slopes_follow_np_interp(self):
        # a density of 1e-310 on the first segment leaves subnormal CDF gaps, so
        # the table holds infinite slopes; at a knot np.interp returns its value
        profile = Tabulated([0.0, 1.0, 2.0], [0.0, 1e-310, 1.0])
        table = profile._inverse_cdf_table
        with np.errstate(divide="ignore", over="ignore"):
            assert np.isinf(np.diff(table.grid) / np.diff(table.cdf)).any()
        knots = table.cdf[:50].tolist()
        u = sorted({y for k in knots for y in (k, math.nextafter(k, math.inf))})
        got = np.array([profile.inverse_cdf(x) for x in u])
        assert got.tobytes() == profile.inverse_cdf(np.array(u)).tobytes()
        assert profile.inverse_cdf(0.0) == 0.0

    def test_scalar_path_takes_only_the_unit_interval(self, monkeypatch):
        calls, bisect = [], leakage.bisect_right
        monkeypatch.setattr(leakage, "bisect_right", lambda a, x: calls.append(x) or bisect(a, x))
        p = CriticallyDamped(10.0)
        for u in (0.0, 0.3, np.float64(0.7), math.nextafter(1.0, 0.0), math.nan, -0.5,
                  1.0, 1.5, math.inf, np.array(0.3), np.array([0.3])):
            p.inverse_cdf(u)
        assert calls == [0.0, 0.3, 0.7, math.nextafter(1.0, 0.0)]

    def test_nan_and_clamping(self):
        p = CriticallyDamped(10.0)
        assert math.isnan(p.inverse_cdf(math.nan))
        assert p.inverse_cdf(-0.5) == 0.0
        assert p.inverse_cdf(1.5) == p.t_max

