import math

import numpy as np
import pytest

from reference_heralding import click_rows, sample_clicks_rows
from tglab.errors import GraphConfigError, ImpossibleStateError
from tglab.heralding import (
    CHERRY,
    GHZ,
    ClickPair,
    DhContext,
    DhOutcome,
    apply_dh_to_graph,
    big_thetas,
    classify_dh_side,
    click_density_first,
    click_density_joint,
    click_density_second,
    sample_clicks,
    sample_dh,
    success_probability,
    tilt_after_dh,
)
from tglab.leakage import CriticallyDamped, integrate
from tglab.oracle import StateVector, build_state, overlap, trajectory_dh_grid
from tglab.tilted_graph import (
    EdgeAnnotation,
    TiltedGraph,
    Vertex,
    branch_amplitudes,
    canonical_angle,
    ghz_graph,
    z_pi_count,
)

QUARTER_PI = math.pi / 4
PA = CriticallyDamped(10.0)
PB = CriticallyDamped(12.5)
T_MAX = max(PA.t_max, PB.t_max)


def ctx_of(theta_a, theta_b, eff=1.0):
    return DhContext(theta_a, theta_b, PA, PB, eff)


# ---------------------------------------------------------------------------
# independent physical oracle for one DH success at fixed click times:
# amplitude sqrt(P_A(t1) P_B(t2)) on the (qa=0, qb=1) component, parity *
# sqrt(P_B(t1) P_A(t2)) on (qa=1, qb=0), others killed, then X on both.
# ---------------------------------------------------------------------------

def dh_physical_post_state(state: StateVector, qa, qb, clicks, parity, pa=PA, pb=PB):
    su = math.sqrt(pa.density(clicks.t1) * pb.density(clicks.t2))
    sv = math.sqrt(pb.density(clicks.t1) * pa.density(clicks.t2))
    ia, ib = state.axis(qa), state.axis(qb)
    amps = np.zeros_like(state.amps)
    sel = [slice(None)] * state.qubit_count

    def put(va, vb, weight):
        idx = list(sel)
        idx[ia], idx[ib] = va, vb
        out_idx = list(sel)
        out_idx[ia], out_idx[ib] = 1 - va, 1 - vb   # the mid-protocol X flips
        amps[tuple(out_idx)] = weight * state.amps[tuple(idx)]

    put(0, 1, su)
    put(1, 0, parity * sv)
    post = StateVector(state.qubit_ids, amps)
    density = post.norm() ** 2
    post.amps /= post.norm()
    return post, density


class TestSuccessProbability:
    def test_examples(self):
        assert success_probability(QUARTER_PI, QUARTER_PI) == pytest.approx(0.5)
        assert success_probability(0.0, 0.0) == 0.0
        assert success_probability(0.0, math.pi / 2) == pytest.approx(1.0)
        assert success_probability(math.pi / 6, math.pi / 3) == pytest.approx(5.0 / 8.0)

    def test_efficiency_scaling(self):
        assert success_probability(QUARTER_PI, QUARTER_PI, 0.5) == pytest.approx(0.125)


class TestClickDensities:
    def test_first_round_shape_at_quarter(self):
        ctx = ctx_of(QUARTER_PI, QUARTER_PI)
        for t in (0.05, 0.11, 0.4):
            assert click_density_first(t, ctx) == pytest.approx(
                0.25 * (PA.density(t) + PB.density(t)))

    def test_degenerate_tilts_zero(self):
        ctx = ctx_of(0.0, 0.0)
        assert click_density_first(0.2, ctx) == 0.0

    @pytest.mark.parametrize("theta_a,theta_b", [(0.3, 0.9), (1.2, 0.5), (QUARTER_PI, 0.8)])
    def test_q1_mass_is_success_probability(self, theta_a, theta_b):
        ctx = ctx_of(theta_a, theta_b)
        mass = integrate(lambda t: click_density_first(t, ctx), T_MAX)
        assert mass == pytest.approx(success_probability(theta_a, theta_b), abs=1e-8)

    @pytest.mark.parametrize("theta_a,theta_b", [(0.3, 0.9), (0.7, 0.7)])
    def test_joint_mass_is_success_probability(self, theta_a, theta_b):
        ctx = ctx_of(theta_a, theta_b)
        from reference_quadrature import simpson_2d
        from tglab.heralding import joint_terms
        mass = simpson_2d(lambda a, b: sum(joint_terms(a, b, ctx)), T_MAX)
        assert mass == pytest.approx(success_probability(theta_a, theta_b), abs=1e-8)

    def test_identical_profiles_factorise(self):
        ctx = DhContext(QUARTER_PI, QUARTER_PI, PA, PA)
        q = click_density_joint(ClickPair(0.1, 0.2), ctx)
        assert q == pytest.approx(0.5 * PA.density(0.1) * PA.density(0.2))

    def test_conditional_normalises(self):
        ctx = ctx_of(0.6, 0.8)
        t1 = 0.13
        assert integrate(lambda t: click_density_second(t, t1, ctx), T_MAX) == pytest.approx(
            1.0, abs=1e-7)

    def test_conditioning_on_null(self):
        ctx = ctx_of(0.0, 0.0)
        with pytest.raises(ImpossibleStateError):
            click_density_second(0.2, 0.1, ctx)


class TestSampling:
    def test_seeded_determinism(self):
        ctx = ctx_of(0.6, 0.9)
        a = [sample_clicks(ctx, np.random.default_rng(5).random(3)) for _ in range(3)]
        b = [sample_clicks(ctx, np.random.default_rng(5).random(3)) for _ in range(3)]
        assert a == b

    def test_t1_histogram_matches_q1(self):
        ctx = ctx_of(0.6, 0.9)
        rng = np.random.default_rng(77)
        n = 100_000
        t1s = np.sort([sample_clicks(ctx, rng.random(3)).t1 for _ in range(n)])
        mass = success_probability(0.6, 0.9)
        grid = np.linspace(1e-4, 2.0, 2001)
        dens = np.array([click_density_first(t, ctx) for t in grid]) / mass
        cdf_grid = np.concatenate([[0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
        model = np.interp(t1s, grid, cdf_grid / cdf_grid[-1])
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.max(emp_hi - model), np.max(model - emp_lo))
        assert ks < 0.01

    @pytest.mark.parametrize("theta_a, theta_b", [(0.6, 1.0), (0.7, 1.0)])
    def test_vectorised_mirror_is_sample_clicks(self, theta_a, theta_b):
        # the Monte Carlo tests draw through the test-side mirror: row k must be
        # sample_clicks(ctx, u[k]) bit for bit, in both branches
        ctx = ctx_of(theta_a, theta_b)
        u = click_rows(ctx, np.random.default_rng(11), 2000)
        th1, th2 = ctx.thetas
        assert 0 < np.count_nonzero(u[:, 0] < th1 / (th1 + th2)) < len(u)
        t1, t2 = sample_clicks_rows(ctx, u)
        assert [sample_clicks(ctx, row) for row in u] == [
            ClickPair(a, b) for a, b in zip(t1.tolist(), t2.tolist())]

    def test_sample_dh_success_rate(self):
        ctx = ctx_of(0.5, 1.0)
        rng = np.random.default_rng(123)
        n = 20_000
        hits = sum(sample_dh(ctx, rng.random(5)).success for _ in range(n))
        p = success_probability(0.5, 1.0)
        assert abs(hits / n - p) < 3 * math.sqrt(p * (1 - p) / n)

    def test_sample_dh_is_a_function_of_its_uniforms(self):
        ctx = ctx_of(0.6, 0.9, eff=0.9)
        rng = np.random.default_rng(8)
        for _ in range(200):
            u = rng.random(5).tolist()
            assert sample_dh(ctx, u) == sample_dh(ctx, np.array(u))

    @pytest.mark.parametrize("branch_u", [0.05, 0.95])
    def test_sample_dh_reads_its_uniforms_in_order(self, branch_u):
        ctx = ctx_of(0.6, 0.9, eff=0.9)
        p = success_probability(0.6, 0.9, 0.9)
        th1, th2 = big_thetas(ctx.theta_a, ctx.theta_b)
        assert 0.05 < th1 / (th1 + th2) < 0.95
        # success exactly when u[0] < p
        for u0 in (0.0, math.nextafter(p, 0.0)):
            assert sample_dh(ctx, [u0, branch_u, 0.3, 0.7, 0.2]).success
        for u0 in (p, math.nextafter(p, 1.0), 0.999):
            assert sample_dh(ctx, [u0, branch_u, 0.3, 0.7, 0.2]) == DhOutcome.failure()
        out = sample_dh(ctx, [0.0, branch_u, 0.3, 0.7, 0.2])
        first, second = (PA, PB) if branch_u < th1 / (th1 + th2) else (PB, PA)
        assert out.clicks == ClickPair(float(first.inverse_cdf(0.3)),
                                       float(second.inverse_cdf(0.7)))
        assert out.theta_beta == tilt_after_dh(ctx, out.clicks)
        assert out.parity == 1
        assert sample_dh(ctx, [0.0, branch_u, 0.3, 0.7, 0.5]).parity == -1


class TestTiltAfterDh:
    def test_reduces_to_plain_formula_at_quarter(self):
        ctx = ctx_of(QUARTER_PI, QUARTER_PI)
        for t1, t2 in [(0.05, 0.2), (0.3, 0.07), (0.11, 0.12)]:
            got = tilt_after_dh(ctx, ClickPair(t1, t2))
            ref = math.acos((1 + (PA.density(t1) * PB.density(t2))
                             / (PB.density(t1) * PA.density(t2))) ** -0.5)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_equal_tilt_reduction_is_exact_on_grid(self):
        # theta_a = theta_b makes the general tilt formula collapse to the
        # pure-input one, identically in the tilt
        base = ctx_of(QUARTER_PI, QUARTER_PI)
        for theta in np.linspace(0.1, 1.4, 9):
            ctx = ctx_of(theta, theta)
            for t1, t2 in [(0.04, 0.33), (0.21, 0.09)]:
                assert tilt_after_dh(ctx, ClickPair(t1, t2)) == pytest.approx(
                    tilt_after_dh(base, ClickPair(t1, t2)), abs=1e-12)

    def test_identical_profiles_always_quarter(self):
        ctx = DhContext(0.7, 0.7, PA, PA)
        assert tilt_after_dh(ctx, ClickPair(0.03, 0.4)) == pytest.approx(QUARTER_PI)

    def test_label_swap_symmetry(self):
        # relabelling the two systems (profiles and tilts together) at fixed
        # click times complements the tilt
        ctx = ctx_of(0.5, 1.1)
        swapped = DhContext(1.1, 0.5, PB, PA)
        for t1, t2 in [(0.05, 0.18), (0.4, 0.02)]:
            a = tilt_after_dh(ctx, ClickPair(t1, t2))
            b = tilt_after_dh(swapped, ClickPair(t1, t2))
            assert a == pytest.approx(canonical_angle(math.pi / 2 - b), abs=1e-12)

    def test_matches_trajectory_oracle(self):
        from tglab.leakage import CavityParams
        theta, _ = trajectory_dh_grid(CavityParams(10.0, 40.0), CavityParams(12.5, 50.0),
                                      [0.05], [0.2])
        ctx = ctx_of(QUARTER_PI, QUARTER_PI)
        assert tilt_after_dh(ctx, ClickPair(0.05, 0.2)) == pytest.approx(theta[0, 0], abs=1e-6)

    def test_undefined_tilt(self):
        from tglab.leakage import Tabulated
        short = Tabulated([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        ctx = DhContext(0.5, 0.5, short, short)
        with pytest.raises(ImpossibleStateError):
            tilt_after_dh(ctx, ClickPair(2.0, 2.0))  # outside the tabulated support


class TestClassification:
    def test_fresh_ghz_cherry(self):
        g = TiltedGraph([Vertex(0, 0.4)])
        assert classify_dh_side(g, 0).config == GHZ        # a one-qubit star
        g2 = ghz_graph([1, 2, 3], 0.7)
        assert classify_dh_side(g2, 2).config == GHZ
        assert classify_dh_side(g2, 2).theta_eff == pytest.approx(0.7)
        g3 = ghz_graph([4, 5], 0.9).with_vertex(Vertex(6, QUARTER_PI))
        g3 = g3.with_edge(6, 4, EdgeAnnotation.pure())
        info = classify_dh_side(g3, 6)
        assert info.config == CHERRY and info.center == 4
        assert info.theta_eff == pytest.approx(QUARTER_PI)

    def test_x_flip_gives_complementary_tilt(self):
        g = ghz_graph([0, 1, 2], 0.7).map_vertex(1, lambda v: v.append_x())
        assert classify_dh_side(g, 1).theta_eff == pytest.approx(math.pi / 2 - 0.7)
        assert classify_dh_side(g, 2).theta_eff == pytest.approx(0.7)

    def test_same_component_rejected(self):
        g = ghz_graph([0, 1, 2], 0.7)
        with pytest.raises(GraphConfigError):
            apply_dh_to_graph(g, 0, 1, DhOutcome.failure())

    def test_unsupported_z_flags_rejected(self):
        star = ghz_graph([0, 1, 2], 0.7)        # centre 0, Hadamard leaves 1, 2
        cherry = star.with_vertex(Vertex(3, QUARTER_PI)).with_edge(3, 0, EdgeAnnotation.pure())
        cases = [
            (TiltedGraph([Vertex(0, 0.4, z_phase=math.pi / 2)]), 0),            # fresh
            (star.map_vertex(0, lambda v: v.append_z(math.pi / 2)), 2),         # ghz, Z(pi/2)
            (star.map_vertex(1, lambda v: v.append_z(math.pi)), 2),             # ghz, Z(pi) under H
            (cherry.map_vertex(3, lambda v: v.append_z(math.pi / 2)), 3),       # cherry
        ]
        for g, q in cases:
            with pytest.raises(GraphConfigError):
                classify_dh_side(g, q)


def random_success(rng, theta_eff_a, theta_eff_b):
    ctx = DhContext(theta_eff_a, theta_eff_b, PA, PB)
    clicks = ClickPair(float(rng.uniform(0.02, 0.5)), float(rng.uniform(0.02, 0.5)))
    parity = 1 if rng.random() < 0.5 else -1
    return DhOutcome(True, tilt_after_dh(ctx, clicks), clicks, parity)


def branch_sign(g, info):
    """Relative sign of one side's two branches under its Z(pi) flags."""
    v = g.vertex(info.qubit)
    if info.config == GHZ:
        tilt, flagged = g.vertex(info.center).tilt, info.members
    else:
        tilt, flagged = v.tilt, [info.qubit]
    alpha, beta = branch_amplitudes(tilt, v.x_flip, z_pi_count(g, flagged))
    return -1 if alpha * beta < 0 else 1


class TestGraphRewrites:
    def assert_success_rewrite_matches_physics(self, g, qa, qb, rng):
        info_a, info_b = classify_dh_side(g, qa), classify_dh_side(g, qb)
        out = random_success(rng, info_a.theta_eff, info_b.theta_eff)
        before = build_state(g)
        post, density = dh_physical_post_state(before, qa, qb, out.clicks, out.parity)
        if out.parity * branch_sign(g, info_a) * branch_sign(g, info_b) < 0:
            # the rewrite corrects the known Z(pi) on the new centre qa
            post = post.apply_single(qa, np.diag([1.0, -1.0]))
        after = apply_dh_to_graph(g, qa, qb, out)
        got = build_state(after)
        assert overlap(post, got) > 1 - 1e-10
        ctx = DhContext(info_a.theta_eff, info_b.theta_eff, PA, PB)
        assert density == pytest.approx(click_density_joint(out.clicks, ctx), rel=1e-9)

    def test_fresh_pair_success_is_tilted_bell_pair(self):
        g = TiltedGraph([Vertex(0), Vertex(1)])
        out = DhOutcome(True, 0.6, ClickPair(0.1, 0.2), 1)
        after = apply_dh_to_graph(g, 0, 1, out)
        # Eq.-9-style pair: cos(tb)|00> + sin(tb)|11> up to the recorded X
        s = build_state(after)
        ref = ghz_graph([0, 1], 0.6)
        ref = ref.map_vertex(1, lambda v: v.append_x())
        assert overlap(s, build_state(ref)) > 1 - 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_fresh_success_matches_physics(self, seed):
        rng = np.random.default_rng(seed)
        g = TiltedGraph([Vertex(0, rng.uniform(0.1, 1.4)), Vertex(1, rng.uniform(0.1, 1.4))])
        self.assert_success_rewrite_matches_physics(g, 0, 1, rng)

    @pytest.mark.parametrize("seed", range(8))
    def test_ghz_success_matches_physics(self, seed):
        rng = np.random.default_rng(100 + seed)
        na, nb = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        ga = ghz_graph(range(na), rng.uniform(0.1, 1.4))
        gb = ghz_graph(range(10, 10 + nb), rng.uniform(0.1, 1.4))
        g = TiltedGraph(list(ga.vertices()) + list(gb.vertices()),
                        list(ga.edges()) + list(gb.edges()))
        # random decorations within the supported family
        for vid in list(g.vertex_ids):
            if rng.random() < 0.3:
                g = g.map_vertex(vid, lambda v: v.append_x())
        if rng.random() < 0.5:
            g = g.map_vertex(0, lambda v: v.append_z(math.pi))
        qa = int(rng.choice(list(range(na))))
        qb = int(rng.choice(list(range(10, 10 + nb))))
        if g.vertex(qa).z_phase or g.vertex(qb).z_phase:
            g = g.map_vertex(qa, lambda v: v.append_z(-v.z_phase))
        self.assert_success_rewrite_matches_physics(g, qa, qb, rng)

    def test_ghz_success_spec_example(self):
        # two n=3 tilted GHZ nodes fuse into a 6-qubit tilted GHZ (Eq.-12 form)
        rng = np.random.default_rng(2)
        ga = ghz_graph([0, 1, 2], 0.5)
        gb = ghz_graph([3, 4, 5], 1.1)
        g = TiltedGraph(list(ga.vertices()) + list(gb.vertices()),
                        list(ga.edges()) + list(gb.edges()))
        info_a, info_b = classify_dh_side(g, 1), classify_dh_side(g, 4)
        out = random_success(rng, info_a.theta_eff, info_b.theta_eff)
        after = apply_dh_to_graph(g, 1, 4, out)
        comp = after.component_of(0)
        assert comp == frozenset(range(6))
        # physically a 6-qubit GHZ with tilt theta_beta, modulo the recorded flips
        flips = [vid for vid in range(6) if vid in after.vertex_ids and after.vertex(vid).x_flip]
        ref = ghz_graph(sorted(comp), out.theta_beta, center=1)
        for vid in flips:
            ref = ref.map_vertex(vid, lambda v: v.append_x())
        assert overlap(build_state(after), build_state(ref)) > 1 - 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_cherry_success_matches_physics(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = TiltedGraph([])
        used = []
        base = 0
        for _ in range(2):
            n = int(rng.integers(1, 3))
            star = ghz_graph(range(base, base + n), rng.uniform(0.2, 1.3))
            g = TiltedGraph(list(g.vertices()) + list(star.vertices()),
                            list(g.edges()) + list(star.edges()))
            q = base + n
            g = g.with_vertex(Vertex(q, rng.uniform(0.2, 1.3)))
            g = g.with_edge(q, base, EdgeAnnotation.pure())
            used.append(q)
            base += n + 1
        self.assert_success_rewrite_matches_physics(g, used[0], used[1], rng)

    def test_cherry_success_shape(self):
        g = TiltedGraph([])
        for base in (0, 10):
            star = ghz_graph(range(base, base + 3), QUARTER_PI)
            g = TiltedGraph(list(g.vertices()) + list(star.vertices()),
                            list(g.edges()) + list(star.edges()))
            g = g.with_vertex(Vertex(base + 3, QUARTER_PI))
            g = g.with_edge(base + 3, base, EdgeAnnotation.pure())
        out = DhOutcome(True, 0.8, ClickPair(0.1, 0.1), 1)
        after = apply_dh_to_graph(g, 3, 13, out)
        assert after.vertex(3).tilt == pytest.approx(0.8)
        assert set(after.neighbors(3)) == {13, 0, 10}
        assert after.vertex(13).hadamard          # the cherry
        assert after.degree(13) == 1

    def test_failure_fresh_and_ghz_remove_components(self):
        g = TiltedGraph([Vertex(0), Vertex(1)])
        assert apply_dh_to_graph(g, 0, 1, DhOutcome.failure()).vertex_count == 0
        ga = ghz_graph([0, 1, 2], 0.5)
        gb = ghz_graph([3, 4, 5], 0.7)
        g = TiltedGraph(list(ga.vertices()) + list(gb.vertices()),
                        list(ga.edges()) + list(gb.edges()))
        after = apply_dh_to_graph(g, 0, 3, DhOutcome.failure())
        assert after.vertex_count == 0

    def test_failure_ghz_collapse_is_separable(self):
        # Z-measuring one member of each GHZ leaves a product state
        ga = ghz_graph([0, 1, 2], 0.5)
        s = build_state(ga)
        from tglab.oracle import project
        p0, post = project(s, 1, 0)
        amps = post.amps.reshape(-1)
        nz = np.flatnonzero(np.abs(amps) > 1e-12)
        assert len(nz) == 1        # collapsed onto a single basis state

    def test_failure_cherry_keeps_trimmed_nodes(self):
        g = TiltedGraph([])
        for base in (0, 10):
            star = ghz_graph(range(base, base + 3), 0.6)
            g = TiltedGraph(list(g.vertices()) + list(star.vertices()),
                            list(g.edges()) + list(star.edges()))
            g = g.with_vertex(Vertex(base + 3, QUARTER_PI))
            g = g.with_edge(base + 3, base, EdgeAnnotation.pure())
        after = apply_dh_to_graph(g, 3, 13, DhOutcome.failure())
        assert set(after.vertex_ids) == {0, 1, 2, 10, 11, 12}
        assert after.component_of(0) == frozenset({0, 1, 2})

    def test_mixed_configuration_rejected(self):
        ga = ghz_graph([0, 1], 0.5)
        g = TiltedGraph(list(ga.vertices()) + [Vertex(5, QUARTER_PI), Vertex(6, QUARTER_PI)],
                        list(ga.edges()) + [(5, 6, EdgeAnnotation.pure())])
        out = DhOutcome(True, 0.5, ClickPair(0.1, 0.1), 1)
        with pytest.raises(GraphConfigError):
            apply_dh_to_graph(g, 0, 6, out)
