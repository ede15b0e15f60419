import math
from dataclasses import replace

import numpy as np
import pytest

from tglab.errors import GraphConfigError
from tglab.heralding import ClickPair, DhOutcome, apply_dh_to_graph
from tglab.oracle import build_state, overlap, project
from tglab.procedures import (
    bridge,
    bridge_auto_sign,
    bridge_beta,
    bridge_failure_angle,
    bridge_n_factor,
    bridge_success_probability,
    choose_method,
    merge,
    merge_auto_sign,
    merge_success_probability,
    p_success,
    r_function,
    realign,
)
from tglab.tilted_graph import (
    EdgeAnnotation,
    EdgeKind,
    TiltedGraph,
    Vertex,
    ghz_graph,
)
from tglab.verify import _eq29_instance

QUARTER_PI = math.pi / 4
HALF_PI = math.pi / 2


def replay(g_before, record, g_after, tol=1e-10):
    """Assert the analytic (probability, post-state) against the oracle."""
    state = build_state(g_before)
    p, post = project(state, record.measured_qubit, record.outcome_bit,
                      record.rotation.matrix())
    expected = record.probability if record.outcome_bit else 1.0 - record.probability
    assert abs(p - expected) < tol, f"probability {p} vs analytic {expected}"
    if g_after.vertex_count:
        ov = overlap(post, build_state(g_after))
        assert ov > 1.0 - tol, f"post-state overlap {ov}"


def eq29(theta, annot=None, leaves=(1, 1), cherry=False):
    """Central vertex 0 tilted by theta between two untilted stars."""
    vertices = [Vertex(0, theta)]
    edges = []
    nid = 1
    for center_leaves in leaves:
        center = nid
        vertices.append(Vertex(center, QUARTER_PI))
        edges.append((0, center, EdgeAnnotation.pure()))
        nid += 1
        for _ in range(center_leaves):
            vertices.append(Vertex(nid, QUARTER_PI, hadamard=True))
            edges.append((center, nid, EdgeAnnotation.pure()))
            nid += 1
    if cherry:
        vertices.append(Vertex(99, QUARTER_PI, hadamard=True))
        edges.append((0, 99, EdgeAnnotation.pure()))
    g = TiltedGraph(vertices, edges)
    if annot is not None:
        g = g.with_edge(1, 2 + leaves[0], annot)
    return g


class TestScalars:
    def test_p_success_bound(self):
        thetas = np.linspace(-HALF_PI + 0.01, HALF_PI, 400)
        ps = 0.5 * np.sin(2 * thetas) ** 2
        assert np.all(ps <= 0.5 + 1e-15)
        assert p_success(QUARTER_PI) == pytest.approx(0.5)
        assert p_success(-QUARTER_PI) == pytest.approx(0.5)
        assert p_success(0.3) < 0.5

    def test_r_fixed_points(self):
        assert r_function(0.0) == pytest.approx(0.0, abs=1e-12)
        assert r_function(QUARTER_PI) == pytest.approx(QUARTER_PI, abs=1e-9)
        assert r_function(HALF_PI) == pytest.approx(HALF_PI, abs=1e-9)

    def test_r_maps_interval_and_degrades_fidelity(self):
        for theta in np.linspace(0.05, QUARTER_PI - 0.01, 25):
            r = r_function(theta)
            assert 0.0 < r < QUARTER_PI
            f_before = 0.5 * (1 + math.sin(2 * theta))
            f_after = 0.5 * (1 + math.sin(2 * r))
            assert f_after <= f_before + 1e-15

    def test_merge_probability_examples(self):
        theta = 0.6
        assert merge_success_probability(theta, 0.0) == pytest.approx(p_success(theta))
        assert merge_success_probability(theta, QUARTER_PI) == pytest.approx(2 * p_success(theta))
        assert merge_success_probability(math.pi / 8, 0.0) == pytest.approx(0.25)

    def test_bridge_reduces_to_plain_forms(self):
        theta = 0.7
        assert bridge_beta(0.0, theta, 1) == pytest.approx(theta, abs=1e-12)
        assert bridge_success_probability(theta, 0.0) == pytest.approx(p_success(theta))

    def test_bridge_failure_angle_is_failure_function_at_zero(self):
        for phi in np.linspace(0.03, HALF_PI - 0.03, 100):
            assert abs(bridge_failure_angle(0.0, phi, 1)) == pytest.approx(
                r_function(phi), abs=1e-12)

    def test_amplification_never_below_one(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            g1 = rng.uniform(-HALF_PI, HALF_PI)
            th = rng.uniform(0.05, HALF_PI - 0.05)
            assert 1.0 + merge_auto_sign(g1) * math.sin(2 * g1) >= 1.0
            assert bridge_n_factor(g1, th, bridge_auto_sign(g1, th)) >= 1.0


class TestChooseMethod:
    def test_gamma_zero_prefers_realignment(self):
        for theta in np.linspace(0.1, HALF_PI - 0.1, 21):
            for kind in ("merge", "bridge"):
                mc = choose_method(theta, 0.0, kind)
                assert mc.method == "ii"
                assert mc.p_i < mc.p_ii

    def test_upper_bound_three_quarters(self):
        mc = choose_method(QUARTER_PI, 0.0, "merge")
        assert mc.p_ii == pytest.approx(0.75, abs=1e-12)
        # approached as theta -> pi/4, never exceeded at gamma = 0
        vals = [choose_method(t, 0.0, "merge").p_ii for t in np.linspace(0.05, QUARTER_PI, 30)]
        assert max(vals) <= 0.75 + 1e-12

    def test_methods_match_outcome_tree(self):
        # P_i and P_ii recomputed by explicit enumeration of the branches
        for kind in ("merge", "bridge"):
            for theta, gamma in [(math.pi / 6, QUARTER_PI), (0.9, -0.5), (0.4, 0.2)]:
                joint = merge_success_probability if kind == "merge" else bridge_success_probability
                mc = choose_method(theta, gamma, kind)
                assert mc.p_i == pytest.approx(joint(theta, gamma))
                p_re = p_success(theta)
                tree = p_re * 1.0 + (1 - p_re) * joint(-r_function(theta), gamma)
                assert mc.p_ii == pytest.approx(tree, abs=1e-12)

    def test_method_one_can_win(self):
        # a strong matched fusion with a weak tilt makes the direct attempt best
        mc = choose_method(0.72, QUARTER_PI, "merge")
        assert mc.p_i > mc.p_ii
        assert mc.method == "i"


class TestRealignGhz:
    @pytest.mark.parametrize("outcome", [0, 1])
    @pytest.mark.parametrize("n,theta", [(2, 0.5), (3, 1.1), (5, 0.3), (4, QUARTER_PI)])
    def test_star_flavour_matches_oracle(self, n, theta, outcome):
        g = ghz_graph(range(n), theta)
        record, after = realign(g, 1, outcome=outcome)
        assert record.probability == pytest.approx(p_success(theta))
        replay(g, record, after)

    def test_spec_probability_examples(self):
        g = ghz_graph(range(3), QUARTER_PI)
        record, after = realign(g, 1, outcome=1)
        assert record.probability == pytest.approx(0.5)
        g = ghz_graph(range(3), math.pi / 8)
        record, _ = realign(g, 1, outcome=1)
        assert record.probability == pytest.approx(0.25)

    def test_quarter_failure_is_quarter_up_to_z(self):
        g = ghz_graph(range(3), QUARTER_PI)
        record, after = realign(g, 2, outcome=0)
        assert record.tilt_after == pytest.approx(-QUARTER_PI)
        replay(g, record, after)

    def test_degenerate_tilt_never_succeeds(self):
        g = ghz_graph(range(3), 0.0)
        record, _ = realign(g, 1, outcome=0)
        assert record.probability == 0.0

    def test_failure_consumes_one_qubit(self):
        g = ghz_graph(range(4), 0.6)
        record, after = realign(g, 2, outcome=0)
        assert after.vertex_count == 3
        assert record.tilt_after == pytest.approx(-r_function(0.6))
        replay(g, record, after)

    @pytest.mark.parametrize("seed", range(8))
    def test_decorated_stars_match_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 6))
        g = ghz_graph(range(n), rng.uniform(0.1, 1.45))
        for vid in range(n):
            if rng.random() < 0.4:
                g = g.map_vertex(vid, lambda v: v.append_x())
        if rng.random() < 0.5:
            g = g.map_vertex(0, lambda v: v.append_z(math.pi))
        cherry = int(rng.integers(0, n))
        if cherry == 0 and n > 2:
            cherry = 1
        outcome = int(rng.integers(0, 2))
        record, after = realign(g, cherry, outcome=outcome)
        replay(g, record, after)

    def test_unsupported_z_flags_rejected(self):
        g = ghz_graph(range(3), 0.7)             # centre 0, Hadamard leaves 1, 2
        with pytest.raises(GraphConfigError):
            realign(g.map_vertex(0, lambda v: v.append_z(math.pi / 2)), 1, outcome=1)
        # a flag on the sibling leaf is neither read nor rewritten: it stays
        # in the graph after, and the oracle agrees
        flagged = g.map_vertex(2, lambda v: v.append_z(math.pi))
        for outcome in (0, 1):
            record, after = realign(flagged, 1, outcome=outcome)
            assert after.vertex(2) == flagged.vertex(2)
            replay(flagged, record, after)

    def test_two_qubit_star_center_as_cherry(self):
        g = ghz_graph([0, 1], 0.8)
        record, after = realign(g, 0, outcome=1)   # plain centre is a valid cherry
        replay(g, record, after)

    def test_rng_driven(self):
        g = ghz_graph(range(3), 0.7)
        rec1, _ = realign(g, 1, rng=np.random.default_rng(4))
        rec2, _ = realign(g, 1, rng=np.random.default_rng(4))
        assert rec1 == rec2


class TestRealignCentral:
    def post_dh_cherry_graph(self, theta_beta=0.9, parity=1):
        """Fig. 3c success: central tilted vertex with a cherry between stars."""
        g = TiltedGraph([])
        for base in (0, 10):
            star = ghz_graph(range(base, base + 3), QUARTER_PI)
            g = TiltedGraph(list(g.vertices()) + list(star.vertices()),
                            list(g.edges()) + list(star.edges()))
            g = g.with_vertex(Vertex(base + 3, QUARTER_PI))
            g = g.with_edge(base + 3, base, EdgeAnnotation.pure())
        out = DhOutcome(True, theta_beta, ClickPair(0.1, 0.1), parity)
        return apply_dh_to_graph(g, 3, 13, out)

    @pytest.mark.parametrize("outcome", [0, 1])
    def test_pipeline_cherry_matches_oracle(self, outcome):
        g = self.post_dh_cherry_graph(0.9)
        record, after = realign(g, 13, outcome=outcome)
        assert record.probability == pytest.approx(p_success(0.9))
        replay(g, record, after)

    def test_failed_realignment_reproduces_eq29_shape(self):
        # Fig. 3c success -> failed Fig. 4b realignment -> the merge input state
        theta_beta = 0.85
        g = self.post_dh_cherry_graph(theta_beta)
        record, after = realign(g, 13, outcome=0)
        central = after.vertex(3)
        assert central.tilt == pytest.approx(-r_function(theta_beta))
        assert set(after.neighbors(3)) == {0, 10}
        # explicit constructive Eq.-29 state comparison
        ref = TiltedGraph(
            [Vertex(3, -r_function(theta_beta)), Vertex(0, QUARTER_PI), Vertex(10, QUARTER_PI),
             Vertex(1, QUARTER_PI, hadamard=True), Vertex(2, QUARTER_PI, hadamard=True),
             Vertex(11, QUARTER_PI, hadamard=True), Vertex(12, QUARTER_PI, hadamard=True)],
            [(3, 0, EdgeAnnotation.pure()), (3, 10, EdgeAnnotation.pure()),
             (0, 1, EdgeAnnotation.pure()), (0, 2, EdgeAnnotation.pure()),
             (10, 11, EdgeAnnotation.pure()), (10, 12, EdgeAnnotation.pure())])
        got = after.map_vertex(0, lambda v: v.append_z(-v.z_phase))  # drop DH byproduct
        assert overlap(build_state(got), build_state(ref)) > 1 - 1e-10

    def test_success_leaves_untilted_central(self):
        g = self.post_dh_cherry_graph(0.7)
        record, after = realign(g, 13, outcome=1)
        assert abs(abs(after.vertex(3).tilt) - QUARTER_PI) < 1e-12
        replay(g, record, after)

    def test_realign_with_prior_annotation(self):
        g = self.post_dh_cherry_graph(0.8)
        g = g.with_edge(0, 10, EdgeAnnotation.partial_fusion(0.3))
        for outcome in (0, 1):
            record, after = realign(g, 13, outcome=outcome)
            assert after.edge(0, 10).phi == pytest.approx(0.3)  # untouched
            replay(g, record, after)

    def test_unsupported_z_flags_rejected(self):
        g = self.post_dh_cherry_graph(0.8)
        for bad in (g.map_vertex(3, lambda v: v.append_z(math.pi / 2)),   # holder, Z(pi/2)
                    g.map_vertex(13, lambda v: v.append_z(math.pi))):     # Z(pi) under H
            with pytest.raises(GraphConfigError):
                realign(bad, 13, outcome=1)

    def test_plain_cherry_rejected(self):
        # a |+> cherry with no Hadamard correlation cannot realign the holder
        g = eq29(0.7)
        g = g.with_vertex(Vertex(50, QUARTER_PI))
        g = g.with_edge(50, 0, EdgeAnnotation.pure())
        with pytest.raises(GraphConfigError):
            realign(g, 50, outcome=0)


def random_realign_input(rng):
    """2-8 vertices with random tilts and frame flags, the cherry 0 on a pure
    edge to holder 1, each later vertex attached to an earlier non-cherry
    vertex by a pure edge, a weighted edge or a partial fusion.  Two draws in
    three then make the pair one of the two realignable kinds."""
    n = int(rng.integers(2, 9))
    tilts = (QUARTER_PI, QUARTER_PI, -QUARTER_PI, None)
    phases = (0.0, 0.0, 0.0, math.pi, HALF_PI)
    vertices = []
    for vid in range(n):
        tilt = tilts[rng.integers(4)]
        vertices.append(Vertex(vid, rng.uniform(-1.5, 1.5) if tilt is None else tilt,
                               hadamard=bool(rng.random() < 0.5),
                               z_phase=phases[rng.integers(5)], x_flip=bool(rng.random() < 0.3)))
    kind = rng.integers(3)
    if kind == 0:                       # a +pi/4 Hadamard cherry on a plain holder
        vertices[0] = replace(vertices[0], tilt=QUARTER_PI, hadamard=True, z_phase=0.0)
        vertices[1] = replace(vertices[1], hadamard=False)
    elif kind == 1:                     # the plain centre of a two-qubit star
        n, vertices = 2, vertices[:2]
        vertices[0] = replace(vertices[0], hadamard=False)
        vertices[1] = replace(vertices[1], tilt=QUARTER_PI, hadamard=True, z_phase=0.0)
    edges = [(0, 1, EdgeAnnotation.pure())]
    for vid in range(2, n):
        how = rng.integers(5)
        annot = (EdgeAnnotation.pure() if how < 3
                 else EdgeAnnotation.weighted(rng.uniform(-1.0, 1.0)) if how == 3
                 else EdgeAnnotation.partial_fusion(rng.uniform(-0.7, 0.7)))
        edges.append((int(rng.integers(1, vid)), vid, annot))
    return TiltedGraph(vertices, edges)


class TestRealignRule:
    """One rule: a +pi/4 Hadamard cherry on a plain holder, or the plain centre
    of a two-qubit star, with no partial fusion at the holder."""

    def test_cherry_of_the_wrong_tilt_rejected(self):
        g, _, cherry = _eq29_instance(np.random.default_rng(5), with_cherry=True)
        g = g.map_vertex(cherry, lambda v: replace(v, tilt=-QUARTER_PI))
        with pytest.raises(GraphConfigError, match="not a realignable cherry"):
            realign(g, cherry, outcome=0)
        star = ghz_graph([0, 1, 2], 0.6).map_vertex(2, lambda v: replace(v, tilt=0.3))
        with pytest.raises(GraphConfigError, match="not a realignable cherry"):
            realign(star, 2, outcome=0)

    def test_holder_with_a_partial_fusion_rejected(self):
        g = TiltedGraph([Vertex(0, 0.7), Vertex(1, QUARTER_PI, hadamard=True), Vertex(2, 0.4)],
                        [(0, 1, EdgeAnnotation.pure()), (0, 2, EdgeAnnotation.partial_fusion(0.5))])
        with pytest.raises(GraphConfigError, match="carries a partial fusion"):
            realign(g, 1, outcome=0)

    @pytest.mark.parametrize("outcome", [0, 1])
    def test_sibling_leaf_at_minus_quarter_pi(self, outcome):
        star = ghz_graph([0, 1, 2], 0.6).map_vertex(2, lambda v: replace(v, tilt=-QUARTER_PI))
        record, after = realign(star, 1, outcome=outcome)
        assert after.vertex(2) == star.vertex(2)
        replay(star, record, after)
        with pytest.raises(GraphConfigError, match="not a realignable cherry"):
            realign(star, 2, outcome=outcome)

    def test_random_inputs_match_the_oracle_or_are_rejected(self):
        rng = np.random.default_rng(2024)
        accepted, cases = 0, 2000
        for _ in range(cases):
            g = random_realign_input(rng)
            try:
                runs = [realign(g, 0, outcome=outcome) for outcome in (0, 1)]
            except GraphConfigError:
                continue
            accepted += 1
            state = build_state(g)
            for record, after in runs:
                p, post = project(state, 0, record.outcome_bit, record.rotation.matrix())
                expected = record.probability if record.outcome_bit else 1.0 - record.probability
                assert abs(p - expected) < 1e-10, g.to_text()
                if p > 1e-12:
                    assert 1.0 - overlap(post, build_state(after)) < 1e-10, g.to_text()
        assert accepted >= cases / 3


class TestMerge:
    @pytest.mark.parametrize("outcome", [0, 1])
    @pytest.mark.parametrize("theta,gamma,sign", [
        (0.6, 0.0, None), (0.9, 0.4, None), (0.5, -0.6, None),
        (1.2, 0.3, -1), (-0.7, 0.45, None), (QUARTER_PI, 0.2, None),
    ])
    def test_matches_oracle(self, theta, gamma, sign, outcome):
        annot = EdgeAnnotation.partial_fusion(gamma) if gamma else None
        g = eq29(theta, annot)
        record, after = merge(g, 0, sign=sign, outcome=outcome)
        replay(g, record, after)

    def test_probability_formulas(self):
        g = eq29(0.6)
        record, _ = merge(g, 0, outcome=1)
        assert record.probability == pytest.approx(p_success(0.6))
        g = eq29(0.6, EdgeAnnotation.partial_fusion(QUARTER_PI))
        record, _ = merge(g, 0, outcome=1)
        assert record.probability == pytest.approx(2 * p_success(0.6))

    def test_success_fuses_structure(self):
        g = eq29(0.8, leaves=(2, 1))
        record, after = merge(g, 0, outcome=1)
        assert record.annotation_after.maximal
        # canonicalized: pure edges only, neighbours inherited by one centre
        assert all(a.kind is EdgeKind.PURE for _, _, a in after.edges())

    def test_untilted_failure_is_other_parity(self):
        g = eq29(QUARTER_PI)
        record, after = merge(g, 0, sign=1, outcome=0)
        assert record.probability == pytest.approx(0.5)
        assert after.edge(1, 2).kind is EdgeKind.PURE or record.annotation_after.maximal
        replay(g, record, after)

    def test_structure_validation(self):
        g = eq29(0.7, EdgeAnnotation.weighted(0.2))
        with pytest.raises(GraphConfigError):
            merge(g, 0, outcome=1)        # wrong annotation kind
        g2 = eq29(0.7).with_vertex(Vertex(77)).with_edge(0, 77, EdgeAnnotation.pure())
        with pytest.raises(GraphConfigError):
            merge(g2, 0, outcome=1)       # degree 3
        g3 = eq29(0.7).with_vertex(Vertex(1, 0.6))   # tilted endpoint
        with pytest.raises(GraphConfigError):
            merge(g3, 0, outcome=1)


class TestBridge:
    @pytest.mark.parametrize("outcome", [0, 1])
    @pytest.mark.parametrize("theta,gamma,sign", [
        (0.6, 0.0, None), (0.9, math.pi / 8, None), (0.5, -0.6, None),
        (math.pi / 6, math.pi / 8, None), (1.2, 0.44, -1), (-0.8, 0.3, None),
    ])
    def test_matches_oracle(self, theta, gamma, sign, outcome):
        annot = EdgeAnnotation.weighted(gamma) if gamma else None
        g = eq29(theta, annot)
        record, after = bridge(g, 0, sign=sign, outcome=outcome)
        replay(g, record, after)

    def test_probability_formulas(self):
        g = eq29(0.7)
        record, _ = bridge(g, 0, outcome=1)
        assert record.probability == pytest.approx(p_success(0.7))
        g = eq29(math.pi / 6, EdgeAnnotation.weighted(math.pi / 8))
        record, _ = bridge(g, 0, outcome=1)
        assert record.probability == pytest.approx(
            bridge_success_probability(math.pi / 6, math.pi / 8))

    def test_untilted_central_keeps_half_probability(self):
        g = eq29(QUARTER_PI, EdgeAnnotation.weighted(0.3))
        s = bridge_auto_sign(0.3, QUARTER_PI)
        record, after = bridge(g, 0, outcome=0)
        assert record.probability == pytest.approx(0.5)
        # failure lands on the equally desirable alternative target
        assert abs(record.annotation_after.phi) == pytest.approx(QUARTER_PI)
        replay(g, record, after)

    def test_success_records_s_byproducts(self):
        g = eq29(0.9)
        record, after = bridge(g, 0, outcome=1)
        assert after.edge(1, 2).kind is EdgeKind.PURE
        assert after.vertex(1).z_phase == pytest.approx(3 * HALF_PI)
        replay(g, record, after)


@pytest.mark.parametrize("proc, annot", [
    (merge, EdgeAnnotation.partial_fusion(0.4)), (bridge, EdgeAnnotation.weighted(0.3))],
    ids=["merge", "bridge"])
class TestJoinSiteSecondPath:
    def test_only_a_second_path_is_rejected(self, proc, annot):
        for recorded in (None, annot):
            g = eq29(0.7, recorded)
            proc(g, 0, outcome=1)       # the recorded x-y annotation is no second path
            # a pure edge between a leaf of each star links the endpoints
            # apart from the central vertex and the recorded annotation
            with pytest.raises(GraphConfigError, match="entangled beyond"):
                proc(g.with_edge(2, 4, EdgeAnnotation.pure()), 0, outcome=1)


class TestMethodTreeOnOracle:
    def test_pii_matches_oracle_outcome_tree(self):
        # replay both branches of method (ii) on the oracle and accumulate
        # the total success probability of the tree
        theta_a, gamma = 0.8, 0.35
        base = eq29(theta_a, EdgeAnnotation.partial_fusion(gamma), cherry=True)
        state = build_state(base)
        total = 0.0
        rec1, g_success = realign(base, 99, outcome=1)
        p_re, post1 = project(state, 99, 1, rec1.rotation.matrix())
        assert p_re == pytest.approx(rec1.probability, abs=1e-12)
        # realign success: merge the untilted central vertex; both parities work
        rec_m, g_m = merge(g_success, 0, outcome=1)
        p_m, _ = project(post1, 0, 1, rec_m.rotation.matrix())
        total += p_re * 1.0                      # failure is the other parity: also success
        assert p_m == pytest.approx(merge_success_probability(QUARTER_PI, gamma), abs=1e-10)
        assert rec_m.annotation_after.maximal
        rec0, g_fail = realign(base, 99, outcome=0)
        p_rf, post0 = project(state, 99, 0, rec0.rotation.matrix())
        rec_m2, _ = merge(g_fail, 0, outcome=1)
        p_m2, _ = project(post0, 0, 1, rec_m2.rotation.matrix())
        total += p_rf * p_m2
        mc = choose_method(theta_a, gamma, "merge")
        assert total == pytest.approx(mc.p_ii, abs=1e-10)
