import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_graph import without_vertices_by_comprehension
from tglab.errors import GraphConfigError, ImpossibleStateError
from tglab.oracle import build_state, overlap
from tglab.tilted_graph import (
    EdgeAnnotation,
    EdgeKind,
    TiltedGraph,
    Vertex,
    canonical_angle,
    canonicalize,
    combine_partial_fusions,
    combine_weighted_edges,
    ghz_graph,
    is_untilted,
    star_center_id,
    swap_tilt,
    with_star,
)

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
canonical_angles = st.floats(min_value=-HALF_PI + 1e-6, max_value=HALF_PI - 1e-6)


def p_matrix(phi):
    zz = np.diag([1.0, -1.0, -1.0, 1.0])
    return math.cos(phi) * np.eye(4) + math.sin(phi) * zz


def u_matrix(phi):
    zz = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    return math.cos(phi) * np.eye(4) + 1j * math.sin(phi) * zz


def states_match(a, b, tol=1e-12):
    return overlap(a, b) > 1.0 - tol


class TestAngles:
    @given(angles)
    def test_canonical_range(self, x):
        y = canonical_angle(x)
        assert -HALF_PI < y <= HALF_PI

    @given(angles)
    def test_mod_pi(self, x):
        assert canonical_angle(x + math.pi) == pytest.approx(canonical_angle(x), abs=1e-9)

    def test_untilted_and_degenerate(self):
        assert is_untilted(QUARTER_PI) and is_untilted(-QUARTER_PI)
        assert not is_untilted(0.3)


class TestCombinePartialFusions:
    def test_pure_fusion_overrides(self):
        for sign in (1, -1):
            for phi in (0.0, 0.3, -0.6, 1.2):
                out, _ = combine_partial_fusions(sign * QUARTER_PI, phi)
                assert out == pytest.approx(sign * QUARTER_PI, abs=1e-12)

    def test_identity_fusion(self):
        phi, n = combine_partial_fusions(0.0, 0.42)
        assert phi == pytest.approx(0.42) and n == pytest.approx(1.0)

    def test_opposite_angles(self):
        phi, n = combine_partial_fusions(0.37, -0.37)
        assert phi == pytest.approx(0.0, abs=1e-12)
        assert n == pytest.approx(abs(math.cos(2 * 0.37)), abs=1e-12)

    @given(canonical_angles, canonical_angles)
    @settings(max_examples=200)
    def test_commutative_and_matches_matrices(self, p1, p2):
        try:
            phi_a, n_a = combine_partial_fusions(p1, p2)
        except ImpossibleStateError:
            return
        phi_b, n_b = combine_partial_fusions(p2, p1)
        assert phi_a == pytest.approx(phi_b, abs=1e-9)
        assert n_a == pytest.approx(n_b, abs=1e-12)
        # matrix identity up to overall sign: P(p1) P(p2) = +- N P(phi)
        lhs = p_matrix(p1) @ p_matrix(p2)
        rhs = n_a * p_matrix(phi_a)
        assert min(np.abs(lhs - rhs).max(), np.abs(lhs + rhs).max()) < 1e-9

    def test_n_m_range_and_maximum(self):
        phi, n = combine_partial_fusions(QUARTER_PI, QUARTER_PI)
        assert n == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert phi == pytest.approx(QUARTER_PI)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = rng.uniform(-HALF_PI, HALF_PI, 2)
            try:
                _, n = combine_partial_fusions(a, b)
            except ImpossibleStateError:
                continue
            assert 0.0 < n <= math.sqrt(2.0) + 1e-12

    def test_annihilating_projectors(self):
        with pytest.raises(ImpossibleStateError):
            combine_partial_fusions(QUARTER_PI, -QUARTER_PI)


class TestCombineWeightedEdges:
    def test_identity_and_inverse(self):
        assert combine_weighted_edges(0.0, 0.7) == pytest.approx(0.7)
        assert combine_weighted_edges(0.7, -0.7) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_plus_quarter_is_zz_byproduct(self):
        total = combine_weighted_edges(QUARTER_PI, QUARTER_PI)
        assert total == pytest.approx(HALF_PI)
        # U(pi/2) = i Z_x Z_y: matrix check of the additivity
        lhs = u_matrix(QUARTER_PI) @ u_matrix(QUARTER_PI)
        assert np.abs(lhs - u_matrix(total)).max() < 1e-12

    @given(canonical_angles, canonical_angles, canonical_angles)
    @settings(max_examples=200)
    def test_commutative_associative(self, a, b, c):
        assert combine_weighted_edges(a, b) == pytest.approx(combine_weighted_edges(b, a), abs=1e-9)
        lhs = combine_weighted_edges(combine_weighted_edges(a, b), c)
        rhs = combine_weighted_edges(a, combine_weighted_edges(b, c))
        assert canonical_angle(lhs - rhs) == pytest.approx(0.0, abs=1e-9)

    @given(canonical_angles, canonical_angles)
    @settings(max_examples=100)
    def test_matches_matrices_up_to_phase(self, a, b):
        total = combine_weighted_edges(a, b)
        lhs = u_matrix(a) @ u_matrix(b)
        rhs = u_matrix(total)
        # equal up to a global phase
        ratio = lhs[0, 0] / rhs[0, 0]
        assert np.abs(lhs - ratio * rhs).max() < 1e-9


def x_flipped(theta):
    """X|theta> = |pi/2 - theta>: the swapped tilt under a recorded X flag."""
    return Vertex(0, swap_tilt(theta), x_flip=True)


class TestXFlip:
    def test_untilted_fixed_point(self):
        v = x_flipped(QUARTER_PI)
        assert v.tilt == pytest.approx(QUARTER_PI) and v.x_flip

    def test_degenerate_and_arithmetic(self):
        assert x_flipped(0.0).tilt == pytest.approx(HALF_PI)
        assert x_flipped(math.pi / 6).tilt == pytest.approx(math.pi / 3)

    def test_preserves_isolated_state(self):
        for theta in (0.3, QUARTER_PI, 1.1):
            g1 = TiltedGraph([Vertex(0, theta)])
            g2 = TiltedGraph([x_flipped(theta)])
            assert states_match(build_state(g1), build_state(g2))


class TestGraphStructure:
    def test_validation(self):
        with pytest.raises(GraphConfigError):
            TiltedGraph([Vertex(0), Vertex(0)])
        with pytest.raises(GraphConfigError):
            TiltedGraph([Vertex(0)], [(0, 0, EdgeAnnotation.pure())])
        with pytest.raises(GraphConfigError):
            TiltedGraph([Vertex(0)], [(0, 1, EdgeAnnotation.pure())])

    def test_pure_annotation_is_one_shared_instance(self):
        pure = EdgeAnnotation.pure()
        assert pure is EdgeAnnotation.pure()
        assert pure == EdgeAnnotation(EdgeKind.PURE)
        assert pure.phi == 0.0 and not pure.maximal

    def test_components_and_queries(self):
        g = ghz_graph([0, 1, 2], 0.3)
        g = g.with_vertex(Vertex(7, 0.5))
        assert g.components() == (frozenset({0, 1, 2}), frozenset({7}))
        assert g.neighbors(0) == (1, 2)
        assert g.degree(1) == 1
        assert g.component_of(2) == frozenset({0, 1, 2})

    def test_round_trip_serialization_bit_exact(self):
        rng = np.random.default_rng(11)
        vertices = [Vertex(i, rng.uniform(-1.5, 1.5), bool(rng.integers(2)),
                           rng.uniform(0, 2 * math.pi), bool(rng.integers(2)))
                    for i in range(6)]
        edges = [(0, 1, EdgeAnnotation.pure()),
                 (1, 2, EdgeAnnotation.weighted(rng.uniform(-1.5, 1.5))),
                 (3, 4, EdgeAnnotation.partial_fusion(rng.uniform(-1.5, 1.5)))]
        g = TiltedGraph(vertices, edges)
        h = TiltedGraph.from_text(g.to_text())
        assert h == g
        assert h.to_text() == g.to_text()

    def test_from_text_rejects_garbage(self):
        with pytest.raises(GraphConfigError):
            TiltedGraph.from_text("V 0 not_a_float 0 0 0\n")


def _model_component(vertices, edges, vid):
    comp, stack = {vid}, [vid]
    while stack:
        cur = stack.pop()
        for a, b in edges:
            for u, w in ((a, b), (b, a)):
                if u == cur and w not in comp:
                    comp.add(w)
                    stack.append(w)
    return frozenset(comp)


def _assert_matches_model(g, vertices, edges):
    """Every structural query of g agrees with a plain vertex set and edge map."""
    assert set(g.vertex_ids) == vertices
    assert list(g.edges()) == [(a, b, edges[a, b]) for a, b in sorted(edges)]
    for v in vertices:
        nbs = sorted([b for a, b in edges if a == v] + [a for a, b in edges if b == v])
        assert g.neighbors(v) == tuple(nbs)
        assert g.degree(v) == len(nbs)
        assert g.component_of(v) == _model_component(vertices, edges, v)
        for w in vertices - {v}:
            assert g.edge(v, w) == edges.get((min(v, w), max(v, w)))
    comps, seen = [], set()
    for v in sorted(vertices):
        if v not in seen:
            comps.append(_model_component(vertices, edges, v))
            seen |= comps[-1]
    assert g.components() == tuple(comps)


ANNOTATIONS = (EdgeAnnotation.pure(), EdgeAnnotation.weighted(0.3),
               EdgeAnnotation.partial_fusion(-0.7))


class TestAdjacencyInvariants:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_edits_match_edge_set_model(self, data):
        g, vertices, edges = TiltedGraph(), set(), {}
        for _ in range(data.draw(st.integers(1, 25))):
            source, before, model = g, g.to_text(), (vertices, edges)
            op = data.draw(st.sampled_from(
                ("with_vertex", "with_edge", "without_edge", "without_vertices", "map_vertex")))
            if op == "with_vertex" or not vertices:
                vid = data.draw(st.integers(0, 7))
                g, vertices = g.with_vertex(Vertex(vid, data.draw(canonical_angles))), vertices | {vid}
            elif op == "with_edge" and len(vertices) >= 2:
                a, b = data.draw(st.lists(st.sampled_from(sorted(vertices)), min_size=2,
                                          max_size=2, unique=True))
                annot = data.draw(st.sampled_from(ANNOTATIONS))
                g, edges = g.with_edge(a, b, annot), {**edges, (min(a, b), max(a, b)): annot}
            elif op == "without_edge" and edges:
                a, b = data.draw(st.permutations(data.draw(st.sampled_from(sorted(edges)))))
                g = g.without_edge(a, b)
                edges = {k: x for k, x in edges.items() if k != (min(a, b), max(a, b))}
            elif op == "without_vertices":
                gone = set(data.draw(st.lists(st.sampled_from(sorted(vertices)), max_size=3)))
                g, vertices = g.without_vertices(gone), vertices - gone
                edges = {k: x for k, x in edges.items() if not set(k) & gone}
            elif op == "map_vertex":
                g = g.map_vertex(data.draw(st.sampled_from(sorted(vertices))),
                                 lambda v: v.append_x())
            # an edit that mutated a row it shares with its source shows here
            assert source.to_text() == before
            _assert_matches_model(source, *model)
            _assert_matches_model(g, vertices, edges)


class TestEdited:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_one_edit_copies_only_the_rows_it_changes(self, data):
        ids = sorted(data.draw(st.lists(st.integers(0, 9), min_size=2, max_size=8, unique=True)))
        pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
        edges = {key: data.draw(st.sampled_from(ANNOTATIONS))
                 for key in data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))}
        g = TiltedGraph([Vertex(vid) for vid in ids], [(*key, x) for key, x in edges.items()])
        saved = TiltedGraph.from_text(g.to_text())
        drop = set(data.draw(st.lists(st.sampled_from(ids), max_size=3)))
        kept = [vid for vid in ids if vid not in drop]
        replaced = data.draw(st.lists(st.sampled_from(kept), unique=True)) if kept else []
        vertices = [Vertex(10), Vertex(11)] + [g.vertex(vid).append_x() for vid in replaced]
        alive = kept + [10, 11]
        model = {key: x for key, x in edges.items() if not set(key) & drop}
        alive_pairs = [(a, b) for k, a in enumerate(alive) for b in alive[k + 1:]]
        sets = data.draw(st.lists(st.sampled_from(alive_pairs), unique=True, max_size=4))
        deletes = data.draw(st.lists(st.sampled_from(sorted(model)), unique=True, max_size=3)) \
            if model else []
        sets = [key for key in sets if key not in deletes]
        changes = [(*key, data.draw(st.sampled_from(ANNOTATIONS))) for key in sets]
        changes += [(b, a, None) for a, b in deletes]          # either orientation deletes
        out = g.edited(drop, vertices, data.draw(st.permutations(changes)))

        assert g == saved and g.to_text() == saved.to_text()
        for a, b, x in changes:
            if x is None:
                del model[min(a, b), max(a, b)]
                assert out.edge(a, b) is None
                assert a not in out.neighbors(b) and b not in out.neighbors(a)
            else:
                model[min(a, b), max(a, b)] = x
        _assert_matches_model(out, set(alive), model)
        assert all(out.vertex(v.id) is v for v in vertices)
        touched = {nb for vid in drop for nb in g.neighbors(vid)}
        touched |= {u for a, b, _ in changes for u in (a, b)}
        for vid in set(kept) - touched:
            assert out._adj[vid] is g._adj[vid]

    @pytest.mark.parametrize("edit, message", [
        (lambda g: g.edited(drop=[7]), "no vertex 7"),
        (lambda g: g.edited(edges=[(0, 9, EdgeAnnotation.pure())]), "no vertex 9"),
        (lambda g: g.with_edge(9, 0, EdgeAnnotation.pure()), "no vertex 9"),
        (lambda g: g.edited(drop=[1], edges=[(0, 1, EdgeAnnotation.pure())]), "no vertex 1"),
        (lambda g: g.without_edge(1, 2), "no edge (1, 2)"),
        (lambda g: g.edited(edges=[(0, 1, None), (1, 0, None)]), "no edge (0, 1)"),
        (lambda g: g.with_edge(2, 2, EdgeAnnotation.pure()), "self-edge on vertex 2"),
        (lambda g: with_star(g, [], Vertex(5), [Vertex(1, hadamard=True)]),
         "duplicate vertex id 1"),
        (lambda g: with_star(g, [0], Vertex(5), [Vertex(6), Vertex(5)]), "duplicate vertex id 5"),
    ])
    def test_rejected_edits_keep_their_messages(self, edit, message):
        g = ghz_graph(range(3))
        with pytest.raises(GraphConfigError, match=f"^{re.escape(message)}$"):
            edit(g)
        assert g == ghz_graph(range(3))


def _key_orders(g):
    return (list(g._vertices), list(g._adj), {vid: list(row) for vid, row in g._adj.items()})


class TestWithoutVertices:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_matches_the_comprehension_in_key_order(self, data):
        # insertion order matters: star_center_id reads a Hadamard leaf's
        # centre as the first key of its row
        ids = data.draw(st.lists(st.integers(0, 30), min_size=1, max_size=15, unique=True))
        ids = data.draw(st.permutations(ids))
        pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=25)) \
            if pairs else []
        g = TiltedGraph([Vertex(vid, QUARTER_PI, hadamard=data.draw(st.booleans()))
                         for vid in ids],
                        [(a, b, data.draw(st.sampled_from(ANNOTATIONS))) for a, b in chosen])
        # earlier edits leave rows whose key order is not the construction order
        for a, b in data.draw(st.lists(st.sampled_from(chosen), max_size=3)) if chosen else []:
            if g.edge(a, b) is not None:
                g = g.without_edge(a, b).with_edge(b, a, EdgeAnnotation.pure())
        gone = data.draw(st.lists(st.sampled_from(ids), max_size=len(ids)))
        got, want = g.without_vertices(gone), without_vertices_by_comprehension(g, gone)
        assert got == want
        assert _key_orders(got) == _key_orders(want)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(GraphConfigError):
            ghz_graph(range(3)).without_vertices([0, 7])


class TestGhzStar:
    @pytest.mark.parametrize("n,theta", [(1, 0.5), (2, QUARTER_PI), (4, math.pi / 6)])
    def test_build_matches_ghz_amplitudes(self, n, theta):
        g = ghz_graph(range(n), theta)
        amps = build_state(g).amps.reshape(-1)
        expect = np.zeros(2**n, dtype=complex)
        expect[0] = math.cos(theta)
        expect[-1] = math.sin(theta)
        assert np.abs(amps - expect).max() < 1e-12

    def test_star_center_and_tilt(self):
        g = ghz_graph([5, 6, 7], 0.4, center=6)
        assert star_center_id(g, 5) == 6
        assert g.vertex(star_center_id(g, 5)).tilt == pytest.approx(0.4)

    def test_reroot_preserves_state(self):
        g = ghz_graph([0, 1, 2, 3], 0.7)
        h = ghz_graph([0, 1, 2, 3], 0.7, center=2)
        assert star_center_id(h, 0) == 2
        assert states_match(build_state(g), build_state(h))

    def test_non_star_rejected(self):
        g = TiltedGraph([Vertex(0), Vertex(1)], [(0, 1, EdgeAnnotation.pure())])
        assert star_center_id(g, 0) is None    # two centres


class TestCanonicalize:
    def test_idempotent(self):
        g = ghz_graph([0, 1, 2], -0.3)
        g = g.with_vertex(Vertex(9, 0.2)).with_vertex(Vertex(10, 0.9))
        g = g.with_edge(9, 10, EdgeAnnotation.weighted(QUARTER_PI))
        c1 = canonicalize(g)
        assert canonicalize(c1) == c1

    def test_negative_tilt_absorbed_as_z(self):
        for theta in (-0.3, -QUARTER_PI, -1.2):
            g = TiltedGraph([Vertex(0, theta)])
            c = canonicalize(g)
            assert c.vertex(0).tilt == pytest.approx(-theta)
            assert c.vertex(0).z_phase == pytest.approx(math.pi)
            assert states_match(build_state(g), build_state(c))

    def test_negative_tilt_under_hadamard_becomes_x(self):
        g = TiltedGraph([Vertex(0, -0.4, hadamard=True)])
        c = canonicalize(g)
        assert c.vertex(0).tilt == pytest.approx(0.4)
        assert c.vertex(0).x_flip
        assert states_match(build_state(g), build_state(c))

    def test_negative_tilt_in_star(self):
        g = ghz_graph([0, 1, 2], -0.5)
        c = canonicalize(g)
        assert c.vertex(star_center_id(c, 0)).tilt == pytest.approx(0.5)
        assert states_match(build_state(g), build_state(c))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_maximal_weighted_edge_becomes_pure(self, sign):
        g = TiltedGraph(
            [Vertex(0), Vertex(1), Vertex(2), Vertex(3)],
            [(0, 1, EdgeAnnotation.pure()), (2, 3, EdgeAnnotation.pure()),
             (1, 2, EdgeAnnotation.weighted(sign * QUARTER_PI))])
        c = canonicalize(g)
        assert c.edge(1, 2).kind is EdgeKind.PURE
        assert states_match(build_state(g), build_state(c))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_maximal_partial_fusion_becomes_pure_star(self, sign):
        # two GHZ stars fused at their centres: the Fig. 6a reduction
        ga = ghz_graph([0, 1, 2], QUARTER_PI)
        gb = ghz_graph([3, 4, 5], QUARTER_PI)
        g = TiltedGraph(list(ga.vertices()) + list(gb.vertices()),
                        list(ga.edges()) + list(gb.edges())
                        + [(0, 3, EdgeAnnotation.partial_fusion(sign * QUARTER_PI))])
        c = canonicalize(g)
        assert all(annot.kind is EdgeKind.PURE for _, _, annot in c.edges())
        # inheritor keeps all connections, partner hangs as a Hadamard cherry
        assert set(c.neighbors(0)) == {1, 2, 3, 4, 5}
        assert c.vertex(3).hadamard
        assert states_match(build_state(g), build_state(c))

    def test_partial_fusion_between_plain_vertices(self):
        rng = np.random.default_rng(5)
        for sign in (1, -1):
            for n_extra in (0, 1, 2):
                ids_a = [0] + list(range(10, 10 + n_extra))
                g = ghz_graph(ids_a, QUARTER_PI)
                g = g.with_vertex(Vertex(1))
                g = g.with_edge(0, 1, EdgeAnnotation.partial_fusion(sign * QUARTER_PI))
                c = canonicalize(g)
                assert states_match(build_state(g), build_state(c))

    def test_weighted_edge_with_hadamard_endpoint_left_alone(self):
        g = TiltedGraph([Vertex(0, hadamard=True), Vertex(1)],
                        [(0, 1, EdgeAnnotation.weighted(QUARTER_PI))])
        c = canonicalize(g)
        assert c.edge(0, 1).kind is EdgeKind.WEIGHTED
