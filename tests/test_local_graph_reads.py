"""Per-attempt graph reads and rewrites stay local, and agree with the
whole-component and whole-graph references in reference_graph.py.  The
library's DH rewrite equals the two-configuration reference of
reference_heralding.py on every pair of cherries and rejects every other side."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_graph import (
    component_star_center,
    star_center_id,
    whole_graph_canonicalize,
    whole_graph_join,
)

import reference_heralding
from reference_heralding import CHERRY, apply_dh_reference, classify_side_reference
from tglab import procedures, tilted_graph
from tglab.errors import GraphConfigError
from tglab.heralding import DhOutcome, apply_dh_to_graph, classify_dh_side
from tglab.oracle import build_state, overlap, project
from tglab.procedures import bridge, merge, realign
from tglab.tilted_graph import (
    QUARTER_PI,
    EdgeAnnotation,
    EdgeKind,
    TiltedGraph,
    Vertex,
    canonical_edge,
    canonicalize,
    ghz_graph,
)
from tglab.verify import _eq29_instance

PERTURBATIONS = ("none", "tilt", "near-untilted", "no-flag", "x-flip", "extra-edge",
                 "weighted-edge", "flagged-centre", "cherry")


def union(*graphs):
    return TiltedGraph([v for g in graphs for v in g.vertices()],
                       [e for g in graphs for e in g.edges()])


@st.composite
def star_forests(draw):
    """Disjoint GHZ stars of 1-5 qubits, each left as it is or perturbed once:
    one leaf tilted, unflagged, X-flipped or given an extra or non-pure edge, a
    flagged centre, or a plain cherry hung on the centre."""
    g, nid = TiltedGraph(), 0
    for _ in range(draw(st.integers(1, 4))):
        ids = list(range(nid, nid + draw(st.integers(1, 5))))
        nid = ids[-1] + 1
        center = draw(st.sampled_from(ids))
        g = union(g, ghz_graph(ids, draw(st.floats(-1.5, 1.5)), center=center))
        leaves = [i for i in ids if i != center]
        how = draw(st.sampled_from(PERTURBATIONS))
        leaf = draw(st.sampled_from(leaves)) if leaves else center
        if how == "tilt":
            g = g.map_vertex(leaf, lambda v: replace(v, tilt=0.3))
        elif how == "near-untilted":
            g = g.map_vertex(leaf, lambda v: replace(v, tilt=QUARTER_PI + 5e-10))
        elif how == "no-flag":
            g = g.map_vertex(leaf, lambda v: replace(v, hadamard=False))
        elif how == "x-flip":
            g = g.map_vertex(leaf, lambda v: v.append_x())
        elif how == "extra-edge" and g.vertex_count > 2:
            other = draw(st.sampled_from([i for i in g.vertex_ids if i not in (leaf, center)]))
            if g.edge(leaf, other) is None:
                g = g.with_edge(leaf, other, EdgeAnnotation.pure())
        elif how == "weighted-edge" and leaves:
            g = g.with_edge(center, leaf, EdgeAnnotation.weighted(0.3))
        elif how == "flagged-centre":
            g = g.map_vertex(center, lambda v: replace(v, hadamard=True))
        elif how == "cherry":
            g = g.with_vertex(Vertex(nid)).with_edge(nid, center, EdgeAnnotation.pure())
            nid += 1
    return g


class TestStarTest:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(star_forests())
    def test_local_star_test_matches_component_reference(self, g):
        for vid in g.vertex_ids:
            assert star_center_id(g, vid) == component_star_center(g, g.component_of(vid)), vid

    def test_lone_vertex_is_its_own_star(self):
        g = TiltedGraph([Vertex(3, 0.4)])
        assert star_center_id(g, 3) == 3
        info = classify_side_reference(g, 3)
        assert (info.config, info.members, info.center) == (reference_heralding.GHZ, {3}, 3)
        assert info.theta_eff == pytest.approx(0.4)
        with pytest.raises(GraphConfigError, match="is not a Hadamard-removed cherry"):
            classify_dh_side(g, 3)

    def test_flagged_fresh_qubit_rejected(self):
        g = TiltedGraph([Vertex(0, 0.4, hadamard=True)])
        with pytest.raises(GraphConfigError, match="may not carry a Hadamard flag"):
            classify_side_reference(g, 0)
        with pytest.raises(GraphConfigError, match="is not a Hadamard-removed cherry"):
            classify_dh_side(g, 0)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(star_forests(), st.data())
    def test_dh_rewrites_match_component_star_test(self, g, data):
        qa, qb = data.draw(st.lists(st.sampled_from(g.vertex_ids), min_size=2, max_size=2,
                                    unique=True)) if g.vertex_count > 1 else (0, 0)
        outcome = data.draw(st.sampled_from((DhOutcome(False), DhOutcome(True, 0.6))))

        def run(rewrite):
            try:
                return rewrite(g, qa, qb, outcome)
            except GraphConfigError as exc:
                return type(exc)
        local = run(apply_dh_reference)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reference_heralding, "star_center_id",
                       lambda g, vid: component_star_center(g, g.component_of(vid)))
            assert run(apply_dh_reference) == local
        # the library is the reference's cherry case, and rejects every other side
        def config(q):
            try:
                return classify_side_reference(g, q).config
            except GraphConfigError:
                return None
        cherries = config(qa) == config(qb) == CHERRY
        assert run(apply_dh_to_graph) == (local if cherries else GraphConfigError)


def eq29_cases(count):
    """(graph, star centres, cherry) eq29 instances: each third has a cherry, a
    partial fusion or a weighted edge between the centres, and about 30% an
    endpoint at -pi/4."""
    for case in range(count):
        rng = np.random.default_rng(case)
        which = case % 3
        kind = (None, "partial", "weighted")[which] if rng.random() < 0.8 else None
        g, centers, cherry = _eq29_instance(rng, annot_kind=kind, with_cherry=which == 0)
        if rng.random() < 0.3:
            g = g.with_vertex(Vertex(centers[int(rng.integers(0, 2))], -QUARTER_PI))
        yield g, centers, cherry


def attempt(procedure, *args, **kwargs):
    try:
        return procedure(*args, **kwargs)
    except GraphConfigError as exc:
        return str(exc)


class TestProceduresAgainstReferences:
    def test_joins_match_whole_graph_canonicalization(self):
        negative, maximal = 0, 0
        for g, _, cherry in eq29_cases(300):
            if cherry is not None:
                continue
            negative += any(v.tilt < 0 for v in g.vertices())
            kind = g.edge(*g.neighbors(0))
            procs = ((merge,) if kind is None or kind.kind is EdgeKind.PARTIAL else ()) + \
                    ((bridge,) if kind is None or kind.kind is EdgeKind.WEIGHTED else ())
            for proc in procs:
                for sign in (None, 1, -1):
                    for outcome in (0, 1):
                        record, after = proc(g, 0, sign=sign, outcome=outcome)
                        maximal += record.annotation_after.maximal
                        assert after == whole_graph_join(g, 0, record)
        assert negative > 30 and maximal > 300

    def test_realign_cases_match_the_oracle(self):
        cases = [(g, cherry) for g, _, cherry in eq29_cases(60) if cherry is not None]
        cases += [(ghz_graph(range(n), 0.3 * n, center=n // 2), q)
                  for n in (2, 3, 5) for q in range(n)]
        cases += [(g, q) for g, _, _ in eq29_cases(12) for q in g.vertex_ids if g.degree(q) == 1]
        accepted = 0
        for g, q in cases:
            state = build_state(g)
            for outcome in (0, 1):
                got = attempt(realign, g, q, outcome=outcome)
                if isinstance(got, str):
                    continue
                accepted += 1
                record, after = got
                p, post = project(state, q, outcome, record.rotation.matrix())
                assert p == pytest.approx(record.probability if outcome
                                          else 1.0 - record.probability, abs=1e-10)
                if p > 1e-12:
                    assert overlap(post, build_state(after)) > 1 - 1e-10
        assert accepted > len(cases)

    def test_canonicalize_matches_whole_graph_reference(self):
        for g, (x, y), _ in eq29_cases(90):
            for annot in (EdgeAnnotation.partial_fusion(QUARTER_PI),
                          EdgeAnnotation.weighted(-QUARTER_PI)):
                h = g.without_vertices([0]).with_edge(x, y, annot)
                h = h.with_vertex(Vertex(90, -0.4, hadamard=True))
                assert canonicalize(h) == whole_graph_canonicalize(h)

    @pytest.mark.parametrize("procedure", [merge, bridge])
    def test_join_leaves_the_rest_of_the_graph_as_given(self, procedure):
        rest = TiltedGraph([Vertex(50, -0.3), Vertex(51), Vertex(52)],
                           [(51, 52, EdgeAnnotation.weighted(QUARTER_PI))])
        g, _, _ = _eq29_instance(np.random.default_rng(4))
        g = union(g, rest)
        record, after = procedure(g, 0, outcome=1)
        x, y = g.neighbors(0)
        assert record.annotation_after.maximal and after.edge(x, y).kind is EdgeKind.PURE
        assert after.vertex(50) == g.vertex(50)
        assert after.edge(51, 52) == EdgeAnnotation.weighted(QUARTER_PI)
        state = build_state(g)
        p, post = project(state, 0, 1, record.rotation.matrix())
        assert p == pytest.approx(record.probability, abs=1e-10)
        assert overlap(post, build_state(after)) > 1 - 1e-10

    def test_canonical_edge_leaves_other_edges_as_they_are(self):
        g = TiltedGraph([Vertex(0), Vertex(1, -QUARTER_PI), Vertex(2, -0.2)],
                        [(0, 1, EdgeAnnotation.weighted(0.3))])
        assert canonical_edge(g, 0, 1) is g          # not maximal
        assert canonical_edge(g, 0, 2) is g          # no edge
        g = g.with_edge(0, 1, EdgeAnnotation.weighted(-QUARTER_PI))
        out = canonical_edge(g, 0, 1)
        assert out.edge(0, 1).kind is EdgeKind.PURE and out.vertex(1).tilt == QUARTER_PI
        assert out.vertex(2) == g.vertex(2)
        assert overlap(build_state(g), build_state(out)) > 1 - 1e-12


class TestNoWholeGraphPass:
    def test_call_counts(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(TiltedGraph, "component_of",
                            counted("component_of", TiltedGraph.component_of))
        for module in (tilted_graph, procedures):
            monkeypatch.setattr(module, "canonicalize",
                                counted("canonicalize", tilted_graph.canonicalize), raising=False)
        star = union(ghz_graph(range(4), 0.6), TiltedGraph([Vertex(10, 0.4)]))
        cherried = star.with_vertex(Vertex(11)).with_edge(11, 0, EdgeAnnotation.pure())
        for q in (0, 2, 10):
            with pytest.raises(GraphConfigError):
                classify_dh_side(star, q)
        assert classify_dh_side(cherried, 11) == 0
        realign(star, 3, outcome=1)
        g, _, cherry = _eq29_instance(np.random.default_rng(2), with_cherry=True)
        realign(g, cherry, outcome=0)
        assert calls["component_of"] == 0
        g, _, _ = _eq29_instance(np.random.default_rng(3))
        for procedure in (merge, bridge):
            record, _ = procedure(g, 0, outcome=1)
            assert record.annotation_after.maximal
        assert calls["canonicalize"] == 0


class TestJoinEndpoints:
    @pytest.mark.parametrize("procedure", [merge, bridge])
    def test_near_untilted_endpoint_is_rejected(self, procedure):
        # within 1e-9 of pi/4 but not untilted (1e-12): both procedures reject it
        g, centers, _ = _eq29_instance(np.random.default_rng(1))
        g = g.map_vertex(centers[0], lambda v: replace(v, tilt=QUARTER_PI + 5e-10))
        with pytest.raises(GraphConfigError,
                           match=f"join endpoint {centers[0]} must be a plain untilted vertex"):
            procedure(g, 0, outcome=1)
