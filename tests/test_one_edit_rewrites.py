"""Each graph rewrite is one `TiltedGraph.edited` call, and returns the graph that
the chained one-step edits in reference_graph.py return."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference_graph import chained_canonical_edge, chained_cherry_success
from test_oracle_reference import decorated_graphs

from tglab import growth, procedures
from tglab.errors import GraphConfigError
from tglab.heralding import DhOutcome, apply_dh_to_graph, classify_dh_side
from tglab.leakage import CriticallyDamped
from tglab.tilted_graph import (
    QUARTER_PI,
    EdgeAnnotation,
    TiltedGraph,
    Vertex,
    canonical_edge,
    ghz_graph,
)
from tglab.verify import _decorated_pair

MAXIMAL = (QUARTER_PI, -QUARTER_PI)


def outcome(rewrite, *args):
    """The graph a rewrite returns, or the type and message of its GraphConfigError."""
    try:
        return rewrite(*args)
    except GraphConfigError as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    assert got == want
    if isinstance(want, TiltedGraph):
        assert got.to_text() == want.to_text()


@st.composite
def fusion_sites(draw):
    """A maximal partial fusion between untilted plain vertices 0 and 1 (either at
    -pi/4), with pure edges to neighbours of one end or of both, each neighbour
    decorated at random."""
    sides = draw(st.lists(st.sampled_from(("x", "y", "both")), max_size=6))
    vertices = [Vertex(vid, draw(st.sampled_from(MAXIMAL))) for vid in (0, 1)]
    vertices += [Vertex(vid, draw(st.floats(-1.5, 1.5)), hadamard=draw(st.booleans()),
                        z_phase=draw(st.sampled_from((0.0, math.pi))), x_flip=draw(st.booleans()))
                 for vid in range(2, 2 + len(sides))]
    pure = EdgeAnnotation.pure()
    edges = [(0, 1, EdgeAnnotation.partial_fusion(draw(st.sampled_from(MAXIMAL))))]
    for vid, side in enumerate(sides, 2):
        edges += [(end, vid, pure) for end in (0, 1) if side in (("x", "y")[end], "both")]
    return TiltedGraph(vertices, edges)


class TestCanonicalEdge:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(fusion_sites())
    def test_fusion_sites(self, g):
        for a, b in ((0, 1), (1, 0)):
            assert_same(canonical_edge(g, a, b), chained_canonical_edge(g, a, b))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(decorated_graphs())
    def test_decorated_graphs(self, g):
        for a, b, _ in g.edges():
            assert_same(outcome(canonical_edge, g, a, b), outcome(chained_canonical_edge, g, a, b))

    def test_verify_decorated_pairs(self):
        for case in range(120):
            g = _decorated_pair(0, case)
            for a, b, _ in g.edges():
                assert_same(canonical_edge(g, a, b), chained_canonical_edge(g, a, b))


class TestCherrySuccess:
    @pytest.mark.parametrize("theta_beta", [0.3, QUARTER_PI, -1.1])
    @pytest.mark.parametrize("flags", [{}, {"x_flip": True}, {"z_phase": math.pi}])
    def test_two_cherries(self, theta_beta, flags):
        # leaves 1 and 4 lose their Hadamard flags: each is its star centre's
        # cherry; centre 0 carries the flags, and gains a Z(pi)
        stars = (ghz_graph([0, 1, 2]), ghz_graph([3, 4, 5, 6]))
        g = TiltedGraph([v for s in stars for v in s.vertices()],
                        [e for s in stars for e in s.edges()]
                        + [(0, 3, EdgeAnnotation.weighted(0.4))])
        g = g.edited(vertices=[Vertex(1), Vertex(4), Vertex(0, **flags)])
        assert (classify_dh_side(g, 1), classify_dh_side(g, 4)) == (0, 3)
        assert_same(apply_dh_to_graph(g, 1, 4, DhOutcome(True, theta_beta)),
                    chained_cherry_success(g, 1, 4, theta_beta))


def join_campaign(kind, pieces, seed):
    """The final graph of a join campaign over `pieces` untilted pieces of 12-16
    qubits, cavities alternating g = 10 / 12.5."""
    rng, profiles = random.Random(seed), (CriticallyDamped(10.0), CriticallyDamped(12.5))
    made, cavities, nid = [], {}, 0
    for _ in range(pieces):
        size = rng.randint(12, 16)
        cavities.update((nid + k, profiles[(nid + k) % 2]) for k in range(size))
        made.append(growth.GhzPiece(size, QUARTER_PI, tuple(range(nid, nid + size))))
        nid += size
    cfg = growth.StrategyConfig(profiles=cavities, seed=seed, join_nodes=pieces, join_kind=kind)
    graph, _, stats = growth.run_join(made, cfg)
    return graph, stats


def chained_dh(g, qa, qb, outcome):
    """`apply_dh_to_graph` with its success rewrite made by the chained edits."""
    if outcome.success:
        return chained_cherry_success(g, qa, qb, outcome.theta_beta)
    return apply_dh_to_graph(g, qa, qb, outcome)


@pytest.mark.parametrize("kind", ["merge", "bridge"])
def test_join_campaigns_match_the_chained_rewrites(kind, monkeypatch):
    got, stats = join_campaign(kind, 20, 5)
    monkeypatch.setattr(procedures, "canonical_edge", chained_canonical_edge)
    monkeypatch.setattr(growth, "apply_dh_to_graph", chained_dh)
    want, want_stats = join_campaign(kind, 20, 5)
    assert_same(got, want)
    assert stats == want_stats
    assert (stats.merges if kind == "merge" else stats.bridges) >= 19
