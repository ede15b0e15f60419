"""The array-speed oracle against its gate-by-gate and step-by-step references."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_oracle import build_state_reference, evolve_reference
from tglab.errors import GraphConfigError, ImpossibleStateError, TrajectoryError
from tglab.leakage import CavityParams
from tglab.oracle import _evolve, _single_hamiltonian, build_state, build_states, rk4_step_size
from tglab.tilted_graph import EdgeAnnotation, TiltedGraph, Vertex

QUARTER_PI = math.pi / 4

# exact maximal angles make annihilating partial-fusion combinations reachable
angles = st.one_of(st.sampled_from([0.0, QUARTER_PI, -QUARTER_PI, math.pi / 2]),
                   st.floats(min_value=-math.pi, max_value=math.pi))
annotations = st.one_of(st.just(EdgeAnnotation.pure()),
                        st.builds(EdgeAnnotation.weighted, angles),
                        st.builds(EdgeAnnotation.partial_fusion, angles))


@st.composite
def decorated_graphs(draw):
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=10, unique=True))
    vertices = [Vertex(vid, draw(angles), hadamard=draw(st.booleans()),
                       z_phase=draw(st.one_of(st.just(0.0), angles)), x_flip=draw(st.booleans()))
                for vid in ids]
    pairs = [(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    return TiltedGraph(vertices, [(a, b, draw(annotations)) for a, b in chosen])


class TestBuildStateMatchesReference:
    @given(decorated_graphs())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_amplitudes_or_both_impossible(self, g):
        try:
            ref = build_state_reference(g)
        except ImpossibleStateError:
            with pytest.raises(ImpossibleStateError):
                build_state(g)
            return
        got = build_state(g)
        assert got.qubit_ids == ref.qubit_ids
        assert np.abs(got.amps - ref.amps).max() < 1e-12

    def test_annihilating_fusions_raise(self):
        for builder in (build_state_reference, build_state):
            with pytest.raises(ImpossibleStateError):
                builder(_annihilating())

    def test_cap_sized_dense_graph(self):
        # 14 preparations and 91 edges: the factors are gathered over several blocks
        def annotation(a, b):
            phi = 0.05 * (a - b)
            return (EdgeAnnotation.pure(), EdgeAnnotation.weighted(phi),
                    EdgeAnnotation.partial_fusion(phi))[(a + b) % 3]

        g = TiltedGraph([Vertex(k, 0.1 * k, hadamard=k % 3 == 0, z_phase=0.2 * k, x_flip=k % 4 == 1)
                         for k in range(14)],
                        [(a, b, annotation(a, b)) for a in range(14) for b in range(a + 1, 14)])
        assert np.abs(build_state(g).amps - build_state_reference(g).amps).max() < 1e-12

    def test_fifteen_qubits_rejected_before_allocating(self):
        g = TiltedGraph([Vertex(k) for k in range(15)])
        tracemalloc.start()
        try:
            with pytest.raises(GraphConfigError):
                build_state(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**15 * 16  # less than one 15-qubit amplitude vector


def _annihilating():
    # P(pi/4) keeps equal bits, P(-pi/4) unequal ones: no basis state survives
    return TiltedGraph([Vertex(0), Vertex(1), Vertex(2)],
                       [(0, 1, EdgeAnnotation.partial_fusion(QUARTER_PI)),
                        (1, 2, EdgeAnnotation.partial_fusion(-QUARTER_PI)),
                        (0, 2, EdgeAnnotation.partial_fusion(QUARTER_PI))])


class TestBuildStatesMatchesReference:
    @given(st.lists(decorated_graphs(), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_mixed_batches(self, graphs):
        refs = []
        for g in graphs:
            try:
                refs.append(build_state_reference(g))
            except ImpossibleStateError:
                with pytest.raises(ImpossibleStateError):
                    build_states(graphs)
                return
        for got, ref in zip(build_states(graphs), refs):
            assert got.qubit_ids == ref.qubit_ids
            assert np.abs(got.amps - ref.amps).max() < 1e-12

    def test_many_graphs_of_one_size_over_several_gathers(self):
        # 60 six-qubit graphs of 6 to 11 factors each: several graphs per gather,
        # and several gathers
        rng = np.random.default_rng(4)
        graphs = []
        for k in range(60):
            vertices = [Vertex(v, float(rng.uniform(-1.5, 1.5)), hadamard=bool(rng.random() < 0.5),
                               z_phase=float(rng.choice([0.0, 0.3, math.pi])),
                               x_flip=bool(rng.random() < 0.3)) for v in range(6)]
            edges = [(a, a + 1, (EdgeAnnotation.pure(), EdgeAnnotation.weighted(0.2 * a),
                                 EdgeAnnotation.partial_fusion(0.1 * a))[(a + k) % 3])
                     for a in range(min(k % 8, 5))]
            graphs.append(TiltedGraph(vertices, edges))
        for got, g in zip(build_states(graphs), graphs):
            assert np.abs(got.amps - build_state_reference(g).amps).max() < 1e-12

    def test_annihilating_fusion_in_a_batch_raises(self):
        with pytest.raises(ImpossibleStateError):
            build_states([TiltedGraph([Vertex(0)]), _annihilating(), TiltedGraph([Vertex(5)])])

    def test_cap_checked_for_the_whole_batch_first(self):
        with pytest.raises(GraphConfigError):
            build_states([_annihilating(), TiltedGraph([Vertex(k) for k in range(15)])])


A, B = CavityParams(10.0, 40.0), CavityParams(12.5, 50.0)
K = -1j * (np.kron(_single_hamiltonian(A), np.eye(4)) + np.kron(np.eye(4), _single_hamiltonian(B)))
H = rk4_step_size(A, B)


def _start(*batch):
    rng = np.random.default_rng(9)
    psi = rng.normal(size=batch + (16,)) + 1j * rng.normal(size=batch + (16,))
    return psi / np.linalg.norm(psi, axis=-1, keepdims=True)


class TestEvolveMatchesSteppedRk4:
    @pytest.mark.parametrize("duration", [0.0, 250 * H, 0.0537], ids=["zero", "whole", "remainder"])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)], ids=["single", "batch", "batch2d"])
    def test_agrees(self, duration, batch):
        psi = _start(*batch)
        got = _evolve(psi, K, duration, H)
        assert got.shape == psi.shape
        assert np.abs(got - evolve_reference(psi, K, duration, H)).max() < 1e-12

    def test_negative_duration_rejected(self):
        with pytest.raises(TrajectoryError):
            _evolve(_start(), K, -1e-3, H)
