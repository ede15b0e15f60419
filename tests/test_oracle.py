import math

import numpy as np
import pytest

from reference_oracle import evolve_single, single_system_click_density
from tglab.errors import GraphConfigError, TrajectoryError, VerificationError
from tglab.leakage import CavityParams, CriticallyDamped
from tglab.oracle import (
    build_state,
    jump_operators,
    overlap,
    project,
    rk4_step_size,
    trajectory_dh_grid,
)
from tglab.tilted_graph import EdgeAnnotation, TiltedGraph, Vertex, canonicalize, ghz_graph
from tglab.verify import run_verification

QUARTER_PI = math.pi / 4
H_GATE = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
S_DAG = np.diag([1.0, -1.0j])


def eq29_graph(theta, stars=((1, 10), (2, 20))):
    """Central vertex 0 tilted by theta, pure edges to two star centres."""
    vertices = [Vertex(0, theta)]
    edges = []
    for center, leaf_base in stars:
        vertices.append(Vertex(center, QUARTER_PI))
        edges.append((0, center, EdgeAnnotation.pure()))
        vertices.append(Vertex(leaf_base, QUARTER_PI, hadamard=True))
        edges.append((center, leaf_base, EdgeAnnotation.pure()))
    return TiltedGraph(vertices, edges)


class TestBuildState:
    def test_single_untilted_vertex_is_plus(self):
        s = build_state(TiltedGraph([Vertex(0, QUARTER_PI)]))
        assert np.abs(s.amps - np.array([1, 1]) / math.sqrt(2)).max() < 1e-12

    def test_two_vertex_graph_state(self):
        g = TiltedGraph([Vertex(0), Vertex(1)], [(0, 1, EdgeAnnotation.pure())])
        s = build_state(g)
        # (|0+> + |1->)/sqrt 2
        expect = np.array([1, 1, 1, -1], dtype=complex).reshape(2, 2) / 2.0
        assert np.abs(s.amps - expect).max() < 1e-12

    def test_tilted_ghz_amplitudes(self):
        theta = math.pi / 6
        s = build_state(ghz_graph(range(4), theta))
        flat = s.amps.reshape(-1)
        assert flat[0] == pytest.approx(math.cos(theta))
        assert flat[-1] == pytest.approx(math.sin(theta))
        assert np.abs(flat[1:-1]).max() < 1e-12

    def test_qubit_cap(self):
        with pytest.raises(GraphConfigError):
            build_state(ghz_graph(range(15)))


class TestMeasurement:
    def test_plus_state_z_probabilities(self):
        s = build_state(TiltedGraph([Vertex(0, QUARTER_PI)]))
        p0, _ = project(s, 0, 0)
        p1, _ = project(s, 0, 1)
        assert p0 == pytest.approx(0.5) and p1 == pytest.approx(0.5)

    def test_x_measurement_merges_fig5(self):
        g = eq29_graph(QUARTER_PI)
        s = build_state(g)
        p, post = project(s, 0, 0, pre_rotation=H_GATE)
        assert p == pytest.approx(0.5, abs=1e-12)
        # outcome + projects x, y onto the even parity subspace: P(pi/4)
        fused = g.without_vertices([0]).with_edge(1, 2, EdgeAnnotation.partial_fusion(QUARTER_PI))
        assert overlap(post, build_state(fused)) > 1 - 1e-12
        assert overlap(post, build_state(canonicalize(fused))) > 1 - 1e-12

    def test_y_measurement_bridges_fig5(self):
        g = eq29_graph(QUARTER_PI)
        s = build_state(g)
        p, post = project(s, 0, 0, pre_rotation=H_GATE @ S_DAG)
        assert p == pytest.approx(0.5, abs=1e-12)
        bridged = g.without_vertices([0]).with_edge(1, 2, EdgeAnnotation.weighted(QUARTER_PI))
        other = g.without_vertices([0]).with_edge(1, 2, EdgeAnnotation.weighted(-QUARTER_PI))
        got = max(overlap(post, build_state(bridged)), overlap(post, build_state(other)))
        assert got > 1 - 1e-12


class TestOverlap:
    def test_identical_states(self):
        s = build_state(ghz_graph(range(3), 0.4))
        assert overlap(s, s) == pytest.approx(1.0)

    def test_tilted_pair_fidelity_curve(self):
        # f(theta) = |<Psi(theta)|Psi(pi/4)>|^2 = (1 + sin 2 theta)/2
        ref = build_state(ghz_graph([0, 1], QUARTER_PI))
        for theta in np.linspace(0.0, math.pi / 2, 17):
            s = build_state(ghz_graph([0, 1], theta))
            assert overlap(s, ref) == pytest.approx(0.5 * (1 + math.sin(2 * theta)), abs=1e-12)

    def test_failed_dh_has_half_fidelity(self):
        assert overlap(build_state(ghz_graph([0, 1], 0.0)),
                       build_state(ghz_graph([0, 1], QUARTER_PI))) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(GraphConfigError):
            overlap(build_state(ghz_graph([0, 1])), build_state(ghz_graph([0, 2])))


EXAMPLE_A = CavityParams(10.0, 40.0)
EXAMPLE_B = CavityParams(12.5, 50.0)


class TestTrajectory:
    def test_single_system_density_matches_closed_form(self):
        ts = np.linspace(0.01, 1.0, 40)
        dens = single_system_click_density(EXAMPLE_A, ts)
        ref = CriticallyDamped(EXAMPLE_A.g).density(ts)
        assert np.abs(dens - ref).max() < 1e-6

    def test_norm_decay_rate_is_click_density(self):
        # -dN/dt = kappa |c2|^2, checked in integrated form: the norm lost up
        # to t equals the accumulated click density
        ts = np.linspace(0.0, 0.6, 2001)
        amps = evolve_single(EXAMPLE_B, ts)
        norms = np.sum(np.abs(amps) ** 2, axis=1)
        dens = EXAMPLE_B.kappa * np.abs(amps[:, 1]) ** 2
        lost = norms[0] - norms
        acc = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(ts))])
        assert np.abs(lost - acc).max() < 1e-4
        assert np.all(np.diff(norms) <= 1e-15)  # monotone non-increasing

    def test_jump_operator_resolution_exact(self):
        # J_A = sqrt(kappa_A) a and J_B = sqrt(kappa_B) b, each cavity's own decay |1> -> |3>
        jp, jm = jump_operators(EXAMPLE_A, EXAMPLE_B)
        decay = np.zeros((4, 4), dtype=complex)
        decay[3, 1] = 1.0
        ja = math.sqrt(EXAMPLE_A.kappa) * np.kron(decay, np.eye(4))
        jb = math.sqrt(EXAMPLE_B.kappa) * np.kron(np.eye(4), decay)
        lhs = jp.conj().T @ jp + jm.conj().T @ jm
        rhs = ja.conj().T @ ja + jb.conj().T @ jb
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_equal_detector_click_rates(self):
        # <J+^dag J+> = <J-^dag J-> at every instant of both rounds
        jp, jm = jump_operators(EXAMPLE_A, EXAMPLE_B)
        gp = jp.conj().T @ jp
        gm = jm.conj().T @ jm
        theta, dens = trajectory_dh_grid(EXAMPLE_A, EXAMPLE_B, [0.05], [0.2])
        # round-one window
        from tglab.oracle import _evolve, _single_hamiltonian  # test-only poke
        k = -1j * (np.kron(_single_hamiltonian(EXAMPLE_A), np.eye(4))
                   + np.kron(np.eye(4), _single_hamiltonian(EXAMPLE_B)))
        v = np.zeros(4, dtype=complex)
        v[0] = v[2] = 1 / math.sqrt(2)
        psi = np.kron(v, v)
        h = rk4_step_size(EXAMPLE_A, EXAMPLE_B)
        for _ in range(12):
            psi = _evolve(psi, k, 0.02, h)
            a = np.vdot(psi, gp @ psi).real
            b = np.vdot(psi, gm @ psi).real
            assert abs(a - b) < 1e-10

    def test_identical_cavities_give_perfect_path_erasure(self):
        theta, _ = trajectory_dh_grid(EXAMPLE_A, EXAMPLE_A, [0.07], [0.31])
        assert theta[0, 0] == pytest.approx(QUARTER_PI, abs=1e-9)

    def test_example_point_matches_closed_forms(self):
        t1, t2 = 0.05, 0.2
        theta, dens = trajectory_dh_grid(EXAMPLE_A, EXAMPLE_B, [t1], [t2])
        pa, pb = CriticallyDamped(10.0).density, CriticallyDamped(12.5).density
        u = pa(t1) * pb(t2)
        v = pb(t1) * pa(t2)
        theta_ref = math.acos((1.0 + u / v) ** -0.5)
        q12 = 0.25 * (u + v)
        assert theta[0, 0] == pytest.approx(theta_ref, abs=1e-6)
        assert dens[0, 0] == pytest.approx(q12, abs=1e-6)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(TrajectoryError):
            trajectory_dh_grid(EXAMPLE_A, EXAMPLE_B, [0.0], [0.1])

    def test_short_decay_window_reports_residual(self):
        with pytest.raises(TrajectoryError):
            trajectory_dh_grid(EXAMPLE_A, EXAMPLE_B, [0.05], [0.2], decay_time=0.05)


class TestRunVerification:
    def test_zero_cases_rejected(self):
        # no randomized case would make procedures_vs_oracle a vacuous 0.0
        with pytest.raises(VerificationError):
            run_verification(seed=1, cases=0)
