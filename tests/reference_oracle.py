"""Gate-by-gate references for the dense oracle (test-side only).

`build_state_reference` applies the constructive definition one operator at
a time: the product of the vertex preparations, then one copy of the
amplitudes per control-Z, weighted-edge and partial-fusion operator, then
renormalisation, then H, X and Z(phase) per vertex through moveaxis and
tensordot.  `evolve_reference` takes the fixed RK4 steps one by one.
`tglab.oracle` folds both into array operations; these pin that it still
computes the same thing.

`evolve_single` and `single_system_click_density` run the oracle's RK4 on one
atom-cavity system alone, whose click density is the critically damped
closed form for kappa = 4 g: a check of the integrator's Hamiltonian and step.
"""

import math

import numpy as np

from tglab.errors import GraphConfigError, ImpossibleStateError, TrajectoryError
from tglab.oracle import H_GATE, StateVector, _evolve, _single_hamiltonian, rk4_step_size
from tglab.tilted_graph import EdgeKind

X_GATE = np.array([[0, 1], [1, 0]], dtype=complex)


def _apply_single(amps, ax, gate):
    a = np.moveaxis(amps, ax, 0)
    return np.moveaxis(np.tensordot(np.asarray(gate, dtype=complex), a, axes=([1], [0])), 0, ax)


def _axis_bits(n, axis):
    bits = np.zeros((2,) * n, dtype=np.int8)
    idx = [slice(None)] * n
    idx[axis] = 1
    bits[tuple(idx)] = 1
    return bits


def _apply_diag_pair(amps, i, j, even, odd):
    """Multiply amplitudes by `even` on Z_i Z_j = +1 and `odd` on -1."""
    n = amps.ndim
    za = 1 - 2 * _axis_bits(n, i)
    zb = 1 - 2 * _axis_bits(n, j)
    return amps * np.where(za * zb > 0, complex(even), complex(odd))


def _apply_cz(amps, i, j):
    amps = amps.copy()
    idx = [slice(None)] * amps.ndim
    idx[i] = 1
    idx[j] = 1
    amps[tuple(idx)] *= -1.0
    return amps


def build_state_reference(g):
    """The constructive state of `g`, one operator at a time."""
    ids = g.vertex_ids
    if not ids:
        raise GraphConfigError("cannot build the state of an empty graph")
    amps = np.ones((), dtype=complex)
    for vid in ids:
        t = g.vertex(vid).tilt
        amps = np.multiply.outer(amps, np.array([math.cos(t), math.sin(t)], dtype=complex))
    state = StateVector(ids, amps)
    amps = state.amps
    has_fusion = False
    for a, b, annot in g.edges():
        i, j = state.axis(a), state.axis(b)
        if annot.kind is EdgeKind.PURE:
            amps = _apply_cz(amps, i, j)
        elif annot.kind is EdgeKind.WEIGHTED:
            e = complex(math.cos(annot.phi), math.sin(annot.phi))
            amps = _apply_diag_pair(amps, i, j, e, e.conjugate())
        else:
            c, s = math.cos(annot.phi), math.sin(annot.phi)
            amps = _apply_diag_pair(amps, i, j, c + s, c - s)
            has_fusion = True
    if has_fusion:
        n = float(np.linalg.norm(amps))
        if n < 1e-12:
            raise ImpossibleStateError("partial fusions annihilated the state")
        amps = amps / n
    for ax, v in enumerate(g.vertices()):
        if v.hadamard:
            amps = _apply_single(amps, ax, H_GATE)
        if v.x_flip:
            amps = _apply_single(amps, ax, X_GATE)
        if v.z_phase:
            amps = _apply_single(amps, ax, np.diag([1.0, np.exp(1j * v.z_phase)]))
    return StateVector(ids, amps)


def evolve_reference(psi, k_matrix, duration, h):
    """Fixed-step RK4 for d psi/dt = K psi, one step at a time."""
    if duration < 0:
        raise TrajectoryError("cannot evolve for a negative duration")
    kt = k_matrix.T
    steps, rem = divmod(duration, h)
    for dt in [h] * int(steps) + ([rem] if rem > 1e-15 else []):
        k1 = psi @ kt
        k2 = (psi + 0.5 * dt * k1) @ kt
        k3 = (psi + 0.5 * dt * k2) @ kt
        k4 = (psi + dt * k3) @ kt
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


def evolve_single(p, times) -> np.ndarray:
    """Amplitudes (len(times), 4) of one system (CavityParams p) started in |e>|vac>."""
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) < 0):
        raise TrajectoryError("times must be non-decreasing")
    k = -1j * _single_hamiltonian(p)
    h = rk4_step_size(p)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    out, cur = [], 0.0
    for t in times:
        psi = _evolve(psi, k, t - cur, h)
        cur = t
        out.append(psi.copy())
    return np.array(out)


def single_system_click_density(p, times) -> np.ndarray:
    """kappa |c2(t)|^2 along the conditional evolution: the leakage density."""
    return p.kappa * np.abs(evolve_single(p, times)[:, 1]) ** 2
