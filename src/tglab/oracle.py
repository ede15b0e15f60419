"""Brute-force references for the rest of the package.

Two independent oracles:

* a dense state-vector simulator that builds tilted graphs constructively
  (preparations, control-Z, weighted-edge and partial-fusion operators,
  recorded local corrections) and performs rotated computational-basis
  measurements;

* a quantum-trajectory integrator for two atom-cavity systems under the
  non-Hermitian conditional Hamiltonian
      H_x = g_x (|e><0| a + |0><e| a^dag) - (i/2) kappa_x a^dag a
  with beam-splitter jump operators
      J_pm = sqrt(kappa_A/2) a pm sqrt(kappa_B/2) b,
  which replays a full double-heralding application (click, decay, X flips,
  re-excitation, click) over a grid of click times and reports the resulting
  matter-qubit tilt and the joint click density (trajectory_dh_grid).

Both are deliberately naive: fixed-step RK4, dense amplitudes, a 14-qubit
cap.  They exist to arbitrate every analytic formula in the package.  The
RK4 step is applied as powers of its one-step propagator, and a state is
built as one diagonal (the preparations and the edge operators, all
diagonal in the Z basis) followed by one local gate per decorated axis.
States are built in batches (build_states): graphs of equal qubit count
share each gather of diagonal factors and each stacked axis gate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import GraphConfigError, ImpossibleStateError, TrajectoryError
from .leakage import BLOCK_CELLS, CavityParams
from .tilted_graph import EdgeKind, TiltedGraph

QUBIT_CAP = 14

H_GATE = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Dense state vectors
# ---------------------------------------------------------------------------

class StateVector:
    """Dense amplitudes over an ordered tuple of qubit ids."""

    __slots__ = ("qubit_ids", "amps")

    def __init__(self, qubit_ids, amps):
        self.qubit_ids = tuple(qubit_ids)
        n = len(self.qubit_ids)
        if n > QUBIT_CAP:
            raise GraphConfigError(f"{n} qubits exceeds the {QUBIT_CAP}-qubit oracle cap")
        self.amps = np.asarray(amps, dtype=complex).reshape((2,) * n)

    @property
    def qubit_count(self) -> int:
        return len(self.qubit_ids)

    def axis(self, qubit) -> int:
        try:
            return self.qubit_ids.index(qubit)
        except ValueError:
            raise GraphConfigError(f"qubit {qubit} not in state") from None

    def apply_single(self, qubit, gate) -> "StateVector":
        gate = np.asarray(gate, dtype=complex)
        return StateVector(self.qubit_ids, gate @ _slab(self.amps, self.axis(qubit)))


def _slab(amps: np.ndarray, ax: int) -> np.ndarray:
    """The amplitudes as (2^ax, 2, rest), so that axis 1 is qubit `ax` and a
    2x2 gate acts on it as `gate @ slab`."""
    return amps.reshape(1 << ax, 2, -1)


@functools.lru_cache(maxsize=None)
def _bit_table(n: int) -> np.ndarray:
    """(2^n, n): column k is qubit k's bit (0 or 1) in each basis index."""
    return ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int8)


def _edge_diagonal(annot) -> tuple:
    """The edge operator's diagonal over the bits (00, 01, 10, 11) of its ends."""
    if annot.kind is EdgeKind.PURE:
        return 1.0, 1.0, 1.0, -1.0
    if annot.kind is EdgeKind.WEIGHTED:
        even = complex(math.cos(annot.phi), math.sin(annot.phi))
        return even, even.conjugate(), even.conjugate(), even
    c, s = math.cos(annot.phi), math.sin(annot.phi)
    return c + s, c - s, c - s, c + s


def build_state(g: TiltedGraph) -> StateVector:
    """Constructive state of a tilted graph (see tilted_graph's contract)."""
    return build_states([g])[0]


def build_states(graphs) -> list:
    """Constructive states of tilted graphs, in order (see tilted_graph's contract).

    Preparations, then control-Z edges, then U/P annotations (P followed by
    renormalisation), then the per-vertex corrections H, X, Z(phase).  All
    but the corrections are diagonal, each over the bits of at most two
    qubits.  The graphs are built in groups of equal qubit count: each graph's
    factors (padded with unit factors to the group's longest list) are
    gathered through the bit table and multiplied, at most
    max(_GATHER_CELLS, 2^n) cells per gather, and the corrections on each axis are one stacked 2x2
    gate.
    Every qubit count is checked against QUBIT_CAP before anything is built.
    """
    graphs = list(graphs)
    groups = {}
    for k, g in enumerate(graphs):
        n = g.vertex_count
        if not 0 < n <= QUBIT_CAP:
            raise GraphConfigError(f"cannot build the state of {n} qubits (cap {QUBIT_CAP})")
        groups.setdefault(n, []).append(k)
    states = [None] * len(graphs)
    for n, members in groups.items():
        for k, state in zip(members, _build_group([graphs[k] for k in members], n)):
            states[k] = state
    return states


_UNIT_FACTOR = (1.0, 1.0, 1.0, 1.0)
# Gathers of more cells than this build the cross-check's states no faster and
# raise the process's peak memory: each cell holds a 16-byte factor and an
# 8-byte index.
_GATHER_CELLS = BLOCK_CELLS >> 3


def _build_group(graphs: list, n: int) -> list:
    """build_states for graphs of n qubits each."""
    verts = [list(g.vertices()) for g in graphs]
    rows, first, second, fused = [], [], [], []
    for g, vs in zip(graphs, verts):
        axis = {v.id: k for k, v in enumerate(vs)}
        # a preparation is a factor over its vertex's bit taken twice: index 0 or 3
        rows.append([(math.cos(v.tilt), 0.0, 0.0, math.sin(v.tilt)) for v in vs])
        first.append(list(range(n)))
        second.append(list(range(n)))
        has_fusion = False
        for a, b, annot in g.edges():
            first[-1].append(axis[a])
            second[-1].append(axis[b])
            rows[-1].append(_edge_diagonal(annot))
            has_fusion |= annot.kind is EdgeKind.PARTIAL
        fused.append(has_fusion)
    width = max(map(len, rows))
    for r, f, s in zip(rows, first, second):
        pad = width - len(r)
        r.extend([_UNIT_FACTOR] * pad)
        f.extend([0] * pad)
        s.extend([0] * pad)
    m, cells = len(graphs), 1 << n
    table = np.array(rows, dtype=complex).ravel()
    first, second = np.array(first), np.array(second)
    offsets = np.arange(0, table.size, 4).reshape(m, width)
    bits = _bit_table(n)
    # each gather takes `factors` factors of `batch` graphs: at most
    # max(_GATHER_CELLS, 2^n) cells, since one factor of one graph is 2^n
    factors = max(1, _GATHER_CELLS >> n)
    batch = max(1, _GATHER_CELLS // (cells * min(factors, width)))
    amps = np.ones((m, cells), dtype=complex)
    for lo in range(0, m, batch):
        rows_ = slice(lo, lo + batch)
        for cut in ((rows_, slice(f, f + factors)) for f in range(0, width, factors)):
            index = 2 * bits[:, first[cut]] + bits[:, second[cut]] + offsets[cut]
            amps[rows_] *= table[index.transpose(1, 0, 2)].prod(axis=-1)
    for k in np.flatnonzero(fused):
        norm = float(np.linalg.norm(amps[k]))
        if norm < 1e-12:
            raise ImpossibleStateError("partial fusions annihilated the state")
        amps[k] /= norm
    for ax in range(n):
        gates = None
        for k, vs in enumerate(verts):
            v = vs[ax]
            if v.hadamard or v.x_flip or v.z_phase:
                if gates is None:
                    gates = np.empty((m, 2, 2), dtype=complex)
                    gates[:] = np.eye(2)
                gates[k] = _correction_gate(v.hadamard, v.x_flip, v.z_phase)
        if gates is not None:
            amps = (gates[:, None] @ amps.reshape(m, 1 << ax, 2, -1)).reshape(m, cells)
    return [StateVector([v.id for v in vs], row) for vs, row in zip(verts, amps)]


def _correction_gate(hadamard: bool, x_flip: bool, z_phase: float) -> np.ndarray:
    """The 2x2 gate Z(z_phase) X^x_flip H^hadamard of a vertex's corrections."""
    gate = H_GATE if hadamard else np.eye(2)
    if x_flip:
        gate = gate[::-1]  # X @ gate swaps the rows
    if z_phase:
        gate = gate * np.array([[1.0], [np.exp(1j * z_phase)]])
    return gate


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 with qubit-id alignment."""
    if set(a.qubit_ids) != set(b.qubit_ids):
        raise GraphConfigError("states are over different qubit sets")
    amps_b = b.amps
    if a.qubit_ids != b.qubit_ids:
        perm = [b.qubit_ids.index(q) for q in a.qubit_ids]
        amps_b = np.transpose(amps_b, perm)
    return abs(np.vdot(a.amps, amps_b)) ** 2


def project(state: StateVector, qubit, outcome: int, pre_rotation=None) -> tuple[float, StateVector]:
    """Deterministically project; returns (Born probability, reduced state).

    The measured qubit is traced out of the returned state.
    """
    work = state if pre_rotation is None else state.apply_single(qubit, pre_rotation)
    slab = _slab(work.amps, work.axis(qubit))[:, outcome]
    total = float(np.vdot(work.amps, work.amps).real)
    p = float(np.vdot(slab, slab).real) / total
    remaining = tuple(q for q in work.qubit_ids if q != qubit)
    if p <= 1e-300:
        return 0.0, StateVector(remaining, np.zeros_like(slab))
    return p, StateVector(remaining, slab / math.sqrt(p * total))


# ---------------------------------------------------------------------------
# Quantum-trajectory integrator
# ---------------------------------------------------------------------------
#
# Per-system basis (one energy quantum at most):
#   0: |e>|vac>   (c1)      2: |1>|vac>   (c3)
#   1: |0>|1 ph>  (c2)      3: |0>|vac>   (post-click ground, c4)
#
# The conditional evolution acts in the {0,1} block; jumps map 1 -> 3.

_EXCITED = (0, 1)


def _single_hamiltonian(p: CavityParams) -> np.ndarray:
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = p.g
    h[1, 1] = -0.5j * p.kappa
    return h


def _annihilator() -> np.ndarray:
    a = np.zeros((4, 4), dtype=complex)
    a[3, 1] = 1.0
    return a


def jump_operators(a: CavityParams, b: CavityParams):
    """(J_plus, J_minus) as 16x16 matrices on the joint space."""
    i4 = np.eye(4, dtype=complex)
    a_op = math.sqrt(a.kappa / 2.0) * np.kron(_annihilator(), i4)
    b_op = math.sqrt(b.kappa / 2.0) * np.kron(i4, _annihilator())
    return a_op + b_op, a_op - b_op


def rk4_step_size(*params: CavityParams) -> float:
    return 1.0 / (100.0 * max(max(p.g, p.kappa) for p in params))


def _rk4_propagator(k_matrix: np.ndarray, dt: float) -> np.ndarray:
    """One RK4 step of d psi/dt = K psi is exactly psi <- P(dt K) psi, with
    P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    z = dt * k_matrix
    eye = np.eye(len(k_matrix), dtype=complex)
    return eye + z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)


def _evolve(psi: np.ndarray, k_matrix: np.ndarray, duration: float, h: float) -> np.ndarray:
    """Fixed-step RK4 for d psi/dt = K psi, batched over leading axes: whole
    steps of h, then one of the remainder, as powers of the step propagator."""
    if duration < 0:
        raise TrajectoryError("cannot evolve for a negative duration")
    steps, rem = divmod(duration, h)
    prop = np.linalg.matrix_power(_rk4_propagator(k_matrix, h), int(steps))
    if rem > 1e-15:
        prop = _rk4_propagator(k_matrix, rem) @ prop
    return psi @ prop.T


def _flip_and_pump(psi: np.ndarray) -> np.ndarray:
    """X on both atoms then a pi-pulse |0> -> |e>, as a joint basis permutation.

    Requires the excited components to have decayed; the caller checks that.
    """
    out = np.zeros_like(psi)
    # X: per-system states 2 <-> 3; pi-pulse: 3 -> 0.  Net: 2 -> 0, 3 -> 2.
    sub = {2: 0, 3: 2}
    for ia, ra in sub.items():
        for ib, rb in sub.items():
            out[..., 4 * ra + rb] = psi[..., 4 * ia + ib]
    return out


def _excited_residual(psi: np.ndarray) -> float:
    ia, ib = np.divmod(np.arange(16), 4)
    mask = np.isin(ia, _EXCITED) | np.isin(ib, _EXCITED)
    return float(np.sqrt(np.max(np.sum(np.abs(psi[..., mask]) ** 2, axis=-1))))


def trajectory_dh_grid(a: CavityParams, b: CavityParams, t1s, t2s,
                       decay_time: float | None = None):
    """Replay double heralding over a grid of click times.

    Returns (theta, density) arrays of shape (len(t1s), len(t2s)).  The
    density is summed over the four detector-parity combinations; the tilt
    follows the printed closed-form convention (cosine on the |0>_A |1>_B
    branch).
    """
    t1s = np.asarray(t1s, dtype=float)
    t2s = np.asarray(t2s, dtype=float)
    if np.any(t1s <= 0) or np.any(t2s <= 0):
        raise TrajectoryError("click times must be positive")
    order1 = np.argsort(t1s)
    order2 = np.argsort(t2s)
    h = rk4_step_size(a, b)
    if decay_time is None:
        decay_time = 25.0 / min(a.g, b.g)
    k = -1j * (np.kron(_single_hamiltonian(a), np.eye(4)) +
               np.kron(np.eye(4), _single_hamiltonian(b)))
    jp, jm = jump_operators(a, b)

    v = np.zeros(4, dtype=complex)
    v[0] = v[2] = 1.0 / math.sqrt(2.0)
    psi = np.kron(v, v)

    # round one: snapshot at every t1, branch on the detector
    post_click = np.zeros((t1s.size, 2, 16), dtype=complex)
    cur = 0.0
    state = psi
    for i in order1:
        state = _evolve(state, k, t1s[i] - cur, h)
        cur = t1s[i]
        post_click[i, 0] = jp @ state
        post_click[i, 1] = jm @ state

    # wait out the decay (evolving dark components further is harmless)
    batch = post_click.reshape(-1, 16)
    batch = _evolve(batch, k, decay_time, h)
    residual = _excited_residual(batch)
    if residual > 1e-8:
        raise TrajectoryError(f"residual excited amplitude {residual:.2e} after decay window")
    batch = _flip_and_pump(batch)

    # round two: snapshot at every t2, branch on the detector again
    amp_10 = np.zeros((t1s.size, 2, t2s.size, 2), dtype=complex)  # atoms |1>_A |0>_B
    amp_01 = np.zeros_like(amp_10)                                # atoms |0>_A |1>_B
    cur = 0.0
    for j in order2:
        batch = _evolve(batch, k, t2s[j] - cur, h)
        cur = t2s[j]
        for pi, jop in enumerate((jp, jm)):
            final = batch @ jop.T
            shaped = final.reshape(t1s.size, 2, 16)
            amp_10[:, :, j, pi] = shaped[:, :, 4 * 2 + 3]
            amp_01[:, :, j, pi] = shaped[:, :, 4 * 3 + 2]

    dens = np.sum(np.abs(amp_10) ** 2 + np.abs(amp_01) ** 2, axis=(1, 3))
    with np.errstate(invalid="ignore"):
        theta = np.arctan2(np.abs(amp_10[:, 0, :, 0]), np.abs(amp_01[:, 0, :, 0]))
    return theta, dens
