"""Shared helpers: replay engine events on the state-vector oracle."""

import math

import numpy as np

from tglab.oracle import H_GATE, StateVector, build_state, overlap, project

Z_PI = np.diag([1.0, -1.0]).astype(complex)


def dh_physical_post_state(state: StateVector, qa, qb, clicks, parity, pa, pb):
    """Post-state and click density of one DH success, from first principles.

    Amplitude sqrt(P_A(t1) P_B(t2)) survives on the (qa=0, qb=1) component,
    parity * sqrt(P_B(t1) P_A(t2)) on (qa=1, qb=0); the mid-protocol X pulses
    flip both qubits.
    """
    su = math.sqrt(pa.density(clicks.t1) * pb.density(clicks.t2))
    sv = math.sqrt(pb.density(clicks.t1) * pa.density(clicks.t2))
    ia, ib = state.axis(qa), state.axis(qb)
    amps = np.zeros_like(state.amps)
    sel = [slice(None)] * state.qubit_count

    def put(va, vb, weight):
        idx = list(sel)
        idx[ia], idx[ib] = va, vb
        out_idx = list(sel)
        out_idx[ia], out_idx[ib] = 1 - va, 1 - vb
        amps[tuple(out_idx)] = weight * state.amps[tuple(idx)]

    put(0, 1, su)
    put(1, 0, parity * sv)
    post = StateVector(state.qubit_ids, amps)
    density = np.linalg.norm(post.amps) ** 2
    post.amps /= np.linalg.norm(post.amps)
    return post, density


def replay_join_trace(trace, profiles, tol=1e-9):
    """Replay a run_join trace; returns the final oracle state.

    Every event is applied to the dense state exactly as the hardware would
    perform it (projective measurements with the engine's outcomes, known
    byproducts corrected on the spot), asserting Born probabilities along
    the way.
    """
    assert trace and trace[0][0] == "start"
    state = build_state(trace[0][1])
    for event in trace[1:]:
        kind = event[0]
        if kind == "dh":
            _, qa, qb, out, cav_a, cav_b, nb_a, nb_b = event
            # the engine strips the Hadamard labels first: a physical H each
            state = state.apply_single(qa, H_GATE)
            state = state.apply_single(qb, H_GATE)
            if out.success:
                state, _ = dh_physical_post_state(state, qa, qb, out.clicks, out.parity,
                                                  profiles[cav_a], profiles[cav_b])
                if out.parity < 0:
                    state = state.apply_single(qa, Z_PI)   # the documented correction
            else:
                # failure: both qubits are measured in Z; the outcome-1 branch
                # is corrected by a Z on the qubit's node neighbour
                for q, nb in ((qa, nb_a), (qb, nb_b)):
                    p0, cand = project(state, q, 0)
                    o = 0
                    if p0 < 1e-12:
                        _, cand = project(state, q, 1)
                        o = 1
                    state = cand
                    if o == 1 and state.qubit_count and nb in state.qubit_ids:
                        state = state.apply_single(nb, Z_PI)
        elif kind == "discard_cherry":
            _, cherry, neighbor = event
            # an X-basis measurement removes the Hadamard cherry; outcome 1
            # leaves a Z byproduct on the holder, corrected on the spot
            p0, cand = project(state, cherry, 0, H_GATE)
            if p0 > 1e-12:
                state = cand
            else:
                _, cand = project(state, cherry, 1, H_GATE)
                state = cand.apply_single(neighbor, Z_PI)
        elif kind == "procedure":
            _, rec = event
            p, state = project(state, rec.measured_qubit, rec.outcome_bit,
                               rec.rotation.matrix())
            expected = rec.probability if rec.outcome_bit else 1.0 - rec.probability
            assert abs(p - expected) < tol, f"{rec.procedure}: {p} vs {expected}"
        else:
            raise AssertionError(f"unknown trace event {kind}")
    return state


def states_match(a, b, tol=1e-9):
    return overlap(a, b) > 1.0 - tol
