"""Oracle cross-check suite behind `tglab verify`.

Randomised realign/merge/bridge instances are checked against the dense
state-vector oracle (Born probability and post-state for both outcomes),
the double-heralding trajectory integrator is checked against the closed
forms, and canonicalization is checked to preserve states.  Everything is
deterministic in the seed.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import VerificationError
from .heralding import ClickPair, DhContext, tilt_after_dh
from .leakage import CavityParams, CriticallyDamped, critically_damped_density
from .oracle import build_state, overlap, project, trajectory_dh_grid
from .procedures import bridge, merge, realign
from .seeding import derive_rng
from .tilted_graph import (
    QUARTER_PI,
    EdgeAnnotation,
    TiltedGraph,
    Vertex,
    canonicalize,
    ghz_graph,
    with_star,
)


def _eq29_instance(rng, annot_kind=None, with_cherry=False):
    """Random central-vertex structure between two untilted stars, <= 10 qubits."""
    theta = float(rng.uniform(0.02, math.pi / 2 - 0.02))
    la, lb = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    centers, nid = (1, 2 + la), 3 + la + lb
    g = with_star(TiltedGraph(), (), Vertex(0, theta),
                  [Vertex(nid, QUARTER_PI, hadamard=True)] if with_cherry else [])
    for center, leaves in zip(centers, (la, lb)):
        g = with_star(g, (), Vertex(center, QUARTER_PI), [
            Vertex(k, QUARTER_PI, hadamard=True) for k in range(center + 1, center + 1 + leaves)])
        g = g.with_edge(0, center, EdgeAnnotation.pure())
    if annot_kind is not None:
        gamma = float(rng.uniform(-math.pi / 2 + 0.02, math.pi / 2 - 0.02))
        annot = (EdgeAnnotation.partial_fusion(gamma) if annot_kind == "partial"
                 else EdgeAnnotation.weighted(gamma))
        g = g.with_edge(*centers, annot)
    return g, centers, (nid if with_cherry else None)


def _check_procedure(state, record, g_after) -> float:
    p, post = project(state, record.measured_qubit, record.outcome_bit,
                      record.rotation.matrix())
    expected = record.probability if record.outcome_bit else 1.0 - record.probability
    disc = abs(p - expected)
    if g_after.vertex_count and p > 1e-12:
        disc = max(disc, 1.0 - overlap(post, build_state(g_after)))
    return disc


def procedures_vs_oracle(seed: int, cases: int) -> float:
    """Max discrepancy of randomized realign/merge/bridge cases (<= 10 qubits)."""
    worst = 0.0
    for case in range(cases):
        rng = derive_rng(seed, 7, case)
        which = case % 4
        if which == 0:
            n = int(rng.integers(2, 8))
            theta = float(rng.uniform(0.02, math.pi / 2 - 0.02))
            g = ghz_graph(range(n), theta)
            cherry = int(rng.integers(0, n))
            if cherry == 0 and n > 2:
                cherry = 1
            run = partial(realign, g, cherry)
        elif which == 1:
            g, _, cherry = _eq29_instance(rng, annot_kind=None, with_cherry=True)
            run = partial(realign, g, cherry)
        else:
            kind = "partial" if which == 2 else "weighted"
            g, _, _ = _eq29_instance(rng, annot_kind=kind if rng.random() < 0.7 else None)
            sign = int(rng.choice([-1, 1])) if rng.random() < 0.3 else None
            procedure = merge if which == 2 else bridge
            run = partial(procedure, g, 0, sign=sign)
        state = build_state(g)
        for outcome in (0, 1):
            record, after = run(outcome=outcome)
            worst = max(worst, _check_procedure(state, record, after))
    return worst


def trajectory_vs_closed_form() -> tuple[float, float]:
    """Max tilt and joint-density deviation of the trajectory integrator (5 x 5 clicks)."""
    a, b = CavityParams(10.0, 40.0), CavityParams(12.5, 50.0)
    t1s = np.linspace(0.03, 0.45, 5)
    t2s = np.linspace(0.04, 0.5, 5)
    theta, dens = trajectory_dh_grid(a, b, t1s, t2s)
    pa = lambda t: critically_damped_density(a.g, t)
    pb = lambda t: critically_damped_density(b.g, t)
    worst_theta, worst_dens = 0.0, 0.0
    ctx = DhContext(QUARTER_PI, QUARTER_PI, CriticallyDamped(a.g), CriticallyDamped(b.g))
    for i, t1 in enumerate(t1s):
        for j, t2 in enumerate(t2s):
            ref_theta = tilt_after_dh(ctx, ClickPair(t1, t2))
            ref_dens = 0.25 * (pa(t1) * pb(t2) + pb(t1) * pa(t2))
            worst_theta = max(worst_theta, abs(theta[i, j] - ref_theta))
            worst_dens = max(worst_dens, abs(dens[i, j] - ref_dens))
    return worst_theta, worst_dens


def canonicalization_preserves_states(seed: int, cases: int) -> float:
    """Max 1 - overlap between decorated graphs and their canonical forms."""
    worst = 0.0
    for case in range(cases):
        rng = derive_rng(seed, 8, case)
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        ga = ghz_graph(range(na), float(rng.uniform(-1.5, 1.5)))
        gb = ghz_graph(range(10, 10 + nb), float(rng.uniform(-1.5, 1.5)))
        g = TiltedGraph(list(ga.vertices()) + list(gb.vertices()),
                        list(ga.edges()) + list(gb.edges()))
        kind = case % 3
        if kind == 0:
            g = g.with_edge(0, 10, EdgeAnnotation.weighted(
                QUARTER_PI if rng.random() < 0.5 else -QUARTER_PI))
        elif kind == 1:
            # maximal fusions need plain untilted endpoints
            g = g.with_vertex(Vertex(0, QUARTER_PI)).with_vertex(Vertex(10, QUARTER_PI))
            g = g.with_edge(0, 10, EdgeAnnotation.partial_fusion(
                QUARTER_PI if rng.random() < 0.5 else -QUARTER_PI))
        c = canonicalize(g)
        worst = max(worst, 1.0 - overlap(build_state(g), build_state(c)))
    return worst


def run_verification(seed: int = 0, cases: int = 60) -> dict:
    """The cross-check suite; returns {check name: max discrepancy}."""
    if cases < 1:
        raise VerificationError(f"the oracle cross-check needs at least 1 case, got {cases}")
    theta_dev, dens_dev = trajectory_vs_closed_form()
    return {
        "procedures_vs_oracle": procedures_vs_oracle(seed, cases),
        "trajectory_tilt": theta_dev,
        "trajectory_density": dens_dev,
        "canonicalization": canonicalization_preserves_states(seed, max(10, cases // 3)),
    }
