"""Oracle cross-check suite behind `tglab verify`.

Randomised realign/merge/bridge instances are checked against the dense
state-vector oracle (Born probability and post-state for both outcomes),
the double-heralding trajectory integrator against the tilts of
`heralding.sample_dh`, the sampler that `grow` runs, and against the
closed-form joint density, and canonicalization is checked to preserve
states.  Everything is deterministic in the seed: case k draws from its own
stream, so the oracle checks can run in blocks of CASE_BLOCK cases, each
block's states built by one oracle.build_states call.  The suite reports the
largest discrepancy of each check and fails with VerificationError on a
non-finite one.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import VerificationError
from .heralding import sample_dh
from .leakage import CavityParams, CriticallyDamped
from .oracle import build_states, overlap, project, trajectory_dh_grid
from .procedures import bridge, merge, realign
from .seeding import VERIFY_CANONICALIZATION, VERIFY_PROCEDURES, derive_rng
from .tilted_graph import (
    QUARTER_PI,
    EdgeAnnotation,
    TiltedGraph,
    Vertex,
    canonicalize,
    ghz_graph,
    with_star,
)

CASE_BLOCK = 32     # oracle cases generated, built and checked together


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


def _worse(worst: float, disc: float) -> float:
    """The larger of two discrepancies.  A non-finite one fails the suite, which
    max() alone would not do: max(0.0, nan) is 0.0."""
    if not math.isfinite(disc):
        raise VerificationError(f"non-finite oracle discrepancy {disc}")
    return max(worst, disc)


def _blocks(cases: int):
    """Case indices in blocks of CASE_BLOCK, whose states are built in one call."""
    return (range(lo, min(cases, lo + CASE_BLOCK)) for lo in range(0, cases, CASE_BLOCK))


def _procedure_case(seed: int, case: int):
    """(graph, run): one randomized realign/merge/bridge instance; run(outcome=...)
    returns the procedure's (record, graph after)."""
    rng = derive_rng(seed, VERIFY_PROCEDURES, case)
    which = case % 4
    if which == 0:
        n = int(rng.integers(2, 8))
        theta = float(rng.uniform(0.02, math.pi / 2 - 0.02))
        g = ghz_graph(range(n), theta)
        cherry = int(rng.integers(0, n))
        if cherry == 0 and n > 2:
            cherry = 1
        return g, partial(realign, g, cherry)
    if which == 1:
        g, _, cherry = _eq29_instance(rng, annot_kind=None, with_cherry=True)
        return g, partial(realign, g, cherry)
    kind = "partial" if which == 2 else "weighted"
    g, _, _ = _eq29_instance(rng, annot_kind=kind if rng.random() < 0.7 else None)
    sign = int(rng.choice([-1, 1])) if rng.random() < 0.3 else None
    return g, partial(merge if which == 2 else bridge, g, 0, sign=sign)


def procedures_vs_oracle(seed: int, cases: int) -> float:
    """Max discrepancy of randomized realign/merge/bridge cases (<= 10 qubits).

    Each case runs its procedure for both outcomes and checks the Born
    probability of the record against the oracle's projection of the state
    before, and (where the outcome can occur) the post-state against the
    state of the graph after.  A block's states before are built in one
    call, then the post-states that its checks need in another.
    """
    worst = 0.0
    for block in _blocks(cases):
        instances = [_procedure_case(seed, case) for case in block]
        checks = []     # (Born-probability discrepancy, post-state, graph after or None)
        for state, (_, run) in zip(build_states([g for g, _ in instances]), instances):
            for outcome in (0, 1):
                record, after = run(outcome=outcome)
                p, post = project(state, record.measured_qubit, record.outcome_bit,
                                  record.rotation.matrix())
                expected = record.probability if record.outcome_bit else 1.0 - record.probability
                checks.append((abs(p - expected), post,
                               after if after.vertex_count and p > 1e-12 else None))
        states_after = iter(build_states([after for *_, after in checks if after is not None]))
        for disc, post, after in checks:
            worst = _worse(worst, disc)
            if after is not None:
                worst = _worse(worst, 1.0 - overlap(post, next(states_after)))
    return worst


def trajectory_vs_closed_form() -> tuple[float, float]:
    """Max tilt and joint-density deviation of the trajectory integrator on a 5 x 5
    grid of clicks that sample_dh draws (click quantiles 0.05 .. 0.95 of the
    Theta_1 branch): the tilt against sample_dh's, the density against X + Y."""
    a, b = CavityParams(10.0, 40.0), CavityParams(12.5, 50.0)
    pa, pb = CriticallyDamped(a.g), CriticallyDamped(b.g)
    qs = np.linspace(0.05, 0.95, 5)
    grid = [[sample_dh(QUARTER_PI, QUARTER_PI, pa, pb, (0.0, 0.0, q1, q2, 0.0)) for q2 in qs]
            for q1 in qs]
    theta, dens = trajectory_dh_grid(a, b, [row[0].clicks.t1 for row in grid],
                                     [out.clicks.t2 for out in grid[0]])
    worst_theta, worst_dens = 0.0, 0.0
    for i, row in enumerate(grid):
        for j, (_, theta_beta, (t1, t2), _) in enumerate(row):
            ref_dens = 0.25 * (pa.density(t1) * pb.density(t2) + pb.density(t1) * pa.density(t2))
            worst_theta = _worse(worst_theta, abs(theta[i, j] - theta_beta))
            worst_dens = _worse(worst_dens, abs(dens[i, j] - ref_dens))
    return worst_theta, worst_dens


def _decorated_pair(seed: int, case: int) -> TiltedGraph:
    """Two random stars joined by a maximal weighted edge or partial fusion (or not)."""
    rng = derive_rng(seed, VERIFY_CANONICALIZATION, case)
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
    return g


def canonicalization_preserves_states(seed: int, cases: int) -> float:
    """Max 1 - overlap between decorated graphs and their canonical forms,
    each block's graphs and forms built in one call."""
    worst = 0.0
    for block in _blocks(cases):
        graphs = [_decorated_pair(seed, case) for case in block]
        states = build_states(graphs + [canonicalize(g) for g in graphs])
        for before, after in zip(states[:len(graphs)], states[len(graphs):]):
            worst = _worse(worst, 1.0 - overlap(before, after))
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
