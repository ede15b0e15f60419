"""Double-heralding event model: click statistics and graph rewrites.

Click-time statistics for one double-heralding application between matter
qubits a and b with effective tilts theta_a, theta_b and calibrated leakage
densities P_A, P_B:

    Theta_1 = cos^2(theta_a) sin^2(theta_b)     X = Theta_1 P_A(t1) P_B(t2)
    Theta_2 = sin^2(theta_a) cos^2(theta_b)     Y = Theta_2 P_B(t1) P_A(t2)

    success probability   Theta_1 + Theta_2  (scaled by efficiency^2)
    joint density         Q12(t1, t2) = X + Y
    resulting tilt        cos(theta_beta) = sqrt(Y / (X + Y))

`sample_dh` is the one place that states this rule.  It draws one whole
application from the tilts, the profiles and five uniforms in one frame: the
success test, the branch of the two-term mixture Q12, the two click
quantiles, X and Y at the clicks, the tilt and the detector parity.  Phase 1
and the join phase call it once per attempt, and `tglab verify` checks its
tilts against the trajectory oracle on a grid of click quantiles.  Its
records, `ClickPair` and `DhOutcome`, are immutable tuples.

The graph rewrite covers the one configuration that the join phase builds:
two "Hadamard-removed" cherries, each a plain degree-one vertex on a pure edge
to a plain node, read from the side's neighbourhood alone.  Detector parity is
a known Z error and is corrected immediately.  Phase 1 keeps its pieces as
sizes and tilts, so the fusion of two GHZ stars is a test-side reference
(tests/reference_heralding.py), pinned on the state-vector oracle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import GraphConfigError, ImpossibleStateError
from .leakage import LeakageProfile
from .tilted_graph import (
    HALF_PI,
    QUARTER_PI,
    EdgeAnnotation,
    EdgeKind,
    TiltedGraph,
    Vertex,
    canonical_angle,
    z_pi_count,
)


# ---------------------------------------------------------------------------
# Click statistics
# ---------------------------------------------------------------------------

class ClickPair(NamedTuple("ClickPair", [("t1", float), ("t2", float)])):
    """Detector click times of the two rounds (an immutable record)."""

    __slots__ = ()

    def __new__(cls, t1: float, t2: float):
        if not (t1 > 0 and t2 > 0):
            raise GraphConfigError(f"click times must be positive, got ({t1}, {t2})")
        return tuple.__new__(cls, (t1, t2))


def big_thetas(theta_a: float, theta_b: float) -> tuple[float, float]:
    """(Theta_1, Theta_2) of two tilts."""
    t1 = (math.cos(theta_a) * math.sin(theta_b)) ** 2
    t2 = (math.sin(theta_a) * math.cos(theta_b)) ** 2
    return t1, t2


class DhOutcome(NamedTuple):
    """Success (tilt, clicks, detector parity) or failure of one application."""

    success: bool
    theta_beta: float | None = None
    clicks: ClickPair | None = None
    parity: int = 1


_FAILURE = DhOutcome(False)    # every failed attempt returns this one instance
_record = tuple.__new__        # builds a record from its field tuple, skipping its __new__


def sample_dh(theta_a: float, theta_b: float, pa: LeakageProfile, pb: LeakageProfile, u,
              detection_efficiency: float = 1.0) -> DhOutcome:
    """Sample one full DH application (success flag, clicks, tilt, parity).

    The outcome is a pure function of the tilts, the profiles P_A = pa and
    P_B = pb, the detection efficiency and five uniforms in [0, 1): u[0] is
    the success test (success when u[0] < p), u[1] picks the branch of
    Q12 = X + Y (the Theta_1 branch when u[1] < Theta_1/(Theta_1 + Theta_2)),
    u[2] and u[3] are the quantiles of the first and second click under the
    branch's renormalised profiles, and u[4] draws the detector parity.  The
    tilt is atan2(sqrt(X), sqrt(Y)) at the clicks.  A tilt outside
    (-pi/2, pi/2] is canonicalized first (inside it canonical_angle is the
    identity); an efficiency outside (0, 1] is a GraphConfigError.  Phase 1
    calls this once per DH attempt with its row of the round's uniform block,
    the join phase with rng.random(5), and verify on a grid of click quantiles.
    """
    if not -HALF_PI < theta_a <= HALF_PI:
        theta_a = canonical_angle(theta_a)
    if not -HALF_PI < theta_b <= HALF_PI:
        theta_b = canonical_angle(theta_b)
    if not 0.0 < detection_efficiency <= 1.0:
        raise GraphConfigError(
            f"detection efficiency must lie in (0, 1], got {detection_efficiency}")
    th1, th2 = big_thetas(theta_a, theta_b)
    total = th1 + th2
    if u[0] >= total * detection_efficiency**2:
        return _FAILURE
    if total <= 0.0:
        raise ImpossibleStateError("degenerate tilts: success probability is zero")
    first, second = (pa, pb) if u[1] < th1 / total else (pb, pa)
    t1, t2 = float(first.inverse_cdf(u[2])), float(second.inverse_cdf(u[3]))
    # the records are built as tuples; ClickPair's own check runs only to raise
    clicks = _record(ClickPair, (t1, t2)) if t1 > 0 and t2 > 0 else ClickPair(t1, t2)
    parity = 1 if u[4] < 0.5 else -1
    x = th1 * pa.density(t1) * pb.density(t2)
    y = th2 * pb.density(t1) * pa.density(t2)
    if x <= 0.0 and y <= 0.0:
        raise ImpossibleStateError(
            f"both click likelihoods vanish at ({t1}, {t2}); tilt undefined")
    return _record(DhOutcome, (True, math.atan2(math.sqrt(x), math.sqrt(y)), clicks, parity))


# ---------------------------------------------------------------------------
# Graph rewrite
# ---------------------------------------------------------------------------

def classify_dh_side(g: TiltedGraph, q: int) -> int:
    """The node centre of DH side q, read from q's neighbourhood alone.

    q must be a "Hadamard-removed" cherry: a plain degree-one vertex on a pure
    edge to a plain node (the node behind it may be any graph), with no Z flag
    other than Z(pi).  Anything else is a GraphConfigError.
    """
    v = g.vertex(q)
    if not v.hadamard and not v.x_flip and g.degree(q) == 1:
        (nb,) = g.neighbors(q)
        if not g.vertex(nb).hadamard and g.edge(q, nb).kind is EdgeKind.PURE:
            z_pi_count(g, (q,))     # raises on a Z flag other than Z(pi)
            return nb
    raise GraphConfigError(f"qubit {q} is not a Hadamard-removed cherry")


def apply_dh_to_graph(g: TiltedGraph, qa: int, qb: int, outcome: DhOutcome) -> TiltedGraph:
    """Rewrite the graph for one DH outcome between the cherries qa and qb.

    The two cherries must hang off distinct nodes; prior annotations may link
    the nodes (recycled entanglement, which commutes with the click analysis).
    Success installs qa as the central vertex with tilt theta_beta, on pure
    edges to qb and to both node centres, with qb as its Hadamard cherry.
    Corrections (derived against the constructive target and checked by the
    state-vector oracle): X on qb, Z(pi) on qa's node centre.  The Z error on
    the new centre that the detector parity and the sides' Z(pi) flags leave
    is corrected immediately, so the rewrite does not depend on them.  Failure
    Z-measures the used qubits, which trims each node by its cherry only.
    """
    ca, cb = classify_dh_side(g, qa), classify_dh_side(g, qb)
    if ca == cb:
        raise GraphConfigError(f"qubits {qa}, {qb} do not head distinct nodes")
    if not outcome.success:
        return g.without_vertices((qa, qb))
    central = Vertex(qa, outcome.theta_beta)
    cherry = Vertex(qb, QUARTER_PI, hadamard=True).append_x()
    pure = EdgeAnnotation.pure()
    return g.edited(drop=(qa, qb), vertices=(central, cherry, g.vertex(ca).append_z(math.pi)),
                    edges=[(qa, vid, pure) for vid in (qb, ca, cb)])
