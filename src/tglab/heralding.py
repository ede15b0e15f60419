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

The graph rewrites cover the two supported configurations of each side: a
member of a GHZ star (a fresh qubit is a one-qubit star) and a
"Hadamard-removed" cherry (a plain degree-one vertex hanging off a star
centre).  Both are read from the side's neighbourhood alone.  Detector parity
is a known Z error and is corrected immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    branch_amplitudes,
    canonical_angle,
    star_center_id,
    with_star,
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
# Graph rewrites
# ---------------------------------------------------------------------------

GHZ = "ghz"
CHERRY = "cherry"


@dataclass(frozen=True)
class SideInfo:
    """Classification of one DH side."""

    config: str
    qubit: int
    members: frozenset     # the whole star (ghz) / the qubit alone (cherry)
    center: int            # star centre (ghz) / remnant centre (cherry)
    theta_eff: float       # effective tilt fed to the click statistics


def _effective_tilt(tilt: float, flip: bool, z_flips: int) -> float:
    """theta_eff in [0, pi/2] of a side's amplitudes."""
    alpha, beta = branch_amplitudes(tilt, flip, z_flips)
    return math.atan2(abs(beta), abs(alpha))


def classify_dh_side(g: TiltedGraph, q: int) -> SideInfo:
    """Match one side against the two supported configurations, from q's neighbourhood."""
    v = g.vertex(q)
    # a plain degree-one vertex hanging off its node by a pure edge: the
    # "Hadamard-removed" cherry case (the node behind it may be any graph;
    # with no Hadamard flag on either end, the pair is never a GHZ star)
    if not v.hadamard and not v.x_flip and g.degree(q) == 1:
        (nb,) = g.neighbors(q)
        if not g.vertex(nb).hadamard and g.edge(q, nb).kind is EdgeKind.PURE:
            theta = _effective_tilt(v.tilt, False, z_pi_count(g, [q]))
            return SideInfo(CHERRY, q, frozenset([q]), nb, theta)
    # a member (centre or Hadamard leaf) of a GHZ star; a fresh qubit is a one-qubit star
    center = star_center_id(g, q)
    if center is None:
        raise GraphConfigError(f"qubit {q} is neither a cherry nor in a GHZ star")
    if center == q and v.hadamard:
        raise GraphConfigError(f"fresh qubit {q} may not carry a Hadamard flag")
    members = frozenset((center, *g.neighbors(center)))
    theta = _effective_tilt(g.vertex(center).tilt, v.x_flip, z_pi_count(g, members))
    return SideInfo(GHZ, q, members, center, theta)


def _check_pairing(a: SideInfo, b: SideInfo) -> None:
    """Distinct nodes are disjoint pieces (a cherry's component holds two plain
    vertices, so is no star) unless both sides are cherries, which prior annotations
    may link (recycled entanglement, which commutes with the click analysis)."""
    if a.qubit == b.qubit or a.center == b.center:
        raise GraphConfigError(f"qubits {a.qubit}, {b.qubit} do not head distinct nodes")


def _rewrite_ghz_success(g: TiltedGraph, a: SideInfo, b: SideInfo,
                         theta_beta: float) -> TiltedGraph:
    """Fuse two GHZ stars into one (the Eq.-12-style 2n-qubit tilted GHZ).

    The new centre is the first side's qubit with tilt theta_beta; the branch
    matching the Y term maps to all-zeros, which puts X-flip corrections on
    the partner qubit, on the first side's other members (XOR their previous
    flips and the used qubit's), and symmetrically on the second side.
    """
    fa = g.vertex(a.qubit).x_flip
    fb = g.vertex(b.qubit).x_flip
    members = a.members | b.members
    leaves = []
    for vid in sorted(members - {a.qubit}):
        if vid == b.qubit:
            flip = True
        elif vid in a.members:
            flip = (not fa) ^ g.vertex(vid).x_flip
        else:
            flip = fb ^ g.vertex(vid).x_flip
        leaves.append(Vertex(vid, QUARTER_PI, hadamard=True, x_flip=flip))
    return with_star(g, members, Vertex(a.qubit, theta_beta), leaves)


def _rewrite_cherry_success(g: TiltedGraph, a: SideInfo, b: SideInfo,
                            theta_beta: float) -> TiltedGraph:
    """Install the central tilted vertex with its cherry between the two nodes.

    Corrections (derived against the constructive target and checked by the
    state-vector oracle): X on the partner qubit, Z(pi) on the first node's
    centre.
    """
    central = Vertex(a.qubit, theta_beta)
    cherry = Vertex(b.qubit, QUARTER_PI, hadamard=True).append_x()
    pure = EdgeAnnotation.pure()
    return g.edited(drop=(a.qubit, b.qubit),
                    vertices=(central, cherry, g.vertex(a.center).append_z(math.pi)),
                    edges=[(a.qubit, vid, pure) for vid in (b.qubit, a.center, b.center)])


def apply_dh_to_graph(g: TiltedGraph, qa: int, qb: int, outcome: DhOutcome) -> TiltedGraph:
    """Rewrite the graph for one DH outcome between qubits qa and qb.

    Success fuses the two components according to their configuration;
    failure Z-measures the used qubits (collapsing GHZ components to
    separable states, which are dropped, and trimming cherry-configured
    nodes by their used qubit only).  Measurement byproducts of the removals
    are corrected immediately, and so is the Z error on the new centre that
    the detector parity and the sides' Z(pi) flags leave, so a success
    rewrite does not depend on them.
    """
    a, b = classify_dh_side(g, qa), classify_dh_side(g, qb)
    _check_pairing(a, b)

    if not outcome.success:
        return g.without_vertices(a.members | b.members)
    if a.config == b.config == GHZ:
        return _rewrite_ghz_success(g, a, b, outcome.theta_beta)
    if a.config == b.config == CHERRY:
        return _rewrite_cherry_success(g, a, b, outcome.theta_beta)
    raise GraphConfigError(f"unsupported DH configuration pair: {a.config} with {b.config}")
