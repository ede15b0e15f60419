"""Double-heralding event model: click statistics and graph rewrites.

Click-time statistics for one double-heralding application between matter
qubits a and b with effective tilts theta_a, theta_b and calibrated leakage
densities P_A, P_B:

    Theta_1 = cos^2(theta_a) sin^2(theta_b)     X = Theta_1 P_A(t1) P_B(t2)
    Theta_2 = sin^2(theta_a) cos^2(theta_b)     Y = Theta_2 P_B(t1) P_A(t2)

    success probability   Theta_1 + Theta_2  (scaled by efficiency^2)
    round-one density     Q1(t1) = Theta_1 P_A(t1) + Theta_2 P_B(t1)
    joint density         Q12(t1, t2) = X + Y,   Q2 = Q12 / Q1
    resulting tilt        cos(theta_beta) = sqrt(Y / (X + Y))

The graph rewrites cover the two supported configurations of each side: a
member of a GHZ star (a fresh qubit is a one-qubit star) and a
"Hadamard-removed" cherry (a plain degree-one vertex hanging off a star
centre).  Both are read from the side's neighbourhood alone.  Detector parity
is a known Z error and is corrected immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GraphConfigError, ImpossibleStateError
from .leakage import LeakageProfile
from .tilted_graph import (
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

class DhContext:
    """Tilts, profiles and detection efficiency of one DH application.

    `thetas` holds (Theta_1, Theta_2) of the tilts, computed once here for
    every statistic of the application.  Phase 1 builds one per DH attempt, so
    this is a slotted class with a plain constructor; treat it as read-only.
    """

    __slots__ = ("theta_a", "theta_b", "pa", "pb", "detection_efficiency", "thetas")

    def __init__(self, theta_a: float, theta_b: float, pa: LeakageProfile, pb: LeakageProfile,
                 detection_efficiency: float = 1.0):
        self.theta_a = theta_a = canonical_angle(theta_a)
        self.theta_b = theta_b = canonical_angle(theta_b)
        if not (0.0 < detection_efficiency <= 1.0):
            raise GraphConfigError(
                f"detection efficiency must lie in (0, 1], got {detection_efficiency}")
        self.pa, self.pb, self.detection_efficiency = pa, pb, detection_efficiency
        self.thetas = big_thetas(theta_a, theta_b)


@dataclass(frozen=True)
class ClickPair:
    """Detector click times of the two rounds."""

    t1: float
    t2: float

    def __post_init__(self):
        if not (self.t1 > 0 and self.t2 > 0):
            raise GraphConfigError(f"click times must be positive, got ({self.t1}, {self.t2})")


def big_thetas(theta_a: float, theta_b: float) -> tuple[float, float]:
    t1 = (math.cos(theta_a) * math.sin(theta_b)) ** 2
    t2 = (math.sin(theta_a) * math.cos(theta_b)) ** 2
    return t1, t2


def success_probability(theta_a: float, theta_b: float, detection_efficiency: float = 1.0) -> float:
    """Upper-bound DH success probability, scaled by efficiency^2 (two clicks)."""
    return _scaled_success(big_thetas(theta_a, theta_b), detection_efficiency)


def _scaled_success(thetas: tuple, detection_efficiency: float) -> float:
    return (thetas[0] + thetas[1]) * detection_efficiency**2


def joint_terms(t1, t2, ctx: DhContext):
    """(X, Y) of the joint click density; t1, t2 may be arrays (broadcast)."""
    th1, th2 = ctx.thetas
    x = th1 * ctx.pa.density(t1) * ctx.pb.density(t2)
    y = th2 * ctx.pb.density(t1) * ctx.pa.density(t2)
    return x, y


def click_density_first(t1, ctx: DhContext):
    """Round-one click density Q1; integrates to the success probability.

    Accepts scalar or array t1.
    """
    th1, th2 = ctx.thetas
    return th1 * ctx.pa.density(t1) + th2 * ctx.pb.density(t1)


def click_density_joint(clicks: ClickPair, ctx: DhContext) -> float:
    """Joint click density Q12 = X + Y."""
    x, y = joint_terms(clicks.t1, clicks.t2, ctx)
    return float(x) + float(y)


def click_density_second(t2, t1: float, ctx: DhContext):
    """Conditional round-two density Q2(t2 | t1) = Q12 / Q1(t1)."""
    q1 = float(click_density_first(t1, ctx))
    if q1 <= 0.0:
        raise ImpossibleStateError(f"conditioning on Q1({t1}) = 0")
    x, y = joint_terms(t1, t2, ctx)
    return (x + y) / q1


def sample_clicks(ctx: DhContext, u) -> ClickPair:
    """The one click sampler: (t1, t2) from Q12 given success, from three uniforms.

    Q12 is the exact mixture Theta_1 P_A(t1) P_B(t2) + Theta_2 P_B(t1) P_A(t2):
    u[0] < Theta_1/(Theta_1 + Theta_2) picks the Theta_1 branch, and u[1],
    u[2] are the quantiles of the first and second click under the branch's
    renormalised profiles.
    """
    th1, th2 = ctx.thetas
    if th1 + th2 <= 0.0:
        raise ImpossibleStateError("degenerate tilts: success probability is zero")
    first, second = (ctx.pa, ctx.pb) if u[0] < th1 / (th1 + th2) else (ctx.pb, ctx.pa)
    return ClickPair(float(first.inverse_cdf(u[1])), float(second.inverse_cdf(u[2])))


def tilt_after_dh(ctx: DhContext, clicks: ClickPair) -> float:
    """The resulting tilt: cos(theta_beta) = sqrt(Y/(X+Y)), in [0, pi/2]."""
    x, y = joint_terms(clicks.t1, clicks.t2, ctx)
    if x <= 0.0 and y <= 0.0:
        raise ImpossibleStateError(
            f"both click likelihoods vanish at ({clicks.t1}, {clicks.t2}); tilt undefined")
    return math.atan2(math.sqrt(x), math.sqrt(y))


@dataclass(frozen=True)
class DhOutcome:
    """Success (tilt, clicks, detector parity) or failure of one application."""

    success: bool
    theta_beta: float | None = None
    clicks: ClickPair | None = None
    parity: int = 1

    @staticmethod
    def failure() -> "DhOutcome":
        """The failure outcome: one shared instance, since outcomes are immutable."""
        return _FAILURE


_FAILURE = DhOutcome(False)


def sample_dh(ctx: DhContext, u) -> DhOutcome:
    """Sample one full DH application (success flag, clicks, tilt, parity).

    The outcome is a pure function of ctx and five uniforms in [0, 1):
    u[0] is the success test (success when u[0] < p), u[1:4] go to
    sample_clicks (branch, first and second click quantile) and u[4] draws
    the detector parity.  Phase 1 passes each pair its own row of the
    round's uniform block; the join phase passes rng.random(5).  Theta_1 and
    Theta_2 come from the context, computed once per application.
    """
    if u[0] >= _scaled_success(ctx.thetas, ctx.detection_efficiency):
        return DhOutcome.failure()
    clicks = sample_clicks(ctx, u[1:4])
    parity = 1 if u[4] < 0.5 else -1
    return DhOutcome(True, tilt_after_dh(ctx, clicks), clicks, parity)


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
