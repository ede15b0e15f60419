"""Test-side references for `tglab.heralding`: the click densities, the gate
fidelity excess at given click times, and the composed DH sampler that
`sample_dh` runs in one frame.

`DhContext` holds one application's tilts (canonicalized), profiles,
efficiency and (Theta_1, Theta_2); `joint_terms` and `tilt_after_dh` give X, Y
and the tilt at given click times.  `sample_dh_reference` is the sampler as a
composition: the success test, `sample_clicks` (branch and click quantiles),
then `tilt_after_dh`, with frozen-dataclass records.  None of these calls the
library's sampler; `sample_dh` must equal the composition field for field and
bit for bit (tests/test_heralding.py pins it).

The Monte Carlo tests draw 1e5 success-conditioned click pairs per setting.
`click_rows` builds n rows of the three uniforms that `sample_clicks` reads,
and `sample_clicks_rows` reads each row as `sample_clicks` does, through
`inverse_cdf` on whole columns.  np.interp evaluates each element on its own,
and the scalar path of `inverse_cdf` equals it bit for bit, so row k of the
mirror is `sample_clicks(ctx, u[k])` exactly.

The graph rewrite `apply_dh_reference` is the two-configuration rule whose
cherry case `heralding.apply_dh_to_graph` keeps.  `classify_side_reference`
reads each side as a member of a GHZ star (a fresh qubit is a one-qubit star)
or as a Hadamard-removed cherry, with the effective tilt of its amplitudes.
Two stars fuse into one (the Eq.-12-style 2n-qubit tilted GHZ); two cherries
install the central vertex between their nodes.  Phase 1 keeps its pieces as
sizes and tilts, so no command builds a star side; tests/test_heralding.py
pins the star fusion on the state-vector oracle, and tests/test_local_graph_reads.py
checks that the library equals this reference on every pair of cherries.
"""

import math
from dataclasses import dataclass

import numpy as np

from tglab.errors import GraphConfigError, ImpossibleStateError
from tglab.tilted_graph import (
    HALF_PI,
    QUARTER_PI,
    EdgeAnnotation,
    EdgeKind,
    Vertex,
    branch_amplitudes,
    canonical_angle,
    star_center_id,
    with_star,
    z_pi_count,
)


class DhContext:
    """Tilts, profiles and detection efficiency of one DH application, with
    (Theta_1, Theta_2) as `thetas`.  A tilt outside (-pi/2, pi/2] is
    canonicalized and an efficiency outside (0, 1] is a GraphConfigError, as
    `sample_dh` does."""

    def __init__(self, theta_a, theta_b, pa, pb, detection_efficiency=1.0):
        if not -HALF_PI < theta_a <= HALF_PI:
            theta_a = canonical_angle(theta_a)
        if not -HALF_PI < theta_b <= HALF_PI:
            theta_b = canonical_angle(theta_b)
        if not (0.0 < detection_efficiency <= 1.0):
            raise GraphConfigError(
                f"detection efficiency must lie in (0, 1], got {detection_efficiency}")
        self.theta_a, self.theta_b = theta_a, theta_b
        self.pa, self.pb, self.detection_efficiency = pa, pb, detection_efficiency
        self.thetas = _thetas(theta_a, theta_b)


def _thetas(theta_a: float, theta_b: float) -> tuple[float, float]:
    """(Theta_1, Theta_2) = (cos^2(theta_a) sin^2(theta_b), sin^2(theta_a) cos^2(theta_b))."""
    return ((math.cos(theta_a) * math.sin(theta_b)) ** 2,
            (math.sin(theta_a) * math.cos(theta_b)) ** 2)


def joint_terms(t1, t2, ctx: DhContext):
    """(X, Y) of the joint click density; t1, t2 may be arrays (broadcast)."""
    th1, th2 = ctx.thetas
    x = th1 * ctx.pa.density(t1) * ctx.pb.density(t2)
    y = th2 * ctx.pb.density(t1) * ctx.pa.density(t2)
    return x, y


def tilt_after_dh(ctx: DhContext, clicks) -> float:
    """The resulting tilt: cos(theta_beta) = sqrt(Y/(X+Y)), in [0, pi/2]."""
    x, y = joint_terms(clicks.t1, clicks.t2, ctx)
    if x <= 0.0 and y <= 0.0:
        raise ImpossibleStateError(
            f"both click likelihoods vanish at ({clicks.t1}, {clicks.t2}); tilt undefined")
    return math.atan2(math.sqrt(x), math.sqrt(y))


@dataclass(frozen=True)
class ClickPair:
    """Detector click times of the two rounds."""

    t1: float
    t2: float

    def __post_init__(self):
        if not (self.t1 > 0 and self.t2 > 0):
            raise GraphConfigError(f"click times must be positive, got ({self.t1}, {self.t2})")


@dataclass(frozen=True)
class DhOutcome:
    """Success (tilt, clicks, detector parity) or failure of one application."""

    success: bool
    theta_beta: float | None = None
    clicks: ClickPair | None = None
    parity: int = 1


def success_probability(theta_a: float, theta_b: float, detection_efficiency: float = 1.0) -> float:
    """Upper-bound DH success probability, scaled by efficiency^2 (two clicks)."""
    return _scaled_success(_thetas(theta_a, theta_b), detection_efficiency)


def _scaled_success(thetas: tuple, detection_efficiency: float) -> float:
    return (thetas[0] + thetas[1]) * detection_efficiency**2


def click_density_first(t1, ctx):
    """Round-one click density Q1; integrates to the success probability.

    Accepts scalar or array t1.
    """
    th1, th2 = ctx.thetas
    return th1 * ctx.pa.density(t1) + th2 * ctx.pb.density(t1)


def click_density_joint(clicks, ctx) -> float:
    """Joint click density Q12 = X + Y."""
    x, y = joint_terms(clicks.t1, clicks.t2, ctx)
    return float(x) + float(y)


def click_density_second(t2, t1: float, ctx):
    """Conditional round-two density Q2(t2 | t1) = Q12 / Q1(t1)."""
    q1 = float(click_density_first(t1, ctx))
    if q1 <= 0.0:
        raise ImpossibleStateError(f"conditioning on Q1({t1}) = 0")
    x, y = joint_terms(t1, t2, ctx)
    return (x + y) / q1


def fidelity_value(theta_a: float, theta_b: float, pa, pb, t1, t2):
    """F = sqrt(XY)/(X+Y) at given click times (vectorised), 0 where both terms vanish."""
    x, y = joint_terms(t1, t2, DhContext(theta_a, theta_b, pa, pb))
    out = np.sqrt(x * y) / np.where(x + y > 0.0, x + y, 1.0)
    return float(out) if np.ndim(out) == 0 else out


def sample_clicks(ctx, u) -> ClickPair:
    """(t1, t2) from Q12 given success, from three uniforms.

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


def sample_dh_reference(theta_a, theta_b, pa, pb, u, detection_efficiency=1.0) -> DhOutcome:
    """One DH application from five uniforms, composed from its parts, with
    `sample_dh`'s signature: u[0] is the success test, u[1:4] go to
    sample_clicks and u[4] draws the parity."""
    ctx = DhContext(theta_a, theta_b, pa, pb, detection_efficiency)
    if u[0] >= _scaled_success(ctx.thetas, ctx.detection_efficiency):
        return DhOutcome(False)
    clicks = sample_clicks(ctx, u[1:4])
    parity = 1 if u[4] < 0.5 else -1
    return DhOutcome(True, tilt_after_dh(ctx, clicks), clicks, parity)


def as_fields(out) -> tuple:
    """An outcome of either sampler as plain values, to compare the two exactly."""
    clicks = None if out.clicks is None else (out.clicks.t1, out.clicks.t2)
    return out.success, out.theta_beta, clicks, out.parity


def click_rows(ctx, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) rows u of `sample_clicks(ctx, u)` from five uniform arrays drawn in
    turn: the branch test, then the first and second click quantiles of the
    Theta_1 branch (P_A, P_B) and of the Theta_2 branch (P_B, P_A)."""
    th1, th2 = ctx.thetas
    branch = rng.random(n)
    a_first, b_second = rng.random(n), rng.random(n)
    b_first, a_second = rng.random(n), rng.random(n)
    from_a = branch < th1 / (th1 + th2)
    return np.column_stack([branch, np.where(from_a, a_first, b_first),
                            np.where(from_a, b_second, a_second)])


def sample_clicks_rows(ctx, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (t1, t2) whose entry k is the ClickPair of sample_clicks(ctx, u[k])."""
    th1, th2 = ctx.thetas
    from_a = u[:, 0] < th1 / (th1 + th2)
    t1 = np.where(from_a, ctx.pa.inverse_cdf(u[:, 1]), ctx.pb.inverse_cdf(u[:, 1]))
    t2 = np.where(from_a, ctx.pb.inverse_cdf(u[:, 2]), ctx.pa.inverse_cdf(u[:, 2]))
    return t1, t2


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


def effective_tilt(tilt: float, flip: bool, z_flips: int) -> float:
    """theta_eff in [0, pi/2] of a side's amplitudes."""
    alpha, beta = branch_amplitudes(tilt, flip, z_flips)
    return math.atan2(abs(beta), abs(alpha))


def classify_side_reference(g, q) -> SideInfo:
    """Match one side against the two configurations, from q's neighbourhood."""
    v = g.vertex(q)
    # a plain degree-one vertex hanging off its node by a pure edge: the
    # "Hadamard-removed" cherry case (the node behind it may be any graph;
    # with no Hadamard flag on either end, the pair is never a GHZ star)
    if not v.hadamard and not v.x_flip and g.degree(q) == 1:
        (nb,) = g.neighbors(q)
        if not g.vertex(nb).hadamard and g.edge(q, nb).kind is EdgeKind.PURE:
            theta = effective_tilt(v.tilt, False, z_pi_count(g, [q]))
            return SideInfo(CHERRY, q, frozenset([q]), nb, theta)
    # a member (centre or Hadamard leaf) of a GHZ star; a fresh qubit is a one-qubit star
    center = star_center_id(g, q)
    if center is None:
        raise GraphConfigError(f"qubit {q} is neither a cherry nor in a GHZ star")
    if center == q and v.hadamard:
        raise GraphConfigError(f"fresh qubit {q} may not carry a Hadamard flag")
    members = frozenset((center, *g.neighbors(center)))
    theta = effective_tilt(g.vertex(center).tilt, v.x_flip, z_pi_count(g, members))
    return SideInfo(GHZ, q, members, center, theta)


def rewrite_ghz_success(g, a: SideInfo, b: SideInfo, theta_beta: float):
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


def rewrite_cherry_success(g, a: SideInfo, b: SideInfo, theta_beta: float):
    """Install the central tilted vertex with its cherry between the two nodes:
    X on the partner qubit, Z(pi) on the first node's centre."""
    central = Vertex(a.qubit, theta_beta)
    cherry = Vertex(b.qubit, QUARTER_PI, hadamard=True).append_x()
    pure = EdgeAnnotation.pure()
    return g.edited(drop=(a.qubit, b.qubit),
                    vertices=(central, cherry, g.vertex(a.center).append_z(math.pi)),
                    edges=[(a.qubit, vid, pure) for vid in (b.qubit, a.center, b.center)])


def apply_dh_reference(g, qa, qb, outcome):
    """Rewrite the graph for one DH outcome between qubits qa and qb.

    Success fuses the two components according to their configuration;
    failure Z-measures the used qubits (collapsing GHZ components to
    separable states, which are dropped, and trimming cherry-configured
    nodes by their used qubit only).  Distinct nodes are disjoint pieces (a
    cherry's component holds two plain vertices, so is no star) unless both
    sides are cherries, which prior annotations may link.
    """
    a, b = classify_side_reference(g, qa), classify_side_reference(g, qb)
    if a.qubit == b.qubit or a.center == b.center:
        raise GraphConfigError(f"qubits {a.qubit}, {b.qubit} do not head distinct nodes")
    if not outcome.success:
        return g.without_vertices(a.members | b.members)
    if a.config == b.config == GHZ:
        return rewrite_ghz_success(g, a, b, outcome.theta_beta)
    if a.config == b.config == CHERRY:
        return rewrite_cherry_success(g, a, b, outcome.theta_beta)
    raise GraphConfigError(f"unsupported DH configuration pair: {a.config} with {b.config}")
