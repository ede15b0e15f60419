"""Realignment, merge and bridge procedures on tilted graphs.

All three procedures rotate one qubit by a member of the M family,

    M(theta) = [[-cos theta, sin theta], [sin theta, cos theta]],
    S        = diag(1, i),

measure it in the computational basis, and rewrite the graph according to
the outcome:

* realign: measure the cherry of a tilted vertex (or any Hadamard leaf of
  a tilted GHZ star).  Success probability p_s(theta) = sin^2(2 theta)/2
  leaves the structure untilted; failure worsens the tilt to -R(theta),
  cos R(phi) = cos^2(phi) / sqrt(1 - sin^2(2 phi)/2).

* merge: measure a degree-two tilted central vertex after M(+-theta_b).
  Success installs the parity projection P(+-pi/4) between its neighbours
  (probability p_s(theta_b) (1 +- sin 2 gamma_1) against a pre-existing
  partial fusion), failure folds P(-+R(theta_b)) into gamma_1.

* bridge: as merge with an extra S, targeting the weighted edge U(+-pi/4).
  The rotation angle beta satisfies
  cos(beta_pm) = N_B cos(theta_b)(+-cos gamma_1 - sin gamma_1) with
  N_B = (1 -+ sin 2 gamma_1 cos 2 theta_b)^(-1/2); success probability is
  N_B^2 p_s(theta_b) and failure adds the generalised failure angle.

Stored tilts may be negative (a failed realignment leaves -R); formulas
below take signed angles and are exact against the state-vector oracle.
Known measurement byproducts of removal outcomes are corrected
immediately rather than recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GraphConfigError, ImpossibleStateError
from .tilted_graph import (
    ANGLE_TOL,
    QUARTER_PI,
    EdgeAnnotation,
    EdgeKind,
    TiltedGraph,
    Vertex,
    branch_amplitudes,
    canonical_angle,
    canonical_edge,
    combine_partial_fusions,
    combine_weighted_edges,
    star_center_id,
    swap_tilt,
    with_star,
    z_pi_count,
)


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------

S_MATRIX = np.diag([1.0, 1.0j])


def m_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[-c, s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class RotationDescriptor:
    """Pre-measurement rotation: M(theta) or M(beta) S."""

    kind: str                 # "M" | "MS"
    angle: float

    def matrix(self) -> np.ndarray:
        if self.kind == "M":
            return m_matrix(self.angle)
        if self.kind == "MS":
            return m_matrix(self.angle) @ S_MATRIX
        raise GraphConfigError(f"unknown rotation kind {self.kind!r}")


# ---------------------------------------------------------------------------
# Scalar machinery
# ---------------------------------------------------------------------------

def p_success(theta: float) -> float:
    """Success probability sin^2(2 theta)/2 of one M-rotation attempt."""
    return 0.5 * math.sin(2.0 * theta) ** 2


def r_function(phi: float) -> float:
    """Failure function R(phi) in [0, pi/2] (even in phi)."""
    denom = math.sqrt(1.0 - 0.5 * math.sin(2.0 * phi) ** 2)
    return math.acos(min(1.0, max(-1.0, math.cos(phi) ** 2 / denom)))


def merge_auto_sign(gamma1: float) -> int:
    """Match the rotation sign to the pre-existing partial fusion."""
    return -1 if math.sin(2.0 * gamma1) < 0 else 1


def merge_amplification(gamma1: float, sign: int) -> float:
    """N_M^2(+-pi/4, gamma1) = 1 +- sin(2 gamma1)."""
    return 1.0 + sign * math.sin(2.0 * gamma1)


def merge_success_probability(theta_b: float, gamma1: float = 0.0, sign: int | None = None) -> float:
    s = merge_auto_sign(gamma1) if sign is None else sign
    return p_success(theta_b) * merge_amplification(gamma1, s)


def bridge_auto_sign(gamma1: float, theta_b: float) -> int:
    """Sign choice that makes the bridge amplification N_B at least 1."""
    return -1 if math.sin(2.0 * gamma1) * math.cos(2.0 * theta_b) < 0 else 1


def bridge_n_factor(gamma1: float, theta_b: float, sign: int) -> float:
    """N_B = (1 -+ sin(2 gamma1) cos(2 theta_b))^(-1/2) for the +- target."""
    val = 1.0 - sign * math.sin(2.0 * gamma1) * math.cos(2.0 * theta_b)
    if val <= 0.0:
        raise ImpossibleStateError("bridge normalisation factor diverged")
    return val**-0.5


def bridge_success_probability(theta_b: float, gamma1: float = 0.0, sign: int | None = None) -> float:
    s = bridge_auto_sign(gamma1, theta_b) if sign is None else sign
    return bridge_n_factor(gamma1, theta_b, s) ** 2 * p_success(theta_b)


def bridge_beta(gamma1: float, theta_b: float, sign: int) -> float:
    """Rotation angle of M(beta) S targeting U(sign pi/4 - gamma1).

    Handles signed theta_b; for theta_b > 0 it reduces to the closed form
    cos(beta) = N_B cos(theta_b)(sign cos gamma1 - sin gamma1).
    """
    if abs(math.sin(2.0 * theta_b)) < ANGLE_TOL:
        raise GraphConfigError("degenerate central tilt: nothing to bridge with")
    tau = canonical_angle(sign * QUARTER_PI - gamma1)
    lam = math.sqrt(2.0) * bridge_n_factor(gamma1, theta_b, sign) * abs(
        math.sin(theta_b) * math.cos(theta_b))
    sin_b = lam * math.cos(tau) / math.cos(theta_b)
    cos_b = lam * math.sin(tau) / math.sin(theta_b)
    return math.atan2(sin_b, cos_b)


def bridge_failure_angle(gamma1: float, theta_b: float, sign: int) -> float:
    """Signed additional weighted-edge angle left by a failed bridge.

    The magnitude is the generalised failure function F(gamma1, beta_pm);
    F(0, phi) has magnitude R(phi).
    """
    beta = bridge_beta(gamma1, theta_b, sign)
    c = math.cos(beta) * math.cos(theta_b)
    s = -math.sin(beta) * math.sin(theta_b)
    return canonical_angle(math.atan2(s, c))


def choose_method(theta_a: float, gamma: float, kind: str) -> "MethodChoice":
    """Compare method (i) (spend the cherry) with method (ii) (realign first).

    P_i uses the tilted vertex directly with the recycled-annotation
    amplification; P_ii first attempts realignment (success makes the join
    deterministic), falling back to the worsened tilt -R(theta_a).
    """
    if kind not in ("merge", "bridge"):
        raise GraphConfigError(f"kind must be 'merge' or 'bridge', got {kind!r}")

    def joint_p(theta):
        if kind == "merge":
            return merge_success_probability(theta, gamma)
        return bridge_success_probability(theta, gamma)

    p_i = joint_p(theta_a)
    theta_alpha = -r_function(theta_a)
    p_ii = 1.0 - (1.0 - joint_p(theta_alpha)) * (1.0 - p_success(theta_a))
    return MethodChoice("i" if p_i > p_ii else "ii", p_i, p_ii)


@dataclass(frozen=True)
class MethodChoice:
    method: str
    p_i: float
    p_ii: float


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProcedureOutcome:
    """Result of one realign/merge/bridge attempt.

    probability is the analytic success probability of the attempt;
    outcome_bit is the realised computational-basis result (1 = success).
    The rotation and measured qubit let the state-vector oracle replay the
    exact measurement.
    """

    procedure: str
    success: bool
    probability: float
    measured_qubit: int
    rotation: RotationDescriptor
    outcome_bit: int
    tilt_after: float | None = None
    annotation_after: EdgeAnnotation | None = None


def _draw(outcome, rng, p) -> int:
    if outcome is not None:
        return int(outcome)
    if rng is None:
        raise GraphConfigError("need either an rng or an explicit outcome")
    return 1 if rng.random() < p else 0


# ---------------------------------------------------------------------------
# Realignment
# ---------------------------------------------------------------------------

def realign(g: TiltedGraph, cherry: int, rng=None, outcome: int | None = None
            ) -> tuple[ProcedureOutcome, TiltedGraph]:
    """Attempt to purify the tilt holder by measuring out its cherry.

    The cherry must be a degree-one qubit whose computational amplitudes
    carry the holder's tilt: any Hadamard leaf of a GHZ star (every GHZ
    qubit is such a cherry), the plain centre of a two-qubit star, or the
    Hadamard cherry hanging off a tilted central vertex.
    """
    v = g.vertex(cherry)
    if g.degree(cherry) != 1:
        raise GraphConfigError(f"vertex {cherry} has degree {g.degree(cherry)}, not a cherry")
    (holder,) = g.neighbors(cherry)
    if g.edge(cherry, holder).kind is not EdgeKind.PURE:
        raise GraphConfigError("the cherry must hang on a pure edge")
    center = star_center_id(g, cherry)
    if center is not None:
        flagged = comp = frozenset((center, *g.neighbors(center)))
        tilt = g.vertex(center).tilt
    else:                           # central-vertex flavour: a Hadamard cherry on a tilt holder
        hv = g.vertex(holder)
        if not v.hadamard:
            raise GraphConfigError(
                f"vertex {cherry} is not a realignable cherry (no Hadamard correlation)")
        if hv.hadamard or hv.x_flip:
            raise GraphConfigError(f"tilt holder {holder} carries unsupported frame flags")
        tilt, flagged = hv.tilt, [holder, cherry]
    # the cherry value tracks the holder branch (through CZ + H in the
    # central flavour); a recorded X flip on the cherry inverts the correlation
    alpha, beta = branch_amplitudes(tilt, v.x_flip, z_pi_count(g, flagged))
    theta_rot = math.atan2(beta, alpha)
    p = p_success(theta_rot)
    bit = _draw(outcome, rng, p)
    # success branch is sin(t) cos(t) (u + v) exactly: any amplitude signs
    # are global, so the surviving structure is +pi/4 tilted
    t_cherry_basis = QUARTER_PI if bit else -r_function(theta_rot)
    tilt_after = swap_tilt(t_cherry_basis) if v.x_flip else t_cherry_basis
    if center is not None:
        remaining = sorted(comp - {cherry})
        new_center = center if center in remaining else remaining[0]
        leaves = [Vertex(vid, QUARTER_PI, hadamard=True, x_flip=g.vertex(vid).x_flip)
                  for vid in remaining if vid != new_center]
        out = with_star(g, comp, Vertex(new_center, tilt_after,
                                        x_flip=g.vertex(new_center).x_flip), leaves)
    else:
        out = g.edited(drop=(cherry,), vertices=(Vertex(holder, tilt_after),))
    record = ProcedureOutcome("realign", bool(bit), p, cherry,
                              RotationDescriptor("M", theta_rot), bit, tilt_after=tilt_after)
    return record, out


# ---------------------------------------------------------------------------
# Merge and bridge
# ---------------------------------------------------------------------------

def _join_site(g: TiltedGraph, central: int, expected: EdgeKind):
    v = g.vertex(central)
    if v.hadamard or v.x_flip or abs(v.z_phase) > ANGLE_TOL:
        raise GraphConfigError(f"central vertex {central} carries unsupported frame flags")
    nbs = g.neighbors(central)
    if len(nbs) != 2:
        raise GraphConfigError(f"central vertex {central} has degree {len(nbs)}, need exactly 2")
    x, y = nbs
    for w in (x, y):
        if g.edge(central, w).kind is not EdgeKind.PURE:
            raise GraphConfigError("central vertex must hang on pure edges")
    annot = g.edge(x, y)
    gamma1 = 0.0
    if annot is not None:
        if annot.kind is not expected:
            raise GraphConfigError(
                f"edge ({x},{y}) carries {annot.kind.value}, expected {expected.value}")
        gamma1 = annot.phi
    # the exact probability formulas need <Z_x Z_y> = 0 over the segments:
    # untilted plain endpoints in disjoint segments guarantee it (their
    # computational marginals stay uniform under CZ and diagonal annotations)
    probe = g.edited(drop=(central,), edges=((x, y, None),) if annot is not None else ())
    for w in (x, y):
        wv = g.vertex(w)
        if wv.hadamard or wv.x_flip or not wv.untilted:
            raise GraphConfigError(f"join endpoint {w} must be a plain untilted vertex")
    # search from y: in an engine join x (the lower id) heads the chain built so far
    if x in probe.component_of(y):
        raise GraphConfigError("join endpoints are entangled beyond the recorded annotation")
    return x, y, gamma1


def merge(g: TiltedGraph, central: int, sign: int | None = None, rng=None,
          outcome: int | None = None) -> tuple[ProcedureOutcome, TiltedGraph]:
    """Fuse the central vertex's neighbours by a targeted parity projection.
    Rewrites only the annotation it makes; the rest of g stays as given."""
    x, y, gamma1 = _join_site(g, central, EdgeKind.PARTIAL)
    theta_b = g.vertex(central).tilt
    s = merge_auto_sign(gamma1) if sign is None else int(sign)
    p = merge_success_probability(theta_b, gamma1, s)
    bit = _draw(outcome, rng, p)
    if bit:
        annot = EdgeAnnotation.partial_fusion(s * QUARTER_PI)
    else:
        phi3, _ = combine_partial_fusions(gamma1, -s * r_function(theta_b))
        annot = EdgeAnnotation.partial_fusion(phi3)
    # maximal: an untilted central vertex makes even failure an other-parity success
    out = canonical_edge(g.edited(drop=(central,), edges=((x, y, annot),)), x, y)
    record = ProcedureOutcome("merge", bool(bit), p, central,
                              RotationDescriptor("M", s * theta_b), bit,
                              annotation_after=annot)
    return record, out


def bridge(g: TiltedGraph, central: int, sign: int | None = None, rng=None,
           outcome: int | None = None) -> tuple[ProcedureOutcome, TiltedGraph]:
    """Connect the central vertex's neighbours by a targeted weighted edge.
    Rewrites only the annotation it makes; the rest of g stays as given."""
    x, y, gamma1 = _join_site(g, central, EdgeKind.WEIGHTED)
    theta_b = g.vertex(central).tilt
    s = bridge_auto_sign(gamma1, theta_b) if sign is None else int(sign)
    beta = bridge_beta(gamma1, theta_b, s)
    p = bridge_success_probability(theta_b, gamma1, s)
    bit = _draw(outcome, rng, p)
    if bit:
        annot = EdgeAnnotation.weighted(s * QUARTER_PI)
    else:
        total = combine_weighted_edges(gamma1, bridge_failure_angle(gamma1, theta_b, s))
        annot = EdgeAnnotation.weighted(total)
    # maximal: the equally desirable alternative target also reduces to pure form
    out = canonical_edge(g.edited(drop=(central,), edges=((x, y, annot),)), x, y)
    record = ProcedureOutcome("bridge", bool(bit), p, central,
                              RotationDescriptor("MS", beta), bit,
                              annotation_after=annot)
    return record, out
