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
"""

import math
from dataclasses import dataclass

import numpy as np

from tglab.errors import GraphConfigError, ImpossibleStateError
from tglab.tilted_graph import HALF_PI, canonical_angle


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
