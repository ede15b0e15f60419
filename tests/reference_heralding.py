"""Test-side vectorised mirror of `tglab.heralding.sample_clicks`.

The Monte Carlo tests draw 1e5 success-conditioned click pairs per setting.
`click_rows` builds n rows of the three uniforms that `sample_clicks` reads,
and `sample_clicks_rows` reads each row as `sample_clicks` does, through
`inverse_cdf` on whole columns.  np.interp evaluates each element on its own,
and the scalar path of `inverse_cdf` equals it bit for bit, so row k of the
mirror is `sample_clicks(ctx, u[k])` exactly (tests/test_heralding.py pins it).
"""

import numpy as np


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
