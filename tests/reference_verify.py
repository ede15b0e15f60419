"""Case-by-case reference for the oracle cross-check suite (test-side only).

The earlier `verify` loops: each case draws its instance, builds its states
one graph at a time with `oracle.build_state` and folds its discrepancy into
the running maximum before the next case starts.  `tglab.verify` runs the
same cases in blocks whose states are built by one `build_states` call; tests
require both to report equal values.
"""

from tglab.oracle import build_state, overlap, project
from tglab.tilted_graph import canonicalize
from tglab.verify import (
    _decorated_pair,
    _procedure_case,
    trajectory_vs_closed_form,
)


def _check_procedure(state, record, g_after):
    p, post = project(state, record.measured_qubit, record.outcome_bit,
                      record.rotation.matrix())
    expected = record.probability if record.outcome_bit else 1.0 - record.probability
    disc = abs(p - expected)
    if g_after.vertex_count and p > 1e-12:
        disc = max(disc, 1.0 - overlap(post, build_state(g_after)))
    return disc


def procedures_vs_oracle_reference(seed, cases):
    worst = 0.0
    for case in range(cases):
        g, run = _procedure_case(seed, case)
        state = build_state(g)
        for outcome in (0, 1):
            record, after = run(outcome=outcome)
            worst = max(worst, _check_procedure(state, record, after))
    return worst


def canonicalization_reference(seed, cases):
    worst = 0.0
    for case in range(cases):
        g = _decorated_pair(seed, case)
        worst = max(worst, 1.0 - overlap(build_state(g), build_state(canonicalize(g))))
    return worst


def run_verification_reference(seed, cases):
    theta_dev, dens_dev = trajectory_vs_closed_form()
    return {
        "procedures_vs_oracle": procedures_vs_oracle_reference(seed, cases),
        "trajectory_tilt": theta_dev,
        "trajectory_density": dens_dev,
        "canonicalization": canonicalization_reference(seed, max(10, cases // 3)),
    }
