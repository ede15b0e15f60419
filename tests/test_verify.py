"""The oracle cross-check suite: blocked runs against the case-by-case loops,
and failure on a discrepancy that is not a number."""

import math
from dataclasses import replace

import pytest

from reference_verify import canonicalization_reference, run_verification_reference
from tglab import growth, verify
from tglab.cli import main
from tglab.errors import VerificationError

# one case, and one short block, a full block, a full block and one case, and two
# full blocks and two, of CASE_BLOCK and of 64 cases
CASES = sorted({1, 63, 64, 65, 130} | {verify.CASE_BLOCK + d for d in (-1, 0, 1)}
               | {2 * verify.CASE_BLOCK + 2})


@pytest.mark.parametrize("cases", CASES)
@pytest.mark.parametrize("seed", [0, 1, 1234])
class TestBlocksMatchTheCaseLoop:
    def test_report(self, seed, cases):
        assert verify.run_verification(seed, cases) == run_verification_reference(seed, cases)

    def test_canonicalization(self, seed, cases):
        # the report runs cases // 3 of these, too few to fill two blocks
        assert verify.canonicalization_preserves_states(seed, cases) == \
            canonicalization_reference(seed, cases)


@pytest.fixture
def nan_realign(monkeypatch):
    """Every realign record claims a success probability of NaN."""
    real = verify.realign

    def realign(*args, **kwargs):
        record, after = real(*args, **kwargs)
        return replace(record, probability=math.nan), after

    monkeypatch.setattr(verify, "realign", realign)


def test_nan_discrepancy_fails(nan_realign):
    # max(0.0, nan) is 0.0: a plain running maximum would report a pass
    with pytest.raises(VerificationError, match="non-finite"):
        verify.run_verification(3, 40)


def test_nan_discrepancy_exits_three(nan_realign, tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[profile A]\nkind = critically_damped\ng = 10.0\n\n"
                   "[run]\nseed = 3\n\n[verify]\ncases = 40\n", encoding="utf-8")
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3


def test_trajectory_check_reads_the_sampler_that_grow_runs(monkeypatch):
    # verify draws its click grid through growth's own DH kernel, so a tilt 1e-6 off
    # in that kernel shows in the trajectory row
    real = verify.sample_dh
    assert real is growth.sample_dh

    def skewed(*args):
        out = real(*args)
        return out._replace(theta_beta=out.theta_beta + 1e-6)

    monkeypatch.setattr(verify, "sample_dh", skewed)
    assert verify.run_verification(0, 1)["trajectory_tilt"] >= 1e-6
