"""The README config's artifacts: byte-identical reruns, and the bytes of the table.

README's example config runs through `compare`, `fidelity-hist`,
`efsq-surface`, `grow` (a bridge join of two pieces) and `verify`, twice, into
`tmp_path`.  The two runs must agree byte for byte, and each of the seven
files must have the sha256 that `GOLDEN_SHA256` records.  The table is data:
a change that moves an artifact replaces its file under tests/golden/ and its
digest here in the same diff, and states the move.

The digests were made with numpy `GOLDEN_NUMPY` on x86-64 Linux.  The last
bits of libm's `exp` and of the FFT can differ on another numpy, so there the
test asserts rerun identity only and reports each digest that differs, with
its moves, as a warning.  On a mismatch the report gives, for each CSV
column, the largest relative move from the file under tests/golden/.
"""

import hashlib
import re
import warnings
from pathlib import Path

import numpy as np

from tglab import cli

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("compare", "fidelity-hist", "efsq-surface", "grow", "verify")

GOLDEN_NUMPY = "2.4.6"
GOLDEN_SHA256 = {
    "compare.csv": "a4e85668511699e4550ab20a3d280cb02ffaa3718515352850aab2c8fa64d051",
    "fidelity_hist.csv": "849038cdadeb3cf427442b0dd2351f35cd89c69517809728131082e984086937",
    "efsq_surface.csv": "2b286f61245316477d7be52e77d53d8bbcba1f44c8554abcd5266719263a4ada",
    "grow_rounds.csv": "ff8971a8ecb68b1661b9a748766faeacaefca0e588b6b97238f8760efa932c3a",
    "grow_summary.csv": "7f61deaa71432e4858034380e9bf8a618d69f025e15034ffced88311a1ef5165",
    "grow_graph.txt": "88c376f8d133fac9c121f8b0a972c62e912e85f4265ed707f2b1b19340f97167",
    "verify.csv": "17d73df7c28ab50387dd4262db4e6ad304a5286569a8575ccec2ceeb4e38bf77",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_commands(cfg, out) -> dict:
    """{file name: bytes} of the five commands on config `cfg`, run into `out`."""
    for command in COMMANDS:
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0, command
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def moves(name: str, old: bytes, new: bytes) -> str:
    """How `new` differs from `old`: the largest relative move per CSV column (the
    absolute move where the old value is 0), or the first differing line."""
    old_rows = [line.split(",") for line in old.decode().splitlines()]
    new_rows = [line.split(",") for line in new.decode().splitlines()]
    if not name.endswith(".csv") or old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        diff = [k for k, (a, b) in enumerate(zip(old_rows, new_rows)) if a != b]
        first = f"first differing line {diff[0] + 1}" if diff else "lines added or removed"
        return f"{name}: {len(old_rows)} -> {len(new_rows)} lines, {first}"
    parts = []
    for col, header in enumerate(old_rows[0]):
        worst = 0.0
        for a, b in zip(old_rows[1:], new_rows[1:]):
            x, y = _number(a[col]), _number(b[col])
            if x is None or y is None:
                if a[col] != b[col]:
                    worst = float("inf")
            elif x != y:
                worst = max(worst, abs(y - x) / (abs(x) or 1.0))
        parts.append(f"{header} {worst:.3g}")
    return f"{name}: largest relative move per column: {', '.join(parts)}"


def report(got: dict) -> list:
    """Two lines per artifact whose digest is not the table's: both digests, then
    the moves from its file under tests/golden/."""
    lines = []
    for name, data in got.items():
        if sha256(data) != GOLDEN_SHA256[name]:
            lines.append(f"{name}: sha256 {sha256(data)[:8]}, table {GOLDEN_SHA256[name][:8]}")
            lines.append("  " + moves(name, (GOLDEN / name).read_bytes(), data))
    return lines


def test_golden_files_are_the_table():
    assert {path.name: sha256(path.read_bytes()) for path in GOLDEN.iterdir()} == GOLDEN_SHA256


def test_readme_artifacts_rerun_identical_and_match_the_table(tmp_path):
    cfg = tmp_path / "exp.cfg"
    readme = README.read_text(encoding="utf-8")
    cfg.write_text(re.search(r"```ini\n(.*?)```", readme, re.S).group(1), encoding="utf-8")
    first, second = run_commands(cfg, tmp_path / "a"), run_commands(cfg, tmp_path / "b")
    assert sorted(first) == sorted(second) == sorted(GOLDEN_SHA256)
    rerun = [moves(name, first[name], second[name]) for name in first
             if first[name] != second[name]]
    assert rerun == []
    lines = report(first)
    if np.__version__ == GOLDEN_NUMPY:
        assert lines == [], "\n".join(lines)
    elif lines:
        warnings.warn(f"numpy {np.__version__} (table: {GOLDEN_NUMPY}) moves the README "
                      "artifacts:\n" + "\n".join(lines))
