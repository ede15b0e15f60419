"""Workload inputs, operations and output checks.

Inputs are written from the workload seed with the standard library only,
so the parent process never imports tglab.  Each round of a workload reads
the inputs of round seed `seed * 1000 + round`; analysis inputs do not
depend on the seed beyond the `[run]` seed, which its commands ignore.

A round holds the timed operations, chosen so that none of them fails:
the benchmark measures speed, and a workload with failing operations
would read a fix of the failure as a slowdown.
"""

from __future__ import annotations

import json
import math
import random
import time
from pathlib import Path

WORKLOADS = ("analysis", "growth-verify")

G = {"A": 10.0, "B": 12.5}          # the README's critically damped pair
CSV_POINTS = 2049                    # points of a calibrated profile file
GROW_POOL = 1000                     # cavities per profile in the `grow` run
# Join campaigns: pieces large enough that no campaign runs out of
# sacrificial leaves (bridge chains of size 8-15 pieces often do).
JOIN_KINDS = ("bridge", "merge", "bridge")
JOIN_NODES, JOIN_SIZES = 10, (30, 36)

# Acceptance windows of the strategy comparison (3f2 mode).
WINDOWS = {"p_postselect": (0.033, 0.003), "p_outside_window": (0.357, 0.005),
           "p_total": (0.390, 0.006)}


def round_seed(seed: int, rnd: int) -> int:
    return seed * 1000 + rnd


def _profiles_text(run_seed: int, csv: bool = False) -> str:
    out = []
    for name, g in G.items():
        body = (f"kind = csv\npath = profile_{name}.csv" if csv
                else f"kind = critically_damped\ng = {g}")
        out.append(f"[profile {name}]\n{body}\n")
    out.append(f"[run]\nseed = {run_seed}\n")
    return "\n".join(out)


_ANALYSIS_SECTIONS = """
[compare]
profile_a = A
profile_b = B
epsilon = 1e-4
nodes = 2000
modes = 3f2,exact

[fidelity-hist]
profile_a = A
profile_b = B
bins = 200
nodes = 1500

[efsq-surface]
profile_a = A
profile_b = B
grid = 21
"""


def _grow_text(run_seed: int, per_profile: int) -> str:
    return _profiles_text(run_seed) + f"""
[grow]
pool = A:{per_profile},B:{per_profile}
target_ghz_size = 16
acceptance = 1.0
pairing = sorted
flip_rule = on
join_nodes = 0
"""


def _write_csv_profile(path: Path, g: float) -> None:
    """A critically damped density tabulated on [0, 20/g], as `calibrate` writes it."""
    t_max = 20.0 / g
    lines = ["time,density"]
    for k in range(CSV_POINTS):
        t = t_max * k / (CSV_POINTS - 1)
        lines.append(f"{t:.17g},{4.0 * g**3 * t * t * math.exp(-2.0 * g * t):.17g}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _campaign(rng: random.Random, kind: str, nodes: int, sizes) -> dict:
    return {"kind": kind, "seed": rng.randrange(2**62),
            "sizes": [rng.randint(*sizes) for _ in range(nodes)]}


def write_inputs(workload: str, seed: int, rnd: int, dirpath: Path) -> None:
    """Write one round's inputs of `workload` into `dirpath`."""
    dirpath.mkdir(parents=True, exist_ok=True)
    run_seed = round_seed(seed, rnd)
    rng = random.Random(run_seed)
    if workload == "analysis":
        (dirpath / "readme.cfg").write_text(_profiles_text(run_seed) + _ANALYSIS_SECTIONS)
        (dirpath / "csv.cfg").write_text(_profiles_text(run_seed, csv=True) + _ANALYSIS_SECTIONS)
        for name, g in G.items():
            _write_csv_profile(dirpath / f"profile_{name}.csv", g)
    elif workload == "growth-verify":
        (dirpath / "grow.cfg").write_text(_grow_text(run_seed, GROW_POOL))
        (dirpath / "profiles.cfg").write_text(_profiles_text(run_seed))
        campaigns = [_campaign(rng, kind, JOIN_NODES, JOIN_SIZES) for kind in JOIN_KINDS]
        (dirpath / "campaigns.json").write_text(json.dumps(campaigns))
        (dirpath / "verify.cfg").write_text(_profiles_text(run_seed) + "\n[verify]\ncases = 2000\n")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def config_files(workload: str) -> tuple[str, ...]:
    """The experiment files a workload parses during set-up."""
    return {"analysis": ("readme.cfg", "csv.cfg"),
            "growth-verify": ("grow.cfg", "profiles.cfg", "verify.cfg")}[workload]


def set_up(workload: str, in_dir: Path) -> None:
    """What a user pays before the first operation: parse the inputs."""
    from tglab import cli
    for name in config_files(workload):
        cli.parse_config(in_dir / name)
    if workload == "growth-verify":
        json.loads((in_dir / "campaigns.json").read_text())


# ---------------------------------------------------------------------------
# Operations.  Each returns a record: label, start and seconds (on the
# perf_counter clock), code and error, plus
# the RunStats counters of growth operations.  `check_round` runs apart
# from the operations, so that a traced run records no check work.
# ---------------------------------------------------------------------------

def _run_cli(command: str, cfg_path: Path, out_dir: Path, label: str, capture=False) -> dict:
    from tglab import cli
    from tglab.errors import ConfigError, TglabError, VerificationError

    cfg = cli.parse_config(cfg_path)
    captured = {}
    if capture:
        # keep the RunStats that `grow` computes but only summarises in CSV
        original = cli.run_pipeline

        def run_pipeline(strategy):
            result = original(strategy)
            captured["stats"] = result[1]
            return result
        cli.run_pipeline = run_pipeline
    code, error = 0, None
    t0 = time.perf_counter()
    try:
        cli.run_command(command, cfg, out_dir)
    except ConfigError as exc:
        code, error = 1, f"config error: {exc}"
    except VerificationError as exc:
        code, error = 3, f"verification failure: {exc}"
    except TglabError as exc:
        code, error = 2, f"numeric failure: {type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - t0
        if capture:
            cli.run_pipeline = original
    record = {"op": command, "label": label, "start": t0, "seconds": seconds, "code": code,
              "error": error, "out": str(out_dir)}
    if "stats" in captured:
        record["stats"] = _stats_dict(captured["stats"])
        record["final_sizes"] = list(captured["stats"].final_sizes)
    return record


def _stats_dict(stats) -> dict:
    return {"dh_attempts": stats.dh_attempts, "join_dh_attempts": stats.join_dh_attempts,
            "realignments_attempted": stats.realignments_attempted,
            "merges": stats.merges, "bridges": stats.bridges, "rounds": len(stats.rounds),
            "qubits_drawn": stats.qubits_drawn, "qubits_consumed": stats.qubits_consumed}


def _run_campaign(campaign: dict, profiles: dict, out_file: Path, label: str) -> dict:
    from tglab import growth
    from tglab.tilted_graph import QUARTER_PI

    names = sorted(profiles)
    pieces, cavities, nid = [], {}, 0
    for size in campaign["sizes"]:
        members = []
        for k in range(size):
            cav = f"c{nid:05d}"
            cavities[cav] = profiles[names[k % len(names)]]
            members.append(cav)
            nid += 1
        pieces.append(growth.GhzPiece(size, QUARTER_PI, tuple(members)))
    cfg = growth.StrategyConfig(profiles=cavities, seed=campaign["seed"],
                                join_nodes=len(pieces), join_kind=campaign["kind"])
    stats = growth.RunStats()
    code, error, graph = 0, None, None
    t0 = time.perf_counter()
    try:
        graph, _, _ = growth.run_join(pieces, cfg, stats)
    except growth.InventoryExhausted as exc:
        code, error = 2, f"numeric failure: InventoryExhausted: {exc}"
    seconds = time.perf_counter() - t0
    record = {"op": "join", "label": label, "start": t0, "seconds": seconds, "code": code,
              "error": error, "stats": _stats_dict(stats), "nodes": len(pieces), "graph": graph}
    body = [f"{k} = {v}" for k, v in record["stats"].items()]
    body.append(graph.to_text() if graph is not None else error)
    out_file.parent.mkdir(parents=True, exist_ok=True)
    out_file.write_text("\n".join(body) + "\n", encoding="utf-8")
    return record


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


def _check_compare(out_dir: Path) -> str | None:
    rows = _read_csv(out_dir / "compare.csv")
    head = rows[0]
    for row in rows[1:]:
        values = dict(zip(head[2:], map(float, row[2:])))
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values.values()):
            return f"{row[0]}: probabilities outside [0, 1]: {values}"
        if abs(values["p_total"] - values["p_postselect"] - values["p_outside_window"]) > 1e-12:
            return f"{row[0]}: p_total != p_postselect + p_outside_window"
        if row[0] == "3f2":
            for key, (centre, half) in WINDOWS.items():
                if abs(values[key] - centre) > half:
                    return f"3f2 {key} = {values[key]:.6f} outside {centre} +- {half}"
    return None


def _check_hist(out_dir: Path) -> str | None:
    masses = [float(r[2]) for r in _read_csv(out_dir / "fidelity_hist.csv")[1:]]
    if len(masses) != 200 or min(masses) < 0.0:
        return f"{len(masses)} bins, smallest mass {min(masses)}"
    if abs(sum(masses) - 0.5) > 1e-6:
        return f"histogram mass {sum(masses):.9f} != Theta_1 + Theta_2 = 0.5"
    return None


_DIAGONAL: dict = {}


def _check_surface(out_dir: Path, diagonal: bool) -> str | None:
    rows = [tuple(map(float, r)) for r in _read_csv(out_dir / "efsq_surface.csv")[1:]]
    if len(rows) != 21 * 21:
        return f"{len(rows)} surface points, expected 441"
    bad = [r for r in rows if not (math.isfinite(r[2]) and 0.0 <= r[2] <= 0.25)]
    if bad:
        return f"E(F^2) outside [0, 1/4] at {bad[0]}"
    if diagonal:
        from tglab.leakage import CriticallyDamped
        from tglab.metrics import efsq_first_order

        pa, pb = CriticallyDamped(G["A"]), CriticallyDamped(G["B"])
        for sa, sb, value in rows:
            if sa != sb:
                continue
            if sa not in _DIAGONAL:
                theta = math.asin(math.sqrt(sa))
                _DIAGONAL[sa] = efsq_first_order(theta, theta, pa, pb).value
            if abs(value - _DIAGONAL[sa]) > 1e-6:
                return f"diagonal E(F^2)({sa}) = {value} but efsq_first_order = {_DIAGONAL[sa]}"
    return None


def _check_verify(out_dir: Path) -> str | None:
    worst = max(float(r[1]) for r in _read_csv(out_dir / "verify.csv")[1:])
    return None if worst < 1e-9 else f"max oracle discrepancy {worst:.3e} >= 1e-9"


def _check_grow(record: dict) -> str | None:
    stats = record.get("stats")
    if stats is None:
        return "grow returned no statistics"
    left = stats["qubits_drawn"] - stats["qubits_consumed"]
    if left != sum(record["final_sizes"]):
        return (f"qubits_drawn - qubits_consumed = {left} != sum of final sizes "
                f"{sum(record['final_sizes'])}")
    return None


def _check_join(record: dict) -> str | None:
    graph, nodes = record["graph"], record["nodes"]
    # every completed join connects two of the initially disjoint pieces
    joins = nodes - len(graph.components())
    return None if joins == nodes - 1 else f"{joins} joins in a finished {nodes}-node campaign"


def check(record: dict) -> str | None:
    """Why a successful operation's outputs are wrong, or None when they are right."""
    out = Path(record["out"]) if "out" in record else None
    op = record["op"]
    if op == "compare":
        return _check_compare(out)
    if op == "fidelity-hist":
        return _check_hist(out)
    if op == "efsq-surface":
        return _check_surface(out, diagonal=record["label"].startswith("readme"))
    if op == "grow":
        return _check_grow(record)
    if op == "join":
        return _check_join(record)
    if op == "verify":
        return _check_verify(out)
    raise ValueError(f"no check for operation {op!r}")


def check_round(records: list[dict]) -> None:
    """Fill each record's `check`: None when its outputs passed, else the reason."""
    for record in records:
        record["check"] = check(record) if record["code"] == 0 else None
        record.pop("graph", None)


def _analysis_ops(in_dir: Path, out_dir: Path, pair: str, commands) -> list[dict]:
    return [_run_cli(command, in_dir / f"{pair}.cfg", out_dir / pair, f"{pair}:{command}")
            for command in commands]


def _join_ops(in_dir: Path, out_dir: Path) -> list[dict]:
    from tglab import cli

    profiles = cli.parse_config(in_dir / "profiles.cfg").profiles
    campaigns = json.loads((in_dir / "campaigns.json").read_text())
    return [_run_campaign(c, profiles, out_dir / f"campaign_{i}.txt", f"{c['kind']}-{i}")
            for i, c in enumerate(campaigns)]


def run_round(workload: str, in_dir: Path, out_dir: Path) -> list[dict]:
    """Run one round of a workload's timed operations; one record per operation."""
    if workload == "analysis":
        return (_analysis_ops(in_dir, out_dir, "readme",
                              ("compare", "fidelity-hist", "efsq-surface"))
                + _analysis_ops(in_dir, out_dir, "csv", ("compare", "fidelity-hist")))
    if workload == "growth-verify":
        return ([_run_cli("grow", in_dir / "grow.cfg", out_dir, "grow", capture=True)]
                + _join_ops(in_dir, out_dir)
                + [_run_cli("verify", in_dir / "verify.cfg", out_dir, "verify")])
    raise ValueError(f"unknown workload {workload!r}")

