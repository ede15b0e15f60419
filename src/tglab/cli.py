"""Command-line front end: `tglab <command> --config <path> [--seed N] [--out DIR]`.

Commands
--------
calibrate     tabulate every configured profile density to CSV
efsq-surface  E(F^2) over a (sin^2 theta_a, sin^2 theta_b) grid
fidelity-hist the first-attempt fidelity distribution (histogram CSV)
compare       post-selection vs adaptive strategy report (3f2/exact modes)
grow          run the growth pipeline, emit per-round statistics
verify        run the oracle cross-check suite, report the max discrepancy

Configuration is a sectioned key=value plain-text file; one experiment per
file.  `[profile NAME]` sections declare leakage profiles
(kind = critically_damped with g = ..., or kind = csv with path = ...);
`[run]` holds the mandatory seed plus the optional detection efficiency;
each command reads its own section.  An unknown section or key, a key of the
other profile kind, a value outside its set or range, a non-finite number, or
a count below its minimum is a configuration error.  All randomness derives from the
single seed, so identical config and seed give byte-identical outputs.

Exit codes: 0 success, 1 configuration error, 2 numeric failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, TglabError, VerificationError
from .growth import JOIN_KINDS, JOIN_METHODS, PAIRINGS, StrategyConfig, run_pipeline
from .leakage import CriticallyDamped, LeakageProfile, load_profile_csv
from .metrics import MODES, compare_strategies, expected_f_sq, fidelity_histogram
from .tilted_graph import QUARTER_PI


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    profiles: dict              # name -> LeakageProfile
    sections: dict              # section -> {key: (value, line)}
    seed: int
    efficiency: float


def _parse_sections(text: str) -> dict:
    sections: dict = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError("empty section name", ln)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", ln)
            kind = "profile NAME" if name.startswith("profile ") else name
            if kind not in SECTIONS:
                raise ConfigError(f"unknown section [{name}]", ln)
            sections[name] = {}
            current, known = name, SECTIONS[kind][1]
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", ln)
        if current is None:
            raise ConfigError("key outside of any section", ln)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", ln)
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in [{current}]", ln)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", ln)
        sections[current][key] = (value, ln)
    return sections


def _take(section: dict, key: str, kind, default=None, required=False, section_name="",
          choices=(), at_least=None, positive=False, within=None):
    if key not in section:
        if required:
            lines = [ln for _, ln in section.values()]
            raise ConfigError(f"[{section_name}] is missing required key {key!r}",
                              min(lines) if lines else None)
        return default
    value, ln = section[key]
    try:
        if kind is bool:
            if value.lower() in ("on", "true", "yes", "1"):
                return True
            if value.lower() in ("off", "false", "no", "0"):
                return False
            raise ValueError(value)
        parsed = kind(value)
    except (ValueError, TypeError):
        raise ConfigError(f"cannot parse {key} = {value!r} as {kind.__name__}", ln) from None
    if kind is float and not math.isfinite(parsed):
        raise ConfigError(f"{key} must be finite, got {value!r}", ln)
    if positive and parsed <= 0:
        raise ConfigError(f"{key} must be positive, got {value!r}", ln)
    if choices and parsed not in choices:
        raise ConfigError(f"{key} = {value!r} is not one of {', '.join(choices)}", ln)
    if at_least is not None and parsed < at_least:
        raise ConfigError(f"{key} must be at least {at_least}, got {value!r}", ln)
    if within is not None and not within[0] < parsed <= within[1]:
        raise ConfigError(f"{key} must lie in ({within[0]:g}, {within[1]:g}], got {value!r}", ln)
    return parsed


def _build_profile(name: str, section: dict, config_dir: Path) -> LeakageProfile:
    where = f"profile {name}"
    kind = _take(section, "kind", str, required=True, section_name=where,
                 choices=("critically_damped", "csv"))
    other = "path" if kind == "critically_damped" else "g"
    if other in section:
        raise ConfigError(f"a {kind} profile takes no {other}", section[other][1])
    if kind == "critically_damped":
        return CriticallyDamped(_take(section, "g", float, required=True, section_name=where,
                                      positive=True))
    path = config_dir / _take(section, "path", str, required=True, section_name=where)
    try:
        return load_profile_csv(path)
    except FileNotFoundError:
        raise ConfigError(f"profile file {path} does not exist", section["path"][1]) from None
    except OSError as exc:
        raise ConfigError(f"profile file {path}: {exc.strerror}", section["path"][1]) from None


def parse_config(path) -> ExperimentConfig:
    """Parse and validate an experiment file; errors carry line numbers."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    sections = _parse_sections(text)
    profiles = {}
    for name, content in sections.items():
        if name.startswith("profile "):
            pid = name.split(None, 1)[1]
            profiles[pid] = _build_profile(pid, content, path.parent)
    run = sections.get("run", {})
    if "seed" not in run:
        raise ConfigError("a [run] section with an explicit seed is mandatory "
                          "(determinism contract)")
    seed = _take(run, "seed", int, required=True, section_name="run", at_least=0)
    efficiency = _take(run, "efficiency", float, default=1.0, within=(0.0, 1.0))
    return ExperimentConfig(profiles, sections, seed, efficiency)


def _profile_ref(cfg: ExperimentConfig, section: dict, key: str, section_name: str):
    name = _take(section, key, str, required=True, section_name=section_name)
    if name not in cfg.profiles:
        _, ln = section[key]
        raise ConfigError(f"unknown profile {name!r} (declare [profile {name}])", ln)
    return cfg.profiles[name]


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _render(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(rows, path) -> Path:
    """Write rows (header first) as UTF-8 CSV, LF endings, 17-digit floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(_render(v) for v in row) + "\n")
    return path


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_calibrate(cfg: ExperimentConfig, section: dict, out_dir: Path, seed: int) -> list:
    points = _take(section, "points", int, default=2049, at_least=2)
    if not cfg.profiles:
        raise ConfigError("no [profile ...] sections to calibrate")

    def rows(profile):
        t = np.linspace(0.0, profile.t_max, points)
        return [("time", "density"), *zip(t, profile.density(t))]
    return [emit_csv(rows(cfg.profiles[name]), out_dir / f"calibrate_{name}.csv")
            for name in sorted(cfg.profiles)]


def _cmd_efsq_surface(cfg: ExperimentConfig, section: dict, out_dir: Path, seed: int) -> list:
    pa = _profile_ref(cfg, section, "profile_a", "efsq-surface")
    pb = _profile_ref(cfg, section, "profile_b", "efsq-surface")
    grid = _take(section, "grid", int, default=21, at_least=2)
    svals = np.linspace(0.02, 0.98, grid)
    sa, sb = np.meshgrid(svals, svals, indexing="ij")
    efsq = expected_f_sq(np.arcsin(np.sqrt(sa)), np.arcsin(np.sqrt(sb)), pa, pb).value
    rows = [("sin2_theta_a", "sin2_theta_b", "efsq")]
    rows += zip(sa.ravel(), sb.ravel(), efsq.ravel())
    return [emit_csv(rows, out_dir / "efsq_surface.csv")]


def _cmd_fidelity_hist(cfg: ExperimentConfig, section: dict, out_dir: Path, seed: int) -> list:
    pa = _profile_ref(cfg, section, "profile_a", "fidelity-hist")
    pb = _profile_ref(cfg, section, "profile_b", "fidelity-hist")
    bins = _take(section, "bins", int, default=200, at_least=10)
    theta_a = _take(section, "theta_a", float, default=QUARTER_PI)
    theta_b = _take(section, "theta_b", float, default=QUARTER_PI)
    hist = fidelity_histogram(theta_a, theta_b, pa, pb, bins=bins)
    rows = [("F_bin_lo", "F_bin_hi", "mass")]
    rows += [(lo, hi, m) for lo, hi, m in zip(hist.edges[:-1], hist.edges[1:], hist.masses)]
    return [emit_csv(rows, out_dir / "fidelity_hist.csv")]


def _cmd_compare(cfg: ExperimentConfig, section: dict, out_dir: Path, seed: int) -> list:
    pa = _profile_ref(cfg, section, "profile_a", "compare")
    pb = _profile_ref(cfg, section, "profile_b", "compare")
    epsilon = _take(section, "epsilon", float, default=1e-4, positive=True)
    modes = [m.strip() for m in _take(section, "modes", str, default="3f2,exact").split(",")]
    for k, mode in enumerate(modes):
        if mode not in MODES:
            raise ConfigError(f"modes: {mode!r} is not one of {', '.join(MODES)}",
                              section["modes"][1])
        if mode in modes[:k]:
            raise ConfigError(f"mode {mode!r} appears twice in modes", section["modes"][1])
    rows = [("mode", "epsilon", "p_postselect", "p_outside_window", "p_total",
             "p_outside_only")]
    reports = {rep.mode: rep for rep in compare_strategies(pa, pb, epsilon)}
    for rep in (reports[mode] for mode in modes):
        rows.append((rep.mode, rep.epsilon, rep.p_postselect, rep.p_outside_window,
                     rep.p_total, rep.p_outside_only))
        print(f"{rep.mode:>6s}: P(post-select) = {rep.p_postselect:.4f}   "
              f"P(out-window) = {rep.p_outside_window:.4f}   "
              f"P(total) = {rep.p_total:.4f}")
    return [emit_csv(rows, out_dir / "compare.csv")]


def _cmd_grow(cfg: ExperimentConfig, section: dict, out_dir: Path, seed: int) -> list:
    pool_spec = _take(section, "pool", str, required=True, section_name="grow")
    profiles, seen = {}, set()
    for item in pool_spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            name, count = item.split(":")
            count = int(count)
        except ValueError:
            raise ConfigError(f"grow pool entries look like NAME:COUNT, got {item!r}",
                              section["pool"][1]) from None
        if name not in cfg.profiles:
            raise ConfigError(f"unknown profile {name!r} in grow pool", section["pool"][1])
        if name in seen:
            raise ConfigError(f"profile {name!r} appears twice in grow pool", section["pool"][1])
        if count < 1:
            raise ConfigError(f"grow pool count of {name!r} must be at least 1, got {count}",
                              section["pool"][1])
        seen.add(name)
        # a pool name holds no ":", so the ids of two profiles never meet
        for k in range(count):
            profiles[f"{name}:{k:03d}"] = cfg.profiles[name]
    if not profiles:
        raise ConfigError("the cavity pool is empty", section["pool"][1])
    strategy = StrategyConfig(
        profiles=profiles,
        seed=seed,
        target_ghz_size=_take(section, "target_ghz_size", int, default=4, at_least=2),
        fidelity_acceptance=_take(section, "acceptance", float, default=1.0, within=(0.5, 1.0)),
        pairing=_take(section, "pairing", str, default="sorted", choices=PAIRINGS),
        flip_rule=_take(section, "flip_rule", bool, default=True),
        join_method=_take(section, "join_method", str, default="auto", choices=JOIN_METHODS),
        detection_efficiency=cfg.efficiency,
        join_nodes=_take(section, "join_nodes", int, default=0, at_least=0),
        join_kind=_take(section, "join_kind", str, default="bridge", choices=JOIN_KINDS),
        recycle_annotations=_take(section, "recycle", bool, default=True),
    )
    pieces, stats, graph = run_pipeline(strategy)
    artifacts = [emit_csv(stats.round_csv_rows(), out_dir / "grow_rounds.csv"),
                 emit_csv(stats.summary_csv_rows(), out_dir / "grow_summary.csv")]
    if graph is not None:
        target = out_dir / "grow_graph.txt"
        target.write_text(graph.to_text(), encoding="utf-8")
        artifacts.append(target)
    print(f"grow: {stats.dh_attempts} DH attempts, final pieces "
          f"{stats.final_sizes}, mean fidelity {stats.mean_final_fidelity:.6f}")
    return artifacts


def _cmd_verify(cfg: ExperimentConfig, section: dict, out_dir: Path, seed: int) -> list:
    from .verify import run_verification

    cases = _take(section, "cases", int, default=60, at_least=1)
    budget = _take(section, "tolerance", float, default=1e-9, positive=True)
    report = run_verification(seed=seed, cases=cases)
    rows = [("check", "max_discrepancy")]
    rows += [(name, value) for name, value in report.items()]
    artifact = emit_csv(rows, out_dir / "verify.csv")
    worst = max(report.values())
    print(f"verify: max oracle discrepancy {worst:.3e} over {len(report)} checks")
    if worst >= budget:
        raise VerificationError(
            f"max discrepancy {worst:.3e} exceeds the {budget:.1e} budget")
    return [artifact]


# Every section a config may hold: the command that reads it (None for the
# sections parse_config reads) and its keys.  "profile NAME" stands for each
# [profile NAME] section.  "nodes", the grid resolution of a retired mixed-pair
# path, is accepted and read by no command, so configs that still name it run.
SECTIONS = {
    "run": (None, ("seed", "efficiency")),
    "profile NAME": (None, ("kind", "g", "path")),
    "calibrate": (_cmd_calibrate, ("points",)),
    "efsq-surface": (_cmd_efsq_surface, ("profile_a", "profile_b", "grid")),
    "fidelity-hist": (_cmd_fidelity_hist,
                      ("profile_a", "profile_b", "bins", "nodes", "theta_a", "theta_b")),
    "compare": (_cmd_compare, ("profile_a", "profile_b", "epsilon", "nodes", "modes")),
    "grow": (_cmd_grow, ("pool", "target_ghz_size", "acceptance", "pairing", "flip_rule",
                         "join_method", "join_nodes", "join_kind", "recycle")),
    "verify": (_cmd_verify, ("cases", "tolerance")),
}
COMMANDS = tuple(name for name, (handler, _) in SECTIONS.items() if handler)


def run_command(command: str, cfg: ExperimentConfig, out_dir, seed: int | None = None) -> list:
    """Dispatch one subcommand; returns the artifact paths."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; pick one of {', '.join(COMMANDS)}")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed}")
    handler = SECTIONS[command][0]
    return handler(cfg, cfg.sections.get(command, {}), Path(out_dir),
                   cfg.seed if seed is None else seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tglab",
        description="Graph-state growth under double heralding with mismatched "
                    "photon-leakage rates")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override [run] seed")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--version", action="version", version=f"tglab {__version__}")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        artifacts = run_command(args.command, cfg, args.out, args.seed)
    except (ConfigError, OSError) as exc:   # parse_config wraps its reads: an OSError is --out
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except TglabError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    for artifact in artifacts:
        print(f"wrote {artifact}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
