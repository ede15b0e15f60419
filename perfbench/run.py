"""tglab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from `./src`, and
the metric names and units come from `./BENCHMARK.json`.  Every measured
process is a fresh `worker.py`; inputs and outputs live under
`.perfbench_work/` and are removed at the end.  The last line of standard
output is the result: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  See perfbench/README.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
TIME_LIMIT_S = 170.0
SETUP_PROCESSES = 4          # set-up-only processes besides the main worker


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its result."""
    result_file = Path(args[args.index("--result") + 1])
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before all processes ran")
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args],
                              stdout=sys.stderr, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(result_file.read_text())


# Growth operations and the RunStats counter whose rate the summary prints.
_RATES = {"grow": "dh_attempts", "join": "join_dh_attempts"}


def _op_summary(rounds: list[list[dict]]) -> list[str]:
    """Readable per-operation figures: mean seconds per round, attempt rates."""
    seconds: dict[str, float] = {}
    rates: dict[str, list] = {}
    for r in (r for records in rounds for r in records):
        seconds[r["label"]] = seconds.get(r["label"], 0.0) + r["seconds"]
        if r["op"] in _RATES:
            totals = rates.setdefault(_RATES[r["op"]], [0, 0.0])
            totals[0] += r["stats"][_RATES[r["op"]]]
            totals[1] += r["seconds"]
    lines = ["  mean seconds per round: " + " ".join(
        f"{label}={s / len(rounds):.4g}" for label, s in seconds.items())]
    lines += [f"  {counter} per second = {n / s:.6g}" for counter, (n, s) in rates.items()]
    return lines


def _failures(records: list[dict]) -> list[dict]:
    return [r for r in records if r["code"] != 0 or r["check"] is not None]


def _describe_failures(title: str, records: list[dict]) -> list[str]:
    seen: dict[tuple, int] = {}
    for r in _failures(records):
        reason = r["error"] if r["code"] != 0 else f"output check failed: {r['check']}"
        seen[(r["label"], reason)] = seen.get((r["label"], reason), 0) + 1
    return [f"  {title} {label} failed {n}x: {reason}" for (label, reason), n in seen.items()]


def _select(spec: list[dict], computed: dict) -> dict:
    """The metrics named in BENCHMARK.json, in its units."""
    out = {}
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        if name not in computed:
            raise BenchError(f"metric {name} was not measured")
        value, got_unit = computed[name]
        if got_unit != unit:
            raise BenchError(f"metric {name} is in {got_unit}, BENCHMARK.json says {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def _run_meta(root: Path) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src" / "tglab").glob("*.py")))
    return {"commit": commit, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def _traced_metrics(spec: dict, traced: dict, lines: list[str]) -> tuple[dict, bool]:
    correct = all(r["check"] is None for r in traced["records"])
    if not traced["identical_outputs"]:
        correct = False
        lines.append("  traced outputs differ from the untraced outputs of the same inputs")
    for mismatch in traced["mismatches"]:
        correct = False
        lines.append(f"  trace does not reconcile: {mismatch}")
    stats = traced["stats"]
    lines.append(f"  RunStats reconciliation: {'ok' if not traced['mismatches'] else 'FAILED'} "
                 f"(sample_dh {stats['dh_attempts'] + stats['join_dh_attempts']}, "
                 f"realignments {stats['realignments_attempted']}, "
                 f"merges {stats['merges']}, bridges {stats['bridges']})")
    return _select(spec["per_layer"], traced["metrics"]), correct


def _end_to_end_metrics(spec: dict, main: dict, setup_times: list[float]) -> dict:
    computed = {"wall_s": (sum(r["scaled_s"] for rnd in main["rounds"] for r in rnd)
                           / len(main["rounds"]), "s"),
                "setup_s": (statistics.median(setup_times + [main["setup_scaled_s"]]), "s"),
                "peak_rss_mb": (main["peak_rss_mb"], "MB")}
    return _select(spec["end_to_end"], computed)


def run(args, root: Path, work: Path) -> tuple[dict, list[str]]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_LIMIT_S
    workloads.write_inputs(args.workload, args.seed, 0, work / "in" / "r000")
    workload = ["--workload", args.workload, "--seed", str(args.seed),
                "--src", str(root / "src"), "--work", str(work)]
    setup_times = []
    if not args.trace:
        for k in range(SETUP_PROCESSES):
            res = _worker(workload + ["--setup-only", "--result", str(work / f"setup{k}.json")],
                          deadline)
            setup_times.append(res["setup_scaled_s"])
    main = _worker(workload + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--result", str(work / "main.json")], deadline)
    records = [r for rnd in main["rounds"] for r in rnd]
    failed = _failures(records)
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
             f"{len(main['rounds'])} rounds, {len(records)} operations, {len(failed)} failed "
             f"(failed_frac {len(failed) / len(records):.4f})"]
    lines += _describe_failures("operation", records)
    lines.append("  raw seconds per round: " + " ".join(
        f"{sum(r['seconds'] for r in rnd):.4g}" for rnd in main["rounds"]))
    if not args.trace:
        lines.append(f"  reference chunk {main['chunk_ms']:.4f} ms "
                     f"(nominal {speed.NOMINAL_S * 1e3:g} ms); scaled seconds per round: "
                     + " ".join(f"{sum(r['scaled_s'] for r in rnd):.4g}"
                                for rnd in main["rounds"]))
    lines += _op_summary(main["rounds"])
    extra_ok = True
    if args.trace:
        metrics, extra_ok = _traced_metrics(spec, main["traced"], lines)
    else:
        metrics = _end_to_end_metrics(spec, main, setup_times)
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    lines.append("meta " + json.dumps(_run_meta(root) | main["meta"]))
    correct = extra_ok and all(r["check"] is None for r in records)
    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    root = Path.cwd()
    for needed in (root / "src" / "tglab" / "__init__.py", root / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from the root of a tglab checkout",
                  file=sys.stderr)
            return 2
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, lines = run(args, root, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
