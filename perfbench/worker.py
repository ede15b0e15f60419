"""One fresh benchmark process: set-up, then a workload's rounds.

Run by `run.py`; results go to the JSON file named by --result, because the
package's commands print to standard output.  Modes:

* `--setup-only`: time `import tglab` plus parsing of the round-0 inputs.
* untraced (`--trace 0`): rounds of the workload until the run is as close
  to --seconds as whole rounds allow (always at least one), each checked
  after it ran.
  A `speed.Sampler` runs meanwhile, and each operation's time is also
  given rescaled to the reference speed (`scaled_s`).
* traced (`--trace 1`): round 0 untraced, then round 0 again with every
  tglab layer wrapped in spans; the two runs' output files must match byte
  for byte, and the spans must reconcile with the growth engine's RunStats.

Every mode reports its set-up time rescaled by a reference chunk time
measured right after set-up (`speed.reference_s`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed
import workloads


def _inputs(work: Path, rnd: int) -> Path:
    return work / "in" / f"r{rnd:03d}"


def _outputs(work: Path, rnd: int, tag: str = "") -> Path:
    return work / "out" / f"r{rnd:03d}{tag}"


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _summed_stats(records) -> dict:
    keys = ("dh_attempts", "join_dh_attempts", "realignments_attempted", "merges",
            "bridges", "rounds")
    return {k: sum(r.get("stats", {}).get(k, 0) for r in records) for k in keys}


def _metadata() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}}


def _traced(args, work: Path, untraced: list) -> dict:
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = workloads.run_round(args.workload, _inputs(work, 0), _outputs(work, 0, "-traced"))
    finally:
        tracer.uninstall()
    workloads.check_round(traced)
    plain_s = sum(r["seconds"] for r in untraced)
    traced_s = sum(r["seconds"] for r in traced)
    stats = _summed_stats(traced)
    exhausted = sum(r["code"] != 0 for r in traced if r["op"] == "join")
    same = _tree(_outputs(work, 0)) == _tree(_outputs(work, 0, "-traced"))
    return {"records": traced, "identical_outputs": same,
            "mismatches": layers.reconcile(tracer, stats),
            "stats": stats,
            "metrics": layers.layer_metrics(tracer, stats, exhausted, traced_s / plain_s - 1.0)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    work = Path(args.work)

    t0 = time.perf_counter()
    sys.path.insert(0, args.src)
    import tglab.cli  # noqa: F401  (set-up cost: the package and numpy)
    workloads.set_up(args.workload, _inputs(work, 0))
    setup_s = time.perf_counter() - t0
    chunk_s = speed.reference_s()
    src = Path(args.src).resolve()
    if src not in Path(tglab.__file__).resolve().parents:
        raise SystemExit(f"imported tglab from {tglab.__file__}, not from {src}")
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s * speed.NOMINAL_S / chunk_s}
    if not args.setup_only:
        rounds = []
        sampler = speed.Sampler()
        if not args.trace:
            sampler.start()
        start = time.perf_counter()
        for rnd in range(1000):
            if rnd:
                workloads.write_inputs(args.workload, args.seed, rnd, _inputs(work, rnd))
            records = workloads.run_round(args.workload, _inputs(work, rnd), _outputs(work, rnd))
            workloads.check_round(records)
            rounds.append(records)
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + elapsed / (rnd + 1) / 2 > args.seconds:
                break       # another round, at the mean round time, would end further from --seconds
        if not args.trace:
            sampler.stop()
            for record in (r for records in rounds for r in records):
                record["scaled_s"] = sampler.scaled(record["start"], record["seconds"])
            result["chunk_ms"] = sampler.chunk_s() * 1e3
        result["rounds"] = rounds
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["meta"] = _metadata()
        if args.trace:
            result["traced"] = _traced(args, work, rounds[0])
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
