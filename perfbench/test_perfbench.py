"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py

The quick runs start the benchmark itself for one round of each workload
(about two minutes in all).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer, calls_under, self_times, span_stats  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] holds a [1, 3] and b [2, 5] (overlapping), and c [7, 12]
    # (clipped at 10); a holds a1 [1.5, 2.5], which must not count for root.
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 1.5, 2.0, 7.0]
    end = [10.0, 3.0, 2.5, 5.0, 12.0]
    assert list(self_times(parent, start, end)) == pytest.approx([3.0, 1.0, 1.0, 3.0, 5.0])


def test_tracer_records_nesting_and_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    stats = span_stats(tracer)
    assert stats["m.outer"]["calls"] == 1 and stats["m.inner"]["calls"] == 2
    assert stats["m.outer"]["s"] == 5.0 and stats["m.outer"]["self_s"] == 3.0
    assert calls_under(tracer, "m.outer") == {"m.inner": 2}


def test_metric_and_workload_names():
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry


def test_trace_reconciles_with_runstats_on_a_small_campaign():
    from tglab.growth import StrategyConfig, run_pipeline
    from tglab.leakage import CriticallyDamped

    pa, pb = CriticallyDamped(10.0), CriticallyDamped(12.5)
    profiles = {f"a{i}": pa for i in range(12)} | {f"b{i}": pb for i in range(12)}
    cfg = StrategyConfig(profiles=profiles, seed=7, target_ghz_size=6, join_nodes=2)
    tracer = Tracer()
    layers.install(tracer)
    try:
        import tglab.growth
        _, stats, _ = tglab.growth.run_pipeline(cfg)
    finally:
        tracer.uninstall()
    assert run_pipeline is tglab.growth.run_pipeline    # originals restored
    summed = {"dh_attempts": stats.dh_attempts, "join_dh_attempts": stats.join_dh_attempts,
              "realignments_attempted": stats.realignments_attempted,
              "merges": stats.merges, "bridges": stats.bridges}
    assert layers.reconcile(tracer, summed) == []
    assert span_stats(tracer)["heralding.sample_dh"]["calls"] == \
        stats.dh_attempts + stats.join_dh_attempts > 0


def _bench(cwd: Path, trace: int, workload: str = "growth-verify") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_prints_every_named_metric(trace, section):
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [e["name"] for e in SPEC[section]]
    for entry in SPEC[section]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0 and proc.stdout == ""


def test_scaled_time_removes_chunks_and_rescales():
    sampler = speed.Sampler()
    # inside [10, 11): three chunks of each kind, 2 ms and 8 ms (geometric mean 4 ms)
    sampler.samples[0].extend([(10.1, 0.002), (10.3, 0.002), (10.5, 0.002), (20.0, 0.003)])
    sampler.samples[1].extend([(10.2, 0.008), (10.4, 0.008), (10.6, 0.008), (20.1, 0.012)])
    assert sampler.scaled(10.0, 1.0) == pytest.approx((1.0 - 0.03) * speed.NOMINAL_S / 0.004)
    # too few samples inside: the whole run's chunk time (also 4 ms) is used
    assert sampler.scaled(19.9, 0.5) == pytest.approx((0.5 - 0.015) * speed.NOMINAL_S / 0.004)
