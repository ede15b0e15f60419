"""Per-layer instrumentation of the tglab package, applied from outside.

`install` wraps every public function of every tglab module in a span
named `<module>.<function>`, at every module attribute bound to it (so
functions that callers import by name, such as `growth.sample_dh` or
`verify.build_state`, are traced too), plus the profile and graph methods
listed in METHODS.  `layer_metrics` reduces the recorded spans to the
per-layer metrics, named `<module>.<function>.<stat>` and `<module>.self_s`.
"""

from __future__ import annotations

import importlib
import inspect
import tracemalloc

from tracer import Tracer, calls_under, percentile, span_stats

MODULES = ("cli", "seeding", "leakage", "heralding", "tilted_graph", "procedures",
           "metrics", "oracle", "growth", "verify")

# Hot methods that carry layer work; the copy-on-write graph edits share
# one span name so their cost reads as a single "rewrite" layer figure.
_REWRITES = ("with_vertex", "map_vertex", "without_vertices", "with_edge", "without_edge")
METHODS = {
    "leakage": {"LeakageProfile": ("sample", "cdf", "inverse_cdf"),
                "CriticallyDamped": ("density",), "Tabulated": ("density",)},
    "tilted_graph": {"TiltedGraph": ("neighbors", "components", "component_of", "degree")
                     + _REWRITES},
}


def _points(key):
    def observe(tracer, args, result):
        tracer.count(key, getattr(args[1], "size", 1))
    return observe


def _successes(key, pick):
    def observe(tracer, args, result):
        tracer.count(key, int(bool(pick(result))))
    return observe


def _max_of(key, pick):
    def observe(tracer, args, result):
        tracer.record_max(key, pick(args, result))
    return observe


OBSERVERS = {
    "leakage.density": _points("leakage.density.points"),
    "leakage.inverse_cdf": _points("leakage.inverse_cdf.points"),
    "heralding.sample_dh": _successes("heralding.sample_dh.successes", lambda r: r.success),
    "procedures.realign": _successes("procedures.realign.successes", lambda r: r[0].success),
    "procedures.merge": _successes("procedures.merge.successes", lambda r: r[0].success),
    "procedures.bridge": _successes("procedures.bridge.successes", lambda r: r[0].success),
    "oracle.build_state": _max_of("oracle.build_state.max_qubits", lambda a, r: r.qubit_count),
    "tilted_graph.component_of": _max_of("tilted_graph.max_vertices",
                                         lambda a, r: a[0].vertex_count),
}

ALLOC_TRACED = ("metrics.compare_strategies", "metrics.fidelity_histogram")

# Counters and maxima, reported as 0 when their layer did no work.
OBSERVED_UNITS = {"leakage.density.points": "count", "leakage.inverse_cdf.points": "count",
                  "oracle.build_state.max_qubits": "count", "tilted_graph.max_vertices": "count",
                  "metrics.compare_strategies.peak_alloc_mb": "MB",
                  "metrics.fidelity_histogram.peak_alloc_mb": "MB"}


def _with_peak_alloc(tracer: Tracer, key: str, fn):
    """Run `fn` under tracemalloc and keep the peak traced allocation in MB."""
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.record_max(key, tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
    return measured


def install(tracer: Tracer) -> None:
    """Wrap the tglab layers; `tracer.uninstall()` restores them."""
    mods = {name: importlib.import_module(f"tglab.{name}") for name in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for fn in list(vars(mod).values()):
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not fn.__name__.startswith("_")):
                name = f"{short}.{fn.__name__}"
                inner = (_with_peak_alloc(tracer, f"{name}.peak_alloc_mb", fn)
                         if name in ALLOC_TRACED else fn)
                wrapped[fn] = tracer.wrap(name, inner, OBSERVERS.get(name))
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                tracer.patch(mod, attr, wrapped[value])
    for short, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(mods[short], cls_name)
            for meth in methods:
                label = "rewrite" if meth in _REWRITES else meth
                name = f"{short}.{label}"
                tracer.patch(cls, meth, tracer.wrap(name, cls.__dict__[meth],
                                                    OBSERVERS.get(name)))


# Units of the per-span statistics reported below.
_STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us",
               "p50_ms": "ms", "p99_ms": "ms", "success_ratio": "ratio"}


def layer_metrics(tracer: Tracer, stats: dict, campaigns_exhausted: int,
                  overhead_frac: float) -> dict:
    """{metric name: (value, unit)} for every span and layer counter.

    `stats` holds the summed RunStats counters of the traced work.
    """
    per_span = span_stats(tracer)
    out = {}
    for name, entry in per_span.items():
        d = entry["durations"]
        calls = entry["calls"]
        values = {"calls": calls, "s": entry["s"], "self_s": entry["self_s"],
                  "p50_us": percentile(d, 0.5) * 1e6, "p99_us": percentile(d, 0.99) * 1e6,
                  "p50_ms": percentile(d, 0.5) * 1e3, "p99_ms": percentile(d, 0.99) * 1e3,
                  "success_ratio": (tracer.counters.get(f"{name}.successes", 0) / calls
                                    if calls else 0.0)}
        for stat, value in values.items():
            out[f"{name}.{stat}"] = (value, _STAT_UNITS[stat])
    for module in MODULES:
        total = sum(e["self_s"] for n, e in per_span.items() if n.startswith(module + "."))
        out[f"{module}.self_s"] = (total, "s")
    observed = tracer.counters | tracer.maxima
    for key, unit in OBSERVED_UNITS.items():
        out[key] = (observed.get(key, 0), unit)

    def inclusive(name):
        return per_span.get(name, {}).get("s", 0.0)

    dh, join_dh = stats["dh_attempts"], stats["join_dh_attempts"]
    out["growth.us_per_dh_attempt"] = (
        inclusive("growth.run_phase1") / dh * 1e6 if dh else 0.0, "us")
    out["growth.ms_per_join_attempt"] = (
        inclusive("growth.run_join") / join_dh * 1e3 if join_dh else 0.0, "ms")
    for key in ("rounds", "dh_attempts", "join_dh_attempts"):
        out[f"growth.{key}"] = (stats[key], "count")
    out["growth.campaigns_exhausted"] = (campaigns_exhausted, "count")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    out["trace.spans"] = (len(tracer.start), "count")
    return out


def reconcile(tracer: Tracer, stats: dict) -> list[str]:
    """Mismatches between calls the growth engine made and its RunStats."""
    under = calls_under(tracer, "growth.")
    # the phase-boundary loop (realign_piece) draws realignment outcomes
    # itself, one p_success call per attempt, instead of calling realign
    boundary = calls_under(tracer, "growth.realign_piece").get("procedures.p_success", 0)
    checks = {
        "heralding.sample_dh calls": (under.get("heralding.sample_dh", 0),
                                      stats["dh_attempts"] + stats["join_dh_attempts"],
                                      "dh_attempts + join_dh_attempts"),
        "procedures.realign calls + realign_piece attempts": (
            under.get("procedures.realign", 0) + boundary, stats["realignments_attempted"],
            "realignments_attempted"),
        "procedures.merge calls": (under.get("procedures.merge", 0), stats["merges"], "merges"),
        "procedures.bridge calls": (under.get("procedures.bridge", 0), stats["bridges"],
                                    "bridges"),
    }
    return [f"{what} under growth = {got}, RunStats {field} = {want}"
            for what, (got, want, field) in checks.items() if got != want]
