"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload adhoc_sql --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/`` of
the same checkout.  The run repeats the workload's unit of work (at
least twice) until another repetition would take it past ``--seconds``
of measured time, checks every repetition's outputs and that its
virtual-time results equal the first repetition's, and prints one line
per metric followed, as the last line, by a JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the JSON metrics are the end-to-end ones, measured
untraced.  With ``--trace 1`` untraced and traced repetitions alternate;
the JSON metrics are the per-layer ones (the end-to-end ones of the
untraced repetitions are still printed above it), and the spans are
written to ``.perfbench/``.  Exit status: 0 when every check passed, 1 when an
output or exactness check failed, 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import stats  # noqa: E402  (needs the path above)

#: Untraced repetitions per run, at least (the exactness twin).
MIN_REPS = 2

#: Metric name -> (unit, better).  The JSON line of an untraced run holds
#: the end-to-end ones, that of a traced run the per-layer ones;
#: ``BENCHMARK.json`` lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "virtual_makespan_s": ("s", "lower"),
    "virtual_latency_p50_s": ("s", "lower"),
    "virtual_latency_tail_s": ("s", "lower"),
    "goodput_qps": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
#: Wall-clock results of the untraced repetitions.  Every run prints
#: them; they are not bounded end-to-end metrics because the host's own
#: speed moves them by more than any bound allows (see METRICS.md).
WALL = {
    "wall_s": ("s", "lower"),
    "sim_throughput_qps": ("1/s", "higher"),
    "wall_latency_p50_ms": ("ms", "lower"),
    "wall_latency_tail_ms": ("ms", "lower"),
}
PER_LAYER = {
    **WALL,
    "storage.generate_s": ("s", "lower"),
    "storage.register_s": ("s", "lower"),
    "storage.index_s": ("s", "lower"),
    "compiler.compile_ms_p50": ("ms", "lower"),
    "compiler.self_s": ("s", "lower"),
    "scheduler.schedule_ms_p50": ("ms", "lower"),
    "scheduler.self_s": ("s", "lower"),
    "scheduler.lpt_ops": ("count", "lower"),
    "engine.activations": ("count", "lower"),
    "engine.polls": ("count", "lower"),
    "engine.enqueues": ("count", "lower"),
    "engine.dequeue_batches": ("count", "lower"),
    "engine.secondary_accesses": ("count", "lower"),
    "engine.poll_efficiency": ("ratio", "higher"),
    "engine.busy_share": ("ratio", "higher"),
    "engine.activations_per_wall_s": ("1/s", "higher"),
    "engine.self_s": ("s", "lower"),
    "engine.ready_scan_s": ("s", "lower"),
    "engine.dbfunc_s": ("s", "lower"),
    "engine.deliver_s": ("s", "lower"),
    "machine.remote_penalty_s": ("s", "lower"),
    "workload.execute_s": ("s", "lower"),
    "workload.self_s": ("s", "lower"),
    "workload.admissions": ("count", "lower"),
    "workload.grants": ("count", "lower"),
    "workload.regrants": ("count", "lower"),
    "workload.waves": ("count", "lower"),
    "serve.build_submissions_s": ("s", "lower"),
    "serve.self_s": ("s", "lower"),
    "serve.admitted": ("count", "higher"),
    "serve.shed": ("count", "lower"),
    "serve.timed_out": ("count", "lower"),
    "serve.backpressure_transitions": ("count", "lower"),
    "serve.failed_share": ("ratio", "lower"),
    "serve.max_rate_within_slo_qps": ("1/s", "higher"),
    "obs.bus_events": ("count", "lower"),
    "obs.report_ms": ("ms", "lower"),
    "obs.overhead_ratio": ("ratio", "lower"),
    "obs.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

#: Layers whose self time the traced run attributes.
LAYERS = ("storage", "compiler", "scheduler", "engine", "workload", "serve",
          "obs")


@dataclass
class Rep:
    """One repetition, reduced to what the metrics need."""

    setup_s: float
    wall_s: float
    attempted: int
    done: int
    failed: int
    wall_p50: stats.Percentile
    wall_tail: stats.Percentile
    exact: tuple
    virtual: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)


def load_program():
    """Import the benchmark's workloads against this checkout's ``src/``,
    or return None when that program is not there."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        return None
    import repro
    if Path(repro.__file__).resolve().parent != package.resolve():
        return None
    from perfbench import workloads
    return workloads


def run_rep(workload, workloads, tracer) -> tuple[Rep, list[str]]:
    """Set up, measure, check and reduce one repetition."""
    from repro.prof.profiler import profile
    gc.collect()
    with tracer.patched(workloads.LAYER_TARGETS):
        start = time.perf_counter()
        with tracer.span(None, "setup"):
            state = workload.setup(tracer)
        setup_s = time.perf_counter() - start
        gc.collect()
        with profile() if tracer.enabled else nullcontext() as prof:
            start = time.perf_counter()
            with tracer.span(None, "measure"):
                out = workload.execute(state)
            wall = time.perf_counter() - start
    failures = workload.check(state, out)
    counts = workloads.engine_counts(out.executions)
    rep = Rep(setup_s=setup_s, wall_s=wall,
              attempted=sum(out.statuses.values()),
              done=out.statuses["done"], failed=out.statuses["failed"],
              wall_p50=stats.percentile(out.wall_latencies, 50),
              wall_tail=stats.tail_percentile(out.wall_latencies),
              exact=workload.exact(out),
              virtual=virtual_metrics(out, counts))
    if tracer.enabled:
        rep.layer = layer_metrics(tracer, prof, workloads)
    return rep, failures


def virtual_metrics(out, counts) -> dict:
    """Exact per-seed results of one repetition (virtual time, counts)."""
    p50 = stats.percentile(out.latencies, 50)
    tail = stats.tail_percentile(out.latencies)
    # A closed loop admits everything it sends and has no rate to search.
    serve = out.serve or {
        "max_rate_within_slo_qps": 0.0,
        "failed_share": stats.failed_share(out.statuses),
        "admitted": sum(out.statuses.values()), "shed": out.statuses["shed"],
        "timed_out": out.statuses["timed_out"],
        "backpressure_transitions": 0}
    return {
        "virtual_makespan_s": out.makespan,
        "virtual_latency_p50_s": p50.value,
        "virtual_latency_tail_s": tail.value,
        "virtual_latency_tail": tail,
        "goodput_qps": out.within_slo / out.makespan,
        "counts": counts,
        "serve": serve,
    }


def layer_metrics(tracer, prof, workloads) -> dict:
    """Per-layer times of one traced repetition."""
    measure = tracer.roots("measure")[0]
    inside = tracer.under(measure)
    self_all = tracer.self_ns(tracer.spans)
    self_measure = tracer.self_ns(inside)
    layers = dict.fromkeys(LAYERS, 0)
    for (layer, _), ns in self_measure.items():
        layers[layer] += ns
    sections: dict[str, list] = {}
    for path, (calls, self_ns, _) in prof.nodes.items():
        entry = sections.setdefault(path[-1], [0, 0])
        entry[0] += calls
        entry[1] += self_ns
    engine_ns = sum(self_ns for name, (_, self_ns) in sections.items()
                    if name in workloads.ENGINE_SECTIONS)
    layers["workload"] -= engine_ns
    layers["engine"] = engine_ns

    def total_s(layer, name):
        return self_all.get((layer, name), 0) / 1e9

    def p50_ms(layer, name):
        spans = tracer.outermost(tracer.spans, layer, name)
        if not spans:
            return 0.0
        return statistics.median(s.duration_ns for s in spans) / 1e6

    executes = [s for s in inside if s.name == "execute" and s.attrs]
    return {
        "storage.generate_s": total_s("storage", "generate"),
        "storage.register_s": total_s("storage", "register"),
        "storage.index_s": total_s("storage", "index"),
        "compiler.compile_ms_p50": p50_ms("compiler", "compile"),
        "scheduler.schedule_ms_p50": p50_ms("scheduler", "schedule"),
        "engine.ready_scan_s": sections.get("ready_scan", [0, 0])[1] / 1e9,
        "engine.dbfunc_s": sections.get("dbfunc", [0, 0])[1] / 1e9,
        "engine.deliver_s": sections.get("deliver", [0, 0])[1] / 1e9,
        "workload.execute_s": sum(
            s.duration_ns for s in tracer.outermost(inside, "workload",
                                                    "execute")) / 1e9,
        "workload.admissions": sum(s.attrs["admissions"] for s in executes),
        "workload.grants": sum(s.attrs["grants"] for s in executes),
        "workload.regrants": sum(s.attrs["regrants"] for s in executes),
        "workload.waves": sections.get("wave_prep", [0, 0])[0],
        "serve.build_submissions_s": sum(
            s.duration_ns for s in tracer.outermost(inside, "serve",
                                                    "build_submissions")) / 1e9,
        **{f"{layer}.self_s": ns / 1e9 for layer, ns in layers.items()},
        "trace.coverage": sum(layers.values()) / measure.duration_ns,
    }


def median_of(reps, key):
    return statistics.median(key(rep) for rep in reps)


def fastest(reps, key):
    """The smallest value over repetitions.

    Other tenants of a shared host slow whole stretches of a run by up
    to a quarter, so the least disturbed repetition estimates the
    program's own cost far more steadily than the median does.
    """
    return min(key(rep) for rep in reps)


def end_to_end(reps, first, import_s, warmup_s) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced repetitions, plus details."""
    wall_tail = first.wall_tail
    virtual = first.virtual
    metrics = {
        "setup_s": median_of(reps, lambda r: r.setup_s),
        "wall_s": fastest(reps, lambda r: r.wall_s),
        "sim_throughput_qps": max(r.done / r.wall_s for r in reps),
        "wall_latency_p50_ms": fastest(reps, lambda r: r.wall_p50.value) * 1e3,
        "wall_latency_tail_ms":
            fastest(reps, lambda r: r.wall_tail.value) * 1e3,
        "virtual_makespan_s": virtual["virtual_makespan_s"],
        "virtual_latency_p50_s": virtual["virtual_latency_p50_s"],
        "virtual_latency_tail_s": virtual["virtual_latency_tail_s"],
        "goodput_qps": virtual["goodput_qps"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    vtail = virtual["virtual_latency_tail"]
    details = {
        "wall_latency_tail": f"{wall_tail.label} of {wall_tail.count} "
                             f"samples ({wall_tail.beyond} beyond) per "
                             f"repetition, fastest repetition",
        "virtual_latency_tail": f"{vtail.label} of {vtail.count} samples "
                                f"({vtail.beyond} beyond)",
        "repetition walls (s)": " ".join(f"{r.wall_s:.3f}" for r in reps),
        "import_s": f"{import_s:.4f}",
        "warmup_s": f"{warmup_s:.4f}",
        "failed_share": f"{virtual['serve']['failed_share']:.6f}",
        "max_rate_within_slo_qps":
            f"{virtual['serve']['max_rate_within_slo_qps']:g}",
    }
    return metrics, details


def per_layer(reps, traced, first, twin) -> dict:
    """Per-layer metrics: medians over the traced repetitions, counters
    from the (exact) untraced ones."""
    counts = first.virtual["counts"]
    serve = first.virtual["serve"]
    untraced_wall = fastest(reps, lambda r: r.wall_s)
    timed = {name: median_of(traced, lambda r, n=name: r.layer[n])
             for name in traced[0].layer}
    metrics = {
        **timed,
        "scheduler.lpt_ops": counts.get("lpt_ops", 0),
        **{f"engine.{name}": counts.get(name, 0)
           for name in ("activations", "polls", "enqueues",
                        "dequeue_batches", "secondary_accesses")},
        "engine.poll_efficiency": (counts.get("activations", 0)
                                   / max(counts.get("polls", 0), 1)),
        "engine.busy_share": counts["busy_s"] / counts["capacity_s"],
        "engine.activations_per_wall_s":
            counts.get("activations", 0) / untraced_wall,
        "machine.remote_penalty_s": counts["remote_penalty_s"],
        "serve.admitted": serve["admitted"],
        "serve.shed": serve["shed"],
        "serve.timed_out": serve["timed_out"],
        "serve.backpressure_transitions": serve["backpressure_transitions"],
        "serve.failed_share": serve["failed_share"],
        "serve.max_rate_within_slo_qps": serve["max_rate_within_slo_qps"],
        "obs.bus_events": twin["bus_events"],
        "obs.report_ms": twin["report_ms"],
        "obs.overhead_ratio": twin["overhead_ratio"],
        "trace.overhead_ratio": (fastest(traced, lambda r: r.wall_s)
                                 / untraced_wall),
    }
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    start = time.perf_counter()
    workloads = load_program()
    if workloads is None:
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    from perfbench.trace import NullTracer, Tracer
    import_s = time.perf_counter() - start
    workload = workloads.WORKLOADS[name](seed)
    start = time.perf_counter()
    workload.warmup()
    warmup_s = time.perf_counter() - start

    reps: list[Rep] = []
    traced: list[Rep] = []
    tracers: list[Tracer] = []
    failures: list[str] = []
    measured = 0.0
    while not failures:
        take_trace = trace and len(traced) < len(reps)
        tracer = Tracer() if take_trace else NullTracer()
        rep, rep_failures = run_rep(workload, workloads, tracer)
        failures += rep_failures
        if rep.exact != (reps[0] if reps else rep).exact:
            failures.append(
                f"{'traced' if take_trace else 'untraced'} repetition "
                f"{len(reps) + len(traced) + 1}: virtual-time results or "
                f"counters differ from the first repetition")
        (traced if take_trace else reps).append(rep)
        if take_trace:
            tracers.append(tracer)
        measured += rep.wall_s
        # Stop before a repetition that would overrun the budget.
        if (measured + rep.wall_s > seconds and len(reps) >= MIN_REPS
                and (not trace or traced)):
            break

    every = reps + traced
    result = {"correct": not failures,
              "attempted": sum(r.attempted for r in every),
              "failed": sum(r.failed for r in every),
              "metrics": {}}
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if not failures:
        metrics, details = end_to_end(reps, reps[0], import_s, warmup_s)
        tables = [("end to end, untraced", END_TO_END, metrics),
                  ("wall clock, untraced", WALL, metrics)]
        if trace:
            twin = workload.observed_twin()
            tables[1] = ("per layer, traced", PER_LAYER,
                         {**metrics, **per_layer(reps, traced, reps[0], twin)})
            write_spans(name, seed, tracers)
        print(f"workload {name}, seed {seed}, {len(reps)} untraced and "
              f"{len(traced)} traced repetitions")
        for key, value in details.items():
            print(f"  {key}: {value}")
        for title, units, values in tables:
            print(f"{title}:")
            for key, (unit, better) in units.items():
                print(f"  {key:<34} {values[key]:>16.6f} {unit:<6} "
                      f"({better} is better)")
        _, units, values = tables[1] if trace else tables[0]
        result["metrics"] = {key: {"value": values[key], "unit": unit}
                             for key, (unit, _) in units.items()}
    print(json.dumps(result))
    return 0 if not failures else 1


def write_spans(name: str, seed: int, tracers) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans_{name}_seed{seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([[vars(span) for span in tracer.spans]
                   for tracer in tracers], handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("adhoc_sql", "batch_join", "serving_burst"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for key, (unit, _) in {**END_TO_END, **PER_LAYER}.items():
        stats.check_metric_name(key)
        stats.check_unit(unit)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
