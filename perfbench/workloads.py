"""The benchmark's three workloads, driven through the program's public API.

Each workload builds its inputs from ``--seed`` alone and runs in
repetitions.  One repetition is a fixed unit of work: ``setup`` builds
fresh inputs (data generation, partitioning, indexing), ``execute`` is
the measured section, ``check`` compares the outputs with references
computed here in plain Python, and ``exact`` returns every virtual-time
result and counter, which must be identical in every repetition.

* ``adhoc_sql`` — one client, closed loop: a fixed Wisconsin mix of SQL
  text through ``DBS3.query`` on a 70-processor KSR1 with Allcache.
* ``batch_join`` — one closed batch of 8 skewed joins, at most 4 at
  once, static scheduling, observability off.
* ``serving_burst`` — open loop in virtual time: one bursty arrival
  stream stepping through four fixed rates into an 8-processor machine
  under EDF admission, telemetry on.
"""

from __future__ import annotations

import gc
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import repro.bench.workloads as bench_workloads
import repro.lera.plans as plans
import repro.serve.harness as harness
import repro.storage.wisconsin as wisconsin
from repro.compiler.parallelizer import CompiledQuery
from repro.core.database import DBS3
from repro.engine.executor import ExecutionOptions, ObservabilityOptions
from repro.machine.machine import Machine
from repro.obs.bus import QUERY_ADMIT, QUERY_GRANT, SERVE_BACKPRESSURE
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.serve.arrivals import MMPPArrivals, make_arrival_process
from repro.serve.policies import ServingPolicy
from repro.storage.catalog import Catalog, TableEntry
from repro.storage.fragment import Fragment
from repro.storage.partitioning import PartitioningSpec
from repro.storage.relation import Relation
from repro.storage.skew import zipf_cardinalities
from repro.workload.engine import (
    QuerySubmission,
    WorkloadExecutor,
    WorkloadResult,
)
from repro.workload.options import WorkloadOptions
from repro.workload.session import Session

from perfbench import stats
from perfbench.trace import NullTracer


def _bus_counts(result: WorkloadResult) -> dict:
    """Admission and grant counts of one workload run's bus."""
    admits = grants = regrants = backpressure = 0
    for event in result.bus.events:
        if event.kind == QUERY_ADMIT:
            admits += 1
        elif event.kind == QUERY_GRANT:
            grants += 1
            if (event.data or {}).get("reason") != "admission":
                regrants += 1
        elif event.kind == SERVE_BACKPRESSURE:
            backpressure += 1
    return {"admissions": admits, "grants": grants, "regrants": regrants,
            "backpressure": backpressure}


#: Public entry points wrapped in a traced repetition:
#: ``(owner, attribute, layer, span name, observe)``.
LAYER_TARGETS = (
    (wisconsin, "generate_wisconsin", "storage", "generate", None),
    (bench_workloads, "skewed_fragments", "storage", "generate", None),
    (Catalog, "register", "storage", "register", None),
    (Catalog, "register_fragments", "storage", "register", None),
    (TableEntry, "create_index", "storage", "index", None),
    (DBS3, "compile", "compiler", "compile", None),
    (plans, "ideal_join_plan", "compiler", "compile", None),
    (plans, "assoc_join_plan", "compiler", "compile", None),
    (CompiledQuery, "shape_rows", "compiler", "shape", None),
    (AdaptiveScheduler, "schedule", "scheduler", "schedule", None),
    (Session, "submit_compiled", "workload", "submit", None),
    (Session, "run", "workload", "execute", None),
    (WorkloadExecutor, "execute", "workload", "execute", _bus_counts),
    (MMPPArrivals, "times", "serve", "arrivals", None),
    (harness, "build_submissions", "serve", "build_submissions", None),
    (WorkloadResult, "report", "obs", "report", None),
)

#: Engine self-profiler sections (``repro.prof``) that belong to the
#: engine layer; every other section inside ``WorkloadExecutor.execute``
#: is workload control (admission, step 0, waves, regrants, assembly).
ENGINE_SECTIONS = frozenset({"sim", "ready_scan", "dbfunc", "deliver",
                             "fault", "finalize"})


@dataclass
class Outcome:
    """What one measured section produced."""

    wall_latencies: list = field(default_factory=list)
    """Wall seconds from submitting each completed query to its rows."""
    latencies: list = field(default_factory=list)
    """Virtual response time (from arrival) of each completed query."""
    statuses: Counter = field(default_factory=Counter)
    makespan: float = 0.0
    """Virtual seconds the run's queries kept the machine."""
    within_slo: int = 0
    executions: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    """Workload-specific outputs for ``check`` and ``exact``."""
    serve: dict = field(default_factory=dict)
    """Serving-layer results (rate search, counts)."""


def engine_counts(executions) -> dict:
    """Engine and machine counters summed over every operation."""
    counts = Counter()
    busy = capacity = penalty = 0.0
    for execution in executions:
        for op in execution.operations.values():
            counts["activations"] += op.activations
            counts["polls"] += op.polls
            counts["enqueues"] += op.enqueues
            counts["dequeue_batches"] += op.dequeue_batches
            counts["secondary_accesses"] += op.secondary_accesses
            counts["lpt_ops"] += op.strategy == "lpt"
            busy += op.busy_time
            capacity += op.response_time * op.threads
            penalty += op.memory_penalty
    return {**counts, "busy_s": busy, "capacity_s": capacity,
            "remote_penalty_s": penalty}


def _exact_executions(executions) -> tuple:
    return tuple((e.status, e.response_time, e.result_cardinality,
                  tuple(sorted(engine_counts([e]).items())))
                 for e in executions)


# -- adhoc_sql ---------------------------------------------------------------

#: Queries per repetition of each Wisconsin template (sums to 100).  The
#: grouped MIN costs 15-40x the others, so it is 2 in 100.  The filtered
#: join (the Figure 1 filter-join pipeline) is the majority: its response
#: time depends on the data and on Allcache residency, so the median and
#: the tail both fall among queries whose latency the seed moves.
ADHOC_MIX = (("point_unique2", 16), ("sel_1pct", 10), ("sel_10pct", 6),
             ("join_a_bprime", 8), ("join_a_sel_bprime", 58),
             ("agg_min_grouped", 2))
ADHOC_A, ADHOC_BPRIME, ADHOC_DEGREE, ADHOC_PROCESSORS = 20_000, 2_000, 200, 70
#: Each parameterised template's constant is drawn from ``range(n)``.
ADHOC_PARAMS = {"sel_1pct": 100, "sel_10pct": 10, "point_unique2": ADHOC_A,
                "join_a_sel_bprime": 10}
#: The seed moves this many queries between the four templates faster
#: than the filtered join, so template choice varies by seed while the
#: repetition's cost and the median's rank stay put.
ADHOC_MOVES = 4
ADHOC_MOVABLE = ("point_unique2", "sel_1pct", "sel_10pct", "join_a_bprime")


def _adhoc_sql(template: str, param: int) -> str:
    join = "SELECT * FROM A JOIN Bprime ON A.unique1 = Bprime.unique1"
    return {
        "sel_1pct": f"SELECT * FROM A WHERE onePercent = {param}",
        "sel_10pct": f"SELECT * FROM A WHERE tenPercent = {param}",
        "point_unique2": f"SELECT * FROM A WHERE unique2 = {param}",
        "join_a_bprime": join,
        "join_a_sel_bprime": f"{join} WHERE Bprime.tenPercent = {param}",
        "agg_min_grouped":
            "SELECT onePercent, MIN(unique1) FROM A GROUP BY onePercent",
    }[template]


def _adhoc_reference(template: str, param: int, a_rows, b_rows) -> list:
    """Plain-Python result of one template, sorted.

    The joins keep the plan's column layout: IdealJoin emits A's
    columns then Bprime's; the filtered join streams the filtered
    Bprime into A, so Bprime's columns come first.
    """
    a_by_unique1 = {row[0]: row for row in a_rows}
    if template == "sel_1pct":
        rows = [r for r in a_rows if r[6] == param]
    elif template == "sel_10pct":
        rows = [r for r in a_rows if r[7] == param]
    elif template == "point_unique2":
        rows = [r for r in a_rows if r[1] == param]
    elif template == "join_a_bprime":
        rows = [a_by_unique1[b[0]] + b for b in b_rows if b[0] in a_by_unique1]
    elif template == "join_a_sel_bprime":
        rows = [b + a_by_unique1[b[0]] for b in b_rows
                if b[7] == param and b[0] in a_by_unique1]
    else:
        minima: dict[int, int] = {}
        for row in a_rows:
            group = row[6]
            if group not in minima or row[0] < minima[group]:
                minima[group] = row[0]
        rows = [(group, float(value)) for group, value in minima.items()]
    return sorted(rows)


def _adhoc_expected(template: str) -> int:
    """The Wisconsin benchmark's defined result cardinalities."""
    return {"sel_1pct": ADHOC_A // 100, "sel_10pct": ADHOC_A // 10,
            "point_unique2": 1, "join_a_bprime": ADHOC_BPRIME,
            "join_a_sel_bprime": ADHOC_BPRIME // 10,
            "agg_min_grouped": 100}[template]


class AdhocSql:
    """One client sending SQL text through ``DBS3.query``, one query at a
    time.  The seed draws the templates (around :data:`ADHOC_MIX`), the
    constants and the order."""

    name = "adhoc_sql"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(f"adhoc_sql/{seed}")
        counts = dict(ADHOC_MIX)
        for _ in range(ADHOC_MOVES):
            source, target = rng.sample(ADHOC_MOVABLE, 2)
            counts[source] -= 1
            counts[target] += 1
        queries = [(template, rng.randrange(ADHOC_PARAMS[template])
                    if template in ADHOC_PARAMS else 0)
                   for template, count in counts.items()
                   for _ in range(count)]
        rng.shuffle(queries)
        self.queries = queries
        self._references: dict = {}

    def _build(self, a_count, b_count, degree, observe=False):
        a = wisconsin.generate_wisconsin("A", a_count, seed=2 * self.seed + 1)
        b = wisconsin.generate_wisconsin("Bprime", b_count,
                                         seed=2 * self.seed + 2)
        options = ExecutionOptions(
            seed=self.seed,
            observability=ObservabilityOptions(observe=observe))
        db = DBS3(machine=Machine.ksr1(processors=ADHOC_PROCESSORS),
                  options=options)
        db.create_table(a, "unique1", degree)
        db.create_table(b, "unique1", degree)
        db.create_index("A", "unique2")
        return {"db": db, "a": a, "b": b}

    def warmup(self) -> None:
        state = self._build(2_000, 200, 20)
        for template, _ in ADHOC_MIX:
            state["db"].query(_adhoc_sql(template, 1))

    def setup(self, tracer) -> dict:
        return self._build(ADHOC_A, ADHOC_BPRIME, ADHOC_DEGREE)

    def execute(self, state) -> Outcome:
        db = state["db"]
        out = Outcome()
        rows = []
        for template, param in self.queries:
            sql = _adhoc_sql(template, param)
            start = time.perf_counter()
            result = db.query(sql)
            out.wall_latencies.append(time.perf_counter() - start)
            rows.append(result.rows)
            out.executions.append(result.execution)
        for execution in out.executions:
            out.statuses[execution.status] += 1
            out.latencies.append(execution.response_time)
            out.makespan += execution.response_time
        out.within_slo = out.statuses["done"]
        out.payload["rows"] = rows
        return out

    def check(self, state, out) -> list[str]:
        failures = []
        for (template, param), rows in zip(self.queries, out.payload["rows"]):
            key = (template, param)
            if key not in self._references:
                self._references[key] = _adhoc_reference(
                    template, param, state["a"].rows, state["b"].rows)
            reference = self._references[key]
            if len(rows) != _adhoc_expected(template):
                failures.append(f"{template}({param}): {len(rows)} rows, "
                                f"Wisconsin defines {_adhoc_expected(template)}")
            elif sorted(rows) != reference:
                failures.append(f"{template}({param}): rows differ from "
                                f"the plain-Python reference")
        return failures

    def exact(self, out) -> tuple:
        return _exact_executions(out.executions)

    def observed_twin(self) -> dict:
        """The closed loop through one session per query."""
        dbs = {observe: self._build(ADHOC_A, ADHOC_BPRIME, ADHOC_DEGREE,
                                    observe=observe)["db"]
               for observe in (False, True)}

        def run_once(observe):
            results = []
            for template, param in self.queries:
                session = dbs[observe].session()
                session.submit(_adhoc_sql(template, param)).result()
                if observe:
                    session.report()
                results.append(session.run())
            return results
        return _observed_twin(run_once)


def _all_bus_events(result: WorkloadResult) -> int:
    """Events on the workload bus plus every query's own bus."""
    return len(result.bus.events) + sum(
        len(e.obs.events) for e in result.executions.values()
        if e.obs is not None)


def _observed_twin(run_once) -> dict:
    """Wall time of ``run_once(observe)`` observed over unobserved, run
    in the order off, on, on, off, plus the observed results' event
    count and ``report()`` time.  ``run_once`` returns its results."""
    walls = {False: 0.0, True: 0.0}
    for observe in (False, True, True, False):
        gc.collect()
        start = time.perf_counter()
        results = run_once(observe)
        walls[observe] += time.perf_counter() - start
        if observe:
            observed = results
    start_ns = time.perf_counter_ns()
    for result in observed:
        result.report()
    return {"overhead_ratio": walls[True] / walls[False],
            "bus_events": sum(_all_bus_events(r) for r in observed),
            "report_ms": (time.perf_counter_ns() - start_ns) / 1e6}


# -- batch_join ---------------------------------------------------------------

BATCH_A, BATCH_B, BATCH_DEGREE, BATCH_THETA = 100_000, 10_000, 1500, 0.8
BATCH_QUERIES, BATCH_MPL, BATCH_PROCESSORS = 8, 4, 70


def seeded_join_database(card_a: int, card_b: int, degree: int,
                         theta: float, seed: int, catalog: Catalog,
                         tracer) -> bench_workloads.JoinDatabase:
    """A Zipf-skewed A and a uniform B, co-partitioned on ``key``.

    The construction is ``repro.bench.workloads.make_join_database``'s
    (fragment ``i`` holds keys congruent to ``i`` modulo the degree, so
    placement is a legal hash partitioning), except that the seed
    shuffles which fragment receives which Zipf share and draws the
    payloads.
    """
    rng = random.Random(f"batch_join/{seed}")
    schema = bench_workloads.JOIN_SCHEMA
    spec = PartitioningSpec.on("key", degree)
    entries = []
    with tracer.span("storage", "generate"):
        built = []
        for name, total, skew in (("A", card_a, theta), ("B", card_b, 0.0)):
            cardinalities = zipf_cardinalities(total, degree, skew)
            rng.shuffle(cardinalities)
            fragments, rows_all = [], []
            for i, count in enumerate(cardinalities):
                rows = [(i + degree * j, rng.randrange(1 << 30))
                        for j in range(count)]
                fragments.append(Fragment(name, i, schema, rows))
                rows_all.extend(rows)
            built.append((Relation(name, schema, rows_all), fragments))
    for relation, fragments in built:
        entries.append(catalog.register_fragments(relation, spec, fragments))
    return bench_workloads.JoinDatabase(entries[0], entries[1], theta)


def _join_reference(a_rows, b_rows) -> tuple[list, list]:
    """Dict join of A and B on ``key``: (A+B rows, B+A rows), sorted.

    IdealJoin emits A's columns first; AssocJoin streams B through a
    Transmit into A, so B's columns come first.
    """
    a_by_key: dict = {}
    for row in a_rows:
        a_by_key.setdefault(row[0], []).append(row)
    ab, ba = [], []
    for b in b_rows:
        for a in a_by_key.get(b[0], ()):
            ab.append(a + b)
            ba.append(b + a)
    return sorted(ab), sorted(ba)


class BatchJoin:
    """One closed batch of skewed joins through ``WorkloadExecutor``."""

    name = "batch_join"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.machine = Machine.uniform(processors=BATCH_PROCESSORS)
        self._reference = None

    def _run(self, db, observe=False) -> WorkloadResult:
        scheduler = AdaptiveScheduler(self.machine)
        submissions = []
        for index in range(BATCH_QUERIES):
            builder = (plans.ideal_join_plan if index % 2 == 0
                       else plans.assoc_join_plan)
            plan = builder(db.entry_a, db.entry_b, "key", "key")
            submissions.append(QuerySubmission(
                f"q{index}", CompiledQuery(plan, None, None, builder.__name__),
                scheduler.schedule(plan, None)))
        options = ExecutionOptions(
            seed=self.seed,
            observability=ObservabilityOptions(observe=observe))
        return WorkloadExecutor(
            self.machine, options,
            WorkloadOptions(max_concurrent=BATCH_MPL)).execute(submissions)

    def warmup(self) -> None:
        db = seeded_join_database(2_000, 200, 50, BATCH_THETA, self.seed,
                                  Catalog(disk_count=8), NullTracer())
        self._run(db)

    def setup(self, tracer):
        return seeded_join_database(BATCH_A, BATCH_B, BATCH_DEGREE,
                                    BATCH_THETA, self.seed,
                                    Catalog(disk_count=8), tracer)

    def execute(self, db) -> Outcome:
        start = time.perf_counter()
        result = self._run(db)
        return _outcome_of(result, time.perf_counter() - start)

    def check(self, db, out) -> list[str]:
        if self._reference is None:
            self._reference = _join_reference(db.entry_a.relation.rows,
                                              db.entry_b.relation.rows)
        ab, ba = self._reference
        failures = []
        result = out.payload["result"]
        for index, tag in enumerate(result.order):
            rows = sorted(result.execution(tag).result_rows)
            reference = ab if index % 2 == 0 else ba
            if len(rows) != db.expected_matches:
                failures.append(f"{tag}: {len(rows)} rows, the key "
                                f"construction implies {db.expected_matches}")
            elif rows != reference:
                failures.append(f"{tag}: rows differ from the dict join")
        return failures

    def exact(self, out) -> tuple:
        return (out.makespan, _exact_executions(out.executions))

    def observed_twin(self) -> dict:
        db = self.setup(NullTracer())
        return _observed_twin(lambda observe: [self._run(db, observe)])


def _outcome_of(result: WorkloadResult, wall: float) -> Outcome:
    """Outcome of one workload run taking *wall* seconds.  Every query's
    rows return when ``execute`` does, so that is its wall latency."""
    out = Outcome(makespan=result.makespan)
    for tag in result.order:
        execution = result.execution(tag)
        out.executions.append(execution)
        out.statuses[execution.status] += 1
        if execution.status == "done":
            out.latencies.append(execution.response_time)
            out.wall_latencies.append(wall)
    out.within_slo = out.statuses["done"]
    out.payload["result"] = result
    return out


# -- serving_burst --------------------------------------------------------------

SERVING_RATES = (20.0, 40.0, 60.0, 80.0)
SERVING_COUNT, SERVING_PROCESSORS, SERVING_MPL, SERVING_QUEUE = 1000, 8, 2, 6
#: The rate whose observed/unobserved twin gives ``obs.overhead_ratio``.
SERVING_TWIN_RATE = 40.0


class ServingBurst:
    """A step-load test: one open-loop stream whose arrival rate steps
    through :data:`SERVING_RATES`, :data:`SERVING_COUNT` arrivals each.

    One stream (rather than one run per rate) makes a repetition a
    single ``execute`` call, so every query's wall latency is that
    call's.  Rates only rise, and the queue is bounded, so what one
    step leaves waiting for the next is a handful of queries.
    """

    name = "serving_burst"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.machine = Machine.uniform(processors=SERVING_PROCESSORS)
        self.templates = harness.default_templates()
        self.slo = {t.name: t.slo for t in self.templates}
        self.join_sizes = {
            t.name: bench_workloads.make_join_database(
                t.card_a, t.card_b, degree=2, theta=0.0,
                name_a=f"{t.name}_a", name_b=f"{t.name}_b").expected_matches
            for t in self.templates}

    def _arrivals(self, rate: float, offset: float = 0.0) -> list[float]:
        times = make_arrival_process("mmpp", rate).times(
            SERVING_COUNT, seed=self.seed * 1000 + int(rate))
        return [offset + t for t in times]

    def _serve(self, times, observe=True) -> WorkloadResult:
        submissions = harness.build_submissions(
            self.templates, times, machine=self.machine, seed=self.seed)
        options = ExecutionOptions(
            seed=self.seed,
            observability=ObservabilityOptions(observe=observe))
        workload = WorkloadOptions(
            max_concurrent=SERVING_MPL,
            serving=ServingPolicy(policy="edf", queue_limit=SERVING_QUEUE))
        result = WorkloadExecutor(self.machine, options,
                                  workload).execute(submissions)
        if observe:
            result.report()
        return result

    def warmup(self) -> None:
        self._serve(self._arrivals(SERVING_TWIN_RATE)[:50])

    def setup(self, tracer) -> list[float]:
        times: list[float] = []
        for rate in SERVING_RATES:
            times += self._arrivals(rate, times[-1] if times else 0.0)
        return times

    def execute(self, times) -> Outcome:
        start = time.perf_counter()
        result = self._serve(times)
        out = _outcome_of(result, time.perf_counter() - start)
        out.within_slo = 0
        interactive: dict[float, list] = {}
        for index, tag in enumerate(result.order):
            execution = result.execution(tag)
            template = tag.rsplit("-", 1)[0]
            slo = self.slo[template]
            on_time = execution.status == "done" and (
                slo is None or execution.response_time <= slo)
            out.within_slo += on_time
            if template == "interactive":
                rate = SERVING_RATES[index // SERVING_COUNT]
                interactive.setdefault(rate, []).append(
                    execution.response_time if on_time else None)
        counts = _bus_counts(result)
        out.serve = {
            "max_rate_within_slo_qps": stats.max_rate_within_slo(
                interactive, self.slo["interactive"]),
            "failed_share": stats.failed_share(out.statuses),
            "admitted": counts["admissions"],
            "shed": out.statuses["shed"],
            "timed_out": out.statuses["timed_out"],
            "backpressure_transitions": counts["backpressure"],
        }
        return out

    def check(self, times, out) -> list[str]:
        failures = []
        if sum(out.statuses.values()) != len(times):
            failures.append(f"terminal statuses sum to "
                            f"{sum(out.statuses.values())}, "
                            f"{len(times)} arrived")
        result = out.payload["result"]
        for tag in result.order:
            execution = result.execution(tag)
            expected = self.join_sizes[tag.rsplit("-", 1)[0]]
            if (execution.status == "done"
                    and execution.result_cardinality != expected):
                failures.append(f"{tag}: {execution.result_cardinality}"
                                f" rows, its template joins {expected}")
        return failures

    def exact(self, out) -> tuple:
        return (harness.decision_digest(out.payload["result"]),
                out.makespan, tuple(sorted(out.serve.items())),
                _exact_executions(out.executions))

    def observed_twin(self) -> dict:
        times = self._arrivals(SERVING_TWIN_RATE)
        return _observed_twin(lambda observe: [self._serve(times, observe)])


WORKLOADS = {cls.name: cls for cls in (AdhocSql, BatchJoin, ServingBurst)}
