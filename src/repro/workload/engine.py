"""The multi-query workload engine.

Admits several compiled queries into **one** shared virtual-time
simulation.  Each query keeps its own plan, schedule, observability
bus and trace; the machine — processors, dilation, the event heap —
is shared, so concurrent queries contend exactly the way the paper's
threads do inside one query.

Life of a query here:

1. **submit** at its arrival offset; it enters the FIFO admission
   queue (:class:`~repro.workload.admission.AdmissionController`).
2. **admit** when capacity and the memory gate allow; its sequential
   initialization is charged on the single init thread (start-ups of
   co-arriving queries serialize, as in the single-query executor).
3. **grant**: "step 0" — :func:`~repro.scheduler.allocation
   .allocate_to_queries` splits the machine's thread budget across
   running queries by estimated complexity, capped at each query's
   own demand.  A lone query gets its full demand, which is what
   makes the one-query path bit-identical to
   :class:`~repro.engine.executor.Executor` (golden-trace tested).
4. **waves** run through the shared simulator; each wave's
   per-operation split rescales the query's own schedule to its
   current grant (largest-remainder, the paper's step-3 rule).
5. **re-grant**: when a query completes, the freed capacity is
   redistributed; with ``rebalance`` on, still-running queries grow
   their *current* wave mid-flight with helper threads (pure
   secondary consumers — the paper's dynamic allocation generalized
   across queries).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import (
    ExecutionOptions,
    Executor,
    QuerySchedule,
    _router_for,
)
from repro.engine.metrics import (
    STATUS_CANCELLED,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_REJECTED,
    STATUS_SHED,
    STATUS_TIMED_OUT,
    OperationMetrics,
    QueryExecution,
)
from repro.engine.operation import DeliveryTap, OperationRuntime
from repro.engine.simulator import Simulator
from repro.engine.threads import WorkerThread
from repro.engine.trace import ExecutionTrace
from repro.errors import AdmissionError, ExecutionFaultError, WorkloadError
from repro.lera.graph import PIPELINE
from repro.machine.machine import Machine
from repro.obs.alerts import AlertBus
from repro.obs.bus import (
    QUERY_ABORT,
    QUERY_ADMIT,
    QUERY_CANCEL,
    QUERY_FINISH,
    QUERY_GRANT,
    QUERY_REJECT,
    QUERY_SUBMIT,
    SERVE_BACKPRESSURE,
    SERVE_BROWNOUT,
    WAVE_END,
    WAVE_START,
    EventBus,
)
from repro.obs.metrics import (
    ADMISSION_QUEUE_DEPTH,
    ADMISSION_WAIT,
    BACKPRESSURE_ENGAGED,
    BROWNOUT_ACTIVE,
    FOLD_ATTEMPTS,
    FOLD_COST_SHARE,
    FOLD_HITS,
    FOLD_SUBSCRIBERS,
    GRANTED_THREADS,
    GRANTS,
    POOL_UTILIZATION,
    QUERIES_ADMITTED,
    QUERIES_FINISHED,
    QUERIES_REJECTED,
    QUERIES_SHED,
    QUERIES_SUBMITTED,
    QUERY_LATENCY,
    RUNNING_QUERIES,
    MetricsRegistry,
)
from repro.obs.monitor import (
    POINT_ADMISSION,
    POINT_FINISH,
    POINT_REGRANT,
    POINT_WAVE,
    MonitorEngine,
)
from repro.obs.explain import ScheduleExplanation
from repro.obs.spans import SpanSet, assemble_spans
from repro.adapt.controller import AdaptiveController
from repro.prof.profiler import EngineProfiler, active_profiler
from repro.scheduler.allocation import (
    ResourceVector,
    _largest_remainder,
    allocate_to_queries,
)
from repro.scheduler.complexity import operator_complexity, query_complexity
from repro.serve.policies import (
    REJECT_IDLE,
    REJECT_MEMORY,
    SHED_DEADLINE_INFEASIBLE,
    SHED_QUEUE_FULL,
    make_admission_policy,
    provably_infeasible,
)
from repro.workload.admission import AdmissionController, runtime_footprint
from repro.workload.options import WorkloadOptions
from repro.workload.sharing import (
    FoldRegistry,
    SharedOperator,
    node_footprints,
    plan_folds,
    projected_footprint,
)

#: Job states.  The terminal ones reuse the ``QueryExecution`` status
#: strings, so a job's final state doubles as its execution's status.
QUEUED = "queued"
RUNNING = "running"
CANCELLING = "cancelling"    # drain requested, threads still unwinding
DONE = STATUS_DONE
CANCELLED = STATUS_CANCELLED
TIMED_OUT = STATUS_TIMED_OUT
FAILED = STATUS_FAILED
REJECTED = STATUS_REJECTED   # pre-admission: could never run
SHED = STATUS_SHED           # pre-admission: dropped under overload

#: States a job can legally end the run in.
TERMINAL_STATES = (DONE, CANCELLED, TIMED_OUT, FAILED, REJECTED, SHED)


@dataclass(frozen=True)
class QuerySubmission:
    """One query handed to the workload engine.

    Attributes:
        tag: Unique name; events and results are keyed by it.
        compiled: The compiled query (plan + result shaping).
        schedule: Its own four-step schedule — the per-operation
            thread demands step 0 rescales.
        arrival: Virtual-time submission offset (>= 0).
        timeout: Abort the query ``timeout`` virtual seconds after
            arrival (terminal state ``timed_out``), if it has not
            finished by then.
        cancel_at: Cancel the query at this absolute virtual time
            (terminal state ``cancelled``).  Must be >= ``arrival``;
            at exactly ``arrival`` the query is withdrawn before
            admission and never runs.
        priority: Serving priority class (higher is more important);
            read by the ``priority`` admission policy and the
            per-class latency labels.  Ignored without ``serving``.
        tenant: Serving tenant name; read by the ``fair_share``
            admission policy.  Ignored without ``serving``.
    """

    tag: str
    compiled: CompiledQuery
    schedule: QuerySchedule
    arrival: float = 0.0
    timeout: float | None = None
    cancel_at: float | None = None
    priority: int = 0
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise WorkloadError(
                f"arrival must be >= 0, got {self.arrival} for {self.tag!r}")
        if self.timeout is not None and self.timeout <= 0:
            raise WorkloadError(
                f"timeout must be > 0, got {self.timeout} for {self.tag!r}")
        if self.cancel_at is not None and self.cancel_at < self.arrival:
            raise WorkloadError(
                f"cancel_at ({self.cancel_at}) must be >= arrival "
                f"({self.arrival}) for {self.tag!r}")
        if not self.tenant:
            raise WorkloadError(f"empty tenant for {self.tag!r}")


@dataclass(frozen=True)
class WorkloadResult:
    """Outcome of one executed workload."""

    executions: dict[str, QueryExecution]
    """Per-query execution (metrics, rows, trace, obs), keyed by tag."""
    order: tuple[str, ...]
    """Tags in submission order."""
    makespan: float
    """Virtual time at which the last query finished."""
    bus: EventBus
    """Workload-level event stream: query.submit / query.admit /
    query.grant / query.finish (plus query.cancel / query.abort when
    faults or cancellation are in play), tagged with query names."""
    errors: dict[str, str] = field(default_factory=dict)
    """Abort messages for queries that ended ``failed``, keyed by tag."""
    metrics: MetricsRegistry | None = None
    """Workload telemetry registry (counters / gauges / latency
    histograms), populated when workload observability is on —
    ``WorkloadOptions(observability=ObservabilityOptions(observe=True))``
    or per-query ``observe``.  ``None`` when disabled: the engine then
    pays one ``is not None`` check per site and nothing else."""
    spans: SpanSet | None = None
    """Per-query lifecycle spans assembled from :attr:`bus` after the
    run (same gating as :attr:`metrics`)."""
    alerts: AlertBus | None = None
    """Alerts fired by the streaming monitor rules, populated when
    ``ObservabilityOptions(monitors=...)`` is non-empty.  ``None`` when
    no rules are installed (the usual guarded no-op)."""
    profile: EngineProfiler | None = None
    """Wall-clock self-profile of the engine's own hot paths,
    populated when ``ObservabilityOptions(profile=True)``.  Measures
    the simulator, not the simulated system."""
    decisions: ScheduleExplanation | None = None
    """Mid-flight decision log of the adaptive controller (resplits
    and strategy switches with their evidence), populated when
    ``SchedulingPolicy(policy="adaptive")``.  ``None`` under the
    static policy — the controller does not exist then."""

    def __post_init__(self) -> None:
        if self.makespan < 0:
            raise WorkloadError(f"negative makespan {self.makespan}")

    def report(self):
        """Aggregate telemetry as a
        :class:`~repro.obs.report.WorkloadReport` (requires the run to
        have been observed)."""
        from repro.obs.report import build_workload_report
        return build_workload_report(self)

    @property
    def throughput(self) -> float:
        """Successfully completed queries per virtual second."""
        if self.makespan <= 0:
            raise WorkloadError("zero makespan")
        done = sum(1 for e in self.executions.values()
                   if e.status == STATUS_DONE)
        return done / self.makespan

    def status_of(self, tag: str) -> str:
        """Terminal status of one query: ``done`` / ``cancelled`` /
        ``timed_out`` / ``failed``."""
        return self.execution(tag).status

    @property
    def mean_response_time(self) -> float:
        if not self.executions:
            raise WorkloadError("empty workload result")
        return (sum(e.response_time for e in self.executions.values())
                / len(self.executions))

    def execution(self, tag: str) -> QueryExecution:
        try:
            return self.executions[tag]
        except KeyError:
            raise WorkloadError(f"no query tagged {tag!r}") from None


class _QueryJob:
    """Mutable per-query execution state inside one workload run."""

    def __init__(self, submission: QuerySubmission, order: int,
                 machine: Machine, executor: Executor,
                 exec_options: ExecutionOptions,
                 shared: bool = False) -> None:
        self.tag = submission.tag
        self.compiled = submission.compiled
        self.plan = submission.compiled.plan
        self.schedule = submission.schedule
        self.arrival = submission.arrival
        self.timeout = submission.timeout
        self.cancel_at = submission.cancel_at
        self.priority = submission.priority
        self.tenant = submission.tenant
        self.order = order
        self.plan.validate()
        self.waves = self.plan.chain_waves()
        self.complexity = query_complexity(self.plan, machine.costs)
        self.shared_mode = shared
        #: Shared-work state.  All empty/None on the private path, so
        #: every sharing branch below reduces to the legacy behaviour.
        self.folds: dict[str, SharedOperator] = {}
        self.hosted: list[SharedOperator] = []
        self.shared_results: dict[str, list] = {}
        self.current_wave_shared: list[SharedOperator] = []
        self.node_complexities: dict[str, float] | None = None
        self.node_footprints: dict[str, int] | None = None
        if not shared:
            self.runtimes = executor.build_runtimes(self.plan, self.schedule)
            executor.wire_pipelines(self.plan, self.runtimes)
            self.startup = executor.startup_time(self.runtimes, self.schedule)
            self.wave_totals = [
                sum(self.schedule.of(node.name).threads
                    for chain in wave for node in chain.nodes)
                for wave in self.waves
            ]
            #: Step-0 demand: more threads than the widest wave asks
            #: for could never be used.
            self.demand = max(self.wave_totals)
            self.footprint = runtime_footprint(self.runtimes)
            self.materialized = True
        else:
            # Runtime construction is deferred to admission time: the
            # fold pass needs the registry state *then*, and folded
            # nodes never build runtimes at all.
            self.runtimes = {}
            self.node_complexities = {
                node.name: operator_complexity(node.spec, machine.costs)
                for node in self.plan.nodes}
            self.node_footprints = node_footprints(self.plan, machine.costs)
            self.wave_totals = [
                sum(self.schedule.of(node.name).threads
                    for chain in wave for node in chain.nodes)
                for wave in self.waves
            ]
            self.demand = max(self.wave_totals)
            self.startup = 0.0
            self.footprint = sum(self.node_footprints.values())
            self.materialized = False
        self.bus = EventBus() if exec_options.observe else None
        self.tracer = (ExecutionTrace()
                       if exec_options.trace or exec_options.observe
                       else None)
        if self.materialized:
            executor.attach_observability(self.runtimes, self.bus, self.tracer)
        self.state = QUEUED
        self.wave_started_at = 0.0
        self.grant = 0
        self.wave_index = -1
        self.current_wave_ops: list[OperationRuntime] = []
        self.wave_threads = 0
        self.max_threads = 0
        self.max_dilation = 1.0
        self.admitted_at: float | None = None
        self.finished_at: float | None = None
        self.execution: QueryExecution | None = None
        #: Terminal state this job is headed for while CANCELLING.
        self.outcome = DONE
        self.error: ExecutionFaultError | None = None
        self.cancel_requested_at: float | None = None

    @property
    def deadline(self) -> tuple[float, str] | None:
        """Earliest scheduled cancellation instant ``(t, outcome)``."""
        candidates = []
        if self.cancel_at is not None:
            candidates.append((self.cancel_at, CANCELLED))
        if self.timeout is not None:
            candidates.append((self.arrival + self.timeout, TIMED_OUT))
        return min(candidates) if candidates else None

    # -- shared-work materialization -------------------------------------------

    def materialize(self, executor: Executor, registry: FoldRegistry,
                    folds: dict[str, SharedOperator], footprint: int,
                    now: float) -> None:
        """Build this query's private runtimes given its fold set.

        Runs at admission time (shared mode only).  Folded nodes get
        no runtimes — instead the host operator gains a delivery tap
        at each *frontier* folded node (one whose pipeline consumer is
        private, or which is terminal here); interior folded nodes
        need nothing, their data flows inside the host's own wiring.
        Afterwards the query's start-up, demand and footprint are
        recomputed over the private remainder: what folded rides free.
        """
        self.folds = folds
        own = {node.name for node in self.plan.nodes} - set(folds)
        self.runtimes = executor.build_runtimes(self.plan, self.schedule,
                                                only=own)
        for edge in self.plan.edges:
            if (edge.kind != PIPELINE or edge.producer in folds
                    or edge.consumer in folds):
                continue
            producer = self.runtimes[edge.producer]
            consumer = self.runtimes[edge.consumer]
            producer.consumer = consumer
            producer.router = _router_for(consumer)
            consumer.producers_remaining += 1
        for name, shared in folds.items():
            consumer_name = self.plan.pipeline_consumer(name)
            if consumer_name is not None and consumer_name in folds:
                continue  # interior fold: data flows inside the host
            if consumer_name is None:
                collector: list = []
                self.shared_results[name] = collector
                tap = DeliveryTap(self.tag, name, collector=collector)
            else:
                consumer = self.runtimes[consumer_name]
                tap = DeliveryTap(self.tag, name, consumer=consumer,
                                  router=_router_for(consumer))
                consumer.producers_remaining += 1
            shared.runtime.taps.append(tap)
            shared.attach(self.tag, tap)
        # Offer this query's own shareable first-wave operators as fold
        # targets for later arrivals (first live entry wins; duplicate
        # subplans within one plan stay private).
        wave0 = {node.name for chain in self.waves[0] for node in chain.nodes}
        fingerprints = self.plan.fingerprints()
        for node in self.plan.nodes:
            name = node.name
            if name in folds or name not in wave0:
                continue
            fingerprint = fingerprints[name]
            if fingerprint is None:
                continue
            shared = SharedOperator(
                runtime=self.runtimes[name], host_tag=self.tag,
                fingerprint=fingerprint,
                complexity=self.node_complexities[name],
                footprint=self.node_footprints[name])
            if registry.register(shared, now):
                self.hosted.append(shared)
        self.startup = executor.startup_time(self.runtimes, self.schedule)
        self.wave_totals = [
            sum(self.schedule.of(node.name).threads
                for chain in wave for node in chain.nodes
                if node.name not in folds)
            for wave in self.waves
        ]
        self.demand = max(1, max(self.wave_totals))
        self.footprint = footprint
        executor.attach_observability(self.runtimes, self.bus, self.tracer)
        self.materialized = True

    @property
    def effective_complexity(self) -> float:
        """Step-0 weight with shared operators priced fractionally.

        A subscriber pays ``complexity/len(active_tags)`` for each
        operator it folded onto; a host's own shared operators shrink
        the same way once they gain subscribers.  Without any sharing
        this is exactly :attr:`complexity`, keeping the private path
        bit-identical.
        """
        if not self.folds and not self.hosted:
            return self.complexity
        total = self.complexity
        seen: set[int] = set()
        for name, shared in self.folds.items():
            total -= self.node_complexities[name]
            if id(shared) in seen:
                continue
            seen.add(id(shared))
            total += shared.complexity / max(1, len(shared.active_tags))
        for shared in self.hosted:
            count = len(shared.active_tags)
            if count > 1:
                total -= shared.complexity * (count - 1) / count
        return max(total, 1e-9)

    def _share_of(self, runtime: OperationRuntime) -> float:
        """Metrics cost share of one of this query's own runtimes."""
        for shared in self.hosted:
            if shared.runtime is runtime and len(shared.all_tags) > 1:
                return 1.0 / len(shared.all_tags)
        return 1.0

    def build_execution(self, executor: Executor,
                        status: str = STATUS_DONE) -> QueryExecution:
        """Freeze metrics once the last wave finished.

        ``response_time`` is measured from *submission*, so it
        includes any admission-queue wait — for a query submitted at
        t=0 and admitted immediately it equals the absolute finish
        time, exactly as the single-query executor reports it.

        A non-``done`` status freezes a *partial* execution: only the
        operations that actually finished (normally or via a drain)
        contribute metrics, and ``result_rows`` holds whatever the
        final operator emitted before the query was stopped.

        With shared work in play, folded operators appear here under
        this query's node names, carrying the host runtime's raw
        counters at ``cost_share = 1/len(all subscribers)``; a host's
        own shared operators get the same fractional share.  Result
        rows of a folded terminal node come from its delivery tap's
        collector.
        """
        assert self.finished_at is not None
        if not self.materialized:
            # Withdrawn before admission (shared mode defers building).
            operations: dict[str, OperationMetrics] = {}
            result_rows: list = []
        elif not self.folds and not self.hosted:
            operations = {name: OperationMetrics.of(rt)
                          for name, rt in self.runtimes.items()
                          if rt.finished_at is not None}
            result_rows = executor.collect_results(self.plan, self.runtimes)
        else:
            operations = {}
            result_rows = []
            for node in self.plan.nodes:
                name = node.name
                shared = self.folds.get(name)
                if shared is not None:
                    rt = shared.runtime
                    if rt.finished_at is not None:
                        operations[name] = OperationMetrics.of(
                            rt, cost_share=1.0 / len(shared.all_tags),
                            name=name)
                    if name in self.shared_results:
                        result_rows.extend(self.shared_results[name])
                else:
                    rt = self.runtimes[name]
                    if rt.finished_at is not None:
                        operations[name] = OperationMetrics.of(
                            rt, cost_share=self._share_of(rt))
                    if rt.consumer is None:
                        result_rows.extend(rt.result_rows)
        return QueryExecution(
            response_time=self.finished_at - self.arrival,
            startup_time=self.startup,
            total_threads=self.max_threads,
            dilation=self.max_dilation,
            operations=operations,
            result_rows=result_rows,
            trace=self.tracer,
            obs=self.bus,
            status=status,
        )


class WorkloadExecutor:
    """Executes a batch of submissions in one shared simulation."""

    def __init__(self, machine: Machine | None = None,
                 options: ExecutionOptions | None = None,
                 workload: WorkloadOptions | None = None) -> None:
        self.machine = machine or Machine.uniform()
        self.options = options or ExecutionOptions()
        self.workload = workload or WorkloadOptions()

    def execute(self, submissions: list[QuerySubmission]) -> WorkloadResult:
        """Run every submission; returns per-query executions + events."""
        tags = [s.tag for s in submissions]
        if len(set(tags)) != len(tags):
            raise WorkloadError(f"duplicate query tags in workload: {tags}")
        run = _WorkloadRun(self.machine, self.options, self.workload,
                           submissions)
        return run.run()


class _WorkloadRun:
    """One workload execution in flight (all mutable run state)."""

    def __init__(self, machine: Machine, exec_options: ExecutionOptions,
                 workload: WorkloadOptions,
                 submissions: list[QuerySubmission]) -> None:
        self.machine = machine
        self.workload = workload
        self.executor = Executor(machine, exec_options)
        #: Shared-work state: ``None`` keeps every sharing branch off
        #: the hot path (shared=False is bit-identical to the
        #: pre-sharing engine).
        self.sharing = FoldRegistry() if workload.shared else None
        self.jobs = [_QueryJob(s, i, machine, self.executor, exec_options,
                               shared=workload.shared)
                     for i, s in enumerate(submissions)]
        #: Subscribers waiting on a shared runtime (keyed by id) to
        #: complete before their current wave can advance.
        self._waiters_of: dict[int, list[_QueryJob]] = {}
        self.bus = EventBus()
        #: Workload telemetry: ``None`` keeps every metrics branch off
        #: the hot path (same guarded no-op pattern as the per-query
        #: bus); on, it is populated purely from the lifecycle sites
        #: that already emit bus events.
        #: Monitor rules come from either options block; non-empty
        #: rules imply metrics (the rules read the registry).
        rules = (workload.observability.monitors
                 or exec_options.observability.monitors)
        self.metrics = (MetricsRegistry()
                        if exec_options.observe
                        or workload.observability.observe
                        or rules else None)
        self.monitors = (MonitorEngine(rules, self.metrics)
                         if rules else None)
        #: Adaptive scheduling controller: ``None`` under the static
        #: policy keeps every adaptive branch off the hot path — the
        #: same escape-hatch shape as sharing, metrics and monitors,
        #: and what makes ``policy="static"`` bit-identical to the
        #: pre-controller engine.
        self.adapt = (AdaptiveController(workload.scheduling, self.bus)
                      if workload.scheduling.adaptive else None)
        self.admission = AdmissionController(workload,
                                             metrics=self.metrics)
        self.budget = workload.thread_budget or machine.processors
        self.simulator = Simulator(machine, seed=exec_options.seed)
        self.simulator.on_operation_complete = self._on_operation_complete
        self.simulator.on_query_abort = self._on_query_abort
        #: Self-profiling: an explicit ``profile=True`` option makes
        #: the run own a fresh profiler (started/stopped around
        #: :meth:`run`, so coverage is structural); an enclosing
        #: ``profile()`` block is picked up without owning it.
        self._profile_requested = (exec_options.observability.profile
                                   or workload.observability.profile)
        ambient = active_profiler()
        self.profiler = (EngineProfiler()
                         if self._profile_requested and ambient is None
                         else ambient)
        self._own_profiler = self._profile_requested and ambient is None
        if self.profiler is not None:
            self.simulator.attach_profiler(self.profiler)
        if workload.faults is not None:
            from repro.faults.injector import FaultInjector
            self.simulator.attach_faults(
                FaultInjector(workload.faults, bus=self.bus,
                              metrics=self.metrics))
        self.running: list[_QueryJob] = []
        #: Serving layer: ``None`` keeps every overload-protection
        #: branch off the hot path — serving-off runs are bit-identical
        #: to the pre-serving engine.  The wait queue is always a
        #: policy object; without serving it is the FIFO deque, whose
        #: admission order matches the old list exactly (it just stops
        #: paying O(waiting) per admitted query).
        self.serving = workload.serving
        self.queue = make_admission_policy(workload.serving)
        self.brownout = False
        self._backpressure = False
        self.next_thread_id = 0
        #: The single sequential-initialization thread: start-ups of
        #: co-admitted queries serialize behind each other.
        self.startup_free_at = 0.0
        self._job_of: dict[int, _QueryJob] = {}

    # -- outer loop -----------------------------------------------------------

    def run(self) -> WorkloadResult:
        profiler = self.profiler
        if self._own_profiler:
            profiler.start()
        try:
            return self._run(profiler)
        finally:
            if self._own_profiler:
                profiler.stop()

    def _run(self, profiler) -> WorkloadResult:
        # Control points: query arrivals plus scheduled cancellation /
        # timeout deadlines, in one merged timeline.  Arrivals sort
        # before deadlines at the same instant (a query cancelled at
        # its own arrival must exist before it can be withdrawn).
        events: list[tuple[float, int, int, str]] = []
        for job in self.jobs:
            events.append((job.arrival, 0, job.order, "arrive"))
            deadline = job.deadline
            if deadline is not None:
                events.append((deadline[0], 1, job.order, deadline[1]))
        events.sort()
        index = 0
        while index < len(events):
            now = events[index][0]
            # Drain the simulation up to (and including) the control
            # instant, so admission sees the machine state at that
            # virtual time — completions at t <= now already applied.
            if profiler is not None:
                profiler.enter("sim")
            self.simulator.run(until=now)
            if profiler is not None:
                profiler.exit()
                profiler.enter("control")
            self._maybe_recycle_thread_ids()
            arrived = False
            deadlines: list[tuple[_QueryJob, str]] = []
            while index < len(events) and events[index][0] <= now:
                _, _, order, kind = events[index]
                index += 1
                job = self.jobs[order]
                if kind == "arrive":
                    if self.serving is None:
                        self.bus.emit(QUERY_SUBMIT, job.arrival, job.tag,
                                      demand=job.demand,
                                      footprint=job.footprint)
                        self.admission.check_admissible(job.tag,
                                                        job.footprint)
                        self.queue.push(job)
                        if self.metrics is not None:
                            self.metrics.counter(QUERIES_SUBMITTED).inc(now)
                            self.metrics.gauge(ADMISSION_QUEUE_DEPTH).set(
                                now, len(self.queue))
                    else:
                        self._submit_serving(job, now)
                    arrived = True
                else:
                    deadlines.append((job, kind))
            # Deadlines apply before admission: a query cancelled at
            # its arrival instant is withdrawn from the FIFO queue and
            # never touches the machine.
            for job, outcome in deadlines:
                self._apply_deadline(job, now, outcome)
            if arrived:
                self._try_admit(now)
            if profiler is not None:
                profiler.exit()
        if profiler is not None:
            profiler.enter("sim")
        self.simulator.run()
        if profiler is not None:
            profiler.exit()
            profiler.enter("assemble")
        try:
            stuck = [job.tag for job in self.jobs
                     if job.state not in TERMINAL_STATES]
            if stuck:
                raise WorkloadError(
                    f"workload did not complete: queries {stuck} never "
                    f"finished (deadlock or admission starvation)")
            makespan = max((job.finished_at for job in self.jobs),
                           default=0.0)
            executions = {job.tag: job.execution for job in self.jobs}
            spans = (assemble_spans(self.bus, executions)
                     if self.metrics is not None else None)
            return WorkloadResult(
                executions=executions,
                order=tuple(job.tag for job in self.jobs),
                makespan=makespan,
                bus=self.bus,
                errors={job.tag: str(job.error) for job in self.jobs
                        if job.error is not None},
                metrics=self.metrics,
                spans=spans,
                alerts=(self.monitors.alerts
                        if self.monitors is not None else None),
                profile=(self.profiler
                         if self._profile_requested else None),
                decisions=(self.adapt.explanation
                           if self.adapt is not None else None),
            )
        finally:
            if profiler is not None:
                profiler.exit()

    def _maybe_recycle_thread_ids(self) -> None:
        """Reset thread-id allocation when the machine is quiescent.

        With nothing running and nothing queued, every prior thread
        has terminated, so a query arriving now can reuse ids from 0 —
        giving it the *same* thread ids (hence bit-identical events
        and trace) as if the earlier queries had never been submitted.
        That is what makes cancellation side-effect-free for late
        survivors.  Allcache machines are exempt: thread ids name
        per-processor local caches there, and reusing an id would
        alias warmed cache state that a fresh run would not have.
        """
        if (self.next_thread_id and not self.running and not self.queue
                and self.machine.directory is None):
            self.next_thread_id = 0
            self.startup_free_at = 0.0

    # -- cancellation / abort --------------------------------------------------

    def _apply_deadline(self, job: _QueryJob, now: float,
                        outcome: str) -> None:
        """Cancel or time out one query at its requested instant.

        A queued query is withdrawn immediately.  A running one enters
        ``CANCELLING``: its pending activations are discarded *now*,
        but threads are cooperative — each finishes its in-flight
        activation and then terminates, so the terminal bookkeeping
        happens in :meth:`_on_operation_complete` when the truncated
        wave reaches its forced boundary.
        """
        if job.state not in (QUEUED, RUNNING):
            return  # already finished, failed, or being drained
        reason = "timeout" if outcome == TIMED_OUT else "cancel"
        if job.state == QUEUED:
            self.queue.remove(job)
            job.state = outcome
            job.finished_at = now
            job.execution = job.build_execution(self.executor, status=outcome)
            self.bus.emit(QUERY_CANCEL, now, job.tag, reason=reason,
                          admitted=False, discarded=0)
            self._record_terminal(job, now, outcome)
            return
        job.state = CANCELLING
        job.outcome = outcome
        job.cancel_requested_at = now
        if self.sharing is not None:
            self._release_shared(job, now)
        discarded = self.simulator.drain_operations(job.current_wave_ops, now)
        self.bus.emit(QUERY_CANCEL, now, job.tag, reason=reason,
                      admitted=True, discarded=discarded)
        if self.sharing is not None:
            # A wave emptied by detaching shared operators (or one
            # that was only waiting on shared work) has no thread left
            # to unwind, so the terminal bookkeeping happens here.
            self._maybe_finish_cancelling(job, now)

    def _on_query_abort(self, operation: OperationRuntime,
                        error: ExecutionFaultError, at: float) -> None:
        """Simulator callback: an activation exhausted its retries.

        The owning query fails cleanly — its wave is drained and its
        capacity eventually regranted to survivors — instead of the
        fault tearing down the whole workload.
        """
        job = self._job_of.get(id(operation))
        if job is None:
            raise error
        shared = (self.sharing.by_runtime(id(operation))
                  if self.sharing is not None else None)
        cohort: list[_QueryJob] = []
        if job.state != CANCELLING:
            cohort.append(job)
        if shared is not None:
            # A shared operator failed: every live subscriber loses the
            # rows it was counting on, so the whole cohort aborts.
            shared.dead = True
            for other in self.jobs:
                if (other is not job and other.tag in shared.active_tags
                        and other.state == RUNNING):
                    cohort.append(other)
        if not cohort:
            return  # already draining; the failing thread just winds down
        for member in cohort:
            member.state = CANCELLING
            member.outcome = FAILED
            member.error = error if member is job else ExecutionFaultError(
                f"shared operation {operation.name!r} (hosted by "
                f"{job.tag!r}) aborted: {error}")
            member.cancel_requested_at = at
        if self.sharing is not None:
            for member in cohort:
                self._release_shared(member, at, detach=False)
        for member in cohort:
            discarded = self.simulator.drain_operations(
                member.current_wave_ops, at)
            self.bus.emit(QUERY_ABORT, at, member.tag,
                          error=str(member.error),
                          failed_operation=operation.name,
                          discarded=discarded)
        if self.sharing is not None:
            for member in cohort:
                self._maybe_finish_cancelling(member, at)

    def _terminate(self, job: _QueryJob, finish: float) -> None:
        """Terminal bookkeeping once a stopped query's truncated wave
        has fully unwound (mirrors :meth:`_complete`)."""
        job.state = job.outcome
        job.finished_at = finish
        job.execution = job.build_execution(self.executor,
                                            status=job.outcome)
        self.running.remove(job)
        self.admission.release(job.footprint, at=finish)
        self.bus.emit(QUERY_FINISH, finish, job.tag,
                      response_time=finish - job.arrival,
                      threads=job.max_threads, status=job.outcome)
        self._record_terminal(job, finish, job.outcome)
        self._try_admit(finish)
        if self.running:
            self._refresh_grants(
                finish, grow=self.workload.scheduling.rebalance)

    def _record_terminal(self, job: _QueryJob, finish: float,
                         status: str) -> None:
        """Telemetry of one query reaching a terminal state: the
        end-to-end latency observation, the per-status tally, the
        machine-level levels, and — from the frozen execution — each
        pool's thread utilization and fractional cost shares."""
        if self.monitors is not None:
            self.monitors.observe(
                POINT_FINISH, finish, tag=job.tag, status=status,
                latency=finish - job.arrival,
                queue_depth=len(self.queue), running=len(self.running),
                used_bytes=self.admission.used_bytes,
                memory_limit=self.workload.memory_limit_bytes)
        if self.metrics is None:
            return
        metrics = self.metrics
        metrics.counter(QUERIES_FINISHED, status=status).inc(finish)
        if self.serving is not None:
            # Per-class series: the serving benchmark's per-priority /
            # per-tenant tail latencies read these.  Only with serving
            # on — legacy runs keep the exact legacy label sets.
            metrics.histogram(QUERY_LATENCY, status=status,
                              klass=f"p{job.priority}",
                              tenant=job.tenant).observe(
                finish, finish - job.arrival)
        else:
            metrics.histogram(QUERY_LATENCY, status=status).observe(
                finish, finish - job.arrival)
        metrics.gauge(RUNNING_QUERIES).set(finish, len(self.running))
        metrics.gauge(ADMISSION_QUEUE_DEPTH).set(finish, len(self.queue))
        execution = job.execution
        if execution is None:
            return
        for name, op in execution.operations.items():
            window = op.finished_at - op.started_at
            if op.threads and window > 0:
                metrics.gauge(POOL_UTILIZATION, query=job.tag,
                              pool=name).set(
                    finish, op.busy_time / (op.threads * window))
            if op.cost_share < 1.0:
                metrics.gauge(FOLD_COST_SHARE, query=job.tag,
                              operator=name).set(finish, op.cost_share)

    def _release_shared(self, job: _QueryJob, now: float,
                        detach: bool = True) -> None:
        """Unsubscribe *job* from every shared operator it touches.

        Subscriptions: taps deactivate (the host stops delivering to
        this query) and the reference count drops; an operator whose
        host already detached and whose last subscriber just left is
        an orphan and is drained.  Hosted operators: with surviving
        subscribers the runtime is *detached* — primary delivery and
        its enqueue charge stop, the operator leaves the host's drain
        set and keeps running for the survivors; without survivors it
        stays in the host's wave and is drained with it.  Idempotent.
        """
        if self.sharing is None or not job.materialized:
            return
        seen: set[int] = set()
        for shared in job.folds.values():
            if id(shared) in seen:
                continue
            seen.add(id(shared))
            shared.active_tags.discard(job.tag)
            for tap in shared.taps.pop(job.tag, ()):
                tap.active = False
            waiters = self._waiters_of.get(id(shared.runtime))
            if waiters is not None and job in waiters:
                waiters.remove(job)
            runtime = shared.runtime
            if (not shared.active_tags and runtime.primary_detached
                    and runtime.threads and not runtime.complete):
                self.simulator.drain_operations([runtime], now)
        for shared in job.hosted:
            shared.active_tags.discard(job.tag)
            shared.dead = True
            runtime = shared.runtime
            if runtime.complete:
                continue
            if detach and shared.active_tags and runtime.threads:
                runtime.primary_detached = True
                if runtime in job.current_wave_ops:
                    job.current_wave_ops.remove(runtime)

    def _maybe_finish_cancelling(self, job: _QueryJob, now: float) -> None:
        """Terminate a CANCELLING query whose wave has nothing left to
        unwind (every remaining own operation already complete — e.g.
        after detaching shared operators left the wave empty)."""
        if job.state != CANCELLING:
            return
        if any(not op.complete for op in job.current_wave_ops):
            return
        finish = max((op.finished_at for op in job.current_wave_ops),
                     default=now)
        self._terminate(job, max(finish, now))

    # -- serving / overload protection ----------------------------------------

    def _submit_serving(self, job: _QueryJob, now: float) -> None:
        """Arrival under the serving layer: reject instead of raise.

        An open-loop arrival stream has no caller to raise into — a
        query whose footprint can never fit becomes a terminal
        ``rejected`` status the client reads back, and the run keeps
        serving everyone else.
        """
        self.bus.emit(QUERY_SUBMIT, job.arrival, job.tag,
                      demand=job.demand, footprint=job.footprint,
                      priority=job.priority, tenant=job.tenant)
        if self.metrics is not None:
            self.metrics.counter(QUERIES_SUBMITTED).inc(now)
        try:
            self.admission.check_admissible(job.tag, job.footprint)
        except AdmissionError as error:
            self._reject(job, now, REJECTED, REJECT_MEMORY,
                         detail=str(error))
            return
        self.queue.push(job)
        if self.metrics is not None:
            self.metrics.gauge(ADMISSION_QUEUE_DEPTH).set(
                now, len(self.queue))

    def _reject(self, job: _QueryJob, now: float, status: str,
                reason: str, detail: str | None = None) -> None:
        """Terminate a never-admitted query as ``rejected``/``shed``.

        Mirrors the pre-admission withdrawal path of
        :meth:`_apply_deadline`: the job freezes an empty execution
        carrying the terminal status, emits the ``query.reject``
        terminal event, and goes through the same terminal telemetry
        as every other outcome — so conservation (every submission
        reaches exactly one terminal state) holds by construction.
        The caller has already removed the job from the wait queue.
        """
        job.state = status
        job.finished_at = now
        job.execution = job.build_execution(self.executor, status=status)
        payload = {"status": status, "reason": reason}
        if detail is not None:
            payload["detail"] = detail
        self.bus.emit(QUERY_REJECT, now, job.tag, **payload)
        if self.metrics is not None:
            name = QUERIES_SHED if status == SHED else QUERIES_REJECTED
            self.metrics.counter(name, reason=reason).inc(now)
        self._record_terminal(job, now, status)

    def _enforce_queue_bound(self, now: float) -> None:
        """Shed down to the bounded queue and signal backpressure.

        Runs after every admission pass (arrivals are the only thing
        that grows the queue, and they always trigger one).  The
        policy picks the victim — lowest-priority/youngest, most
        over-share, or most-doomed-deadline — and sheds only QUEUED
        queries, which is what keeps shedding cohort-safe under
        shared-work execution: folds happen at admission, so a waiter
        holds no shared subscriptions yet.
        """
        serving = self.serving
        limit = serving.queue_limit
        if limit is None:
            return
        while len(self.queue) > limit:
            victim = self.queue.victim(now)
            self.queue.remove(victim)
            self._reject(victim, now, SHED, SHED_QUEUE_FULL)
        engaged = len(self.queue) >= limit
        if engaged != self._backpressure:
            self._backpressure = engaged
            self.bus.emit(SERVE_BACKPRESSURE, now, engaged=engaged,
                          depth=len(self.queue), limit=limit)
            if self.metrics is not None:
                self.metrics.gauge(BACKPRESSURE_ENGAGED).set(
                    now, 1.0 if engaged else 0.0)

    def _update_brownout(self, now: float) -> None:
        """Trip (or clear) brownout from the monitor alert state.

        Brownout follows the *level* of the critical serving signals —
        the latency-SLO burn-rate alert and the retry-storm alert.
        While active, step-0 grants shrink by ``brownout_factor``
        (degrade per-query parallelism before shedding anyone) and
        fully folded queries may be admitted past the concurrency
        bound (they ride running work for free).
        """
        serving = self.serving
        if not serving.brownout or self.monitors is None:
            return
        alerts = self.monitors.alerts
        active = (alerts.is_active("latency_slo", "burn")
                  or alerts.is_active("retry_storm", "total"))
        if active != self.brownout:
            self.brownout = active
            self.bus.emit(SERVE_BROWNOUT, now, active=active,
                          factor=serving.brownout_factor)
            if self.metrics is not None:
                self.metrics.gauge(BROWNOUT_ACTIVE).set(
                    now, 1.0 if active else 0.0)

    # -- admission ------------------------------------------------------------

    def _try_admit(self, now: float) -> None:
        """Admit as many queued queries as capacity allows, FIFO.

        Co-admissible queries (e.g. simultaneous arrivals at t=0)
        are admitted as one *batch*: grants are computed once over
        the whole new running set before any of their first waves
        launch, so step 0's proportional split applies to all of
        them — the first arrival does not grab its full demand just
        because it was popped first.
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.enter("admission")
        try:
            self._try_admit_now(now)
            if self.serving is not None:
                self._enforce_queue_bound(now)
        finally:
            if profiler is not None:
                profiler.exit()

    def _try_admit_now(self, now: float) -> None:
        profiler = self.profiler
        serving = self.serving
        if serving is not None:
            self._update_brownout(now)
        admitted: list[_QueryJob] = []
        while True:
            job = self.queue.peek()
            if job is None:
                break
            if (serving is not None and self.queue.sheds_infeasible
                    and provably_infeasible(job, now)):
                # EDF: the head's sequential start-up alone already
                # overruns its deadline — admitting it would only burn
                # machine time on work guaranteed to time out.
                self.queue.pop(job)
                self._reject(job, now, SHED, SHED_DEADLINE_INFEASIBLE)
                continue
            if self.sharing is not None and not job.materialized:
                # Fold pass: price the query with its foldable subplans
                # shared before asking the memory gate.
                if profiler is not None:
                    profiler.enter("fold")
                folds = plan_folds(job.plan, self.sharing, now)
                footprint = projected_footprint(
                    job.plan, job.node_footprints, folds)
                if profiler is not None:
                    profiler.exit()
            else:
                folds = None
                footprint = job.footprint
            if not self.admission.fits(footprint):
                if (serving is not None and self.brownout
                        and folds is not None and folds
                        and len(folds) == len(job.plan.nodes)
                        and self.admission.fits_memory(footprint)):
                    # Brownout fold-through: every node of this query
                    # folds onto already-running work, so admitting it
                    # past the concurrency bound adds no machine load —
                    # it only lets the fold amortize further.
                    pass
                elif not self.running and not admitted:
                    # Nothing runs, yet the head still does not fit:
                    # no future completion can free capacity.
                    if serving is not None:
                        self.queue.pop(job)
                        self._reject(job, now, REJECTED, REJECT_IDLE)
                        continue
                    raise AdmissionError(
                        f"query {job.tag!r} cannot be admitted on an idle "
                        f"machine (footprint {footprint} bytes, "
                        f"{len(self.queue)} queued)")
                else:
                    break
            self.queue.pop(job)
            self.queue.on_admit(job)
            if folds is not None:
                if profiler is not None:
                    profiler.enter("fold")
                job.materialize(self.executor, self.sharing, folds,
                                footprint, now)
                if self.metrics is not None:
                    self._record_fold_pass(job, folds, now)
                if profiler is not None:
                    profiler.exit()
            job.state = RUNNING
            job.admitted_at = now
            self.running.append(job)
            self.admission.acquire(job.footprint, at=now)
            admitted.append(job)
        if not admitted:
            return
        grants = self._grants()
        for job in admitted:
            job.grant = grants[job.tag]
            # The folds payload names the hosting query of every folded
            # node — the span model's subscriber->host link.  Only
            # attached when non-empty, so unfolded admissions (and
            # every shared=False run) keep the exact legacy payload.
            extra = ({"folds": {name: shared.host_tag
                                for name, shared in job.folds.items()}}
                     if job.folds else {})
            self.bus.emit(QUERY_ADMIT, now, job.tag,
                          running=len(self.running), queued=len(self.queue),
                          footprint=job.footprint, **extra)
            self.bus.emit(QUERY_GRANT, now, job.tag, threads=job.grant,
                          budget=self.budget, reason="admission")
            if self.metrics is not None:
                self.metrics.counter(QUERIES_ADMITTED).inc(now)
                self.metrics.histogram(ADMISSION_WAIT).observe(
                    now, now - job.arrival)
                self.metrics.counter(GRANTS, reason="admission").inc(now)
                self.metrics.gauge(GRANTED_THREADS, query=job.tag).set(
                    now, job.grant)
        if self.metrics is not None:
            self.metrics.gauge(ADMISSION_QUEUE_DEPTH).set(
                now, len(self.queue))
            self.metrics.gauge(RUNNING_QUERIES).set(now, len(self.running))
        if self.monitors is not None:
            self.monitors.observe(
                POINT_ADMISSION, now,
                admitted=[(job.tag, now - job.arrival) for job in admitted],
                queue_depth=len(self.queue), running=len(self.running),
                used_bytes=self.admission.used_bytes,
                memory_limit=self.workload.memory_limit_bytes)
        # Queries admitted earlier shrink to their new fair share —
        # applied at their next wave boundary (running pools are never
        # revoked mid-wave).  Growth (an admission triggered by a
        # completion can leave a survivor with a *larger* share) is
        # left to the _refresh_grants pass that follows every
        # completion, which also recruits helper threads.
        for job in self.running:
            if job in admitted or grants[job.tag] >= job.grant:
                continue
            job.grant = grants[job.tag]
            self.bus.emit(QUERY_GRANT, now, job.tag, threads=job.grant,
                          budget=self.budget, reason="shrink")
            if self.metrics is not None:
                self.metrics.counter(GRANTS, reason="shrink").inc(now)
                self.metrics.gauge(GRANTED_THREADS, query=job.tag).set(
                    now, job.grant)
        for job in admitted:
            begin = max(now, self.startup_free_at)
            self.startup_free_at = begin + job.startup
            self._start_wave(job, begin + job.startup)

    def _record_fold_pass(self, job: _QueryJob,
                          folds: dict[str, SharedOperator],
                          now: float) -> None:
        """Fold hit-rate telemetry of one admission-time fold pass:
        how many of the plan's shareable (fingerprintable) nodes
        actually folded, and each shared operator's subscriber count.
        ``plan.fingerprints()`` is memoized — :func:`plan_folds` just
        computed it — so the attempt count is a dictionary walk."""
        metrics = self.metrics
        shareable = sum(1 for fingerprint in job.plan.fingerprints().values()
                        if fingerprint is not None)
        if shareable:
            metrics.counter(FOLD_ATTEMPTS).inc(now, shareable)
        if folds:
            metrics.counter(FOLD_HITS).inc(now, len(folds))
            for shared in {id(s): s for s in folds.values()}.values():
                metrics.gauge(
                    FOLD_SUBSCRIBERS,
                    operator=shared.runtime.name).set(
                    now, len(shared.active_tags))

    def _grants(self) -> dict[str, int]:
        """Step 0 over the currently running set.

        Weights are :attr:`_QueryJob.effective_complexity`: shared
        operators count fractionally toward every subscriber, so a
        query riding mostly on folded work asks for (and is granted)
        proportionally less of the machine.  Without sharing the
        property degenerates to the plain complexity.
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.enter("allocate")
        policy = self.workload.scheduling
        if policy.multi_resource:
            # Garofalakis-style step 0: the grant is capped at the
            # thread-equivalent of each query's binding resource.  The
            # stored-data footprint stands in for both the memory and
            # the streamed-from-disk demand of the simulated query.
            grants = allocate_to_queries(
                self.budget,
                [job.demand for job in self.running],
                [job.effective_complexity for job in self.running],
                resources=[ResourceVector(cpu=job.demand,
                                          memory_bytes=job.footprint,
                                          disk_bytes=job.footprint)
                           for job in self.running],
                capacities=ResourceVector(
                    cpu=self.budget,
                    memory_bytes=self.workload.memory_limit_bytes,
                    disk_bytes=policy.disk_bandwidth_bytes),
            )
        else:
            grants = allocate_to_queries(
                self.budget,
                [job.demand for job in self.running],
                [job.effective_complexity for job in self.running],
            )
        if profiler is not None:
            profiler.exit()
        if self.brownout:
            # Browned out: trade per-query parallelism (and its
            # dilation cost) for throughput before shedding anyone.
            factor = self.serving.brownout_factor
            grants = [max(1, int(grant * factor)) for grant in grants]
        return {job.tag: grant
                for job, grant in zip(self.running, grants)}

    # -- waves ---------------------------------------------------------------

    def _start_wave(self, job: _QueryJob, at: float) -> None:
        if self.sharing is not None and job.folds:
            self._start_wave_shared(job, at)
            return
        profiler = self.profiler
        if profiler is not None:
            profiler.enter("wave_prep")
        job.wave_index += 1
        job.wave_started_at = at
        wave = job.waves[job.wave_index]
        wave_ops = [job.runtimes[node.name]
                    for chain in wave for node in chain.nodes]
        base = [job.schedule.of(op.name).threads for op in wave_ops]
        base_total = sum(base)
        wave_total = min(base_total, max(job.grant, len(wave_ops)))
        if wave_total == base_total:
            # Grant covers the demand: the schedule applies verbatim
            # (largest-remainder over integer weights is exact, but
            # skipping it keeps the fact obvious).
            shares = base
        else:
            shares = _largest_remainder(wave_total, base)
        if self.adapt is not None:
            shares = self.adapt.before_wave(job.tag, job.wave_index,
                                            wave_ops, base, wave_total,
                                            shares, at)
        counts = {op.name: share for op, share in zip(wave_ops, shares)}
        self.next_thread_id, wave_threads = self.executor.prepare_wave(
            wave_ops, counts, at, self.next_thread_id)
        job.current_wave_ops = wave_ops
        job.wave_threads = wave_threads
        job.max_threads = max(job.max_threads, wave_threads)
        job.max_dilation = max(job.max_dilation,
                               self.machine.dilation(wave_threads))
        for op in wave_ops:
            self._job_of[id(op)] = job
        if job.bus is not None:
            job.bus.emit(WAVE_START, at, wave=job.wave_index,
                         operations=[op.name for op in wave_ops],
                         threads=wave_threads)
        self.simulator.add_operations(wave_ops)
        if profiler is not None:
            profiler.exit()

    def _start_wave_shared(self, job: _QueryJob, at: float) -> None:
        """Start the next wave of a query with folded subplans.

        Only the query's *own* (unfolded) operations get pools and
        threads; shared operators it rides on are tracked in
        ``current_wave_shared`` and the wave completes when both sets
        do (a pending shared runtime registers this job as a waiter).
        A wave whose work is entirely folded-and-finished advances
        immediately — possibly through several waves, or straight to
        completion for a fully duplicate query.
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.enter("wave_prep")
        try:
            self._start_wave_shared_now(job, at)
        finally:
            if profiler is not None:
                profiler.exit()

    def _start_wave_shared_now(self, job: _QueryJob, at: float) -> None:
        while True:
            job.wave_index += 1
            job.wave_started_at = at
            wave = job.waves[job.wave_index]
            own_ops: list[OperationRuntime] = []
            shared_list: list[SharedOperator] = []
            seen: set[int] = set()
            for chain in wave:
                for node in chain.nodes:
                    shared = job.folds.get(node.name)
                    if shared is None:
                        own_ops.append(job.runtimes[node.name])
                    elif id(shared) not in seen:
                        seen.add(id(shared))
                        shared_list.append(shared)
            job.current_wave_shared = shared_list
            if own_ops:
                base = [job.schedule.of(op.name).threads for op in own_ops]
                base_total = sum(base)
                wave_total = min(base_total, max(job.grant, len(own_ops)))
                shares = (base if wave_total == base_total
                          else _largest_remainder(wave_total, base))
                if self.adapt is not None:
                    shares = self.adapt.before_wave(
                        job.tag, job.wave_index, own_ops, base,
                        wave_total, shares, at)
                counts = {op.name: share
                          for op, share in zip(own_ops, shares)}
                self.next_thread_id, wave_threads = self.executor.prepare_wave(
                    own_ops, counts, at, self.next_thread_id)
            else:
                wave_threads = 0
            job.current_wave_ops = own_ops
            job.wave_threads = wave_threads
            job.max_threads = max(job.max_threads, wave_threads)
            if wave_threads:
                job.max_dilation = max(job.max_dilation,
                                       self.machine.dilation(wave_threads))
            for op in own_ops:
                self._job_of[id(op)] = job
            if job.bus is not None:
                job.bus.emit(WAVE_START, at, wave=job.wave_index,
                             operations=[op.name for op in own_ops],
                             shared=[s.runtime.name for s in shared_list],
                             threads=wave_threads)
            if own_ops:
                self.simulator.add_operations(own_ops)
            pending = [s for s in shared_list if not s.runtime.complete]
            for shared in pending:
                self._waiters_of.setdefault(
                    id(shared.runtime), []).append(job)
            if own_ops or pending:
                return
            # Everything in this wave folded onto already-finished
            # work: close it and move on (or finish the query).
            finish = max((s.runtime.finished_at for s in shared_list),
                         default=at)
            finish = max(finish, at)
            if job.bus is not None:
                job.bus.emit(WAVE_END, finish, wave=job.wave_index)
            if job.wave_index + 1 >= len(job.waves):
                self._complete(job, finish)
                return
            at = finish

    def _on_operation_complete(self, operation: OperationRuntime,
                               thread: WorkerThread) -> None:
        if self._waiters_of:
            waiters = self._waiters_of.pop(id(operation), None)
            if waiters:
                for waiter in list(waiters):
                    self._advance_if_wave_done(waiter)
        job = self._job_of.get(id(operation))
        if job is None:
            return
        self._advance_if_wave_done(job)

    def _advance_if_wave_done(self, job: _QueryJob) -> None:
        """Advance (or terminate) *job* if its current wave is done.

        A wave is done when every own operation is complete and — for
        shared-work queries — every shared operator it rides on in
        this wave is too.
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.enter("wave_barrier")
        try:
            self._advance_if_wave_done_now(job)
        finally:
            if profiler is not None:
                profiler.exit()

    def _advance_if_wave_done_now(self, job: _QueryJob) -> None:
        if job.state == CANCELLING:
            # A drained wave completes operation by operation as each
            # thread finishes its in-flight activation; once the last
            # one lands the query reaches its terminal state.
            if any(not op.complete for op in job.current_wave_ops):
                return
            finishes = [op.finished_at for op in job.current_wave_ops]
            finish = max(finishes) if finishes else job.cancel_requested_at
            self._terminate(job, max(finish, job.cancel_requested_at))
            return
        if job.state != RUNNING:
            return
        if any(not op.complete for op in job.current_wave_ops):
            return
        for shared in job.current_wave_shared:
            if not shared.runtime.complete:
                return
        finishes = [op.finished_at for op in job.current_wave_ops]
        finishes.extend(s.runtime.finished_at
                        for s in job.current_wave_shared)
        finish = max(max(finishes), job.wave_started_at)
        if job.bus is not None:
            job.bus.emit(WAVE_END, finish, wave=job.wave_index)
        if self.monitors is not None or self.adapt is not None:
            # The wave barrier is a control point: per-thread
            # finish/busy/idle stamps are fresh here, which is what the
            # straggler rule's Fig 12 blame split reads — and what the
            # adaptive controller distills into next-wave evidence.
            stamps = [(op.name,
                       [(t.finished_at, t.busy_time, t.idle_time)
                        for t in op.threads])
                      for op in job.current_wave_ops]
            if self.monitors is not None:
                self.monitors.observe(
                    POINT_WAVE, finish, tag=job.tag, wave=job.wave_index,
                    started_at=job.wave_started_at, ops=stamps)
            if (self.adapt is not None
                    and job.wave_index + 1 < len(job.waves)):
                self.adapt.observe_wave(job.tag, job.wave_index,
                                        job.wave_started_at, stamps)
        if job.wave_index + 1 < len(job.waves):
            self._start_wave(job, finish)
            return
        self._complete(job, finish)

    def _complete(self, job: _QueryJob, finish: float) -> None:
        job.state = DONE
        job.finished_at = finish
        if self.sharing is not None:
            self._release_shared(job, finish)
        job.execution = job.build_execution(self.executor)
        self.running.remove(job)
        self.admission.release(job.footprint, at=finish)
        self.bus.emit(QUERY_FINISH, finish, job.tag,
                      response_time=finish - job.arrival,
                      threads=job.max_threads)
        self._record_terminal(job, finish, DONE)
        # Freed capacity: first let queued queries in, then re-grant
        # the remaining budget across everyone still running.  With
        # zero survivors there is nothing to re-grant and no event to
        # emit — the workload bus ends on this query.finish.
        self._try_admit(finish)
        if self.running:
            self._refresh_grants(
                finish, grow=self.workload.scheduling.rebalance)

    # -- dynamic reallocation ---------------------------------------------------

    def _refresh_grants(self, now: float, grow: bool) -> None:
        if not self.running:
            return
        if self.serving is not None:
            self._update_brownout(now)
        profiler = self.profiler
        if profiler is not None:
            profiler.enter("regrant")
        grants = self._grants()
        for job in self.running:
            new = grants[job.tag]
            if new == job.grant:
                continue
            grew = new > job.grant
            job.grant = new
            self.bus.emit(QUERY_GRANT, now, job.tag, threads=new,
                          budget=self.budget,
                          reason="regrant" if grew else "shrink")
            if self.metrics is not None:
                self.metrics.counter(
                    GRANTS, reason="regrant" if grew else "shrink").inc(now)
                self.metrics.gauge(GRANTED_THREADS, query=job.tag).set(
                    now, new)
            if grew and grow and job.current_wave_ops:
                self._grow_current_wave(job, now)
        if profiler is not None:
            profiler.exit()
        if self.monitors is not None:
            self.monitors.observe(
                POINT_REGRANT, now, running=len(self.running),
                grants={job.tag: job.grant for job in self.running})

    def _grow_current_wave(self, job: _QueryJob, now: float) -> None:
        """Add helper threads to the job's in-flight wave.

        The wave was sized under an older, smaller grant; the deficit
        is covered by fresh threads joining the pools of still-running
        operations as pure secondary consumers (they own no main
        queues), weighted toward the operations with the most pending
        work — the inter-query version of the paper's "threads of an
        idle pool help the busy ones".
        """
        eligible = [op for op in job.current_wave_ops
                    if not op.complete and op.allow_secondary]
        if not eligible:
            return
        base_total = job.wave_totals[job.wave_index]
        deficit = min(job.grant, base_total) - job.wave_threads
        if deficit <= 0:
            return
        weights = [op.pending_activations + 1.0 for op in eligible]
        shares = _largest_remainder(deficit, weights, minimum=0)
        granted = 0
        for op, share in zip(eligible, shares):
            if share <= 0:
                continue
            thread_ids = list(range(self.next_thread_id,
                                    self.next_thread_id + share))
            self.next_thread_id += share
            helpers = op.add_threads(thread_ids, now)
            self.simulator.add_threads(op, helpers)
            granted += share
            self.bus.emit(QUERY_GRANT, now, job.tag, threads=share,
                          pool=op.name, reason="helpers")
            if self.metrics is not None:
                self.metrics.counter(GRANTS, reason="helpers").inc(now)
        job.wave_threads += granted
        job.max_threads = max(job.max_threads, job.wave_threads)
        job.max_dilation = max(job.max_dilation,
                               self.machine.dilation(job.wave_threads))
