"""The multi-query workload engine.

Admits several compiled queries into **one** shared virtual-time
simulation.  Each query keeps its own plan, schedule, observability
bus and trace; the machine — processors, dilation, the event heap —
is shared, so concurrent queries contend exactly the way the paper's
threads do inside one query.

Life of a query here.  Every query takes the same path: a private
query is a shared-work query that folded nothing, and serving,
telemetry and the profiler attach to the same lifecycle points.

1. **submit** at its arrival offset (:meth:`_WorkloadRun._submit`).
   The query is priced from its plan alone — demand, footprint and
   start-up; nothing is built yet.  A footprint that can never fit
   the memory limit raises :class:`~repro.errors.AdmissionError`;
   under serving it becomes a terminal ``rejected`` status instead.
   Otherwise the query enters the wait queue, FIFO unless a serving
   policy orders it.  Shed, rejected and withdrawn queries leave from
   here and never build anything.
2. **admit** when capacity and the memory gate allow
   (:class:`~repro.workload.admission.AdmissionController`).  With
   shared work on, the fold pass first prices the query with its
   foldable subplans riding on running work.  Admission is the one
   place a query builds its runtimes (:meth:`_QueryJob.materialize`).
   The sequential initialization is charged on the single init
   thread (start-ups of co-arriving queries serialize, as in the
   single-query executor).
3. **grant**: "step 0" — :func:`~repro.scheduler.allocation
   .allocate_to_queries` splits the machine's thread budget across
   running queries by estimated complexity, capped at each query's
   own demand.  A lone query gets its full demand, which is what
   makes the one-query path bit-identical to
   :class:`~repro.engine.executor.Executor` (golden-trace tested).
4. **waves** run through the shared simulator
   (:meth:`_WorkloadRun._start_wave`).  The query's own operations get
   pools sized by rescaling its schedule to the current grant
   (largest-remainder, the paper's step-3 rule); operations it folded
   onto are waited for, not run.
5. **re-grant**: when a query finishes, the freed capacity is
   redistributed; with ``rebalance`` on, still-running queries grow
   their *current* wave mid-flight with helper threads (pure
   secondary consumers — the paper's dynamic allocation generalized
   across queries).
6. **finish** (:meth:`_WorkloadRun._finish`): done, cancelled, timed
   out or failed, one terminal path freezes the execution, releases
   the runtimes, frees the capacity, lets waiters in and re-grants.
   Cancellations, timeouts and fault aborts first drain the current
   wave; the query finishes once its threads have unwound.  Only the
   frozen execution stays, so the run holds the execution state of
   the queries in flight, not of every arrival.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
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
    REJECT_MEMORY,
    SHED_DEADLINE_INFEASIBLE,
    SHED_QUEUE_FULL,
    make_admission_policy,
    provably_infeasible,
)
from repro.workload.admission import AdmissionController, node_footprints
from repro.workload.options import WorkloadOptions
from repro.workload.sharing import (
    FoldRegistry,
    SharedOperator,
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
    """Mutable per-query execution state inside one workload run.

    Construction prices the query from its plan alone — demand,
    complexity, footprint and start-up, what submit and admission
    read.  The extended view (runtimes, queues, dbfuncs, pipeline
    wiring) is built by :meth:`materialize` at admission and dropped
    by :meth:`release` at the terminal state, so a run holds the
    execution state of the queries in flight, not of every arrival.
    """

    __slots__ = (
        "tag", "compiled", "plan", "schedule", "arrival", "timeout",
        "cancel_at", "priority", "tenant", "order", "waves", "complexity",
        "folds", "hosted", "shared_results", "current_wave_shared",
        "node_complexities", "node_footprints", "footprint", "startup",
        "wave_totals", "demand", "runtimes", "bus", "tracer", "state",
        "wave_started_at", "grant", "wave_index", "current_wave_ops",
        "wave_threads", "max_threads", "max_dilation", "admitted_at",
        "finished_at", "execution", "outcome", "error",
        "cancel_requested_at")

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
        #: Shared-work state, set at admission.  A private query is
        #: one that folded nothing and hosts nothing.
        self.folds: dict[str, SharedOperator] = {}
        self.hosted: list[SharedOperator] = []
        self.shared_results: dict[str, list] = {}
        self.current_wave_shared: list[SharedOperator] = []
        self.node_complexities: dict[str, float] | None = None
        self.node_footprints = node_footprints(self.plan, machine.costs)
        self.footprint = sum(self.node_footprints.values())
        #: The start-up EDF's infeasibility test reads before
        #: admission.  Under sharing any node may still fold onto
        #: running work, so no start-up is certain until the fold pass.
        self.startup = (0.0 if shared
                        else executor.startup_time(self.plan.nodes,
                                                   self.schedule))
        self._size_waves()
        self.runtimes: dict[str, OperationRuntime] = {}
        self.bus = EventBus() if exec_options.observe else None
        self.tracer = (ExecutionTrace()
                       if exec_options.trace or exec_options.observe
                       else None)
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

    def _size_waves(self) -> None:
        """Per-wave thread totals of the query's own (unfolded)
        operations, and the step-0 demand: more threads than the
        widest wave asks for could never be used."""
        self.wave_totals = [
            sum(self.schedule.of(node.name).threads
                for chain in wave for node in chain.nodes
                if node.name not in self.folds)
            for wave in self.waves
        ]
        self.demand = max(1, max(self.wave_totals))

    # -- materialization ----------------------------------------------------------

    def materialize(self, executor: Executor,
                    registry: FoldRegistry | None,
                    folds: dict[str, SharedOperator], footprint: int,
                    now: float) -> None:
        """Build this query's runtimes given its fold set.

        Runs once, at admission; a query that is never admitted never
        builds.  Folded nodes get no runtimes — instead the host
        operator gains a delivery tap at each *frontier* folded node
        (one whose pipeline consumer is private, or which is terminal
        here); interior folded nodes need nothing, their data flows
        inside the host's own wiring.  With a fold *registry* (shared
        work on), the query's own shareable first-wave operators are
        offered as fold targets.  Afterwards the query's start-up,
        demand and footprint cover the private remainder: what folded
        rides free.  A private query folds nothing, so this is the
        whole extended view.
        """
        self.folds = folds
        own = [node for node in self.plan.nodes if node.name not in folds]
        self.runtimes = executor.build_runtimes(
            self.plan, self.schedule, only={node.name for node in own})
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
        if registry is not None:
            self.node_complexities = {
                node.name: operator_complexity(node.spec,
                                               executor.machine.costs)
                for node in self.plan.nodes}
            # Offer this query's own shareable first-wave operators as
            # fold targets for later arrivals (first live entry wins;
            # duplicate subplans within one plan stay private).
            wave0 = {node.name for chain in self.waves[0]
                     for node in chain.nodes}
            fingerprints = self.plan.fingerprints()
            for node in own:
                fingerprint = fingerprints[node.name]
                if node.name not in wave0 or fingerprint is None:
                    continue
                shared = SharedOperator(
                    runtime=self.runtimes[node.name], host_tag=self.tag,
                    fingerprint=fingerprint,
                    complexity=self.node_complexities[node.name],
                    footprint=self.node_footprints[node.name])
                if registry.register(shared, now):
                    self.hosted.append(shared)
        self.startup = executor.startup_time(own, self.schedule)
        self._size_waves()
        self.footprint = footprint
        executor.attach_observability(self.runtimes, self.bus, self.tracer)

    def release(self) -> None:
        """Drop the execution state once the query is terminal.

        The frozen :attr:`execution` keeps the metrics, rows, trace
        and bus; everything else the query built goes.  A hosted
        operator that still feeds subscribers stays alive through its
        :class:`SharedOperator`, which the subscribers hold.
        """
        self.runtimes = {}
        self.current_wave_ops = []
        self.current_wave_shared = []
        self.folds = {}
        self.hosted = []
        self.shared_results = {}
        self.node_complexities = None
        self.node_footprints = None

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

    def build_execution(self, status: str) -> QueryExecution:
        """Freeze metrics once the last wave finished.

        ``response_time`` is measured from *submission*, so it
        includes any admission-queue wait — for a query submitted at
        t=0 and admitted immediately it equals the absolute finish
        time, exactly as the single-query executor reports it.

        A non-``done`` status freezes a *partial* execution: only the
        operations that actually finished (normally or via a drain)
        contribute metrics, and ``result_rows`` holds whatever the
        final operator emitted before the query was stopped.

        Folded operators appear here under this query's node names,
        carrying the host runtime's raw counters at ``cost_share =
        1/len(all subscribers)``; a host's own shared operators get the
        same fractional share.  Result rows of a folded terminal node
        come from its delivery tap's collector.
        """
        assert self.finished_at is not None
        operations: dict[str, OperationMetrics] = {}
        result_rows: list = []
        # Never admitted: nothing was built, nothing to report.
        if self.admitted_at is not None:
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


#: The section of a run without a profiler: a no-op context manager,
#: shared because it holds no state.
_NO_SECTION = nullcontext()


def _profiled(name: str):
    """Run the decorated :class:`_WorkloadRun` method inside profiler
    section *name* (a no-op when the run has no profiler)."""
    def decorate(method):
        @functools.wraps(method)
        def profiled(self, *args, **kwargs):
            with self._section(name):
                return method(self, *args, **kwargs)
        return profiled
    return decorate


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
        #: Owner of every started runtime, keyed by ``id``.  A job's
        #: entries leave when it is released, before its runtimes can
        #: be freed and their ids reused.
        self._job_of: dict[int, _QueryJob] = {}

    # -- outer loop -----------------------------------------------------------

    def _section(self, name: str):
        """Context manager timing profiler section *name*."""
        profiler = self.profiler
        return _NO_SECTION if profiler is None else profiler.section(name)

    def run(self) -> WorkloadResult:
        profiler = self.profiler
        if self._own_profiler:
            profiler.start()
        try:
            return self._run()
        finally:
            if self._own_profiler:
                profiler.stop()

    def _run(self) -> WorkloadResult:
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
            with self._section("sim"):
                self.simulator.run(until=now)
            with self._section("control"):
                self._maybe_recycle_thread_ids()
                arrived = False
                deadlines: list[tuple[_QueryJob, str]] = []
                while index < len(events) and events[index][0] <= now:
                    _, _, order, kind = events[index]
                    index += 1
                    job = self.jobs[order]
                    if kind == "arrive":
                        self._submit(job, now)
                        arrived = True
                    else:
                        deadlines.append((job, kind))
                # Deadlines apply before admission: a query cancelled
                # at its arrival instant is withdrawn from the wait
                # queue and never touches the machine.
                for job, outcome in deadlines:
                    self._apply_deadline(job, now, outcome)
                if arrived:
                    self._try_admit(now)
        with self._section("sim"):
            self.simulator.run()
        with self._section("assemble"):
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

    def _submit(self, job: _QueryJob, now: float) -> None:
        """Arrival: check the footprint, then enter the wait queue.

        A query whose footprint can never fit raises
        :class:`AdmissionError` into the caller.  Under the serving
        layer it is rejected instead: an open-loop arrival stream has
        no caller to raise into, so the query becomes a terminal
        ``rejected`` status the client reads back, and the run keeps
        serving everyone else.
        """
        extra = ({"priority": job.priority, "tenant": job.tenant}
                 if self.serving is not None else {})
        self.bus.emit(QUERY_SUBMIT, job.arrival, job.tag,
                      demand=job.demand, footprint=job.footprint, **extra)
        if self.metrics is not None:
            self.metrics.counter(QUERIES_SUBMITTED).inc(now)
        try:
            self.admission.check_admissible(job.tag, job.footprint)
        except AdmissionError as error:
            if self.serving is None:
                raise
            self._reject(job, now, REJECTED, REJECT_MEMORY,
                         detail=str(error))
            return
        self.queue.push(job)
        if self.metrics is not None:
            self.metrics.gauge(ADMISSION_QUEUE_DEPTH).set(
                now, len(self.queue))

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
            job.execution = job.build_execution(outcome)
            self._release(job)
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
            self._maybe_finish_cancelling(job)

    def _on_query_abort(self, operation: OperationRuntime,
                        error: ExecutionFaultError, at: float) -> None:
        """Simulator callback: an activation exhausted its retries.

        The owning query fails cleanly — its wave is drained and its
        capacity eventually regranted to survivors — instead of the
        fault tearing down the whole workload.  A failed shared
        operator takes its live subscribers with it.  Only running
        queries join the cohort: one already draining just lets the
        failing thread wind down, and a terminal one (a cancelled host
        whose detached operator kept feeding its subscribers) has no
        state left to fail.
        """
        job = self._job_of.get(id(operation))
        shared = (self.sharing.by_runtime(id(operation))
                  if self.sharing is not None else None)
        if job is None and shared is None:
            raise error
        cohort: list[_QueryJob] = []
        if job is not None and job.state == RUNNING:
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
                f"{shared.host_tag!r}) aborted: {error}")
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
                self._maybe_finish_cancelling(member)

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
        # Per-class series: the serving benchmark's per-priority /
        # per-tenant tail latencies read these.  Only with serving on —
        # other runs keep the label set without class and tenant.
        labels = ({"klass": f"p{job.priority}", "tenant": job.tenant}
                  if self.serving is not None else {})
        metrics.histogram(QUERY_LATENCY, status=status, **labels).observe(
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
        if self.sharing is None or job.admitted_at is None:
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

    def _maybe_finish_cancelling(self, job: _QueryJob) -> None:
        """Terminate a CANCELLING query once its drained wave has
        nothing left to unwind: each thread finishes its in-flight
        activation, and the last one to land (or the stop request
        itself, when detaching shared operators left the wave empty)
        sets the finish time."""
        if job.state != CANCELLING:
            return
        if any(not op.complete for op in job.current_wave_ops):
            return
        requested = job.cancel_requested_at
        finish = max((op.finished_at for op in job.current_wave_ops),
                     default=requested)
        self._finish(job, max(finish, requested), job.outcome)

    # -- serving / overload protection ----------------------------------------

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
        job.execution = job.build_execution(status)
        self._release(job)
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

    @_profiled("admission")
    def _try_admit(self, now: float) -> None:
        """Admit as many queued queries as capacity allows, in the
        wait queue's order, then shed down to a bounded queue.

        Co-admissible queries (e.g. simultaneous arrivals at t=0)
        are admitted as one *batch*: grants are computed once over
        the whole new running set before any of their first waves
        launch, so step 0's proportional split applies to all of
        them — the first arrival does not grab its full demand just
        because it was popped first.
        """
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
            if self.sharing is not None:
                # Fold pass: price the query with its foldable subplans
                # shared before asking the memory gate.
                with self._section("fold"):
                    folds = plan_folds(job.plan, self.sharing, now)
                    footprint = projected_footprint(
                        job.plan, job.node_footprints, folds)
            else:
                folds = {}
                footprint = job.footprint
            # Brownout fold-through: a query whose every node folds
            # onto already-running work adds no machine load, so it may
            # pass the concurrency bound — it only lets the fold
            # amortize further.  The head always fits an idle machine:
            # submit rejected any footprint above the memory limit,
            # and folding only lowers it.
            if not self.admission.fits(footprint) and not (
                    self.brownout and folds
                    and len(folds) == len(job.plan.nodes)
                    and self.admission.fits_memory(footprint)):
                break
            self.queue.pop(job)
            self.queue.on_admit(job)
            # The one place a query builds its runtimes: shed, rejected
            # and withdrawn queries never get here.  Only shared work
            # has a fold pass to time it under.
            with (self._section("fold") if self.sharing is not None
                  else _NO_SECTION):
                job.materialize(self.executor, self.sharing, folds,
                                footprint, now)
                if self.sharing is not None and self.metrics is not None:
                    self._record_fold_pass(job, folds, now)
            job.state = RUNNING
            job.admitted_at = now
            self.running.append(job)
            self.admission.acquire(job.footprint, at=now)
            admitted.append(job)
        if admitted:
            self._launch(admitted, now)
        if serving is not None:
            self._enforce_queue_bound(now)

    def _launch(self, admitted: list[_QueryJob], now: float) -> None:
        """Grant a batch of newly admitted queries and start their
        first waves once their sequential start-ups are done."""
        grants = self._grants()
        for job in admitted:
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
            if self.metrics is not None:
                self.metrics.counter(QUERIES_ADMITTED).inc(now)
                self.metrics.histogram(ADMISSION_WAIT).observe(
                    now, now - job.arrival)
            self._set_grant(job, now, grants[job.tag], "admission")
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
            self._set_grant(job, now, grants[job.tag], "shrink")
        for job in admitted:
            begin = max(now, self.startup_free_at)
            self.startup_free_at = begin + job.startup
            self._start_wave(job, begin + job.startup)

    def _set_grant(self, job: _QueryJob, now: float, threads: int,
                   reason: str) -> None:
        """Set *job*'s step-0 grant and record it (event, counter and
        gauge); ``reason`` is admission, shrink or regrant."""
        job.grant = threads
        self.bus.emit(QUERY_GRANT, now, job.tag, threads=threads,
                      budget=self.budget, reason=reason)
        if self.metrics is not None:
            self.metrics.counter(GRANTS, reason=reason).inc(now)
            self.metrics.gauge(GRANTED_THREADS, query=job.tag).set(
                now, threads)

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
        policy = self.workload.scheduling
        resources = capacities = None
        with self._section("allocate"):
            if policy.multi_resource:
                # Garofalakis-style step 0: the grant is capped at the
                # thread-equivalent of each query's binding resource.
                # The stored-data footprint stands in for both the
                # memory and the streamed-from-disk demand of the
                # simulated query.
                resources = [ResourceVector(cpu=job.demand,
                                            memory_bytes=job.footprint,
                                            disk_bytes=job.footprint)
                             for job in self.running]
                capacities = ResourceVector(
                    cpu=self.budget,
                    memory_bytes=self.workload.memory_limit_bytes,
                    disk_bytes=policy.disk_bandwidth_bytes)
            grants = allocate_to_queries(
                self.budget,
                [job.demand for job in self.running],
                [job.effective_complexity for job in self.running],
                resources=resources, capacities=capacities)
        if self.brownout:
            # Browned out: trade per-query parallelism (and its
            # dilation cost) for throughput before shedding anyone.
            factor = self.serving.brownout_factor
            grants = [max(1, int(grant * factor)) for grant in grants]
        return {job.tag: grant
                for job, grant in zip(self.running, grants)}

    # -- waves ---------------------------------------------------------------

    @_profiled("wave_prep")
    def _start_wave(self, job: _QueryJob, at: float) -> None:
        """Start the next wave of *job* at virtual time *at*.

        Only the query's *own* operations get pools and threads;
        shared operators it folded onto are tracked in
        ``current_wave_shared``, and the wave completes when both sets
        do (a pending shared runtime registers this job as a waiter).
        A query without folds is the case of an empty shared set.
        Only first-wave operators of a query whose pools have not
        started are fold targets, so a folded wave always has own or
        pending shared work.
        """
        job.wave_index += 1
        job.wave_started_at = at
        own_ops: list[OperationRuntime] = []
        shared_of: dict[int, SharedOperator] = {}
        for chain in job.waves[job.wave_index]:
            for node in chain.nodes:
                shared = job.folds.get(node.name)
                if shared is None:
                    own_ops.append(job.runtimes[node.name])
                else:
                    shared_of.setdefault(id(shared), shared)
        job.current_wave_shared = list(shared_of.values())
        wave_threads = 0
        if own_ops:
            base = [job.schedule.of(op.name).threads for op in own_ops]
            base_total = sum(base)
            wave_total = min(base_total, max(job.grant, len(own_ops)))
            # A grant that covers the demand applies the schedule
            # verbatim (largest-remainder over integer weights is
            # exact, but skipping it keeps the fact obvious).
            shares = (base if wave_total == base_total
                      else _largest_remainder(wave_total, base))
            if self.adapt is not None:
                shares = self.adapt.before_wave(
                    job.tag, job.wave_index, own_ops, base, wave_total,
                    shares, at)
            counts = {op.name: share for op, share in zip(own_ops, shares)}
            self.next_thread_id, wave_threads = self.executor.prepare_wave(
                own_ops, counts, at, self.next_thread_id)
            job.max_dilation = max(job.max_dilation,
                                   self.machine.dilation(wave_threads))
        job.current_wave_ops = own_ops
        job.wave_threads = wave_threads
        job.max_threads = max(job.max_threads, wave_threads)
        for op in own_ops:
            self._job_of[id(op)] = job
        if job.bus is not None:
            extra = ({"shared": [s.runtime.name
                                 for s in job.current_wave_shared]}
                     if job.folds else {})
            job.bus.emit(WAVE_START, at, wave=job.wave_index,
                         operations=[op.name for op in own_ops],
                         **extra, threads=wave_threads)
        if own_ops:
            self.simulator.add_operations(own_ops)
        for shared in job.current_wave_shared:
            if not shared.runtime.complete:
                self._waiters_of.setdefault(
                    id(shared.runtime), []).append(job)

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

    @_profiled("wave_barrier")
    def _advance_if_wave_done(self, job: _QueryJob) -> None:
        """Advance (or terminate) *job* if its current wave is done.

        A wave is done when every own operation is complete and every
        shared operator it rides on in this wave is too.  A drained
        wave completes operation by operation as each thread finishes
        its in-flight activation; once the last one lands the stopped
        query reaches its terminal state.
        """
        if job.state == CANCELLING:
            self._maybe_finish_cancelling(job)
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
        self._finish(job, finish, DONE)

    def _finish(self, job: _QueryJob, at: float, status: str) -> None:
        """Terminal bookkeeping of an admitted query: its last wave
        finished (``done``), or its drained wave has fully unwound
        (``cancelled``/``timed_out``/``failed``).  A stopped query
        already left its shared operators when the stop was requested.
        """
        job.state = status
        job.finished_at = at
        if status == DONE:
            self._release_shared(job, at)
        job.execution = job.build_execution(status)
        self._release(job)
        self.running.remove(job)
        self.admission.release(job.footprint, at=at)
        stopped = {"status": status} if status != DONE else {}
        self.bus.emit(QUERY_FINISH, at, job.tag,
                      response_time=at - job.arrival,
                      threads=job.max_threads, **stopped)
        self._record_terminal(job, at, status)
        # Freed capacity: first let queued queries in, then re-grant
        # the remaining budget across everyone still running.  With
        # zero survivors there is nothing to re-grant and no event to
        # emit — the workload bus ends on this query.finish.
        self._try_admit(at)
        self._refresh_grants(at)

    def _release(self, job: _QueryJob) -> None:
        """Free a terminal query's execution state.  Its runtimes leave
        the id-keyed owner map first: once freed, their ids may be
        reused by runtimes built later."""
        for runtime in job.runtimes.values():
            self._job_of.pop(id(runtime), None)
        job.release()

    # -- dynamic reallocation ---------------------------------------------------

    def _refresh_grants(self, now: float) -> None:
        if not self.running:
            return
        if self.serving is not None:
            self._update_brownout(now)
        with self._section("regrant"):
            grants = self._grants()
            for job in self.running:
                new = grants[job.tag]
                if new == job.grant:
                    continue
                grew = new > job.grant
                self._set_grant(job, now, new,
                                "regrant" if grew else "shrink")
                if (grew and self.workload.scheduling.rebalance
                        and job.current_wave_ops):
                    self._grow_current_wave(job, now)
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
