"""A query's execution state lives from admission to its terminal state.

The workload engine prices a query from its plan at submit time and
builds its runtimes (queues, dbfuncs, pipeline wiring) only when it is
admitted; at its terminal state it drops them and keeps the frozen
execution.  So shed, rejected and withdrawn queries never build, a
finished query's runtimes are garbage while the run goes on, and the
memory a run needs follows the queries in flight rather than the
length of the arrival stream.  A hosted shared operator outlives its
host for as long as subscribers still read it.

Everything here is deterministic: build calls are counted, liveness is
read through weak references after ``gc.collect()``, and the memory
gate compares two ``tracemalloc`` figures from the same process.
"""

import gc
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from repro import DBS3, WorkloadOptions, generate_wisconsin
from repro.bench.workloads import make_join_database
from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import Executor, ObservabilityOptions, QuerySchedule
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine
from repro.obs.bus import QUERY_ADMIT
from repro.obs.monitor import POINT_FINISH, Monitor
from repro.serve.harness import build_submissions, default_templates, run_serving
from repro.serve.policies import ServingPolicy
from repro.workload.admission import plan_footprint
from repro.workload.engine import QuerySubmission, WorkloadExecutor
from repro.workload.session import CANCELLED, DONE, REJECTED, SHED, TIMED_OUT

MACHINE = Machine.uniform(processors=8)


def _template_footprints():
    """Footprint of each default serving template on MACHINE."""
    submissions = build_submissions(default_templates(),
                                    [0.01 * i for i in range(30)],
                                    machine=MACHINE)
    return {s.tag.rsplit("-", 1)[0]: plan_footprint(s.compiled.plan,
                                                    MACHINE.costs)
            for s in submissions}


@pytest.fixture
def builds(monkeypatch):
    """Every ``Executor.build_runtimes`` call of the test, as
    ``(plan, weak references to the runtimes it built)``.  Only weak
    references: the record must not keep anything alive."""
    calls = []
    original = Executor.build_runtimes

    def recording(self, plan, schedule, only=None):
        runtimes = original(self, plan, schedule, only=only)
        calls.append((plan, {name: weakref.ref(rt)
                             for name, rt in runtimes.items()}))
        return runtimes

    monkeypatch.setattr(Executor, "build_runtimes", recording)
    return calls


class TestBuildAtAdmission:
    def test_only_admitted_queries_build(self, builds):
        """An overloaded EDF stream with a bounded queue and a memory
        limit that the batch template can never fit: shed and rejected
        queries are priced but never built."""
        footprints = _template_footprints()
        limit = (footprints["standard"] + footprints["batch"]) // 2
        result = run_serving(
            arrival="mmpp", rate=200.0, count=300, seed=3, machine=MACHINE,
            workload=WorkloadOptions(
                max_concurrent=2, memory_limit_bytes=limit,
                serving=ServingPolicy(policy="edf", queue_limit=4)),
            observe=False)
        statuses = [e.status for e in result.executions.values()]
        assert statuses.count(SHED) > 0
        assert statuses.count(REJECTED) > 0
        admitted = sum(1 for e in result.bus.events if e.kind == QUERY_ADMIT)
        assert len(builds) == admitted == statuses.count(DONE)

    def test_withdrawn_queries_never_build(self, builds):
        """Queries cancelled at their arrival, or timed out while they
        wait, leave the wait queue without building anything."""
        submissions = [
            replace(s, cancel_at=s.arrival, timeout=None) if i % 3 == 1
            else replace(s, timeout=1e-4) if i % 3 == 2
            else replace(s, timeout=None)
            for i, s in enumerate(build_submissions(
                default_templates(), [0.0] * 12, machine=MACHINE))]
        result = WorkloadExecutor(
            MACHINE, workload=WorkloadOptions(max_concurrent=2)).execute(
            submissions)
        admitted = {e.operation for e in result.bus.events
                    if e.kind == QUERY_ADMIT}
        statuses = {tag: result.status_of(tag) for tag in result.order}
        assert [statuses[s.tag] for i, s in enumerate(submissions)
                if i % 3 == 1] == [CANCELLED] * 4
        assert any(status == TIMED_OUT and tag not in admitted
                   for tag, status in statuses.items())
        assert len(builds) == len(admitted)
        assert [plan for plan, _ in builds] == [
            s.compiled.plan for s in submissions if s.tag in admitted]


class _LivenessProbe(Monitor):
    """A monitor rule that reads runtime liveness at control points.

    At every admission and regrant point it runs ``gc.collect()`` and
    records which queries had finished at an earlier virtual instant
    and, for every tag *refs_of* returns weak references for, whether
    any of those runtimes is still alive.  Points at the finish instant
    itself are still inside the finishing operation's callback, whose
    frames hold that operation.
    """

    name = "liveness_probe"

    def __init__(self, refs_of) -> None:
        self.refs_of = refs_of

    def reset(self) -> None:
        self.finishes: list[tuple[float, str]] = []
        self.readings: list[tuple[list[str], dict[str, bool]]] = []

    def evaluate(self, ctx, alerts) -> None:
        if ctx.point == POINT_FINISH:
            self.finishes.append((ctx.now, ctx.get("tag")))
            return
        gc.collect()
        self.readings.append((
            [tag for at, tag in self.finishes if at < ctx.now],
            {tag: any(ref() is not None for ref in refs.values())
             for tag, refs in self.refs_of().items()}))


class TestReleaseAtTerminal:
    def test_finished_private_runtimes_are_freed_mid_run(self, builds):
        submissions = build_submissions(
            default_templates(), [0.02 * i for i in range(40)],
            machine=MACHINE)
        tag_of = {id(s.compiled.plan): s.tag for s in submissions}
        probe = _LivenessProbe(lambda: {tag_of[id(plan)]: refs
                                        for plan, refs in builds})
        workload = WorkloadOptions(
            max_concurrent=2,
            observability=ObservabilityOptions(monitors=(probe,)))
        result = WorkloadExecutor(MACHINE, workload=workload).execute(
            submissions)
        assert all(result.status_of(tag) == DONE for tag in result.order)
        checked = set()
        for finished, alive in probe.readings:
            for tag in finished:
                assert not alive[tag], f"{tag} still holds runtimes"
                checked.add(tag)
        # Every query but the last few finished before a later point.
        assert len(checked) >= len(submissions) - 3

    def test_hosted_runtime_lives_while_subscribers_read_it(self, builds):
        """Cancelling the host early detaches its shared join; the
        fully folded rider keeps reading it.  The host's runtime must
        stay reachable from the host's finish until the rider's, and
        the rider still returns every row."""
        db = DBS3(processors=48)
        db.create_table(generate_wisconsin("A", 2_000, seed=1), "unique1",
                        degree=20)
        db.create_table(generate_wisconsin("B", 200, seed=2), "unique1",
                        degree=20)
        schema = db.table("A").relation.schema.concat(
            db.table("B").relation.schema)
        reference = sorted(db.query(
            "SELECT * FROM A JOIN B ON A.unique1 = B.unique1").rows)
        builds.clear()
        plans = {tag: ideal_join_plan(db.table("A"), db.table("B"),
                                      "unique1", "unique1",
                                      node_name=f"{tag}_join")
                 for tag in ("qa", "qb")}
        probe = _LivenessProbe(lambda: {
            "qa_join": {"qa_join": refs["qa_join"]}
            for plan, refs in builds if plan is plans["qa"]})
        session = db.session(options=WorkloadOptions(
            max_concurrent=2, shared=True,
            observability=ObservabilityOptions(monitors=(probe,))))
        host = session.submit_plan(plans["qa"], schema, threads=10,
                                   tag="qa")
        rider = session.submit_plan(plans["qb"], schema, threads=10,
                                    tag="qb")
        host.cancel(at=0.005)
        result = session.run()
        assert host.status == CANCELLED
        assert rider.status == DONE
        assert result.execution("qb").total_threads == 0  # fully folded
        assert sorted(rider.result().rows) == reference
        between = [alive for finished, alive in probe.readings
                   if finished == ["qa"]]
        assert between, "no control point between the two finishes"
        assert all(alive["qa_join"] for alive in between)


def _transient_peak(count: int) -> int:
    """Transient ``tracemalloc`` working set of a *count*-query batch:
    the peak minus what the returned result still holds.

    Degree-50 AssocJoins over a fresh database at MPL 2.  Submissions
    (plans and schedules) are built before tracing starts.
    """
    database = make_join_database(2000, 200, degree=50, theta=0.0)
    submissions = []
    for i in range(count):
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        submissions.append(QuerySubmission(
            f"q{i}", CompiledQuery(plan, None, None, f"q{i}"),
            QuerySchedule.for_plan(plan, 4)))
    gc.collect()
    tracemalloc.start()
    try:
        result = WorkloadExecutor(
            MACHINE, workload=WorkloadOptions(max_concurrent=2)).execute(
            submissions)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(result.execution(tag).result_cardinality
               == database.expected_matches for tag in result.order)
    return peak - retained


def test_working_set_follows_the_queries_in_flight():
    """Four times the queries at the same MPL needs at most twice the
    transient memory: only the two running queries hold runtimes.
    Building every query up front made it grow with the batch."""
    small = _transient_peak(25)
    large = _transient_peak(100)
    assert large <= 2.0 * small, (large, small, large / small)
