"""Multi-user batches: hand-built plans through the workload engine.

A batch of (plan, schedule) pairs submitted at t=0 with the admission
bound and the thread budget lifted to the batch, so step 0 grants
every query its full schedule: all queries share one simulation, and
the machine's dilation follows the combined thread count.
"""

import pytest

from repro.bench.workloads import make_join_database
from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import Executor, QuerySchedule
from repro.lera.plans import assoc_join_plan, ideal_join_plan
from repro.machine.machine import Machine
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.workload.engine import QuerySubmission, WorkloadExecutor
from repro.workload.options import WorkloadOptions

MACHINE = Machine.uniform(processors=16)


def _workload(count=3, threads=4, theta=0.0, card_a=2000, card_b=200):
    workload = []
    expected = []
    for i in range(count):
        database = make_join_database(card_a, card_b, degree=10, theta=theta,
                                      name_a=f"A{i}", name_b=f"B{i}")
        plan = (ideal_join_plan if i % 2 == 0 else assoc_join_plan)(
            database.entry_a, database.entry_b, "key", "key")
        workload.append((plan, QuerySchedule.for_plan(plan, threads)))
        expected.append(database.expected_matches)
    return workload, expected


def _run_batch(machine, workload):
    """Run every (plan, schedule) pair at once, each at full demand."""
    submissions = [
        QuerySubmission(f"q{i}", CompiledQuery(plan, None, None, f"q{i}"),
                        schedule)
        for i, (plan, schedule) in enumerate(workload)]
    budget = sum(op.threads for _, schedule in workload
                 for op in schedule.operations.values())
    options = WorkloadOptions(max_concurrent=len(workload),
                              thread_budget=budget)
    return WorkloadExecutor(machine, workload=options).execute(submissions)


class TestMultiUserBatch:
    def test_results_per_query(self):
        workload, expected = _workload()
        result = _run_batch(MACHINE, workload)
        assert [result.execution(tag).result_cardinality
                for tag in result.order] == expected

    def test_empty_batch_runs_to_empty_result(self):
        """An empty batch is not an error: it finishes at once with
        nothing to report."""
        result = WorkloadExecutor(MACHINE).execute([])
        assert result.executions == {}
        assert result.order == ()
        assert result.makespan == 0.0

    def test_makespan_covers_every_query(self):
        workload, _ = _workload()
        result = _run_batch(MACHINE, workload)
        assert result.makespan == pytest.approx(
            max(e.response_time for e in result.executions.values()))

    def test_throughput_beats_serial_with_spare_processors(self):
        workload, _ = _workload(count=4, threads=4)
        concurrent = _run_batch(MACHINE, workload)
        serial = sum(Executor(MACHINE).execute(plan, schedule).response_time
                     for plan, schedule in workload)
        assert concurrent.makespan < serial

    def test_contention_slows_individual_queries(self):
        """Over-subscribing the machine dilates everyone."""
        small_machine = Machine.uniform(processors=4)
        workload, _ = _workload(count=4, threads=4)
        alone = Executor(small_machine).execute(*workload[0]).response_time
        shared = _run_batch(small_machine, workload)
        assert shared.execution("q0").response_time > alone

    def test_mean_response_time(self):
        workload, _ = _workload(count=2)
        result = _run_batch(MACHINE, workload)
        expected = sum(e.response_time
                       for e in result.executions.values()) / 2
        assert result.mean_response_time == pytest.approx(expected)

    def test_multi_user_factor_raises_throughput_under_contention(self):
        """The [Rahm93] hook: damping per-query parallelism leaves
        processors for the other queries."""
        machine = Machine.uniform(processors=8)
        scheduler_full = AdaptiveScheduler(machine, multi_user_factor=1.0)
        scheduler_damped = AdaptiveScheduler(machine, multi_user_factor=0.4)

        def batch(scheduler):
            workload = []
            for i in range(4):
                database = make_join_database(
                    4000, 400, degree=10, theta=0.0,
                    name_a=f"X{i}", name_b=f"Y{i}")
                plan = ideal_join_plan(database.entry_a, database.entry_b,
                                       "key", "key")
                workload.append((plan, scheduler.schedule(plan)))
            return _run_batch(machine, workload)

        full = batch(scheduler_full)
        damped = batch(scheduler_damped)
        # The damped batch allocates fewer threads in total ...
        assert (sum(e.total_threads for e in damped.executions.values())
                < sum(e.total_threads for e in full.executions.values()))
        # ... without losing much makespan (the machine was saturated).
        assert damped.makespan < full.makespan * 1.25
