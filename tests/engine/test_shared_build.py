"""Join build structures live on the fragment and are shared.

Python builds each fragment's lookup table and sorted index once; every
operator and query reads the same copy.  Virtual time must not see the
sharing: a query that finds the tables already built (warm) pays
exactly what it pays on a fresh database (cold), build costs included.
The memory gate checks the physical side: concurrent queries over one
database no longer each hold their own copy of the tables.
"""

import tracemalloc

import pytest

import repro.storage.fragment
from repro.bench.workloads import make_join_database, skewed_fragments
from repro.compiler.parallelizer import CompiledQuery
from repro.engine.executor import ExecutionOptions, Executor, QuerySchedule
from repro.lera.operators import JOIN_HASH, JOIN_NESTED_LOOP, JOIN_TEMP_INDEX
from repro.lera.plans import assoc_join_plan, ideal_join_plan, two_phase_join_plan
from repro.machine.machine import Machine
from repro.scheduler.adaptive import AdaptiveScheduler
from repro.storage.catalog import Catalog
from repro.storage.partitioning import PartitioningSpec
from repro.workload.engine import QuerySubmission, WorkloadExecutor
from repro.workload.options import WorkloadOptions

MACHINE = Machine.uniform(processors=16)
ALGORITHMS = (JOIN_NESTED_LOOP, JOIN_TEMP_INDEX, JOIN_HASH)

#: (plan kind, algorithm, grain).  AssocJoin's pipelined join has no
#: grain: every activation is one streamed tuple.
SHAPES = ([("ideal", algorithm, grain)
           for algorithm in ALGORITHMS for grain in (1, 4)]
          + [("assoc", algorithm, 1) for algorithm in ALGORITHMS])


def _plan(database, kind, algorithm, grain):
    if kind == "ideal":
        return ideal_join_plan(database.entry_a, database.entry_b,
                               "key", "key", algorithm=algorithm,
                               grain=grain)
    return assoc_join_plan(database.entry_a, database.entry_b, "key", "key",
                           algorithm=algorithm)


def _execute(database, kind, algorithm, grain):
    plan = _plan(database, kind, algorithm, grain)
    schedule = AdaptiveScheduler(MACHINE).schedule(plan, 6)
    return Executor(MACHINE, ExecutionOptions(seed=0)).execute(plan, schedule)


def _trace(execution):
    """Every virtual-time figure and counter a query reports."""
    return {
        "response_time": execution.response_time,
        "rows": sorted(execution.result_rows),
        "operations": {
            name: (m.activation_costs, m.polls, m.enqueues,
                   m.secondary_accesses, m.dequeue_batches, m.finished_at)
            for name, m in execution.operations.items()
        },
    }


@pytest.fixture
def builds(monkeypatch):
    """Count the fragment-level builds of lookup tables and indexes."""
    counts = {"tables": 0, "indexes": 0}
    build_table = repro.storage.fragment.build_lookup_table
    sorted_index = repro.storage.fragment.SortedIndex

    def counting_table(rows, position):
        counts["tables"] += 1
        return build_table(rows, position)

    def counting_index(rows, position):
        counts["indexes"] += 1
        return sorted_index(rows, position)

    monkeypatch.setattr(repro.storage.fragment, "build_lookup_table",
                        counting_table)
    monkeypatch.setattr(repro.storage.fragment, "SortedIndex",
                        counting_index)
    return counts


@pytest.mark.parametrize("kind,algorithm,grain", SHAPES)
def test_warm_tables_charge_what_cold_ones_do(kind, algorithm, grain,
                                              builds):
    database = make_join_database(2000, 200, degree=12, theta=0.6)
    cold = _execute(database, kind, algorithm, grain)
    cold_builds = dict(builds)
    warm = _execute(database, kind, algorithm, grain)
    assert _trace(warm) == _trace(cold)
    # The warm query built nothing at the fragment level: it really
    # read the tables the cold query left behind.
    assert builds == cold_builds
    # AssocJoin emits the streamed (B) columns first.
    left, right = database.entry_a.relation, database.entry_b.relation
    if kind == "assoc":
        left, right = right, left
    assert sorted(cold.result_rows) == sorted(
        left.join(right, "key", "key").rows)


def test_shapes_share_tables_across_queries(builds):
    """Every shape over one database reuses the structures built by the
    first query that needed them: one per (fragment, side, kind)."""
    database = make_join_database(2000, 200, degree=12, theta=0.6)
    for shape in SHAPES:
        _execute(database, *shape)
    degree = database.entry_a.degree
    # Tables: B (IdealJoin nested-loop inner) and A (IdealJoin hash
    # outer, AssocJoin nested-loop/hash stored).  Indexes: A only.
    assert builds == {"tables": 2 * degree, "indexes": degree}


class TestMultiChainInvalidation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_second_join_sees_every_stored_row(self, algorithm):
        database = make_join_database(1000, 100, degree=10, theta=0.0)
        relation_c, fragments_c = skewed_fragments("C", 300, 8, 0.0)
        entry_c = Catalog().register_fragments(
            relation_c, PartitioningSpec.on("key", 8), fragments_c)
        plan = two_phase_join_plan(database.entry_a, database.entry_b,
                                   "key", "key", entry_c, "key", "key",
                                   algorithm=algorithm)
        # Take the join structures of the still-empty intermediate
        # fragments: the Store's appends must invalidate them.
        intermediate = plan.node("store1").spec.target_fragments
        for fragment in intermediate:
            assert fragment.lookup_table(0) == {}
            assert len(fragment.sorted_index(0)) == 0
        execution = Executor(MACHINE).execute(
            plan, QuerySchedule.for_plan(plan, 4))
        stored = sum(fragment.cardinality for fragment in intermediate)
        assert stored == database.expected_matches
        t1 = database.entry_a.relation.join(database.entry_b.relation,
                                            "key", "key")
        expected = sorted(t1.join(entry_c.relation, "key", "key").rows)
        assert sorted(execution.result_rows) == expected


def _assoc_batch_peak(database, count):
    """tracemalloc peak (bytes) of *count* concurrent AssocJoins."""
    submissions = []
    for i in range(count):
        plan = assoc_join_plan(database.entry_a, database.entry_b,
                               "key", "key")
        submissions.append(QuerySubmission(
            f"q{i}", CompiledQuery(plan, None, None, f"q{i}"),
            QuerySchedule.for_plan(plan, 4)))
    options = WorkloadOptions(max_concurrent=count, thread_budget=4 * count)
    tracemalloc.start()
    try:
        result = WorkloadExecutor(MACHINE, workload=options).execute(
            submissions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(result.execution(tag).result_cardinality
               == database.expected_matches for tag in result.order)
    return peak


def test_concurrent_queries_share_build_memory():
    """Four concurrent AssocJoins over one database peak at most twice
    one query's peak: the stored tables exist once, not per query.

    Both peaks are measured in the same run on fresh databases, so the
    ratio does not depend on the machine.
    """
    def fresh():
        return make_join_database(20000, 2000, degree=50, theta=0.8)

    single = _assoc_batch_peak(fresh(), 1)
    batch = _assoc_batch_peak(fresh(), 4)
    assert batch <= 2.0 * single, (batch, single, batch / single)
