"""Critical-path extraction: invariants, attribution, bottleneck."""

import re

import pytest

from repro.diag import ObservedRun, critical_path
from repro.diag.critical_path import BLOCKED, BUSY, WAIT
from repro.engine.executor import Executor, QuerySchedule
from repro.errors import ReproError
from repro.lera.plans import ideal_join_plan
from repro.machine.machine import Machine

#: The fix the unobserved-execution error must point at (a spelling
#: that constructs today).
OBSERVE_HINT = re.escape(
    "ExecutionOptions(observability=ObservabilityOptions(observe=True))")


class TestInvariants:
    """The two structural guarantees the module docstring pins."""

    @pytest.fixture(params=["balanced", "skewed", "choked"])
    def execution(self, request, join_db, skewed_join_db,
                  execute_assoc_join):
        if request.param == "balanced":
            return execute_assoc_join(join_db, 8, 8)
        if request.param == "skewed":
            return execute_assoc_join(skewed_join_db, 8, 8)
        return execute_assoc_join(join_db, 1, 8)

    def test_length_at_most_elapsed(self, execution):
        path = critical_path(execution)
        assert path.length <= execution.response_time + 1e-6

    def test_length_at_least_busiest_thread(self, execution):
        # The busiest operator's busiest thread forms a same-thread
        # chain, so the path can never carry less work than it.
        path = critical_path(execution)
        busy = ObservedRun.of(execution).thread_busy_times()
        assert path.length >= max(busy.values()) - 1e-9

    def test_segments_contiguous_and_forward(self, execution):
        segments = critical_path(execution).segments
        for segment in segments:
            assert segment.end >= segment.start
        for a, b in zip(segments, segments[1:]):
            assert b.start == pytest.approx(a.end, abs=1e-9)

    def test_length_is_sum_of_segments(self, execution):
        path = critical_path(execution)
        assert path.length == pytest.approx(path.end - path.start)

    def test_blame_covers_path(self, execution):
        path = critical_path(execution)
        operations = set(ObservedRun.of(execution).ops)
        assert set(path.blame) <= operations
        total = sum(blame.total for blame in path.blame.values())
        assert total == pytest.approx(path.length)


class TestAttribution:
    def test_busy_wait_block_partition_the_path(self, observed):
        path = critical_path(observed)
        kinds = {segment.kind for segment in path.segments}
        assert BUSY in kinds
        assert kinds <= {BUSY, WAIT, BLOCKED}
        assert path.busy_total() + path.wait_total() + path.block_total() \
            == pytest.approx(path.length)

    def test_bottleneck_shifts_when_producer_is_choked(self, join_db,
                                                       execute_assoc_join):
        # 8/8 is join-bound; throttling transmit to one thread makes
        # the scan the limiter, and the path must say so.
        balanced = critical_path(execute_assoc_join(join_db, 8, 8))
        choked = critical_path(execute_assoc_join(join_db, 1, 8))
        assert balanced.bottleneck == "join"
        assert choked.bottleneck == "transmit"
        balanced_transmit = (balanced.blame["transmit"].busy
                             if "transmit" in balanced.blame else 0.0)
        assert choked.blame["transmit"].busy > 2 * balanced_transmit

    def test_triggered_only_plan_works(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b,
                               "key", "key")
        from repro.engine.executor import (
            ExecutionOptions,
            ObservabilityOptions,
        )
        execution = Executor(
            Machine.uniform(processors=8),
            ExecutionOptions(observability=ObservabilityOptions(observe=True)),
        ).execute(plan, QuerySchedule.for_plan(plan, 4))
        path = critical_path(execution)
        assert path.bottleneck == "join"
        assert path.length <= execution.response_time + 1e-6


class TestErrors:
    def test_unobserved_execution_rejected(self, join_db):
        plan = ideal_join_plan(join_db.entry_a, join_db.entry_b,
                               "key", "key")
        execution = Executor(Machine.uniform(processors=8)).execute(
            plan, QuerySchedule.for_plan(plan, 2))
        with pytest.raises(ReproError, match=OBSERVE_HINT):
            critical_path(execution)


class TestPresentation:
    def test_render_and_json(self, observed):
        path = critical_path(observed)
        text = path.render()
        assert "critical path:" in text
        assert "bottleneck operator:" in text
        document = path.to_json()
        assert document["bottleneck"] == path.bottleneck
        assert document["length"] == pytest.approx(path.length)
        assert set(document["blame"]) == set(path.blame)
