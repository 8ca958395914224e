"""The serving layer through the engine and Session API.

Contracts under test: ``serving=None`` and a default
``ServingPolicy()`` produce bit-identical runs (the escape hatch);
a bounded queue sheds the policy's victim pre-admission with the
full client surface intact (terminal status, ``QueryShedError``,
``query.reject`` event, backpressure signal, span reject reason,
report serving section); memory- and deadline-infeasible queries
become ``rejected``/``shed`` statuses instead of raising into the
open-loop stream; brownout without monitor rules never trips, and with
them it shrinks grants and admits a fully folded waiter past the bound.
"""

import pytest

from repro import (
    DBS3,
    ExecutionOptions,
    ObservabilityOptions,
    ServingPolicy,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.errors import QueryRejectedError, QueryShedError
from repro.obs.bus import (
    QUERY_ADMIT,
    QUERY_GRANT,
    QUERY_REJECT,
    SERVE_BACKPRESSURE,
    SERVE_BROWNOUT,
)
from repro.obs.monitor import default_monitors
from repro.workload.session import DONE, REJECTED, SHED

SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"


@pytest.fixture
def db():
    options = ExecutionOptions(
        observability=ObservabilityOptions(trace=True, observe=True))
    db = DBS3(processors=16, options=options)
    db.create_table(generate_wisconsin("A", 600, seed=1), "unique1",
                    degree=8)
    db.create_table(generate_wisconsin("B", 60, seed=2), "unique1",
                    degree=8)
    return db


def _submit_wave(session, count=4, **kwargs):
    return [session.submit(SQL, at=i * 0.01, threads=8, tag=f"q{i}",
                           **{k: (v[i] if isinstance(v, (list, tuple)) else v)
                              for k, v in kwargs.items()})
            for i in range(count)]


class TestEscapeHatch:
    def test_default_policy_is_bit_identical_to_serving_off(self, db):
        runs = {}
        for name, serving in (("off", None), ("on", ServingPolicy())):
            session = db.session(WorkloadOptions(max_concurrent=2,
                                                 serving=serving))
            _submit_wave(session)
            runs[name] = session.run()
        off, on = runs["off"], runs["on"]
        assert on.makespan == off.makespan
        for tag in ("q0", "q1", "q2", "q3"):
            assert on.status_of(tag) == off.status_of(tag) == DONE
            assert (on.execution(tag).response_time
                    == off.execution(tag).response_time)
            assert (on.execution(tag).result_rows
                    == off.execution(tag).result_rows)


class TestQueueBoundShedding:
    def run_overloaded(self, db):
        session = db.session(WorkloadOptions(
            max_concurrent=1,
            serving=ServingPolicy(policy="priority", queue_limit=1)))
        # q0 is admitted immediately; q1 (the only high-priority
        # waiter) holds the one queue slot; q2 and q3 overflow it and
        # the priority policy sheds the lowest-priority youngest.
        handles = _submit_wave(session, priority=[0, 5, 0, 0])
        return handles, session.run()

    def test_victims_reach_a_shed_terminal_status(self, db):
        handles, result = self.run_overloaded(db)
        statuses = [h.status for h in handles]
        assert statuses == [DONE, DONE, SHED, SHED]
        assert result.status_of("q2") == SHED

    def test_result_refuses_with_query_shed_error(self, db):
        handles, _ = self.run_overloaded(db)
        with pytest.raises(QueryShedError, match="load-shed"):
            handles[2].result()
        # Partial metrics stay reachable; a shed query never
        # materialized, so it carries no operations.
        assert handles[2].execution.status == SHED
        assert not handles[2].execution.operations

    def test_reject_event_and_backpressure_signal(self, db):
        _, result = self.run_overloaded(db)
        rejects = [e for e in result.bus.events if e.kind == QUERY_REJECT]
        assert {e.operation for e in rejects} == {"q2", "q3"}
        assert all(e.data["reason"] == "queue_full" for e in rejects)
        assert all(e.data["status"] == SHED for e in rejects)
        pressure = [e for e in result.bus.events
                    if e.kind == SERVE_BACKPRESSURE]
        assert pressure and pressure[0].data["engaged"] is True
        # The queue drains by the end of the run, so the signal must
        # also disengage — backpressure is a level, not a latch.
        assert pressure[-1].data["engaged"] is False

    def test_span_and_report_surface_the_shed(self, db):
        _, result = self.run_overloaded(db)
        span = result.spans.of("q2")
        assert span.status == SHED
        assert span.reject_reason == "queue_full"
        assert not span.admitted
        assert span.terminal_events == 1
        report = result.report()
        assert report.statuses[SHED] == 2
        assert report.serving["shed"] == 2
        assert report.serving["reasons"] == {"queue_full": 2}
        assert not report.problems


class TestInfeasibleRejection:
    def test_memory_infeasible_is_rejected_not_raised(self, db):
        session = db.session(WorkloadOptions(
            memory_limit_bytes=16, serving=ServingPolicy()))
        handle = session.submit(SQL, threads=8, tag="huge")
        session.run()
        assert handle.status == REJECTED
        with pytest.raises(QueryRejectedError, match="rejected at admission"):
            handle.result()
        rejects = [e for e in session.result.bus.events
                   if e.kind == QUERY_REJECT]
        assert rejects[0].data["reason"] == "memory_infeasible"
        assert session.result.report().serving["rejected"] == 1

    def test_edf_sheds_a_provably_doomed_deadline(self, db):
        session = db.session(WorkloadOptions(
            serving=ServingPolicy(policy="edf")))
        # The sequential start-up alone overruns a deadline this
        # tight, so EDF sheds at admission instead of burning machine
        # time on a guaranteed timeout.
        doomed = session.submit(SQL, threads=8, tag="doomed",
                                timeout=1e-9)
        fine = session.submit(SQL, threads=8, tag="fine")
        result = session.run()
        assert doomed.status == SHED
        assert fine.status == DONE
        rejects = [e for e in result.bus.events if e.kind == QUERY_REJECT]
        assert rejects[0].data["reason"] == "deadline_infeasible"


class TestBrownout:
    def test_without_monitor_rules_brownout_never_trips(self, db):
        session = db.session(WorkloadOptions(
            max_concurrent=2,
            serving=ServingPolicy(brownout=True, brownout_factor=0.5)))
        _submit_wave(session)
        result = session.run()
        assert all(result.status_of(f"q{i}") == DONE for i in range(4))
        assert not [e for e in result.bus.events
                    if e.kind == SERVE_BROWNOUT]
        assert not result.report().serving.get("brownout_tripped", False)

    def run_tripped(self, db, serving):
        """Six duplicates, one at a time: the tight SLO's burn-rate
        alert fires while the queue drains, so brownout trips."""
        session = db.session(WorkloadOptions(
            max_concurrent=1, shared=True, serving=serving,
            observability=ObservabilityOptions(monitors=default_monitors(
                slo=0.001, burn_budget=0.01))))
        handles = [session.submit(SQL, at=i * 0.0005, threads=8,
                                  tag=f"q{i}")
                   for i in range(6)]
        return handles, session.run()

    def test_tripped_brownout_shrinks_grants_and_folds_through(self, db):
        handles, result = self.run_tripped(
            db, ServingPolicy(brownout=True, brownout_factor=0.5))
        (brownout,) = [e for e in result.bus.events
                       if e.kind == SERVE_BROWNOUT]
        assert brownout.data == {"active": True, "factor": 0.5}
        assert brownout.t == pytest.approx(0.2905, abs=1e-4)
        admits = {e.operation: e for e in result.bus.events
                  if e.kind == QUERY_ADMIT}
        grants = {e.operation: e.data["threads"] for e in result.bus.events
                  if e.kind == QUERY_GRANT
                  and e.data["reason"] == "admission"}
        # q4 is admitted as the bound allows, at half its demand of 8.
        assert admits["q4"].t == brownout.t
        assert admits["q4"].data["running"] == 2
        assert grants["q4"] == 4
        # q5 folds entirely onto q4 and is admitted past the bound of
        # one running query, on the one-thread floor.
        assert admits["q5"].t == brownout.t
        assert admits["q5"].data["folds"] == {"join": "q4"}
        assert grants["q5"] == 1
        assert [h.status for h in handles] == [DONE] * 6
        baseline, _ = self.run_tripped(db, None)
        for handle, reference in zip(handles, baseline):
            assert (sorted(handle.result().rows)
                    == sorted(reference.result().rows))
