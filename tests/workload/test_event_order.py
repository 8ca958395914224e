"""Byte pins of the exported event streams, key order included.

Tier-1 elsewhere compares :class:`~repro.obs.bus.Event` dataclasses,
whose ``data`` dict equality ignores key order.  The JSONL exporters
write payload keys in insertion order, so a reordered payload changes
every exported file without failing those tests.  Here five seeded
scenarios — private, shared, serving with monitors, cancellation and
timeout, and a shared-cohort fault abort — hash the ``json.dumps``
lines of the workload export plus every observed query's own export.
Profiling stays off: its records are wall time.
"""

import hashlib
import json

import pytest

from repro import (
    DBS3,
    ExecutionOptions,
    ObservabilityOptions,
    ServingPolicy,
    WorkloadOptions,
    generate_wisconsin,
)
from repro.faults import ActivationFaults, FaultPlan
from repro.lera.plans import ideal_join_plan
from repro.obs.export import jsonl_records, workload_jsonl_records
from repro.obs.monitor import default_monitors
from repro.serve.harness import run_serving

SQL = "SELECT * FROM A JOIN B ON A.unique1 = B.unique1"
SQL_CD = "SELECT * FROM C JOIN D ON C.unique1 = D.unique1"

OBSERVE = ObservabilityOptions(observe=True)


@pytest.fixture(scope="module")
def db():
    options = ExecutionOptions(
        observability=ObservabilityOptions(trace=True, observe=True))
    db = DBS3(processors=48, options=options)
    db.create_table(generate_wisconsin("A", 2_000, seed=1), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("B", 200, seed=2), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("C", 1_500, seed=3), "unique1",
                    degree=20)
    db.create_table(generate_wisconsin("D", 150, seed=4), "unique1",
                    degree=20)
    return db


def _digest(result):
    digest = hashlib.sha256()
    records = list(workload_jsonl_records(result))
    for tag in result.order:
        execution = result.execution(tag)
        if execution.obs is not None:
            records.extend(jsonl_records(execution))
    for record in records:
        digest.update(json.dumps(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def private_mpl4(db):
    session = db.session(WorkloadOptions(max_concurrent=4,
                                         observability=OBSERVE))
    for i, (sql, at) in enumerate(((SQL, 0.0), (SQL_CD, 0.0),
                                   (SQL, 0.02), (SQL_CD, 0.05))):
        session.submit(sql, at=at, threads=20, tag=f"q{i}")
    return session.run()


def shared_full_overlap_mpl8(db):
    session = db.session(WorkloadOptions(max_concurrent=8, shared=True,
                                         observability=OBSERVE))
    for i in range(8):
        session.submit(SQL, threads=10, tag=f"q{i}")
    return session.run()


def serving_with_monitors(db):
    observability = ObservabilityOptions(
        observe=True, monitors=default_monitors(slo=0.05))
    return run_serving(count=40, rate=40.0, seed=1, workload=WorkloadOptions(
        max_concurrent=2,
        serving=ServingPolicy(policy="edf", queue_limit=4),
        observability=observability))


def cancel_and_timeout(db):
    session = db.session(WorkloadOptions(observability=OBSERVE))
    session.submit(SQL, threads=10, tag="victim").cancel(at=0.1)
    session.submit(SQL_CD, threads=10, tag="late", timeout=0.1)
    session.submit(SQL_CD, threads=10, tag="survivor", at=0.05)
    session.submit(SQL, threads=10, tag="withdrawn", at=0.02).cancel()
    return session.run()


def shared_cohort_abort(db):
    faults = FaultPlan(activations=(
        ActivationFaults(operation="doomed_join", rate=1.0,
                         max_retries=2),))
    session = db.session(WorkloadOptions(
        max_concurrent=3, shared=True, faults=faults,
        observability=OBSERVE))
    schema = db.table("A").relation.schema.concat(
        db.table("B").relation.schema)
    for tag, name in (("qa", "doomed_join"), ("qb", "rider_join")):
        session.submit_plan(
            ideal_join_plan(db.table("A"), db.table("B"),
                            "unique1", "unique1", node_name=name),
            schema, threads=10, tag=tag)
    session.submit(SQL_CD, tag="qc")
    return session.run()


#: sha256 of each scenario's exported lines.
PINS = {
    private_mpl4:
        "fcdd0058e7987f19766f30253f2cac288c07d3e3ec74e40303393d0ad7f994b1",
    shared_full_overlap_mpl8:
        "f213f8aeb86bb213bd6ba1f3c16886274b2f2ed6b50927da002decc868da91a7",
    serving_with_monitors:
        "926f4e5f99683d3ff0b098505711c5f9e6022328704bdf9be619a31c61de9292",
    cancel_and_timeout:
        "7c3f4b964411e183e3030bc5ae4db5f57f4642057fbaf06dff361a9962a9b172",
    shared_cohort_abort:
        "6b3feada7837e40d1ec5a6f4fb8d3eec460087733fe606d8fdf01d6d94dd2fc9",
}


@pytest.mark.parametrize("scenario", list(PINS),
                         ids=lambda scenario: scenario.__name__)
def test_exported_stream_is_pinned(db, scenario):
    assert _digest(scenario(db)) == PINS[scenario]
