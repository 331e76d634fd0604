"""Supervised batch execution must be invisible when nothing dies.

The fault-free contract: a ``workers >= 2`` batch, which always runs
supervised, returns exactly the same answers as the sequential path,
carries the same trace and failure-row semantics, and threads its
``supervision`` policy through ``run_workload`` without changing any
result.
"""

from __future__ import annotations

import pytest

from repro.instrument.harness import run_workload
from repro.observability.tracing import SpanTracer, use_tracer
from repro.perf.batch import execute_batch
from repro.supervise import SupervisionConfig, fork_available
from repro.types import CSPQuery

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

QUERIES = [
    (s, t, budget)
    for s, t in ((0, 5), (2, 9), (7, 3), (1, 11), (4, 8), (6, 10))
    for budget in (9.0, 14.0, 21.0, 30.0)
]

FAST = SupervisionConfig(
    heartbeat_ms=20.0, stall_after_ms=2000.0,
    backoff_base_s=0.005, backoff_max_s=0.05, drain_grace_s=1.0,
)


class TestFaultFreeIdentity:
    def test_supervised_matches_sequential(self, paper_index):
        engine = paper_index.qhl_engine()
        sequential = execute_batch(engine, QUERIES, workers=0)
        supervised = execute_batch(
            engine, QUERIES, workers=2,
            supervision=FAST,
        )
        assert supervised.failures == []
        assert [r.pair() for r in supervised.results] == [
            r.pair() for r in sequential.results
        ]

    def test_incidents_ride_on_the_report(self, paper_index):
        engine = paper_index.qhl_engine()
        report = execute_batch(
            engine, QUERIES[:8], workers=2,
            supervision=FAST,
        )
        kinds = [i.kind for i in report.incidents]
        assert kinds.count("spawn") == 2
        assert kinds.count("stop") == 2
        assert "death" not in kinds

    def test_trace_nests_worker_chunks_under_caller_trace(
        self, paper_index
    ):
        engine = paper_index.qhl_engine()
        tracer = SpanTracer()
        with use_tracer(tracer):
            report = execute_batch(
                engine, QUERIES, workers=2,
                supervision=FAST,
                trace_id="sup-0001",
            )
        assert report.trace_id == "sup-0001"
        root = tracer.last()
        assert root.name == "batch.fan-out"
        assert any(
            c.name == "batch.worker-chunk" for c in root.children
        )

    def test_query_failures_stay_failure_rows(self, paper_index):
        # A bad query raises inside the worker: under supervision that
        # is still a per-query failure row, not a worker death.
        engine = paper_index.qhl_engine()
        queries = list(QUERIES[:4]) + [(0, 10_000, 5.0)]
        report = execute_batch(
            engine, queries, workers=2,
            supervision=FAST,
        )
        assert len(report.failures) == 1
        assert report.failures[0].index == 4
        assert report.failures[0].error == "QueryError"
        assert all(r is not None for r in report.results[:4])
        assert "death" not in [i.kind for i in report.incidents]

    def test_run_workload_threads_supervision(self, paper_index):
        engine = paper_index.qhl_engine()
        queries = [CSPQuery(s, t, c) for s, t, c in QUERIES]
        plain = run_workload(engine, queries, "sup", batch=True)
        supervised = run_workload(
            engine, queries, "sup", batch=True, workers=2,
            supervision=FAST,
        )
        assert supervised.num_queries == plain.num_queries
        assert supervised.failed == 0
        assert supervised.feasible == plain.feasible
