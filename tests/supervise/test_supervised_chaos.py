"""Chaos matrix: real SIGKILLs at every worker lifecycle stage.

The acceptance bar for worker supervision: killing any single worker —
at spawn, mid-chunk, or by wedging its heartbeat — costs a bounded
retry, never correctness.  Each leg runs a real supervised batch and
asserts exact results (identical to the sequential run), zero failure
rows, at most one requeued chunk per death, and one trace in which
the truncated span is joined to its respawned successor.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.observability.metrics import MetricsRegistry, use_registry
from repro.observability.tracing import SpanTracer, use_tracer
from repro.perf.batch import execute_batch
from repro.service import FaultInjector, use_injector
from repro.supervise import SupervisionConfig, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

QUERIES = [
    (s, t, budget)
    for s, t in ((0, 5), (2, 9), (7, 3), (1, 11), (4, 8), (6, 10))
    for budget in (9.0, 14.0, 21.0, 30.0)
]

FAST = SupervisionConfig(
    heartbeat_ms=20.0,
    stall_after_ms=300.0,
    backoff_base_s=0.005,
    backoff_max_s=0.05,
    max_task_retries=10,
    drain_grace_s=1.0,
)


class KillOnceEngine:
    """SIGKILL the first worker process to run a query (sentinel file)."""

    def __init__(self, inner, sentinel):
        self.inner, self.sentinel = inner, sentinel
        self.name = inner.name

    def query(self, source, target, budget, **kwargs):
        try:
            os.close(os.open(
                self.sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            ))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.query(source, target, budget, **kwargs)


class SlowEngine:
    """Delay every query so a chunk outlasts the stall window."""

    def __init__(self, inner, delay_s):
        self.inner, self.delay_s = inner, delay_s
        self.name = inner.name

    def query(self, source, target, budget, **kwargs):
        time.sleep(self.delay_s)
        return self.inner.query(source, target, budget, **kwargs)


class PoisonPairEngine:
    """SIGKILL on one specific (source, target) pair, every time."""

    def __init__(self, inner, pair):
        self.inner, self.pair = inner, pair
        self.name = inner.name

    def query(self, source, target, budget, **kwargs):
        if (source, target) == self.pair:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.query(source, target, budget, **kwargs)


def expected_pairs(engine):
    return [
        r.pair() for r in execute_batch(engine, QUERIES, workers=0).results
    ]


def truncated_spans(root):
    return [c for c in root.children if c.name == "worker.truncated"]


def assert_batch_exact(report, engine):
    assert report.failures == []
    assert [r.pair() for r in report.results] == expected_pairs(engine)


class TestKillMatrix:
    def test_kill_at_spawn(self, paper_index):
        # w0's first fork fails outright; the supervisor schedules a
        # respawn and the batch completes without losing a query.
        engine = paper_index.qhl_engine()
        injector = FaultInjector()
        injector.fail(
            "worker-spawn", exc=RuntimeError, times=1,
            match={"worker": "w0"},
        )
        registry = MetricsRegistry()
        with use_injector(injector), use_registry(registry):
            report = execute_batch(
                engine, QUERIES, workers=2,
                supervision=FAST,
            )
        assert_batch_exact(report, engine)
        assert registry.counter(
            "supervisor_deaths_total",
            {"worker": "w0", "reason": "spawn-failed"},
        ).value == 1
        assert registry.counter(
            "supervisor_restarts_total", {"worker": "w0"}
        ).value >= 1

    def test_kill_mid_chunk(self, paper_index, tmp_path):
        # A real SIGKILL mid-chunk: the chunk is requeued (split into
        # singletons), the worker respawns, and the trace shows the death joined to its successor pid.
        engine = KillOnceEngine(
            paper_index.qhl_engine(), str(tmp_path / "tripwire")
        )
        tracer = SpanTracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            report = execute_batch(
                engine, QUERIES, workers=2,
                supervision=FAST,
            )
        assert_batch_exact(report, paper_index.qhl_engine())
        # Bounded retries: one death, one requeue.
        assert registry.counter("supervisor_requeues_total").value == 1
        assert registry.counter(
            "supervisor_restarts_total", {"worker": "w0"}
        ).value + registry.counter(
            "supervisor_restarts_total", {"worker": "w1"}
        ).value == 1
        # One trace: the truncated span carries the pid of the killed
        # worker and points at its respawned successor.
        root = tracer.last()
        assert root.name == "batch.fan-out"
        truncated = truncated_spans(root)
        assert len(truncated) == 1
        assert truncated[0].counters.get("respawned_as", 0) > 0
        assert truncated[0].counters["respawned_as"] != (
            truncated[0].counters["pid"]
        )
        kinds = [i.kind for i in report.incidents]
        assert "death" in kinds and "requeue" in kinds
        assert "restart" in kinds

    def test_kill_during_heartbeat(self, paper_index):
        # w0's heartbeat is suppressed by an injected fault (in every
        # incarnation), so it reads as wedged: the supervisor SIGKILLs
        # it, retries its lease, and eventually retires it behind the
        # restart breaker while w1 finishes the batch.  The engine is
        # slowed so a chunk genuinely outlasts the stall window — the
        # per-query heartbeat is what keeps the *healthy* worker alive.
        engine = SlowEngine(paper_index.qhl_engine(), delay_s=0.04)
        injector = FaultInjector()
        injector.fail(
            "worker-heartbeat", exc=RuntimeError, times=None,
            match={"worker": "w0"},
        )
        registry = MetricsRegistry()
        with use_injector(injector), use_registry(registry):
            report = execute_batch(
                engine, QUERIES, workers=2,
                supervision=FAST,
            )
        assert_batch_exact(report, paper_index.qhl_engine())
        assert registry.counter(
            "supervisor_heartbeat_stalls_total", {"worker": "w0"}
        ).value >= 1
        assert registry.counter(
            "supervisor_deaths_total", {"worker": "w0", "reason": "stall"}
        ).value >= 1
        kinds = [i.kind for i in report.incidents]
        assert "stall" in kinds

    def test_poison_query_is_quarantined_not_fatal(self, paper_index):
        # One query SIGKILLs every worker that touches it.  After the
        # chunk is split and the singleton exceeds its retries it comes
        # back as a quarantined failure row carrying the trace id; all
        # other queries still answer, and the pool does not crash-loop.
        baseline = paper_index.qhl_engine()
        poison_pair = QUERIES[0][:2]
        engine = PoisonPairEngine(baseline, poison_pair)
        registry = MetricsRegistry()
        config = SupervisionConfig(
            heartbeat_ms=20.0, stall_after_ms=400.0,
            backoff_base_s=0.005, backoff_max_s=0.05,
            max_task_retries=2, drain_grace_s=1.0,
        )
        with use_registry(registry):
            report = execute_batch(
                engine, QUERIES, workers=2,
                supervision=config,
            )
        poison_indices = {
            i for i, q in enumerate(QUERIES) if q[:2] == poison_pair
        }
        assert {f.index for f in report.failures} == poison_indices
        for failure in report.failures:
            assert failure.error == "TaskQuarantinedError"
            assert failure.trace_id == report.trace_id
            assert "attempts: 3" in failure.message
        expected = expected_pairs(baseline)
        for i, result in enumerate(report.results):
            if i in poison_indices:
                assert result is None
            else:
                assert result.pair() == expected[i]
        assert registry.counter(
            "supervisor_quarantined_total"
        ).value == len(poison_indices)
