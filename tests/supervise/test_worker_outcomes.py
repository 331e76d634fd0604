"""Worker spans and metric deltas ride home in the result files.

The worker loop observes a task exactly when the fork inherited an
enabled tracer or registry; the task's span tree and metric delta go
into the same :class:`~repro.supervise.supervisor.Outcome` as its
value.  :class:`~repro.supervise.SupervisedPool` merges each delta into
the parent registry once and returns the spans, with a
``worker.truncated`` span per death and a ``worker.idle`` span per
worker that did nothing.
"""

from __future__ import annotations

import os
import pickle
import queue
import signal

import pytest

from repro.observability.metrics import (
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.observability.tracing import SpanTracer, get_tracer, use_tracer
from repro.service import FaultInjector, use_injector
from repro.supervise import SupervisedPool, SupervisionConfig, fork_available
from repro.supervise import supervisor as supervisor_mod

FAST = SupervisionConfig(
    heartbeat_ms=20.0,
    stall_after_ms=400.0,
    backoff_base_s=0.005,
    backoff_max_s=0.05,
    drain_grace_s=1.0,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def run_in_process(tmp_path, entrypoint, payload):
    """Run one task through the worker loop in this process; returns
    its :class:`Outcome` as read back from the result file."""
    tasks = queue.Queue()
    tasks.put((0, payload))
    tasks.put(None)  # drain sentinel: the loop exits after the task
    supervisor_mod._worker_main(
        "w0", entrypoint, tasks, str(tmp_path), str(tmp_path / "hb-w0"),
        10.0, "worker-chunk",
    )
    with open(tmp_path / "result-00000000", "rb") as handle:
        return pickle.loads(handle.read())


def counting(payload, span, heartbeat):
    get_registry().counter("qhl_cache_misses_total").inc(payload)
    span.set("queries", payload)
    return payload * 2


def failing(payload, span, heartbeat):
    span.set("queries", payload)
    raise RuntimeError("boom")


class TestWorkerOutcome:
    def test_observed_task_ships_span_and_metrics(self, tmp_path):
        with use_tracer(SpanTracer()), use_registry(MetricsRegistry()):
            outcome = run_in_process(tmp_path, counting, 4)
        assert (outcome.task_id, outcome.worker) == (0, "w0")
        assert (outcome.status, outcome.value) == ("ok", 8)
        assert outcome.span["name"] == "worker-chunk"
        assert outcome.span["counters"] == {
            "pid": os.getpid(), "queries": 4,
        }
        (record,) = outcome.metrics
        assert record["name"] == "qhl_cache_misses_total"
        assert record["value"] == 4

    def test_task_runs_under_fresh_tracer_and_registry(self, tmp_path):
        tracer = SpanTracer()
        registry = MetricsRegistry()
        seen = []

        def probe(payload, span, heartbeat):
            seen.append((get_tracer(), get_registry()))
            return payload

        with use_tracer(tracer), use_registry(registry):
            run_in_process(tmp_path, probe, 1)
            # The task's observations stay out of the inherited sinks.
            assert tracer.roots == [] and registry.metrics() == []
        (task_tracer, task_registry), = seen
        assert task_tracer.enabled and task_tracer is not tracer
        assert task_registry.enabled and task_registry is not registry

    def test_raising_task_still_ships_its_span(self, tmp_path):
        with use_tracer(SpanTracer()):
            outcome = run_in_process(tmp_path, failing, 3)
        assert outcome.status == "error"
        assert outcome.value == ("RuntimeError", "boom")
        assert outcome.span["counters"]["queries"] == 3
        assert outcome.metrics is None  # no registry was inherited

    def test_null_observability_leaves_span_and_metrics_empty(
        self, tmp_path
    ):
        outcome = run_in_process(tmp_path, counting, 2)
        assert (outcome.status, outcome.value) == ("ok", 4)
        assert outcome.span is None
        assert outcome.metrics is None


class TestWorkerTaskFault:
    def test_fault_fails_the_task_before_it_runs(self, tmp_path):
        """The ``worker-task`` point fires before the entrypoint: a
        fault there is the task's outcome, and the task never runs."""
        ran = []

        def probe(payload, span, heartbeat):
            ran.append(payload)
            return payload

        injector = FaultInjector()
        injector.fail(
            "worker-task", exc=RuntimeError("injected"),
            match={"worker": "w0", "task": 0},
        )
        with use_injector(injector):
            outcome = run_in_process(tmp_path, probe, 5)
        assert (outcome.task_id, outcome.worker) == (0, "w0")
        assert (outcome.status, outcome.value) == (
            "error", ("RuntimeError", "injected")
        )
        assert ran == []
        assert injector.calls("worker-task") == 1


def kill_once_counting(payload, span, heartbeat):
    """Bump a counter by the payload's value, then SIGKILL the first
    worker to touch any task (sentinel file)."""
    sentinel, value = payload
    get_registry().counter("qhl_cache_misses_total").inc(value)
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        pass
    else:
        os.kill(os.getpid(), signal.SIGKILL)
    span.set("queries", value)
    return value


@needs_fork
class TestPoolSpans:
    def test_attaches_worker_spans(self):
        tracer = SpanTracer()
        pool = SupervisedPool(
            counting, workers=2, config=FAST, label="worker-chunk"
        )
        with use_tracer(tracer):
            report = pool.run([1, 2, 3, 4])
        chunks = [s for s in report.spans if s.name == "worker-chunk"]
        assert sorted(s.counters["queries"] for s in chunks) == [1, 2, 3, 4]
        spawned = {
            pid for state in pool.supervisor.workers.values()
            for pid in state.pids
        }
        pids = {int(s.counters["pid"]) for s in report.spans}
        assert pids == spawned and os.getpid() not in pids
        assert tracer.roots == []  # attaching is the caller's move

    def test_merges_worker_metrics_into_parent_registry(self):
        registry = MetricsRegistry()
        pool = SupervisedPool(counting, workers=2, config=FAST)
        with use_registry(registry):
            report = pool.run([1, 2, 3, 4])
        assert report.results == {0: 2, 1: 4, 2: 6, 3: 8}
        assert registry.counter("qhl_cache_misses_total").value == 10
        assert report.spans == []  # no tracer, no spans

    def test_killed_lease_gives_one_truncated_span_merged_once(
        self, tmp_path
    ):
        # One worker, so the lost lease can only finish on its
        # respawn: the death is joined to the successor pid, and the
        # killed attempt's counter bump never reaches the parent.
        sentinel = str(tmp_path / "tripwire")
        tracer = SpanTracer()
        registry = MetricsRegistry()
        pool = SupervisedPool(kill_once_counting, workers=1, config=FAST)
        with use_tracer(tracer), use_registry(registry):
            report = pool.run([(sentinel, v) for v in (1, 2, 3, 4, 5)])
        assert report.failures == [] and report.requeues == 1
        truncated = [s for s in report.spans if s.name == "worker.truncated"]
        assert len(truncated) == 1
        first, second = pool.supervisor.workers["w0"].pids
        assert truncated[0].counters == {
            "pid": first, "respawned_as": second,
        }
        chunks = [
            s for s in report.spans if s.name == "supervise.worker-chunk"
        ]
        assert len(chunks) == 5
        assert {int(s.counters["pid"]) for s in chunks} == {second}
        assert registry.counter("qhl_cache_misses_total").value == 15

    def test_idle_worker_gets_idle_span(self):
        pool = SupervisedPool(counting, workers=2, config=FAST)
        with use_tracer(SpanTracer()):
            report = pool.run([1])
        names = sorted(s.name for s in report.spans)
        assert names == ["supervise.worker-chunk", "worker.idle"]
        idle = next(s for s in report.spans if s.name == "worker.idle")
        answered = next(s for s in report.spans if s is not idle)
        assert idle.counters["pid"] != answered.counters["pid"]
