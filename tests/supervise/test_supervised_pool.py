"""SupervisedPool semantics: leases, requeue, split, quarantine.

Worker deaths here are *real* — entrypoints SIGKILL their own process —
so the guarantees under test (at most one requeued task per death,
poison quarantine without a crash-loop, exhaustion instead of spinning)
hold against genuine process loss, not simulated exceptions.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.observability.metrics import MetricsRegistry, use_registry
from repro.supervise import SupervisedPool, SupervisionConfig

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

FAST = SupervisionConfig(
    heartbeat_ms=20.0,
    stall_after_ms=400.0,
    backoff_base_s=0.005,
    backoff_max_s=0.05,
    drain_grace_s=1.0,
)


def doubling(payload, span, heartbeat):
    heartbeat()
    return payload * 2


def kill_once(payload, span, heartbeat):
    """SIGKILL the first worker process to touch a task (sentinel file)."""
    sentinel, value = payload
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        pass
    else:
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def kill_on_poison(payload, span, heartbeat):
    """SIGKILL whenever the payload is the poison marker."""
    if payload == "poison":
        os.kill(os.getpid(), signal.SIGKILL)
    return payload * 2


def raising(payload, span, heartbeat):
    raise ValueError(f"bad payload {payload!r}")


class TestHappyPath:
    def test_all_results_in_task_order(self):
        pool = SupervisedPool(doubling, workers=2, config=FAST)
        report = pool.run([1, 2, 3, 4, 5, 6])
        assert report.failures == []
        assert report.results == {i: (i + 1) * 2 for i in range(6)}
        assert report.requeues == 0 and report.splits == 0

    def test_single_worker_fleet(self):
        pool = SupervisedPool(doubling, workers=1, config=FAST)
        report = pool.run([10, 20])
        assert report.results == {0: 20, 1: 40}

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            SupervisedPool(doubling, workers=0)

    def test_empty_payloads(self):
        pool = SupervisedPool(doubling, workers=2, config=FAST)
        report = pool.run([])
        assert report.results == {} and report.failures == []


class TestLostWork:
    def test_sigkill_requeues_exactly_the_lost_lease(self, tmp_path):
        sentinel = str(tmp_path / "tripwire")
        registry = MetricsRegistry()
        pool = SupervisedPool(kill_once, workers=2, config=FAST)
        with use_registry(registry):
            report = pool.run([(sentinel, v) for v in range(8)])
        assert report.failures == []
        assert report.results == {i: i * 2 for i in range(8)}
        # One death loses exactly one lease: one requeue, no more.
        assert report.requeues == 1
        assert registry.counter("supervisor_requeues_total").value == 1
        kinds = [i.kind for i in pool.supervisor.incidents.records()]
        assert "death" in kinds and "requeue" in kinds

    def test_task_error_is_a_failure_row_not_a_death(self):
        pool = SupervisedPool(raising, workers=2, config=FAST)
        report = pool.run(["a", "b"])
        assert report.results == {}
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.reason == "task-error"
            assert failure.error == "ValueError"
        kinds = [i.kind for i in pool.supervisor.incidents.records()]
        assert "death" not in kinds  # the process survived the raise


class TestSplitAndQuarantine:
    def test_first_crash_splits_a_chunk(self, tmp_path):
        sentinel = str(tmp_path / "tripwire")

        def chunk_entry(payload, span, heartbeat):
            return [kill_once((sentinel, v), span, heartbeat) for v in payload]

        pool = SupervisedPool(
            chunk_entry, workers=2, config=FAST,
            split=lambda payload: [[v] for v in payload],
        )
        report = pool.run([[0, 1, 2], [3, 4, 5]])
        assert report.failures == []
        assert report.splits == 1
        # Results cover every vertex exactly once, whether computed in
        # the surviving chunk or a singleton retry.
        flat = sorted(
            value
            for chunk in report.results.values()
            for value in chunk
        )
        assert flat == [v * 2 for v in range(6)]

    def test_poison_task_is_quarantined_and_rest_completes(self):
        registry = MetricsRegistry()
        pool = SupervisedPool(kill_on_poison, workers=1, config=FAST)
        with use_registry(registry):
            report = pool.run(["a", "poison", "b", "c"])
        # The poison task is pulled after max_task_retries + 1 attempts;
        # everything else completes despite the one-worker fleet.
        assert report.results == {0: "aa", 2: "bb", 3: "cc"}
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.reason == "quarantined"
        assert failure.error == "TaskQuarantinedError"
        assert failure.task_id == 1
        assert failure.attempts == FAST.max_task_retries + 1
        assert registry.counter(
            "supervisor_quarantined_total"
        ).value == 1
        kinds = [i.kind for i in pool.supervisor.incidents.records()]
        assert "quarantine" in kinds

    def test_unsplittable_chunk_is_retried_whole(self, tmp_path):
        sentinel = str(tmp_path / "tripwire")

        def chunk_entry(payload, span, heartbeat):
            return [kill_once((sentinel, v), span, heartbeat) for v in payload]

        # split returning a single element marks the payload
        # unsplittable: the chunk is retried whole and succeeds.
        pool = SupervisedPool(
            chunk_entry, workers=2, config=FAST,
            split=lambda payload: [payload],
        )
        report = pool.run([[0, 1, 2]])
        assert report.failures == []
        assert report.splits == 0 and report.requeues == 1
        assert report.results == {0: [0, 2, 4]}


class TestExhaustion:
    def test_fleet_gone_returns_exhausted_failures(self):
        def die_always(payload, span, heartbeat):
            os.kill(os.getpid(), signal.SIGKILL)

        # Every attempt kills its worker; with retries > breaker budget
        # the fleet burns out first and the task comes back exhausted
        # instead of the pool spinning forever.
        config = SupervisionConfig(
            heartbeat_ms=20.0, stall_after_ms=400.0,
            backoff_base_s=0.002, backoff_max_s=0.01,
            max_restarts=2, restart_window_s=120.0,
            max_task_retries=50, drain_grace_s=0.5,
        )
        pool = SupervisedPool(die_always, workers=1, config=config)
        started = time.monotonic()
        report = pool.run(["doom"])
        assert time.monotonic() - started < 60.0
        assert report.results == {}
        assert len(report.failures) == 1
        assert report.failures[0].reason == "exhausted"
        assert report.failures[0].error == "WorkerRestartExhaustedError"
