"""Supervisor lifecycle: spawn, heartbeat, death, backoff, breaker.

These tests drive the :class:`~repro.supervise.supervisor.Supervisor`
directly (no pool on top) with real forked processes, so the spawn /
heartbeat / restart machinery is exercised end to end.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import tempfile
import time

import pytest

from repro.observability.metrics import MetricsRegistry, use_registry
from repro.service import FaultInjector, use_injector
from repro.service.breaker import OPEN
from repro.supervise import (
    INCIDENT_KINDS,
    IncidentLog,
    Supervisor,
    SupervisionConfig,
    load_incidents,
    summarize,
    use_incident_log,
)
from repro.supervise.supervisor import reap_stale_dirs

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)

FAST = SupervisionConfig(
    heartbeat_ms=20.0,
    stall_after_ms=250.0,
    backoff_base_s=0.005,
    backoff_max_s=0.05,
    drain_grace_s=1.0,
)


def doubling(payload, span, heartbeat):
    heartbeat()
    return payload * 2


def sleepy_no_beat(payload, span, heartbeat):
    # Never beats: from the parent's viewpoint this worker is wedged.
    time.sleep(60.0)
    return payload


def run_to_completion(sup, tasks, timeout=20.0):
    """Submit ``tasks`` round-robin and drive poll/harvest until done."""
    ids = iter(range(len(tasks)))
    out = {}
    deadline = time.monotonic() + timeout
    pending = list(enumerate(tasks))
    for name in list(sup.workers):
        if pending:
            task_id, payload = pending.pop(0)
            sup.submit(name, task_id, payload)
    while len(out) < len(tasks):
        assert time.monotonic() < deadline, "supervisor test timed out"
        for task_id, worker, status, value, _, _ in sup.harvest():
            assert status == "ok", value
            out[task_id] = value
            sup.note_success(worker)
            if pending:
                next_id, payload = pending.pop(0)
                sup.submit(worker, next_id, payload)
        sup.poll()
        time.sleep(0.005)
    return out


class TestLifecycle:
    def test_spawn_work_stop(self):
        sup = Supervisor(doubling, config=FAST)
        sup.add_worker("w0")
        sup.add_worker("w1")
        sup.start()
        try:
            out = run_to_completion(sup, [1, 2, 3, 4, 5])
        finally:
            sup.stop()
        assert out == {0: 2, 1: 4, 2: 6, 3: 8, 4: 10}
        kinds = [i.kind for i in sup.incidents.records()]
        assert kinds.count("spawn") == 2
        assert kinds.count("stop") == 2
        assert "death" not in kinds
        # The scratch dir (heartbeats + results) is reaped on stop.
        assert not os.path.exists(sup.directory)

    def test_duplicate_worker_name_rejected(self):
        sup = Supervisor(doubling, config=FAST)
        sup.add_worker("w0")
        with pytest.raises(ValueError, match="duplicate"):
            sup.add_worker("w0")
        sup.stop()

    def test_status_shapes(self):
        sup = Supervisor(doubling, config=FAST)
        sup.add_worker("w0")
        sup.start()
        try:
            status = sup.status()
            assert status["w0"]["state"] == "running"
            assert status["w0"]["restarts"] == 0
            assert status["w0"]["pid"] == status["w0"]["pids"][0]
        finally:
            sup.stop()
        assert sup.status()["w0"]["state"] == "down"


def beat_per_unit(payload, span, heartbeat):
    # Beats once per unit of work, as the batch chunk does per query.
    for _ in range(payload):
        heartbeat()
    return payload


class TestHeartbeatWrites:
    def test_beats_within_one_interval_write_at_most_twice(
        self, tmp_path, monkeypatch
    ):
        # The worker loop runs in this process: a task of 1000 beats
        # plus the loop's own beats all fall inside one 10 s interval,
        # so the heartbeat file is written once or twice, not ~1000
        # times.
        from repro.supervise import supervisor as supervisor_mod

        hb_path = str(tmp_path / "hb-w0")
        writes = []
        real_write = supervisor_mod._atomic_write

        def counting_write(path, data):
            if path == hb_path:
                writes.append(data)
            real_write(path, data)

        monkeypatch.setattr(supervisor_mod, "_atomic_write", counting_write)
        tasks = queue.Queue()
        tasks.put((0, 1000))
        tasks.put(None)  # drain sentinel: the loop exits after the task
        supervisor_mod._worker_main(
            "w0", beat_per_unit, tasks, str(tmp_path), hb_path,
            10.0, "chunk",
        )
        assert 1 <= len(writes) <= 2
        with open(hb_path, "rb") as handle:
            assert int(handle.read()) == len(writes)
        assert os.path.exists(tmp_path / "result-00000000")


class TestDeathsAndRestarts:
    def test_sigkill_is_detected_and_respawned(self):
        sup = Supervisor(doubling, config=FAST)
        sup.add_worker("w0")
        sup.start()
        try:
            first_pid = sup.workers["w0"].pid
            os.kill(first_pid, 9)
            deadline = time.monotonic() + 10.0
            deaths = []
            while not deaths:
                assert time.monotonic() < deadline
                deaths = sup.poll()
                time.sleep(0.005)
            assert deaths[0].worker == "w0"
            assert deaths[0].reason == "signal"
            # Drive polls until the backoff elapses and w0 respawns.
            while sup.workers["w0"].process is None:
                assert time.monotonic() < deadline
                sup.poll()
                time.sleep(0.005)
            assert sup.workers["w0"].pid != first_pid
            assert sup.pid_successions() == {
                first_pid: sup.workers["w0"].pid
            }
            # The respawned worker works.
            out = run_to_completion(sup, [21])
            assert out == {0: 42}
        finally:
            sup.stop()
        kinds = [i.kind for i in sup.incidents.records()]
        assert "death" in kinds and "restart" in kinds

    def test_unpolled_death_still_counts_as_progress(self):
        # A worker that died since the last poll() is not a lost fleet:
        # only the next poll() records the death and schedules the
        # respawn.  The pool asks can_make_progress() between two
        # polls, so a death landing in that gap used to end a healthy
        # batch with every task "exhausted".
        sup = Supervisor(doubling, config=FAST)
        sup.add_worker("w0")
        sup.start()
        try:
            process = sup.workers["w0"].process
            os.kill(process.pid, 9)
            process.join(10.0)
            assert not process.is_alive()
            assert sup.can_make_progress()
            deaths = sup.poll()
            assert [death.worker for death in deaths] == ["w0"]
            assert sup.can_make_progress()
        finally:
            sup.stop()

    def test_heartbeat_stall_is_killed(self):
        sup = Supervisor(sleepy_no_beat, config=FAST)
        sup.add_worker("w0")
        sup.start()
        try:
            sup.submit("w0", 0, "x")
            deadline = time.monotonic() + 10.0
            deaths = []
            while not deaths:
                assert time.monotonic() < deadline
                deaths = sup.poll()
                time.sleep(0.005)
            assert deaths[0].reason == "stall"
        finally:
            sup.stop()
        kinds = [i.kind for i in sup.incidents.records()]
        assert "stall" in kinds and "death" in kinds

    def test_spawn_fault_becomes_supervised_death(self):
        injector = FaultInjector()
        injector.fail(
            "worker-spawn", exc=RuntimeError, times=1,
            match={"worker": "w0"},
        )
        with use_injector(injector):
            sup = Supervisor(doubling, config=FAST)
            sup.add_worker("w0")
            sup.start()
            try:
                assert sup.workers["w0"].process is None
                # The failed spawn scheduled a respawn; drive it.
                deadline = time.monotonic() + 10.0
                while sup.workers["w0"].process is None:
                    assert time.monotonic() < deadline
                    sup.poll()
                    time.sleep(0.005)
                out = run_to_completion(sup, [3])
                assert out == {0: 6}
            finally:
                sup.stop()
        deaths = [
            i for i in sup.incidents.records() if i.kind == "death"
        ]
        assert deaths and deaths[0].detail.startswith("spawn-failed")

    def test_breaker_opens_after_max_restarts(self):
        injector = FaultInjector()
        injector.fail(
            "worker-spawn", exc=RuntimeError, times=None,
            match={"worker": "w0"},
        )
        registry = MetricsRegistry()
        with use_injector(injector), use_registry(registry):
            sup = Supervisor(
                doubling,
                config=SupervisionConfig(
                    max_restarts=2, restart_window_s=60.0,
                    backoff_base_s=0.001, backoff_max_s=0.002,
                ),
            )
            sup.add_worker("w0")
            sup.start()
            try:
                deadline = time.monotonic() + 10.0
                while sup.workers["w0"].breaker.state != OPEN:
                    assert time.monotonic() < deadline
                    sup.poll()
                    time.sleep(0.005)
                assert not sup.can_make_progress()
            finally:
                sup.stop()
        assert registry.counter(
            "supervisor_breaker_open_total", {"worker": "w0"}
        ).value >= 1
        kinds = [i.kind for i in sup.incidents.records()]
        assert "breaker-open" in kinds

    def test_forgive_resets_the_breaker(self):
        sup = Supervisor(doubling, config=FAST)
        sup.add_worker("w0")
        for _ in range(sup.config.max_restarts):
            sup.workers["w0"].breaker.record_failure()
        assert sup.workers["w0"].breaker.state == OPEN
        sup.forgive("w0")
        assert sup.workers["w0"].breaker.state != OPEN
        sup.stop()


class TestMetricsAndIncidents:
    def test_lifecycle_metrics_are_emitted(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            sup = Supervisor(doubling, config=FAST)
            sup.add_worker("w0")
            sup.start()
            try:
                os.kill(sup.workers["w0"].pid, 9)
                deadline = time.monotonic() + 10.0
                while sup.workers["w0"].restarts == 0 or (
                    sup.workers["w0"].process is None
                ):
                    assert time.monotonic() < deadline
                    sup.poll()
                    time.sleep(0.005)
            finally:
                sup.stop()
        assert registry.counter(
            "supervisor_spawns_total", {"worker": "w0"}
        ).value == 2
        assert registry.counter(
            "supervisor_restarts_total", {"worker": "w0"}
        ).value == 1
        assert registry.counter(
            "supervisor_deaths_total",
            {"worker": "w0", "reason": "signal"},
        ).value == 1
        assert registry.gauge("supervisor_workers").value == 0

    def test_incident_sink_dump_and_summary(self, tmp_path):
        sink = IncidentLog()
        with use_incident_log(sink):
            sup = Supervisor(doubling, config=FAST)
            sup.add_worker("w0")
            sup.start()
            try:
                out = run_to_completion(sup, [7])
                assert out == {0: 14}
            finally:
                sup.stop()
        path = str(tmp_path / "incidents.jsonl")
        written = sink.dump(path)
        assert written == len(sink.records()) >= 2
        loaded = load_incidents(path)
        assert loaded == sink.records()
        summary = summarize(loaded)
        assert summary["workers"]["w0"]["spawn"] == 1
        assert summary["totals"]["stop"] == 1
        assert set(summary["totals"]) == set(INCIDENT_KINDS)


class TestStaleDirReaping:
    """Supervisor dirs of crashed parents must not leak forever."""

    def _make_dir(self, root, name, age_s):
        path = os.path.join(root, name)
        os.makedirs(path)
        with open(os.path.join(path, "hb-w0"), "w") as f:
            f.write("1")
        stamp = time.time() - age_s
        for target in (path, os.path.join(path, "hb-w0")):
            os.utime(target, (stamp, stamp))
        return path

    def test_stale_dirs_are_reaped_fresh_kept(self, tmp_path):
        root = str(tmp_path)
        stale = self._make_dir(root, "qhl-supervisor-dead", 7200.0)
        fresh = self._make_dir(root, "qhl-supervisor-live", 0.0)
        other = self._make_dir(root, "some-other-dir", 7200.0)
        assert reap_stale_dirs(root=root) == [stale]
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)       # recent activity: kept
        assert os.path.exists(other)       # unknown prefix: untouched

    def test_age_is_judged_on_the_newest_entry(self, tmp_path):
        # An old dir whose *contents* are still being written is a live
        # long-running fleet, not an orphan.
        root = str(tmp_path)
        path = self._make_dir(root, "qhl-supervisor-busy", 7200.0)
        with open(os.path.join(path, "hb-w1"), "w") as f:
            f.write("1")
        assert reap_stale_dirs(root=root) == []
        assert os.path.exists(path)

    def test_supervisor_creation_sweeps_the_temp_root(
        self, tmp_path, monkeypatch
    ):
        # Seed a stale leaked dir, point the temp root at it, and
        # create a supervisor the normal way: the leak is gone.
        root = str(tmp_path)
        stale = self._make_dir(root, "qhl-supervisor-leak", 7200.0)
        monkeypatch.setattr(tempfile, "tempdir", root)
        sup = Supervisor(doubling, config=FAST)
        try:
            assert not os.path.exists(stale)
            assert sup.directory.startswith(root)
        finally:
            sup.stop()
