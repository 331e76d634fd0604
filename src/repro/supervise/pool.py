"""Supervised task pool: leases, lost-work requeue, poison quarantine.

:class:`SupervisedPool` drives a :class:`~repro.supervise.supervisor.
Supervisor` fleet through a list of task payloads and guarantees that a
worker death loses **at most its one leased task**, which is requeued
and retried on a respawned worker instead of surfacing as a failure:

* **Leases** — each worker holds at most one in-flight task, so "which
  work did this death lose?" always has a single, exact answer.
* **Requeue** — a task whose worker died goes back to the *front* of
  the queue with its attempt count bumped.  If the task is splittable
  (a multi-query chunk) the first death splits it into singleton tasks
  so a single poisonous element cannot take healthy neighbours down
  with it on every retry.
* **Quarantine** — a task that has crashed its worker more than
  ``max_task_retries`` times is poison: it is pulled out of rotation as
  a ``quarantined`` failure (with an incident + metric) and the worker
  is *forgiven* — its restart breaker resets, because the root cause
  was the task, not the process — so the rest of the batch completes
  even on a one-worker fleet.  No crash-loop.
* **Exhaustion** — if the whole fleet is down and every restart breaker
  refuses a respawn, remaining tasks are returned as ``exhausted``
  failures rather than spinning forever; a real-time watchdog backstops
  the loop against frozen injected clocks.

Observation rides on the same result files: the pool merges each
loaded outcome's metric delta into the active registry, once, and
returns the workers' span trees — plus a ``worker.truncated`` span per
death (joined to the respawned pid by ``respawned_as``) and a
``worker.idle`` span per worker that neither answered nor died — in
:attr:`PoolReport.spans`, for the caller to attach under its fan-out
span.

Results are deterministic-by-construction: tasks carry stable ids, the
pool only *schedules* — it never reorders or merges result values — so
its caller (batch execution) reassembles output in task order and stays
bit-identical to its sequential path no matter which workers died along
the way.
"""

from __future__ import annotations

import collections
import time
from typing import Any, Callable, NamedTuple

from repro.observability.export import merge_records, span_from_dict
from repro.observability.metrics import get_registry
from repro.observability.tracing import Span, get_tracer
from repro.supervise.supervisor import (
    DeathEvent,
    Entrypoint,
    SupervisionConfig,
    Supervisor,
)

#: ``reason`` values a :class:`PoolFailure` can carry.
FAILURE_REASONS = ("task-error", "quarantined", "exhausted")

#: Hard real-time ceiling on a pool iteration making zero progress with
#: zero live workers — a backstop against frozen injected clocks, not a
#: tunable (normal respawns are bounded by ``backoff_max_s``).
_DEADLOCK_GRACE_S = 30.0


class PoolFailure(NamedTuple):
    """One task the pool could not complete."""

    task_id: int
    payload: Any
    attempts: int
    reason: str  # one of FAILURE_REASONS
    error: str
    message: str


class PoolReport(NamedTuple):
    """Everything :meth:`SupervisedPool.run` produced."""

    results: dict[int, Any]  # task_id -> entrypoint return value
    failures: list[PoolFailure]
    payloads: dict[int, Any]  # task_id -> payload (incl. split children)
    requeues: int
    splits: int
    #: Worker span trees, then ``worker.truncated`` / ``worker.idle``
    #: spans; empty unless a tracer is active.
    spans: list[Span]

    @property
    def quarantined(self) -> list[PoolFailure]:
        return [f for f in self.failures if f.reason == "quarantined"]

    @property
    def exhausted(self) -> list[PoolFailure]:
        return [f for f in self.failures if f.reason == "exhausted"]


class _Task:
    __slots__ = ("task_id", "payload", "attempts", "splittable")

    def __init__(
        self, task_id: int, payload: Any, attempts: int, splittable: bool
    ) -> None:
        self.task_id = task_id
        self.payload = payload
        self.attempts = attempts
        self.splittable = splittable


class SupervisedPool:
    """Run payloads through supervised workers with lost-work requeue.

    ``split(payload)`` (optional) decomposes a multi-element payload
    into independent sub-payloads; it is invoked the first time that
    payload's worker dies.  Returning a single-element list marks the
    payload unsplittable and it is retried whole.
    """

    def __init__(
        self,
        entrypoint: Entrypoint,
        workers: int,
        config: SupervisionConfig | None = None,
        label: str = "supervise.worker-chunk",
        split: Callable[[Any], list[Any]] | None = None,
        trace_id: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._split = split
        self.supervisor = Supervisor(
            entrypoint,
            config=config,
            label=label,
            trace_id=trace_id,
        )
        for index in range(workers):
            self.supervisor.add_worker(f"w{index}")

    def run(self, payloads: list[Any]) -> PoolReport:
        """Execute every payload; returns results + failure taxonomy.

        Workers are spawned on entry and fully stopped (drain →
        SIGTERM → SIGKILL) before this returns, even on error.
        """
        supervisor = self.supervisor
        config = supervisor.config
        next_id = len(payloads)
        pending: collections.deque[_Task] = collections.deque(
            _Task(i, payload, 0, self._split is not None)
            for i, payload in enumerate(payloads)
        )
        tasks: dict[int, _Task] = {t.task_id: t for t in pending}
        leases: dict[str, _Task] = {}
        results: dict[int, Any] = {}
        failures: list[PoolFailure] = []
        requeues = 0
        splits = 0
        spans: list[Span] = []
        deaths: list[DeathEvent] = []
        registry = get_registry()
        last_progress = time.monotonic()
        supervisor.start()
        try:
            while pending or leases:
                progressed = False
                # 1) Completed results close their leases *before*
                # deaths are looked for, so a worker that finished its
                # task and then died does not get that task spuriously
                # requeued.  The results themselves are loaded in step
                # 4, after step 3 has handed the freed workers new
                # work: unpickling a large result takes longer than a
                # worker needs to start its next task.
                finished = supervisor.finished()
                done = set(finished)
                for worker, lease in list(leases.items()):
                    if lease.task_id in done:
                        del leases[worker]
                        supervisor.note_success(worker)
                # 2) Detect deaths and requeue each dead worker's lease.
                for death in supervisor.poll():
                    progressed = True
                    deaths.append(death)
                    task = leases.pop(death.worker, None)
                    if task is None:
                        continue
                    task.attempts += 1
                    if task.attempts > config.max_task_retries:
                        if registry.enabled:
                            registry.counter(
                                "supervisor_quarantined_total",
                                help="poison tasks pulled from rotation",
                            ).inc()
                        supervisor.incident(
                            "quarantine", death.worker, death.pid,
                            f"task {task.task_id} crashed its worker "
                            f"{task.attempts} times; quarantined",
                        )
                        failures.append(
                            PoolFailure(
                                task.task_id, task.payload, task.attempts,
                                "quarantined",
                                "TaskQuarantinedError",
                                f"crashed worker {death.worker} on "
                                f"attempt {task.attempts} "
                                f"({death.reason}): {death.detail}",
                            )
                        )
                        # The task was the root cause, not the worker:
                        # forgive it so its respawn is not held hostage
                        # to the poison task's death count.
                        supervisor.forgive(death.worker)
                    elif (
                        task.splittable
                        and self._split is not None
                        and len(parts := self._split(task.payload)) > 1
                    ):
                        splits += 1
                        children: list[_Task] = []
                        for part in parts:
                            child = _Task(
                                next_id, part, task.attempts, False
                            )
                            next_id += 1
                            tasks[child.task_id] = child
                            children.append(child)
                        pending.extendleft(reversed(children))
                        requeues += 1
                        if registry.enabled:
                            registry.counter(
                                "supervisor_requeues_total",
                                help="tasks requeued after a worker death",
                            ).inc()
                        supervisor.incident(
                            "requeue", death.worker, death.pid,
                            f"task {task.task_id} split into "
                            f"{len(children)} singletons after "
                            f"{death.reason}",
                        )
                    else:
                        task.splittable = False
                        pending.appendleft(task)
                        requeues += 1
                        if registry.enabled:
                            registry.counter(
                                "supervisor_requeues_total",
                                help="tasks requeued after a worker death",
                            ).inc()
                        supervisor.incident(
                            "requeue", death.worker, death.pid,
                            f"task {task.task_id} requeued "
                            f"(attempt {task.attempts + 1}) after "
                            f"{death.reason}",
                        )
                # 3) Dispatch: one lease per idle, live worker.
                for worker in supervisor.idle_alive_workers(set(leases)):
                    if not pending:
                        break
                    task = pending.popleft()
                    leases[worker] = task
                    supervisor.submit(worker, task.task_id, task.payload)
                    progressed = True
                # 4) Load the results step 1 saw.
                for task_id in finished:
                    outcome = supervisor.load(task_id)
                    merge_records(registry, outcome.metrics or ())
                    if outcome.span is not None:
                        spans.append(span_from_dict(outcome.span))
                    task = tasks.get(task_id)
                    if task is None or task_id in results:
                        continue
                    progressed = True
                    if outcome.status == "ok":
                        results[task_id] = outcome.value
                    else:
                        error, message = outcome.value
                        failures.append(
                            PoolFailure(
                                task_id, task.payload, task.attempts + 1,
                                "task-error", error, message,
                            )
                        )
                if not pending and not leases:
                    break
                now = time.monotonic()
                if progressed:
                    last_progress = now
                fleet_down = not supervisor.idle_alive_workers(set())
                if (not supervisor.can_make_progress()) or (
                    fleet_down and not leases
                    and now - last_progress > _DEADLOCK_GRACE_S
                ):
                    for task in list(pending) + list(leases.values()):
                        failures.append(
                            PoolFailure(
                                task.task_id, task.payload, task.attempts,
                                "exhausted",
                                "WorkerRestartExhaustedError",
                                "no live worker and every restart "
                                "breaker refused a respawn",
                            )
                        )
                    break
                time.sleep(config.poll_interval_s)
        finally:
            supervisor.stop()
        if get_tracer().enabled:
            spans.extend(_lifecycle_spans(supervisor, deaths, spans))
        return PoolReport(
            results,
            failures,
            {task_id: task.payload for task_id, task in tasks.items()},
            requeues,
            splits,
            spans,
        )


def _lifecycle_spans(
    supervisor: Supervisor, deaths: list[DeathEvent], answered: list[Span]
) -> list[Span]:
    """``worker.truncated`` per death, ``worker.idle`` per silent pid.

    Run after :meth:`Supervisor.stop`, so the pid successions are
    final: a truncated span whose worker was respawned carries the
    successor's pid as ``respawned_as``.  A spawned pid that neither
    returned a result (``answered`` spans carry the pid) nor died gets
    an idle span, so every worker of the fleet shows in the trace.
    """
    successions = supervisor.pid_successions()
    seen = {int(span.counters.get("pid", 0)) for span in answered}
    out: list[Span] = []
    for death in deaths:
        if death.pid is None:
            continue
        seen.add(death.pid)
        span = Span("worker.truncated")
        span.set("pid", death.pid)
        if death.pid in successions:
            span.set("respawned_as", successions[death.pid])
        out.append(span)
    for state in supervisor.workers.values():
        for pid in state.pids:
            if pid not in seen:
                span = Span("worker.idle")
                span.set("pid", pid)
                out.append(span)
    return out
