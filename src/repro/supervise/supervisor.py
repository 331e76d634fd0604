"""Self-healing process supervision: spawn, heartbeat, restart.

A :class:`Supervisor` owns a set of **named, forked worker processes**
and keeps them alive:

* **spawn** — each worker runs :func:`_worker_main`: a loop ``task
  queue → entrypoint → result file``.  Workers are forked, so the
  entrypoint's heavy state (an engine, a partially built label store)
  is inherited by memory snapshot — including on *respawn*, which forks
  the parent's current state again.  The ``worker-spawn`` fault point
  fires per attempt.
* **heartbeat** — workers write a monotone counter into a per-worker
  heartbeat file.  The ``heartbeat`` callable beats once per idle
  queue-poll tick, around every task, and whenever the entrypoint
  calls it (the batch chunk body beats per query, the label chunk per
  vertex), but it writes the file at most once per ``heartbeat_ms /
  2``: a beat checks ``time.monotonic()`` first and returns at once
  when the last write is younger, so a per-query beat costs a clock
  read rather than an atomic file write.  The parent compares counter
  *values* on its own clock, so no cross-process clock comparison is
  needed.  A worker whose counter has not moved for ``stall_after_ms``
  is presumed wedged: it is SIGKILLed and treated as dead.  The
  ``worker-heartbeat`` fault point fires before each heartbeat write —
  an injected fault silently skips the write, which is exactly how
  chaos tests simulate a stall.
* **restart** — a death (exit, signal, stall, failed spawn) schedules a
  respawn after jittered exponential backoff
  (``min(base * 2**n, max) * (1 + jitter * U[0,1))``) behind a
  per-worker max-restarts-per-window circuit breaker
  (:class:`~repro.service.breaker.CircuitBreaker`): ``max_restarts``
  consecutive deaths open the breaker and the worker stays down until
  the ``restart_window_s`` backoff elapses.  A completed task closes
  the breaker, so only workers that die *without ever finishing work*
  trip it.
* **drain/stop** — :meth:`stop` drains gracefully (a ``None`` sentinel
  lets the worker loop exit cleanly), then escalates SIGTERM → SIGKILL
  for anything still alive after the grace period.

Results travel through **atomic result files** (pickle via ``tmp`` +
``os.replace``) rather than a shared queue: a worker SIGKILLed mid-write
can corrupt nothing the parent reads, and can never wedge a sibling on
a shared queue lock.  Each file holds one :class:`Outcome`.  When the
fork inherited an enabled tracer or metrics registry, the worker runs
every task under a fresh one and ships the task's span tree and metric
delta in the same outcome, so observed and unobserved runs share one
worker loop and one transport.  Every lifecycle event emits
``supervisor_*`` metrics, an :class:`~repro.supervise.incidents.
Incident`, and (when a recorder is live) a flight-recorder
``supervisor-<kind>`` record.

The task-lease layer on top — requeue work lost to a dead worker,
quarantine poison tasks — is :class:`repro.supervise.pool.
SupervisedPool`.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import queue as queue_mod
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from repro.observability.export import snapshot, span_to_dict
from repro.observability.flight import get_flight_recorder
from repro.observability.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    get_registry,
    use_registry,
)
from repro.observability.tracing import (
    NULL_TRACER,
    Span,
    SpanTracer,
    get_tracer,
    use_tracer,
)
from repro.service.breaker import OPEN, CircuitBreaker
from repro.service.faults import get_injector, injected_clock, jitter_rng
from repro.supervise.incidents import IncidentLog, get_incident_log

#: Prefix of supervisor scratch directories (heartbeats + result files);
#: :func:`reap_stale_dirs` reaps stale ones left behind by crashed
#: parents.
SUPERVISOR_DIR_PREFIX = "qhl-supervisor-"

#: Supervisor dirs untouched for this long are presumed orphaned.  A
#: live fleet keeps writing heartbeats and result files, so an hour of
#: silence means the owning parent died without ``stop()``.
STALE_DIR_AGE_S = 3600.0


def reap_stale_dirs(
    max_age_s: float = STALE_DIR_AGE_S,
    root: str | None = None,
) -> list[str]:
    """Remove supervisor dirs left behind by crashed parents.

    :meth:`Supervisor.stop` only runs when the parent survives the
    fan-out; a parent killed mid-batch leaks its ``qhl-supervisor-*``
    dir forever.  Called on every supervisor creation, this sweeps the
    temp root for such dirs whose *newest* entry (or the dir itself,
    when empty) is older than ``max_age_s`` seconds.  Age is judged on
    the newest file so a long-running but live fleet — which keeps
    writing heartbeats — is never reaped.  Best-effort: races and
    permission errors are swallowed.  Returns the paths removed.
    """
    if root is None:
        root = tempfile.gettempdir()
    now = time.time()
    reaped: list[str] = []
    try:
        names = os.listdir(root)
    except OSError:
        return reaped
    for name in names:
        if not name.startswith(SUPERVISOR_DIR_PREFIX):
            continue
        path = os.path.join(root, name)
        try:
            newest = os.stat(path).st_mtime
            for entry in os.scandir(path):
                newest = max(newest, entry.stat().st_mtime)
        except OSError:
            continue
        if now - newest < max_age_s:
            continue
        shutil.rmtree(path, ignore_errors=True)
        if not os.path.exists(path):
            reaped.append(path)
    return reaped


#: The worker entrypoint contract: ``entrypoint(payload, span,
#: heartbeat) -> result``.  ``span`` is the chunk's root span (or the
#: null span) and ``heartbeat`` must be called between units of work so
#: long chunks stay visibly alive.
Entrypoint = Callable[[Any, Span, Callable[[], None]], Any]


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunables for one supervised fleet.

    ``stall_after_ms`` must comfortably exceed both ``heartbeat_ms``
    and the time between two ``heartbeat()`` calls inside the
    entrypoint, or healthy-but-busy workers get shot.
    """

    heartbeat_ms: float = 100.0
    stall_after_ms: float = 5000.0
    max_restarts: int = 3
    restart_window_s: float = 30.0
    backoff_base_s: float = 0.01
    backoff_max_s: float = 0.5
    backoff_jitter: float = 0.25
    max_task_retries: int = 2
    drain_grace_s: float = 2.0
    poll_interval_s: float = 0.002


class Outcome(NamedTuple):
    """One task's result file, as the worker wrote it.

    ``status`` is ``"ok"`` (``value`` is the entrypoint's return) or
    ``"error"`` (``value`` is ``(exception type name, message)``).
    ``span`` is the task's span tree (:func:`~repro.observability.
    export.span_to_dict`) and ``metrics`` its metric delta
    (:func:`~repro.observability.export.snapshot`) when the worker
    inherited an enabled tracer or registry, else ``None``.
    """

    task_id: int
    worker: str
    status: str
    value: Any
    span: dict | None
    metrics: list[dict] | None


class DeathEvent(NamedTuple):
    """One worker death observed by :meth:`Supervisor.poll`."""

    worker: str
    reason: str  # "exit" | "signal" | "stall" | "spawn-failed"
    detail: str
    pid: int | None


@dataclass
class WorkerState:
    """Parent-side bookkeeping for one named worker."""

    name: str
    breaker: CircuitBreaker
    process: multiprocessing.process.BaseProcess | None = None
    task_queue: Any = None
    pid: int | None = None
    pids: list[int] = field(default_factory=list)
    restarts: int = 0
    hb_path: str = ""
    hb_value: int = -1
    hb_changed_at: float = 0.0
    #: When a scheduled respawn becomes due (``None`` = not scheduled).
    respawn_at: float | None = None


def fork_available() -> bool:
    """Whether the ``fork`` start method the workers need exists here.

    Callers fall back to a sequential run where it does not.
    """
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via tmp + rename; never partial."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _worker_main(
    name: str,
    entrypoint: Entrypoint,
    task_queue: Any,
    directory: str,
    hb_path: str,
    hb_interval_s: float,
    label: str,
) -> None:
    """The supervised worker loop (runs in the forked child).

    Whether tasks are observed follows what the fork inherited: an
    enabled tracer (registry) makes every task run under a fresh
    :class:`SpanTracer` (:class:`MetricsRegistry`), whose ``label`` root
    span — with this worker's ``pid`` — and metric delta ride home in
    the task's :class:`Outcome`, also when the task raises.
    """
    injector = get_injector()
    observe_spans = get_tracer().enabled
    observe_metrics = get_registry().enabled
    beat = 0
    min_gap_s = hb_interval_s / 2.0
    written_at = float("-inf")

    def heartbeat() -> None:
        nonlocal beat, written_at
        now = time.monotonic()
        if now - written_at < min_gap_s:
            return
        try:
            injector.fire("worker-heartbeat", worker=name)
        except Exception:  # lint: allow=QHL002 an injected heartbeat fault simulates a silent stall: skip the write, stay alive
            return
        beat += 1
        written_at = now
        _atomic_write(hb_path, str(beat).encode("ascii"))

    heartbeat()
    while True:
        try:
            item = task_queue.get(timeout=hb_interval_s)
        except queue_mod.Empty:
            heartbeat()
            continue
        if item is None:  # graceful-drain sentinel
            break
        task_id, payload = item
        heartbeat()
        tracer = SpanTracer() if observe_spans else NULL_TRACER
        registry = MetricsRegistry() if observe_metrics else NULL_REGISTRY
        root = tracer.span(label)
        with use_tracer(tracer), use_registry(registry):
            try:
                with root:
                    root.set("pid", os.getpid())
                    injector.fire("worker-task", worker=name, task=task_id)
                    value = entrypoint(payload, root, heartbeat)
                status = "ok"
            except BaseException as exc:  # lint: allow=QHL002 reported to the parent as a task-failure record, never swallowed
                status, value = "error", (type(exc).__name__, str(exc))
        outcome = Outcome(
            task_id, name, status, value,
            span_to_dict(root) if observe_spans else None,
            snapshot(registry) if observe_metrics else None,
        )
        _atomic_write(
            os.path.join(directory, f"result-{task_id:08d}"),
            pickle.dumps(outcome),
        )
        heartbeat()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class Supervisor:
    """Owns, health-checks, and restarts a set of named workers.

    Single-threaded by design: all supervision happens inside
    :meth:`poll` ticks driven by the caller's loop (no background
    threads, so respawn-forks never race the parent's state).  The
    ``clock`` defaults to the fault injector's clock when one is
    installed (so chaos tests can jump time deterministically) and
    ``time.monotonic`` otherwise; backoff jitter uses a seeded RNG
    under an injected clock for replayable schedules.
    """

    def __init__(
        self,
        entrypoint: Entrypoint,
        config: SupervisionConfig | None = None,
        label: str = "supervise.worker-chunk",
        trace_id: str | None = None,
        clock: Callable[[], float] | None = None,
        rng: random.Random | None = None,
    ) -> None:
        self.config = config if config is not None else SupervisionConfig()
        self._clock = clock or injected_clock() or time.monotonic
        self._rng = rng if rng is not None else jitter_rng()
        self._entrypoint = entrypoint
        self._label = label
        self.trace_id = trace_id
        self._ctx = multiprocessing.get_context("fork")
        reap_stale_dirs()
        self.directory = tempfile.mkdtemp(prefix=SUPERVISOR_DIR_PREFIX)
        self.incidents = IncidentLog()
        self.workers: dict[str, WorkerState] = {}
        self._consumed: set[str] = set()
        self._stopped = False

    # -- fleet definition ----------------------------------------------
    def add_worker(self, name: str) -> None:
        if name in self.workers:
            raise ValueError(f"duplicate worker name {name!r}")
        config = self.config
        state = WorkerState(
            name=name,
            breaker=CircuitBreaker(
                failure_threshold=config.max_restarts,
                reset_timeout=config.restart_window_s,
                clock=self._clock,
                on_transition=self._breaker_transition(name),
            ),
        )
        self.workers[name] = state

    def _breaker_transition(self, name: str) -> Callable[[str], None]:
        def on_transition(state: str) -> None:
            if state == OPEN:
                registry = get_registry()
                if registry.enabled:
                    registry.counter(
                        "supervisor_breaker_open_total",
                        {"worker": name},
                        help="restart circuit breakers tripped open",
                    ).inc()
                self._incident(
                    "breaker-open", name, self.workers[name].pid,
                    f"restart breaker open after "
                    f"{self.config.max_restarts} consecutive deaths",
                )
        return on_transition

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn every registered worker."""
        for state in self.workers.values():
            self._spawn(state)
        self._set_workers_gauge()

    def _spawn(self, state: WorkerState) -> bool:
        state.respawn_at = None
        respawn = state.restarts > 0
        try:
            get_injector().fire(
                "worker-spawn", worker=state.name, restarts=state.restarts
            )
        except Exception as exc:  # lint: allow=QHL002 an injected spawn failure becomes a supervised death, not a crash
            self._record_death(
                state, "spawn-failed", f"{type(exc).__name__}: {exc}"
            )
            return False
        state.task_queue = self._ctx.Queue()
        state.hb_path = os.path.join(self.directory, f"hb-{state.name}")
        state.hb_value = -1
        state.hb_changed_at = self._clock()
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                state.name,
                self._entrypoint,
                state.task_queue,
                self.directory,
                state.hb_path,
                self.config.heartbeat_ms / 1000.0,
                self._label,
            ),
            daemon=True,
        )
        # Fork with the parent's objects frozen: the worker's collector
        # then never walks them, so it neither copies the parent's pages
        # nor collects (and finalizes) garbage the parent left behind,
        # either of which can stall its first heartbeats.  The parent
        # unfreezes at once, so its own garbage is still collected.
        gc.freeze()
        try:
            process.start()
        finally:
            gc.unfreeze()
        state.process = process
        state.pid = process.pid
        state.pids.append(int(process.pid or 0))
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "supervisor_spawns_total",
                {"worker": state.name},
                help="worker processes spawned (including respawns)",
            ).inc()
        self._incident(
            "spawn", state.name, state.pid,
            f"pid {state.pid} (attempt {state.restarts + 1})",
        )
        if respawn:
            if registry.enabled:
                registry.counter(
                    "supervisor_restarts_total",
                    {"worker": state.name},
                    help="workers respawned after a death",
                ).inc()
            self._incident(
                "restart", state.name, state.pid,
                f"respawned as pid {state.pid} after "
                f"{state.restarts} death(s)",
            )
        return True

    def _record_death(
        self, state: WorkerState, reason: str, detail: str
    ) -> DeathEvent:
        dead_pid = state.pid
        state.process = None
        state.task_queue = None
        state.pid = None
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "supervisor_deaths_total",
                {"worker": state.name, "reason": reason},
                help="worker deaths by cause",
            ).inc()
        self._incident(
            "death", state.name, dead_pid, f"{reason}: {detail}"
        )
        state.breaker.record_failure()
        state.restarts += 1
        config = self.config
        delay = min(
            config.backoff_base_s * (2 ** (state.restarts - 1)),
            config.backoff_max_s,
        ) * (1.0 + config.backoff_jitter * self._rng.random())
        state.respawn_at = self._clock() + delay
        return DeathEvent(state.name, reason, detail, dead_pid)

    def poll(self) -> list[DeathEvent]:
        """One supervision tick: detect deaths/stalls, run due respawns.

        Returns the deaths observed this tick so the task layer can
        requeue the dead workers' leases.
        """
        now = self._clock()
        deaths: list[DeathEvent] = []
        for state in self.workers.values():
            if state.process is not None:
                if not state.process.is_alive():
                    code = state.process.exitcode
                    state.process.join()
                    reason = "signal" if (code or 0) < 0 else "exit"
                    deaths.append(
                        self._record_death(
                            state, reason, f"exitcode {code}"
                        )
                    )
                    continue
                value = self._read_heartbeat(state.hb_path)
                if value != state.hb_value:
                    state.hb_value = value
                    state.hb_changed_at = now
                elif (
                    (now - state.hb_changed_at) * 1000.0
                    >= self.config.stall_after_ms
                ):
                    registry = get_registry()
                    if registry.enabled:
                        registry.counter(
                            "supervisor_heartbeat_stalls_total",
                            {"worker": state.name},
                            help="workers killed for a stalled heartbeat",
                        ).inc()
                    self._incident(
                        "stall", state.name, state.pid,
                        f"no heartbeat progress for "
                        f"{self.config.stall_after_ms:g} ms",
                    )
                    state.process.kill()
                    state.process.join()
                    deaths.append(
                        self._record_death(
                            state, "stall",
                            "heartbeat stalled; SIGKILLed",
                        )
                    )
            elif (
                state.respawn_at is not None
                and now >= state.respawn_at
                and state.breaker.allow()
            ):
                self._spawn(state)
        self._set_workers_gauge()
        return deaths

    @staticmethod
    def _read_heartbeat(path: str) -> int:
        try:
            with open(path, "rb") as handle:
                return int(handle.read() or b"-1")
        except (OSError, ValueError):
            return -1

    def _set_workers_gauge(self) -> None:
        registry = get_registry()
        if registry.enabled:
            registry.gauge(
                "supervisor_workers",
                help="live worker processes under supervision",
            ).set(
                sum(
                    1
                    for s in self.workers.values()
                    if s.process is not None and s.process.is_alive()
                )
            )

    # -- work dispatch -------------------------------------------------
    def submit(self, worker: str, task_id: int, payload: Any) -> None:
        """Queue one task on a specific (alive) worker."""
        state = self.workers[worker]
        if state.task_queue is None:
            raise ValueError(f"worker {worker!r} is not running")
        state.task_queue.put((task_id, payload))

    def finished(self) -> list[int]:
        """Ids of tasks whose result files are on disk and not loaded yet.

        Workers write result files atomically (tmp + rename), so every
        file listed is complete; a half-written tmp file never matches.
        """
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            int(name[7:])
            for name in names
            if name.startswith("result-")
            and name[7:].isdigit()
            and name not in self._consumed
        )

    def load(self, task_id: int) -> Outcome:
        """The :class:`Outcome` of a task :meth:`finished` listed; each
        is loaded once.  A complete file that cannot be read back
        raises rather than being skipped: skipping it would leave its
        task neither done nor pending."""
        name = f"result-{task_id:08d}"
        self._consumed.add(name)
        with open(os.path.join(self.directory, name), "rb") as handle:
            return pickle.loads(handle.read())

    def harvest(self) -> list[Outcome]:
        """Every new :class:`Outcome` on disk."""
        return [self.load(task_id) for task_id in self.finished()]

    def idle_alive_workers(self, busy: set[str]) -> list[str]:
        """Names of running workers not currently holding a lease."""
        return [
            name
            for name, state in self.workers.items()
            if name not in busy
            and state.process is not None
            and state.process.is_alive()
        ]

    def note_success(self, worker: str) -> None:
        """A worker finished a task: close/reset its restart breaker."""
        self.workers[worker].breaker.record_success()

    def forgive(self, worker: str) -> None:
        """Reset a worker's restart breaker without a completed task.

        Used by the pool when a poison task is quarantined: the deaths
        were the task's fault, so the worker's respawn should not stay
        gated behind a breaker the task tripped.
        """
        self.workers[worker].breaker.record_success()

    def incident(
        self, kind: str, worker: str, pid: int | None, detail: str
    ) -> None:
        """Record a caller-originated incident (pool requeue/quarantine)."""
        self._incident(kind, worker, pid, detail)

    def can_make_progress(self) -> bool:
        """Whether any worker is alive or still restartable.

        ``False`` means the fleet is gone and no breaker will let a
        respawn through: the task layer should give up instead of
        spinning forever.  A worker that died since the last
        :meth:`poll` still counts: only that poll records the death and
        schedules (or refuses) the respawn, so judging it earlier would
        give up on a fleet that is about to restart.
        """
        for state in self.workers.values():
            if state.process is not None:
                return True
            if state.respawn_at is not None and (
                state.breaker.state != OPEN or state.breaker.allow()
            ):
                return True
        return False

    # -- shutdown ------------------------------------------------------
    def stop(self) -> None:
        """Graceful drain, then SIGTERM, then SIGKILL; reap the dir."""
        if self._stopped:
            return
        self._stopped = True
        grace = self.config.drain_grace_s
        for state in self.workers.values():
            if state.process is not None and state.task_queue is not None:
                try:
                    state.task_queue.put(None)
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + grace
        for state in self.workers.values():
            if state.process is None:
                continue
            state.process.join(max(0.0, deadline - time.monotonic()))
            if state.process.is_alive():
                state.process.terminate()  # escalate: SIGTERM
                state.process.join(0.5)
            if state.process.is_alive():
                state.process.kill()  # escalate: SIGKILL
                state.process.join()
            self._incident(
                "stop", state.name, state.pid,
                f"stopped (exitcode {state.process.exitcode})",
            )
            state.process = None
            state.task_queue = None
            state.pid = None
        self._set_workers_gauge()
        shutil.rmtree(self.directory, ignore_errors=True)

    # -- introspection -------------------------------------------------
    def status(self) -> dict[str, dict]:
        """Per-worker state snapshot (the ``supervise status`` shape)."""
        out: dict[str, dict] = {}
        for name, state in self.workers.items():
            if state.process is not None and state.process.is_alive():
                phase = "running"
            elif state.respawn_at is not None:
                phase = "backoff"
            else:
                phase = "down"
            out[name] = {
                "state": phase,
                "pid": state.pid,
                "pids": list(state.pids),
                "restarts": state.restarts,
                "breaker": state.breaker.state,
            }
        return out

    def pid_successions(self) -> dict[int, int]:
        """``{dead pid: respawned pid}`` across every worker's history."""
        successions: dict[int, int] = {}
        for state in self.workers.values():
            for old, new in zip(state.pids, state.pids[1:], strict=False):
                successions[old] = new
        return successions

    def _incident(
        self, kind: str, worker: str, pid: int | None, detail: str
    ) -> None:
        incident = self.incidents.new(
            kind, worker, pid, detail, trace_id=self.trace_id
        )
        sink = get_incident_log()
        if sink.enabled:
            sink.append(incident)
        recorder = get_flight_recorder()
        if recorder.enabled:
            recorder.record(
                engine="supervisor",
                source=int(pid or -1),
                target=0,
                budget=0.0,
                outcome=f"supervisor-{kind}",
                seconds=0.0,
                trace_id=self.trace_id,
                error=f"{worker}: {detail}",
            )

