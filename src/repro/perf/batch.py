"""Batched query execution.

One batch API for every engine in the package:

* :func:`sorted_batch_order` — the execution order that maximises
  skyline-cache reuse: queries sorted by normalised ``(s, t)`` pair
  (then budget), so repeated pairs run back-to-back and a cached
  frontier is hot when its siblings arrive.
* :func:`execute_batch` — run a workload through an engine, tolerant
  of per-query failures, honouring per-query and per-batch deadlines
  (the batch deadline is checked between queries and threaded *into*
  each engine call), optionally fanned out across a supervised worker
  pool with a per-worker engine handle.

The fan-out runs on a :class:`~repro.supervise.pool.SupervisedPool`:
workers are forked, so they inherit the engine (index included)
without pickling its deep provenance structures, and on platforms
without ``fork`` the batch silently runs sequentially.  Results always
come back in the *input* order, bit-identical to a sequential run
(each query's answer is independent of batch order).

Workers are heartbeat-monitored and restarted, so a mid-chunk SIGKILL
means "retry the lost chunk on a respawned worker" rather than failure
rows — the report comes back bit-identical to the sequential path.
Only a poison chunk element (one that kills every worker that touches
it) surfaces as failure rows (``TaskQuarantinedError``, a
``WorkerCrashError``), and only after the chunk was split into
singletons so its healthy neighbours still answer.
``BatchReport.incidents`` carries the supervisor's black box.

The loop is the package's one query loop: :func:`execute_batch` runs
it in sorted order, :func:`repro.instrument.run_workload` in input
order (or through :func:`execute_batch` with ``batch=True``).  One
per-query step serves the in-process loop and the forked workers, and
its rules hold on every surface:

* **Deadlines.**  ``deadline_ms`` arms a fresh deadline per query;
  otherwise the query shares the batch deadline, which is also checked
  between queries (the rest are skipped).  Both run on
  :func:`~repro.service.faults.injected_clock` in chaos tests and on
  ``time.monotonic`` otherwise.
* **Latency.**  ``BatchReport.seconds[i]`` is the ``perf_counter``
  wall-clock around query ``i``'s engine call, in whichever process
  ran it.
* **Flight join.**  With a live recorder every query leaves exactly
  one flight record.  An engine that records its own queries (a
  :class:`~repro.service.ladder.QueryService`, through its
  ``last_flight``) keeps its record; otherwise the loop writes one,
  with the batch trace id and the measured seconds, into the engine's
  own ring (a service's ``flight``) or else the active recorder.  A
  failure row points at that record: its ``trace_id`` and
  ``flight_seq``.  Without a record the row carries the batch trace id
  and ``flight_seq=None``.  Forked workers' records die with them, so
  a fanned-out batch is recorded in the parent, as the chunks come
  back.

Every batch runs under one trace id.  When observability is live, the
forked workers inherit it: each chunk's span tree and metric delta come
back in the chunk's result file, the pool merges the deltas into the
parent registry, and the fan-out attaches the worker spans under its
``batch.fan-out`` span — so ``--trace`` shows worker-side phases and
worker-side cache/deadline counters land in the parent registry instead
of vanishing with the fork.  A worker that died mid-chunk leaves a
``worker.truncated`` span carrying a ``respawned_as`` counter that
points at its successor's pid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.exceptions import DeadlineExceededError, ReproError
from repro.observability.flight import get_flight_recorder
from repro.observability.metrics import get_registry
from repro.observability.propagation import new_trace_id
from repro.observability.tracing import get_tracer
from repro.perf.cache import normalize_pair
from repro.service.deadline import Deadline
from repro.service.faults import injected_clock
from repro.supervise.pool import SupervisedPool
from repro.supervise.supervisor import SupervisionConfig, fork_available
from repro.types import CSPQuery, QueryResult

QueryLike = CSPQuery | tuple[int, int, float]

_DEADLINE_ERROR = DeadlineExceededError.__name__


@dataclass(frozen=True)
class BatchFailure:
    """One batch query that raised instead of answering.

    ``trace_id`` and ``flight_seq`` point at the query's flight record;
    without one, ``trace_id`` is the batch's and ``flight_seq`` is
    ``None`` (see the module docs' flight-join rule).
    """

    index: int
    query: CSPQuery
    error: str
    message: str
    trace_id: str | None = None
    flight_seq: int | None = None


@dataclass
class BatchReport:
    """Outcome of one :func:`execute_batch` run.

    ``results[i]`` answers ``queries[i]``; it is ``None`` when that
    query failed (see ``failures``) or was skipped because the batch
    deadline expired first.
    """

    results: list[QueryResult | None]
    failures: list[BatchFailure] = field(default_factory=list)
    skipped: int = 0
    trace_id: str | None = None
    #: Supervisor lifecycle records (spawns, deaths, requeues) when the
    #: batch fanned out; empty when it ran sequentially.
    incidents: list = field(default_factory=list)
    #: ``seconds[i]``: wall-clock of ``queries[i]``'s engine call
    #: (``perf_counter`` around it, in whichever process ran it);
    #: ``None`` when skipped, ``0.0`` when lost with a crashed worker.
    seconds: list[float | None] = field(default_factory=list)

    @property
    def answered(self) -> int:
        """Queries that produced a result."""
        return sum(1 for r in self.results if r is not None)

    @property
    def failed(self) -> int:
        return len(self.failures)


def sorted_batch_order(queries: Sequence[QueryLike]) -> list[int]:
    """Indices of ``queries`` in cache-friendly execution order.

    Sorted by normalised pair, then budget, then input position — so
    identical pairs are adjacent (one frontier computation serves the
    whole run) and the order is deterministic.
    """
    return sorted(
        range(len(queries)),
        key=lambda i: (
            normalize_pair(queries[i][0], queries[i][1]),
            queries[i][2],
            i,
        ),
    )


# ----------------------------------------------------------------------
# The per-query step and the in-process loop
# ----------------------------------------------------------------------
def _run_one(engine, query, want_path, deadline_ms, batch_deadline, clock):
    """The one per-query step: ``(result, failure, seconds)``.

    Arms the query's deadline (its own ``deadline_ms`` budget on
    ``clock``, else the shared batch one), calls the engine and times
    the call with ``perf_counter``.  A
    :class:`~repro.exceptions.ReproError` comes back as an
    ``(error class name, message)`` failure pair.
    """
    s, t, c = query
    deadline = (
        Deadline.from_ms(deadline_ms, clock=clock)
        if deadline_ms is not None
        else batch_deadline
    )
    started = time.perf_counter()
    try:
        result = engine.query(s, t, c, want_path=want_path, deadline=deadline)
    except ReproError as exc:
        seconds = time.perf_counter() - started
        return None, (type(exc).__name__, str(exc)), seconds
    return result, None, time.perf_counter() - started


class _Collector:
    """Gathers per-query outcomes into a :class:`BatchReport`.

    :meth:`add` holds the flight-join rule (see the module docs).
    """

    def __init__(self, engine, queries, trace_id):
        self.engine_name = getattr(engine, "name", "?")
        self.queries = queries
        self.trace_id = trace_id
        # A QueryService keeps its own ring: records the loop writes
        # for it (fanned-out queries) belong there too.
        own_ring = getattr(engine, "flight", None)
        self.recorder = (
            own_ring if own_ring is not None else get_flight_recorder()
        )
        self.results: list[QueryResult | None] = [None] * len(queries)
        self.seconds: list[float | None] = [None] * len(queries)
        self.failures: list[BatchFailure] = []

    def add(self, i, result, failure, seconds, own=None) -> None:
        """Take query ``i``'s outcome; ``own`` is the flight record the
        engine wrote for it itself, if any."""
        self.seconds[i] = seconds
        entry = own if own is not None else self._record(
            i, result, failure, seconds
        )
        if failure is None:
            self.results[i] = result
            return
        self.failures.append(
            BatchFailure(
                i, CSPQuery(*self.queries[i]), *failure,
                trace_id=entry.trace_id if entry else self.trace_id,
                flight_seq=entry.seq if entry else None,
            )
        )

    def _record(self, i, result, failure, seconds):
        if not self.recorder.enabled:
            return None
        s, t, c = self.queries[i]
        if failure is None:
            outcome = "ok" if result.feasible else "infeasible"
        else:
            outcome = failure[0]
        return self.recorder.record(
            engine=self.engine_name, source=s, target=t, budget=c,
            outcome=outcome, seconds=seconds, trace_id=self.trace_id,
            stats=result.stats if result is not None else None,
            error=failure[1] if failure is not None else "",
        )

    def report(self, skipped: int = 0, incidents=()) -> BatchReport:
        self.failures.sort(key=lambda f: f.index)
        return BatchReport(
            results=self.results, failures=self.failures,
            skipped=skipped, trace_id=self.trace_id,
            incidents=list(incidents), seconds=self.seconds,
        )


def _run_indices(
    engine,
    queries: Sequence[QueryLike],
    indices: Iterable[int],
    want_path: bool,
    deadline_ms: float | None,
    batch_deadline_ms: float | None,
    trace_id: str,
) -> BatchReport:
    """Run the given queries in the given order, in this process."""
    clock = injected_clock() or time.monotonic
    batch_deadline = (
        Deadline.from_ms(batch_deadline_ms, clock=clock)
        if batch_deadline_ms is not None
        else None
    )
    collector = _Collector(engine, queries, trace_id)
    skipped = 0
    for i in indices:
        if batch_deadline is not None and batch_deadline.expired():
            skipped += 1
            continue
        result, failure, seconds = _run_one(
            engine, queries[i], want_path, deadline_ms, batch_deadline,
            clock,
        )
        # Read right after the call: the record a self-recording
        # engine (a QueryService) just wrote for this query.
        own = getattr(engine, "last_flight", None)
        collector.add(i, result, failure, seconds, own)
    return collector.report(skipped=skipped)


# ----------------------------------------------------------------------
# Fan-out execution
# ----------------------------------------------------------------------
#: The engine the workers query, set in the parent before the
#: supervisor forks (and still set when it forks *respawns*).
_WORKER_ENGINE = None


def _worker_chunk(payload, span, heartbeat):
    """Supervised-pool entrypoint: one chunk of the sorted order.

    The payload carries plain triples (never engines), so only small
    tuples cross the process boundary; the engine came in via fork.
    ``span`` is the chunk's ``batch.worker-chunk`` root, recorded when
    the parent traces (the null span otherwise).  ``heartbeat`` is
    called before every query so the worker stays visibly alive through
    arbitrarily long chunks.
    """
    indices, triples, want_path, deadline_ms = payload
    clock = injected_clock() or time.monotonic
    out = []
    for i, triple in zip(indices, triples, strict=True):
        heartbeat()
        result, failure, seconds = _run_one(
            _WORKER_ENGINE, triple, want_path, deadline_ms, None, clock
        )
        if failure is not None and failure[0] == _DEADLINE_ERROR:
            span.add("deadline_exceeded", 1)
        out.append((i, result, failure, seconds))
    span.set("queries", len(out))
    return out


def _split_chunk(payload):
    """Decompose a chunk payload into per-query singleton payloads."""
    indices, triples, want_path, deadline_ms = payload
    return [
        ([i], [triple], want_path, deadline_ms)
        for i, triple in zip(indices, triples, strict=True)
    ]


def _execute_fan_out(
    engine,
    queries: Sequence[QueryLike],
    order: list[int],
    want_path: bool,
    deadline_ms: float | None,
    workers: int,
    trace_id: str,
    supervision: SupervisionConfig | None,
) -> BatchReport:
    """Run the sorted order on a self-healing pool (see module docs)."""
    global _WORKER_ENGINE
    tracer = get_tracer()
    chunks = _contiguous_chunks(order, workers)
    payloads = [
        (chunk, [tuple(queries[i])[:3] for i in chunk],
         want_path, deadline_ms)
        for chunk in chunks
    ]
    collector = _Collector(engine, queries, trace_id)
    _WORKER_ENGINE = engine
    try:
        with tracer.span("batch.fan-out") as parent:
            parent.set("workers", workers)
            parent.set("queries", len(queries))
            parent.set("chunks", len(chunks))
            pool = SupervisedPool(
                _worker_chunk,
                workers,
                config=supervision,
                label="batch.worker-chunk",
                split=_split_chunk,
                trace_id=trace_id,
            )
            report = pool.run(payloads)
            incidents = pool.supervisor.incidents.records()
            if report.spans:
                parent.children.extend(report.spans)
    finally:
        _WORKER_ENGINE = None
    # Chunks finish in any order; adding them by task id keeps the
    # flight records in the same order run to run.
    for task_id in sorted(report.results):
        for i, result, failure, seconds in report.results[task_id]:
            collector.add(i, result, failure, seconds)
    for lost in report.failures:
        for i in lost.payload[0]:
            collector.add(
                i, None,
                (lost.error, f"{lost.message} (attempts: {lost.attempts})"),
                0.0,
            )
    return collector.report(incidents=incidents)


# ----------------------------------------------------------------------
def execute_batch(
    engine,
    queries: Sequence[QueryLike],
    want_path: bool = False,
    deadline_ms: float | None = None,
    batch_deadline_ms: float | None = None,
    workers: int = 0,
    trace_id: str | None = None,
    supervision: SupervisionConfig | None = None,
) -> BatchReport:
    """Run a whole workload through ``engine``.

    Parameters
    ----------
    engine:
        Anything with ``query(s, t, C, want_path=..., deadline=...)``.
        A :class:`~repro.perf.cached_engine.CachedQHLEngine` benefits
        most (the sorted order maximises its frontier reuse), but any
        engine gains the failure tolerance and deadline handling.
    queries:
        ``CSPQuery`` instances or plain ``(s, t, C)`` triples.
    deadline_ms:
        Per-query time budget; an over-budget query lands in
        ``failures`` and the batch continues.
    batch_deadline_ms:
        Shared budget for the whole batch; once it expires the
        remaining queries are counted in ``skipped``.  Incompatible
        with ``workers`` (a wall-clock budget cannot be shared across
        processes) — raises :class:`ValueError` if both are given.
    workers:
        ``0``/``1`` runs sequentially.  ``>= 2`` fans the sorted order
        out over a :class:`~repro.supervise.pool.SupervisedPool`:
        contiguous chunks of the sorted order (so repeated pairs stay
        on one worker's cache) run on per-worker engine handles
        inherited by fork, and a dead worker is respawned and its lost
        chunk retried.  Platforms without the ``fork`` start method
        fall back to sequential.
    trace_id:
        Joins this batch to an existing trace; minted fresh when
        omitted.  The id lands on the report and every failure row.
    supervision:
        Optional :class:`~repro.supervise.supervisor.
        SupervisionConfig` overriding the fan-out's heartbeat, restart
        and retry policy.
    """
    if workers >= 2 and batch_deadline_ms is not None:
        raise ValueError(
            "batch_deadline_ms cannot be combined with workers: a "
            "shared wall-clock budget does not cross process boundaries"
        )
    if trace_id is None:
        trace_id = new_trace_id()
    registry = get_registry()
    tracer = get_tracer()
    if registry.enabled:
        registry.counter(
            "qhl_batch_queries_total",
            {"engine": getattr(engine, "name", "?")},
            help="queries submitted through the batch API",
        ).inc(len(queries))
    order = sorted_batch_order(queries)
    fan_out = workers >= 2 and fork_available()
    if registry.enabled:
        registry.gauge(
            "qhl_batch_workers",
            help="process-pool size of the last batch run",
        ).set(workers if fan_out else 1)
    if fan_out:
        report = _execute_fan_out(
            engine, queries, order, want_path, deadline_ms, workers,
            trace_id, supervision,
        )
    else:
        with tracer.span("batch.run") as span:
            span.set("queries", len(queries))
            report = _run_indices(
                engine, queries, order, want_path, deadline_ms,
                batch_deadline_ms, trace_id,
            )
    expired = sum(f.error == _DEADLINE_ERROR for f in report.failures)
    if registry.enabled and expired:
        registry.counter(
            "qhl_batch_deadline_exceeded_total",
            {"engine": getattr(engine, "name", "?")},
            help="batch queries that ran out of per-query budget",
        ).inc(expired)
    return report


def _contiguous_chunks(order: list[int], workers: int) -> list[list[int]]:
    """Split the sorted order into at most ``workers`` contiguous runs.

    Contiguity matters: the order groups repeated pairs, so keeping
    runs intact keeps each pair's frontier on a single worker.
    """
    if not order:
        return []
    chunk_size = max(1, (len(order) + workers - 1) // workers)
    return [
        order[i:i + chunk_size] for i in range(0, len(order), chunk_size)
    ]
