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

from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import DeadlineExceededError, ReproError
from repro.observability.flight import get_flight_recorder
from repro.observability.metrics import get_registry
from repro.observability.propagation import new_trace_id
from repro.observability.tracing import get_tracer
from repro.perf.cache import normalize_pair
from repro.supervise.pool import SupervisedPool
from repro.supervise.supervisor import SupervisionConfig, fork_available
from repro.types import CSPQuery, QueryResult

QueryLike = CSPQuery | tuple[int, int, float]


@dataclass(frozen=True)
class BatchFailure:
    """One batch query that raised instead of answering.

    ``trace_id`` joins the failure to its batch trace; ``flight_seq``
    points at the flight-recorder record written for it (``None`` when
    no recorder was active).
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
# Sequential execution
# ----------------------------------------------------------------------
def _note_deadline_exceeded(engine_name: str) -> None:
    """Count a batch query that ran out of its per-query budget."""
    registry = get_registry()
    if registry.enabled:
        registry.counter(
            "qhl_batch_deadline_exceeded_total",
            {"engine": engine_name},
            help="batch queries that ran out of per-query budget",
        ).inc()


def _note_failure(
    failures: list[BatchFailure],
    trace_id: str | None,
    engine_name: str,
    index: int,
    query: CSPQuery,
    error: str,
    message: str,
) -> None:
    """Append a failure row, flight-recording it when a recorder is on."""
    recorder = get_flight_recorder()
    flight_seq = None
    if recorder.enabled:
        entry = recorder.record(
            engine=engine_name,
            source=query.source,
            target=query.target,
            budget=query.budget,
            outcome=error,
            seconds=0.0,
            trace_id=trace_id,
            error=message,
        )
        flight_seq = entry.seq
    failures.append(
        BatchFailure(
            index, query, error, message,
            trace_id=trace_id, flight_seq=flight_seq,
        )
    )


def _run_indices(
    engine,
    queries: Sequence[QueryLike],
    indices: Sequence[int],
    want_path: bool,
    deadline_ms: float | None,
    batch_deadline,
    trace_id: str | None = None,
) -> BatchReport:
    """Run the given queries in the given order, collecting failures."""
    engine_name = getattr(engine, "name", "?")
    results: list[QueryResult | None] = [None] * len(queries)
    failures: list[BatchFailure] = []
    skipped = 0
    for i in indices:
        if batch_deadline is not None and batch_deadline.expired():
            skipped += 1
            continue
        deadline = _fresh_deadline(deadline_ms, batch_deadline)
        s, t, c = queries[i]
        try:
            results[i] = engine.query(
                s, t, c, want_path=want_path, deadline=deadline
            )
        except ReproError as exc:
            if isinstance(exc, DeadlineExceededError):
                _note_deadline_exceeded(engine_name)
            _note_failure(
                failures, trace_id, engine_name, i, CSPQuery(s, t, c),
                type(exc).__name__, str(exc),
            )
    return BatchReport(
        results=results, failures=failures, skipped=skipped,
        trace_id=trace_id,
    )


def _fresh_deadline(deadline_ms: float | None, batch_deadline):
    """Per-query deadline: its own budget, else the shared batch one."""
    if deadline_ms is not None:
        from repro.service.deadline import Deadline

        return Deadline.from_ms(deadline_ms)
    return batch_deadline


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
    engine_name = getattr(_WORKER_ENGINE, "name", "?")
    out = []
    for i, (s, t, c) in zip(indices, triples, strict=True):
        heartbeat()
        deadline = _fresh_deadline(deadline_ms, None)
        try:
            result = _WORKER_ENGINE.query(
                s, t, c, want_path=want_path, deadline=deadline
            )
        except ReproError as exc:
            if isinstance(exc, DeadlineExceededError):
                _note_deadline_exceeded(engine_name)
                span.add("deadline_exceeded", 1)
            out.append((i, None, (type(exc).__name__, str(exc))))
        else:
            out.append((i, result, None))
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
    engine_name = getattr(engine, "name", "?")
    results: list[QueryResult | None] = [None] * len(queries)
    failures: list[BatchFailure] = []
    incidents: list = []
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
        for chunk_out in report.results.values():
            for i, result, failure in chunk_out:
                if failure is not None:
                    s, t, c = tuple(queries[i])[:3]
                    _note_failure(
                        failures, trace_id, engine_name, i,
                        CSPQuery(s, t, c), *failure,
                    )
                else:
                    results[i] = result
        for lost in report.failures:
            indices, triples, _, _ = lost.payload
            for i, (s, t, c) in zip(indices, triples, strict=True):
                _note_failure(
                    failures, trace_id, engine_name, i,
                    CSPQuery(s, t, c), lost.error,
                    f"{lost.message} (attempts: {lost.attempts})",
                )
    finally:
        _WORKER_ENGINE = None
    failures.sort(key=lambda f: f.index)
    return BatchReport(
        results=results, failures=failures, trace_id=trace_id,
        incidents=incidents,
    )


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
        return _execute_fan_out(
            engine, queries, order, want_path, deadline_ms, workers,
            trace_id, supervision,
        )
    batch_deadline = None
    if batch_deadline_ms is not None:
        from repro.service.deadline import Deadline

        batch_deadline = Deadline.from_ms(batch_deadline_ms)
    with tracer.span("batch.run") as span:
        span.set("queries", len(queries))
        return _run_indices(
            engine, queries, order, want_path, deadline_ms,
            batch_deadline, trace_id=trace_id,
        )


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
