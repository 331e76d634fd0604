"""Workload measurement harness.

Runs a query engine over a query set and aggregates the numbers the
paper plots — average query time (Figures 6 and 9), average hoplinks
(Figure 7 left), average path concatenations (Figures 7 right, 8) —
plus the tail latencies the paper's averages hide: every run feeds a
fixed-bucket histogram, so reports carry p50/p95/p99 alongside the
mean.  Every benchmark in ``benchmarks/`` reports through this module
so the printed rows are uniform.

A query that raises a :class:`~repro.exceptions.ReproError` no longer
aborts the run: it is recorded as a :class:`QueryFailure` row and
counted in ``WorkloadReport.failed``, so one pathological query cannot
take down a whole workload.  Per-query and per-batch time budgets
(``deadline_ms`` / ``batch_deadline_ms``) thread
:class:`~repro.service.deadline.Deadline` objects into the engines.

The table layout is driven by one column spec (:data:`COLUMNS`):
``WorkloadReport.header()`` and ``row()`` are derived from the same
tuple, so they cannot drift apart when columns are added.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

from repro.exceptions import ReproError
from repro.observability.flight import get_flight_recorder
from repro.observability.metrics import Histogram, get_registry
from repro.service.deadline import Deadline
from repro.types import CSPQuery, QueryResult


class QueryEngine(Protocol):
    """Anything with ``query(s, t, C) -> QueryResult`` and a ``name``."""

    name: str

    def query(
        self, source: int, target: int, budget: float
    ) -> QueryResult: ...


@dataclass(frozen=True)
class QueryFailure:
    """One query that raised instead of answering.

    ``trace_id`` and ``flight_seq`` join the row to its batch trace and
    flight-recorder record (``None`` when observability was off), so a
    failure in a report is greppable back to its forensic evidence.
    """

    index: int
    query: CSPQuery
    error: str
    message: str
    trace_id: str | None = None
    flight_seq: int | None = None


@dataclass
class WorkloadReport:
    """Aggregated measurements of one engine over one query set."""

    engine: str
    workload: str
    num_queries: int
    total_seconds: float
    avg_hoplinks: float
    avg_concatenations: float
    avg_label_lookups: float
    feasible: int
    latency: Histogram | None = field(default=None, repr=False)
    failed: int = 0
    failures: list[QueryFailure] = field(default_factory=list, repr=False)
    skipped: int = 0

    @property
    def avg_ms(self) -> float:
        """Mean per-query wall-clock in milliseconds."""
        return self.total_seconds / self.num_queries * 1e3 if (
            self.num_queries
        ) else 0.0

    @property
    def avg_us(self) -> float:
        """Mean per-query wall-clock in microseconds."""
        return self.avg_ms * 1e3

    def _percentile_ms(self, q: float) -> float:
        if self.latency is None or self.num_queries == 0:
            return 0.0
        return self.latency.percentile(q) * 1e3

    @property
    def p50_ms(self) -> float:
        """Median per-query latency in milliseconds."""
        return self._percentile_ms(50)

    @property
    def p95_ms(self) -> float:
        """95th-percentile per-query latency in milliseconds."""
        return self._percentile_ms(95)

    @property
    def p99_ms(self) -> float:
        """99th-percentile per-query latency in milliseconds."""
        return self._percentile_ms(99)

    def row(self) -> str:
        """One formatted table row (used by the bench printers)."""
        return "  ".join(
            f"{column.cell(self):>{column.width}}" for column in COLUMNS
        )

    @staticmethod
    def header() -> str:
        """The column header matching :meth:`row` — same spec, no drift."""
        return "  ".join(
            f"{column.title:>{column.width}}" for column in COLUMNS
        )


@dataclass(frozen=True)
class Column:
    """One report column: a title, a width, and a cell renderer."""

    title: str
    width: int
    cell: Callable[[WorkloadReport], str]


#: The single source of truth for the report table layout.
COLUMNS: tuple[Column, ...] = (
    Column("workload", 8, lambda r: r.workload),
    Column("engine", 10, lambda r: r.engine),
    Column("avg time", 13, lambda r: f"{r.avg_ms:.3f} ms"),
    Column("p50", 10, lambda r: f"{r.p50_ms:.3f} ms"),
    Column("p95", 10, lambda r: f"{r.p95_ms:.3f} ms"),
    Column("p99", 10, lambda r: f"{r.p99_ms:.3f} ms"),
    Column("hoplinks", 9, lambda r: f"{r.avg_hoplinks:.1f}"),
    Column("concats", 12, lambda r: f"{r.avg_concatenations:.1f}"),
    Column("feas", 5, lambda r: f"{r.feasible}/{r.num_queries}"),
    Column("fail", 4, lambda r: str(r.failed)),
)


def run_workload(
    engine: QueryEngine,
    queries: Iterable[CSPQuery],
    workload_name: str = "",
    deadline_ms: float | None = None,
    batch_deadline_ms: float | None = None,
    batch: bool = False,
    workers: int = 0,
    supervision=None,
) -> WorkloadReport:
    """Run every query through the engine and aggregate the statistics.

    Per-query latencies land in a fixed-bucket histogram; when a live
    metrics registry is installed (:func:`repro.observability.metrics.
    set_registry`) the histogram is also attached to it under
    ``qhl_workload_query_seconds{engine=...,workload=...}``.

    A query raising :class:`~repro.exceptions.ReproError` (including
    :class:`~repro.exceptions.DeadlineExceededError` from
    ``deadline_ms``) is recorded as a failure row, not a crash.  With
    ``batch_deadline_ms``, queries remaining when the batch budget
    expires are skipped and counted in ``WorkloadReport.skipped``.
    Deadline arguments require an engine whose ``query`` accepts a
    ``deadline`` keyword (every engine in this package does).

    ``batch=True`` executes through the batch API
    (:func:`repro.perf.batch.execute_batch`): queries run in
    cache-friendly sorted order (``workers >= 2`` fans them out over a
    supervised pool of self-healing workers, whose policy
    ``supervision`` overrides) and per-query latency is the
    engine-measured ``stats.seconds`` rather than harness wall-clock.
    """
    if batch:
        return _run_workload_batched(
            engine, queries, workload_name,
            deadline_ms, batch_deadline_ms, workers,
            supervision=supervision,
        )
    latency = Histogram(
        "qhl_workload_query_seconds",
        labels={"engine": engine.name, "workload": workload_name},
        help="per-query latency measured by the workload harness",
    )
    registry = get_registry()
    if registry.enabled:
        registry.attach(latency)
    batch_deadline = (
        Deadline.from_ms(batch_deadline_ms)
        if batch_deadline_ms is not None
        else None
    )
    total = 0.0
    hoplinks = 0
    concatenations = 0
    lookups = 0
    feasible = 0
    count = 0
    failed = 0
    skipped = 0
    failures: list[QueryFailure] = []
    for i, query in enumerate(queries):
        if batch_deadline is not None and batch_deadline.expired():
            skipped += 1
            continue
        deadline = (
            Deadline.from_ms(deadline_ms) if deadline_ms is not None
            else batch_deadline
        )
        started = time.perf_counter()
        try:
            if deadline is None:
                result = engine.query(
                    query.source, query.target, query.budget
                )
            else:
                result = engine.query(
                    query.source, query.target, query.budget,
                    deadline=deadline,
                )
        except ReproError as exc:
            elapsed = time.perf_counter() - started
            total += elapsed
            count += 1
            failed += 1
            # A QueryService engine has already flight-recorded this
            # failure itself; reuse its record instead of writing a
            # duplicate.  Plain engines get one from the harness.
            entry = getattr(engine, "_last_flight", None)
            if entry is None:
                recorder = get_flight_recorder()
                if recorder.enabled:
                    entry = recorder.record(
                        engine=engine.name,
                        source=query.source,
                        target=query.target,
                        budget=query.budget,
                        outcome=type(exc).__name__,
                        seconds=elapsed,
                        error=str(exc),
                    )
            flight_seq = entry.seq if entry is not None else None
            trace_id = entry.trace_id if entry is not None else None
            failures.append(
                QueryFailure(
                    i, query, type(exc).__name__, str(exc),
                    trace_id=trace_id, flight_seq=flight_seq,
                )
            )
            if registry.enabled:
                registry.counter(
                    "qhl_workload_failures_total",
                    {
                        "engine": engine.name,
                        "workload": workload_name,
                        "error": type(exc).__name__,
                    },
                    help="queries that raised instead of answering",
                ).inc()
            continue
        elapsed = time.perf_counter() - started
        total += elapsed
        latency.observe(elapsed)
        count += 1
        recorder = get_flight_recorder()
        if recorder.enabled and getattr(engine, "flight", None) is None:
            # Engines with their own ring (QueryService) already
            # recorded this query; everything else gets a row here.
            recorder.record(
                engine=engine.name,
                source=query.source,
                target=query.target,
                budget=query.budget,
                outcome="ok" if result.feasible else "infeasible",
                seconds=elapsed,
                stats=result.stats,
            )
        hoplinks += result.stats.hoplinks
        concatenations += result.stats.concatenations
        lookups += result.stats.label_lookups
        if result.feasible:
            feasible += 1
    divisor = max(1, count)
    return WorkloadReport(
        engine=engine.name,
        workload=workload_name,
        num_queries=count,
        total_seconds=total,
        avg_hoplinks=hoplinks / divisor,
        avg_concatenations=concatenations / divisor,
        avg_label_lookups=lookups / divisor,
        feasible=feasible,
        latency=latency,
        failed=failed,
        failures=failures,
        skipped=skipped,
    )


def _run_workload_batched(
    engine: QueryEngine,
    queries: Iterable[CSPQuery],
    workload_name: str,
    deadline_ms: float | None,
    batch_deadline_ms: float | None,
    workers: int,
    supervision=None,
) -> WorkloadReport:
    """The ``batch=True`` body of :func:`run_workload`."""
    from repro.perf.batch import execute_batch

    query_list = list(queries)
    latency = Histogram(
        "qhl_workload_query_seconds",
        labels={"engine": engine.name, "workload": workload_name},
        help="per-query latency measured by the workload harness",
    )
    registry = get_registry()
    if registry.enabled:
        registry.attach(latency)
    batch_report = execute_batch(
        engine,
        query_list,
        deadline_ms=deadline_ms,
        batch_deadline_ms=batch_deadline_ms,
        workers=workers,
        supervision=supervision,
    )
    total = 0.0
    hoplinks = 0
    concatenations = 0
    lookups = 0
    feasible = 0
    count = 0
    for result in batch_report.results:
        if result is None:
            continue
        count += 1
        total += result.stats.seconds
        latency.observe(result.stats.seconds)
        hoplinks += result.stats.hoplinks
        concatenations += result.stats.concatenations
        lookups += result.stats.label_lookups
        if result.feasible:
            feasible += 1
    failures = [
        QueryFailure(
            f.index, f.query, f.error, f.message,
            trace_id=f.trace_id, flight_seq=f.flight_seq,
        )
        for f in batch_report.failures
    ]
    count += len(failures)  # failed queries still count as attempted
    divisor = max(1, count)
    return WorkloadReport(
        engine=engine.name,
        workload=workload_name,
        num_queries=count,
        total_seconds=total,
        avg_hoplinks=hoplinks / divisor,
        avg_concatenations=concatenations / divisor,
        avg_label_lookups=lookups / divisor,
        feasible=feasible,
        latency=latency,
        failed=len(failures),
        failures=failures,
        skipped=batch_report.skipped,
    )
