"""Workload measurement harness.

Runs a query engine over a query set and aggregates the numbers the
paper plots — average query time (Figures 6 and 9), average hoplinks
(Figure 7 left), average path concatenations (Figures 7 right, 8) —
plus the tail latencies the paper's averages hide: every run feeds a
fixed-bucket histogram, so reports carry p50/p95/p99 alongside the
mean.  Every benchmark in ``benchmarks/`` reports through this module
so the printed rows are uniform.

The harness keeps no query loop of its own: :func:`run_workload`
builds its report from the batch API's loop
(:mod:`repro.perf.batch`), so deadlines, failure rows and the flight
join follow that module's rules.  A query that raises a
:class:`~repro.exceptions.ReproError` does not abort the run: it
becomes a :class:`~repro.perf.batch.BatchFailure` row counted in
``WorkloadReport.failed``.  Latency, in either mode, is the wall-clock
``perf_counter`` time around each ``engine.query`` call.

The table layout is driven by one column spec (:data:`COLUMNS`):
``WorkloadReport.header()`` and ``row()`` are derived from the same
tuple, so they cannot drift apart when columns are added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

from repro.observability.metrics import Histogram, get_registry
from repro.observability.propagation import new_trace_id
from repro.perf.batch import BatchFailure, _run_indices, execute_batch
from repro.service.deadline import Deadline
from repro.types import CSPQuery, QueryResult


class QueryEngine(Protocol):
    """The engine contract: a ``name`` and
    ``query(s, t, C, want_path=False, deadline=None) -> QueryResult``.

    Every engine in this package meets it.
    """

    name: str

    def query(
        self,
        source: int,
        target: int,
        budget: float,
        want_path: bool = False,
        deadline: Deadline | None = None,
    ) -> QueryResult: ...


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
    failures: list[BatchFailure] = field(default_factory=list, repr=False)
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

    The queries run through the batch API's loop: in input order, in
    this process, or with ``batch=True`` through
    :func:`repro.perf.batch.execute_batch` itself — cache-friendly
    sorted order, and ``workers >= 2`` fans it out over a supervised
    pool of self-healing workers (whose policy ``supervision``
    overrides).  Either way a query's latency is the wall-clock
    ``perf_counter`` time around its ``engine.query`` call, measured in
    the process that ran it.  It lands in a fixed-bucket histogram;
    when a live metrics registry is installed
    (:func:`repro.observability.metrics.set_registry`) the histogram is
    also attached to it under
    ``qhl_workload_query_seconds{engine=...,workload=...}``.

    A query raising :class:`~repro.exceptions.ReproError` (including
    :class:`~repro.exceptions.DeadlineExceededError` from
    ``deadline_ms``) is recorded as a failure row, not a crash; its
    time counts in the average, not in the histogram.  With
    ``batch_deadline_ms``, queries remaining when the batch budget
    expires are skipped and counted in ``WorkloadReport.skipped``.
    """
    query_list = list(queries)
    if batch:
        report = execute_batch(
            engine, query_list,
            deadline_ms=deadline_ms,
            batch_deadline_ms=batch_deadline_ms,
            workers=workers,
            supervision=supervision,
        )
    else:
        report = _run_indices(
            engine, query_list, range(len(query_list)), False,
            deadline_ms, batch_deadline_ms, new_trace_id(),
        )
    labels = {"engine": engine.name, "workload": workload_name}
    latency = Histogram(
        "qhl_workload_query_seconds",
        labels=labels,
        help="per-query latency measured by the workload harness",
    )
    registry = get_registry()
    if registry.enabled:
        registry.attach(latency)
    total = 0.0
    hoplinks = 0
    concatenations = 0
    lookups = 0
    feasible = 0
    for result, seconds in zip(report.results, report.seconds):
        if seconds is not None:
            total += seconds
        if result is None:
            continue
        latency.observe(seconds)
        hoplinks += result.stats.hoplinks
        concatenations += result.stats.concatenations
        lookups += result.stats.label_lookups
        if result.feasible:
            feasible += 1
    if registry.enabled:
        for failure in report.failures:
            registry.counter(
                "qhl_workload_failures_total",
                {**labels, "error": failure.error},
                help="queries that raised instead of answering",
            ).inc()
    count = report.answered + report.failed
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
        failed=report.failed,
        failures=report.failures,
        skipped=report.skipped,
    )
