"""Unit tests for instrumentation helpers."""

import time

import pytest

from repro.instrument import (
    COLUMNS,
    Timer,
    WorkloadReport,
    format_bytes,
    format_seconds,
    run_workload,
)
from repro.observability.metrics import Histogram


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.seconds >= 0.01

    def test_reusable(self):
        timer = Timer()
        with timer:
            pass
        first = timer.seconds
        with timer:
            time.sleep(0.005)
        assert timer.seconds >= 0.005
        assert timer.seconds != first or first == 0


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kilobytes(self):
        assert format_bytes(1536) == "1.5 KB"

    def test_megabytes(self):
        assert format_bytes(3 * 1024 * 1024) == "3.0 MB"

    def test_gigabytes(self):
        assert format_bytes(5 * 1024**3) == "5.0 GB"

    def test_huge_stays_gb(self):
        assert format_bytes(5000 * 1024**3).endswith("GB")


class TestFormatSeconds:
    def test_microseconds(self):
        assert format_seconds(0.0000042) == "4.2 us"

    def test_milliseconds(self):
        assert format_seconds(0.0042) == "4.2 ms"

    def test_seconds(self):
        assert format_seconds(4.2) == "4.20 s"


def _report(num_queries=4, total_seconds=0.004, latency=None):
    return WorkloadReport(
        engine="QHL",
        workload="Q1",
        num_queries=num_queries,
        total_seconds=total_seconds,
        avg_hoplinks=2.5,
        avg_concatenations=7.0,
        avg_label_lookups=3.0,
        feasible=num_queries,
        latency=latency,
    )


class TestWorkloadReport:
    def test_header_and_row_share_the_column_spec(self):
        header = WorkloadReport.header()
        row = _report().row()
        for column in COLUMNS:
            assert column.title in header
        # Same spec, same geometry: cells line up under their titles.
        assert len(header) == len(row)

    def test_row_contains_percentile_columns(self):
        latency = Histogram("lat")
        for value in (0.001, 0.002, 0.010):
            latency.observe(value)
        report = _report(num_queries=3, total_seconds=0.013, latency=latency)
        header, row = WorkloadReport.header(), report.row()
        assert "p50" in header and "p95" in header and "p99" in header
        assert report.p50_ms > 0
        assert report.p50_ms <= report.p95_ms <= report.p99_ms
        assert f"{report.p99_ms:.3f} ms" in row

    def test_empty_workload_is_guarded(self):
        report = _report(num_queries=0, total_seconds=0.0)
        assert report.avg_ms == 0.0
        assert report.p50_ms == report.p99_ms == 0.0
        report.row()  # must not raise

    def test_missing_latency_histogram_is_guarded(self):
        report = _report(latency=None)
        assert report.p95_ms == 0.0

    def test_run_workload_fills_latency_histogram(self, small_grid_index):
        from repro.types import CSPQuery

        engine = small_grid_index.qhl_engine()
        queries = [
            CSPQuery(0, 63, 10_000),
            CSPQuery(1, 62, 10_000),
            CSPQuery(2, 61, 10_000),
        ]
        report = run_workload(engine, queries, "Q1")
        assert report.num_queries == 3
        assert report.latency.count == 3
        assert report.latency.labels == {"engine": "QHL-flat", "workload": "Q1"}
        assert report.p50_ms > 0


class _FlakyEngine:
    """Answers via a real engine but raises on selected query indices."""

    name = "flaky"

    def __init__(self, inner, fail_on):
        self.inner = inner
        self.fail_on = set(fail_on)
        self.calls = 0

    def query(self, source, target, budget, **kwargs):
        from repro.exceptions import QueryError

        self.calls += 1
        if self.calls - 1 in self.fail_on:
            raise QueryError(f"engine tripped on call {self.calls - 1}")
        return self.inner.query(source, target, budget, **kwargs)


class TestWorkloadFailures:
    def _queries(self, n=4):
        from repro.types import CSPQuery

        return [CSPQuery(i, 63 - i, 10_000) for i in range(n)]

    def test_failing_queries_become_rows_not_crashes(
        self, small_grid_index
    ):
        engine = _FlakyEngine(small_grid_index.qhl_engine(), fail_on={1, 3})
        report = run_workload(engine, self._queries(), "flaky")
        assert report.num_queries == 4
        assert report.failed == 2
        assert report.feasible == 2
        assert [f.index for f in report.failures] == [1, 3]
        assert report.failures[0].error == "QueryError"
        assert "tripped" in report.failures[0].message
        assert report.row()  # the fail column renders

    def test_failures_are_counted_in_the_registry(self, small_grid_index):
        from repro.observability.metrics import (
            MetricsRegistry,
            use_registry,
        )

        engine = _FlakyEngine(small_grid_index.qhl_engine(), fail_on={0})
        registry = MetricsRegistry()
        with use_registry(registry):
            run_workload(engine, self._queries(2), "flaky")
        metric = registry.get(
            "qhl_workload_failures_total",
            {"engine": "flaky", "workload": "flaky",
             "error": "QueryError"},
        )
        assert metric is not None and metric.value == 1

    def test_per_query_deadline_failure_is_recorded(self, small_grid_index):
        # A 0 ms budget expires at the first cooperative checkpoint of
        # every query: all rows fail, none crash the harness.
        engine = small_grid_index.qhl_engine()
        report = run_workload(
            engine, self._queries(3), "deadline", deadline_ms=0
        )
        assert report.failed == 3
        assert all(
            f.error == "DeadlineExceededError" for f in report.failures
        )

    def test_batch_deadline_skips_the_remainder(self, small_grid_index):
        # An already-expired batch budget: the first query fails on its
        # deadline and the rest are never attempted.
        engine = small_grid_index.qhl_engine()
        report = run_workload(
            engine, self._queries(5), "batch", batch_deadline_ms=0
        )
        assert report.num_queries + report.skipped == 5
        assert report.skipped >= 4


class TestWorkloadFlightJoin:
    """Failure rows are greppable back to their flight records."""

    def _queries(self, n=4):
        from repro.types import CSPQuery

        return [CSPQuery(i, 63 - i, 10_000) for i in range(n)]

    def test_sequential_failure_rows_point_at_flight_records(
        self, small_grid_index
    ):
        from repro.observability.flight import (
            FlightRecorder,
            use_flight_recorder,
        )

        engine = _FlakyEngine(small_grid_index.qhl_engine(), fail_on={2})
        recorder = FlightRecorder()
        with use_flight_recorder(recorder):
            report = run_workload(engine, self._queries(), "flaky")
        failure = report.failures[0]
        assert failure.flight_seq is not None
        by_seq = {r.seq: r for r in recorder.records()}
        entry = by_seq[failure.flight_seq]
        assert entry.outcome == failure.error == "QueryError"
        assert (entry.source, entry.target) == (2, 61)

    def test_batched_failure_rows_carry_trace_and_flight(
        self, small_grid_index
    ):
        from repro.observability.flight import (
            FlightRecorder,
            use_flight_recorder,
        )
        from repro.types import CSPQuery

        queries = self._queries(3) + [CSPQuery(0, 10_000, 5.0)]
        recorder = FlightRecorder()
        with use_flight_recorder(recorder):
            report = run_workload(
                small_grid_index.qhl_engine(), queries, "batched",
                batch=True,
            )
        assert report.failed == 1
        failure = report.failures[0]
        assert failure.trace_id is not None
        assert failure.flight_seq is not None
        by_seq = {r.seq: r for r in recorder.records()}
        assert by_seq[failure.flight_seq].trace_id == failure.trace_id

    def test_no_recorder_means_no_pointers(self, small_grid_index):
        # Without a flight record a row still joins its run's trace:
        # every failure of one run carries the same batch trace id.
        engine = _FlakyEngine(small_grid_index.qhl_engine(), fail_on={0, 1})
        report = run_workload(engine, self._queries(2), "flaky")
        first, second = report.failures
        assert first.flight_seq is None and second.flight_seq is None
        assert first.trace_id is not None
        assert first.trace_id == second.trace_id

    @pytest.mark.parametrize("batch", [False, True])
    def test_service_records_are_reused_not_duplicated(
        self, small_grid_index, batch
    ):
        from repro.service import QueryService
        from repro.types import CSPQuery

        service = QueryService(index=small_grid_index)
        queries = [CSPQuery(0, 63, 10_000), CSPQuery(0, 10_000, 5.0)]
        report = run_workload(service, queries, "svc", batch=batch)
        assert report.failed == 1
        # One flight record per query — the harness reused the
        # service's own failure record instead of writing a second.
        assert service.flight.total == 2
        failure = report.failures[0]
        assert failure.flight_seq == service.flight.records()[-1].seq
        assert failure.trace_id is not None

    @pytest.mark.parametrize("workers", [0, 2])
    def test_execute_batch_reuses_service_records(
        self, small_grid_index, workers
    ):
        # Fanned out, the service's own records die with the workers;
        # the loop writes the parent's records into the service's ring.
        from repro.perf import execute_batch
        from repro.service import QueryService
        from repro.types import CSPQuery

        service = QueryService(index=small_grid_index)
        queries = [CSPQuery(0, 63, 10_000), CSPQuery(0, 10_000, 5.0)]
        report = execute_batch(service, queries, workers=workers)
        assert service.flight.total == 2
        (failure,) = report.failures
        last = service.flight.records()[-1]
        assert failure.flight_seq == last.seq
        assert failure.trace_id == last.trace_id
