"""Flight recording inside the QueryService: the serving black box."""

from __future__ import annotations

import glob
import os

import pytest

from repro.exceptions import (
    DeadlineExceededError,
    QueryError,
    ServiceUnavailableError,
)
from repro.observability.flight import load_flight
from repro.perf import execute_batch
from repro.service import (
    FaultInjector,
    QueryService,
    ServiceConfig,
    use_injector,
)

QUERY = (0, 63, 250)


class TestPerQueryRecords:
    def test_answered_query_leaves_one_record(self, service_index):
        service = QueryService(index=service_index)
        result = service.query(*QUERY)
        assert service.flight is not None
        records = service.flight.records()
        assert len(records) == 1
        record = records[0]
        assert record.engine == result.engine == "QHL-flat"
        assert record.outcome == "ok"
        assert (record.source, record.target) == QUERY[:2]
        assert record.trace_id is not None
        assert record.seconds > 0
        assert record.hoplinks == result.stats.hoplinks

    def test_cache_hit_flag_tracks_the_qhl_cache(self, service_index):
        service = QueryService(
            index=service_index, config=ServiceConfig(cache_size=8)
        )
        service.query(*QUERY)
        service.query(*QUERY)
        first, second = service.flight.records()
        assert first.cache_hit is False
        assert second.cache_hit is True

    def test_cache_hit_is_none_without_a_cache(self, service_index):
        service = QueryService(index=service_index)
        service.query(*QUERY)
        assert service.flight.records()[0].cache_hit is None

    def test_deadline_margin_recorded(self, service_index):
        service = QueryService(index=service_index)
        service.query(*QUERY, deadline_ms=10_000)
        record = service.flight.records()[0]
        assert record.deadline_margin_ms is not None
        assert 0 < record.deadline_margin_ms <= 10_000

    def test_malformed_query_recorded_as_failure(self, service_index):
        service = QueryService(index=service_index)
        with pytest.raises(QueryError):
            service.query(0, 10_000, 250)
        record = service.flight.records()[0]
        assert record.engine == "none"
        assert record.outcome == "QueryError"
        assert record.failed
        assert service.flight.slow_records() == [record]

    def test_deadline_expiry_recorded_with_its_tier(self, service_index):
        service = QueryService(index=service_index)
        with pytest.raises(DeadlineExceededError):
            service.query(*QUERY, deadline_ms=0.0)
        record = service.flight.records()[0]
        assert record.outcome == "DeadlineExceededError"
        assert record.failed

    def test_flight_disabled_by_config(self, service_index):
        service = QueryService(
            index=service_index, config=ServiceConfig(flight_records=0)
        )
        assert service.flight is None
        result = service.query(*QUERY)  # inert recorder: still answers
        assert result.feasible

    def test_slow_threshold_from_config(self, service_index):
        service = QueryService(
            index=service_index,
            config=ServiceConfig(flight_slow_ms=0.0001),
        )
        service.query(*QUERY)
        record = service.flight.records()[0]
        assert record.slow
        assert service.flight.slow_records() == [record]


class TestAutoDump:
    def test_service_unavailable_dumps_the_ring(
        self, service_index, tmp_path
    ):
        dump_dir = str(tmp_path / "dumps")
        service = QueryService(
            index=service_index,
            config=ServiceConfig(flight_dump_dir=dump_dir),
        )
        service.query(*QUERY)  # something in the ring to preserve
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=None)
        with use_injector(injector):
            with pytest.raises(ServiceUnavailableError):
                service.query(*QUERY)
        assert service.last_flight_dump is not None
        assert "service-unavailable" in service.last_flight_dump
        loaded = load_flight(service.last_flight_dump)
        assert loaded[-1].outcome == "ServiceUnavailableError"

    def test_breaker_trip_dumps_forensics(self, service_index, tmp_path):
        dump_dir = str(tmp_path / "dumps")
        service = QueryService(
            index=service_index,
            config=ServiceConfig(
                flight_dump_dir=dump_dir,
                breaker_failure_threshold=2,
            ),
        )
        service.query(*QUERY)
        injector = FaultInjector()
        injector.fail(
            "engine-query", exc=RuntimeError, times=None,
            match={"engine": "QHL-flat"},
        )
        with use_injector(injector):
            service.query(*QUERY)  # failure 1 (answered by CSP-2Hop)
            service.query(*QUERY)  # failure 2 -> QHL breaker opens
        assert service.breaker("QHL-flat").state == "open"
        dumps = glob.glob(os.path.join(dump_dir, "*.jsonl"))
        assert any("breaker-open-QHL" in name for name in dumps)

    def test_no_dump_dir_means_no_files(self, service_index):
        service = QueryService(index=service_index)
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=None)
        with use_injector(injector):
            with pytest.raises(ServiceUnavailableError):
                service.query(*QUERY)
        assert service.last_flight_dump is None


class TestBatchJoin:
    def test_query_batch_failure_rows_join_the_flight_ring(
        self, service_index
    ):
        service = QueryService(index=service_index)
        report = execute_batch(service, [QUERY, (0, 10_000, 250)])
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.trace_id is not None
        assert failure.flight_seq is not None
        by_seq = {r.seq: r for r in service.flight.records()}
        entry = by_seq[failure.flight_seq]
        assert entry.trace_id == failure.trace_id
        assert entry.outcome == failure.error
