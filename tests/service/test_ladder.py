"""The degradation ladder: fallback order, breakers, and metrics."""

import pytest

from repro.baselines import sky_dijkstra_csp
from repro.exceptions import (
    QueryError,
    ReproError,
    ServiceUnavailableError,
)
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.service import (
    FaultInjector,
    QueryService,
    ServiceConfig,
    use_injector,
)

QUERIES = [(0, 63, 250), (7, 56, 300), (3, 60, 10_000)]


def ground_truth(network, s, t, budget):
    return sky_dijkstra_csp(network, s, t, budget).pair()


@pytest.fixture
def service(service_index):
    return QueryService(index=service_index)


class TestLadderConstruction:
    def test_full_ladder_from_index(self, service):
        assert service.tiers == ["QHL-flat", "CSP-2Hop", "SkyDijkstra"]

    def test_network_only_service_is_index_free(self, service_grid):
        service = QueryService(network=service_grid)
        assert service.tiers == ["SkyDijkstra"]
        s, t, budget = QUERIES[0]
        result = service.query(s, t, budget)
        assert result.pair() == ground_truth(service_grid, s, t, budget)

    def test_needs_some_backend(self):
        with pytest.raises(ValueError):
            QueryService()

    def test_unknown_tier_rejected(self, service_index):
        with pytest.raises(ValueError):
            QueryService(
                index=service_index,
                config=ServiceConfig(tiers=("QHL", "Oracle")),
            )

    def test_unloadable_index_with_no_fallback_raises_typed(self, tmp_path):
        from repro.exceptions import SerializationError

        # No network, no engines: degradation is impossible, so the
        # load failure surfaces as its typed error, not a ValueError.
        with pytest.raises(SerializationError):
            QueryService(index_path=str(tmp_path / "nope.idx"))

    def test_missing_index_path_degrades_not_dies(self, service_grid,
                                                  tmp_path):
        registry = MetricsRegistry()
        with use_registry(registry):
            service = QueryService(
                index_path=str(tmp_path / "nope.idx"),
                network=service_grid,
            )
        assert service.index_load_error is not None
        assert service.tiers == ["SkyDijkstra"]
        s, t, budget = QUERIES[0]
        assert service.query(s, t, budget).pair() == ground_truth(
            service_grid, s, t, budget
        )
        metric = registry.get("service_index_load_failures_total")
        assert metric is not None and metric.value == 1


class TestFlatIndexFile:
    """A version-4 file serves the full ladder, QHL-flat first."""

    @pytest.fixture
    def flat_service(self, service_index, tmp_path):
        from repro.storage import save_flat_index

        path = str(tmp_path / "grid.qflat")
        save_flat_index(service_index, path)
        return QueryService(index_path=path)

    def test_ladder_starts_at_the_flat_engine(
        self, flat_service, service_grid
    ):
        assert flat_service.index_load_error is None
        assert flat_service.tiers == ["QHL-flat", "CSP-2Hop", "SkyDijkstra"]
        for s, t, budget in QUERIES:
            result = flat_service.query(s, t, budget)
            assert result.engine == "QHL-flat"
            assert result.pair() == ground_truth(service_grid, s, t, budget)

    def test_engine_fault_steps_down_to_csp2hop(
        self, flat_service, service_grid
    ):
        injector = FaultInjector()
        injector.fail(
            "engine-query", exc=RuntimeError, times=1,
            match={"engine": "QHL-flat"},
        )
        s, t, budget = QUERIES[0]
        with use_injector(injector):
            result = flat_service.query(s, t, budget)
        assert result.engine == "CSP-2Hop"
        assert result.pair() == ground_truth(service_grid, s, t, budget)


class TestFallback:
    def test_healthy_service_answers_via_qhl(self, service, service_grid):
        for s, t, budget in QUERIES:
            result = service.query(s, t, budget)
            assert result.engine == "QHL-flat"
            assert result.pair() == ground_truth(service_grid, s, t, budget)

    def test_single_tier_fault_falls_back_correctly(
        self, service, service_grid
    ):
        injector = FaultInjector()
        injector.fail(
            "engine-query", exc=RuntimeError, times=1,
            match={"engine": "QHL-flat"},
        )
        s, t, budget = QUERIES[0]
        with use_injector(injector):
            result = service.query(s, t, budget)
        assert result.engine == "CSP-2Hop"
        assert result.pair() == ground_truth(service_grid, s, t, budget)

    def test_double_fault_reaches_the_last_resort(
        self, service, service_grid
    ):
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=1,
                      match={"engine": "QHL-flat"})
        injector.fail("engine-query", exc=ReproError, times=1,
                      match={"engine": "CSP-2Hop"})
        s, t, budget = QUERIES[1]
        with use_injector(injector):
            result = service.query(s, t, budget)
        assert result.engine == "SkyDijkstra"
        assert result.pair() == ground_truth(service_grid, s, t, budget)

    def test_all_tiers_failing_raises_typed_error(self, service):
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=None)
        with use_injector(injector):
            with pytest.raises(ServiceUnavailableError) as excinfo:
                service.query(*QUERIES[0])
        assert isinstance(excinfo.value.last_error, RuntimeError)

    def test_malformed_query_fails_fast_not_down_the_ladder(self, service):
        with pytest.raises(QueryError):
            service.query(0, 10_000, 250)

    def test_fallback_metrics_recorded(self, service):
        registry = MetricsRegistry()
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=1,
                      match={"engine": "QHL-flat"})
        with use_registry(registry), use_injector(injector):
            service.query(*QUERIES[0])
        fallback = registry.get(
            "service_fallback_total",
            {"from": "QHL-flat", "to": "CSP-2Hop", "reason": "RuntimeError"},
        )
        assert fallback is not None and fallback.value == 1
        answered = registry.get("service_queries_total",
                                {"tier": "CSP-2Hop"})
        assert answered is not None and answered.value == 1


class TestBreakerIntegration:
    def _failing_service(self, service_index, fake_clock):
        return QueryService(
            index=service_index,
            config=ServiceConfig(
                breaker_failure_threshold=2, breaker_reset_s=10.0
            ),
            clock=fake_clock,
        )

    def test_consecutive_failures_open_the_tier(
        self, service_index, service_grid, fake_clock
    ):
        service = self._failing_service(service_index, fake_clock)
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=None,
                      match={"engine": "QHL-flat"})
        s, t, budget = QUERIES[0]
        with use_injector(injector):
            service.query(s, t, budget)
            service.query(s, t, budget)
            assert service.breaker("QHL-flat").state == "open"
            # Breaker open: QHL is skipped, so only CSP-2Hop fires.
            before = injector.calls("engine-query")
            result = service.query(s, t, budget)
            assert injector.calls("engine-query") == before + 1
            assert result.engine == "CSP-2Hop"
        assert result.pair() == ground_truth(service_grid, s, t, budget)

    def test_breaker_half_opens_and_recovers(
        self, service_index, fake_clock
    ):
        service = self._failing_service(service_index, fake_clock)
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=2,
                      match={"engine": "QHL-flat"})
        s, t, budget = QUERIES[0]
        with use_injector(injector):
            service.query(s, t, budget)
            service.query(s, t, budget)
            assert service.breaker("QHL-flat").state == "open"
            fake_clock.advance(10.5)
            # Probe succeeds (the fault schedule is exhausted): closed.
            result = service.query(s, t, budget)
        assert result.engine == "QHL-flat"
        assert service.breaker("QHL-flat").state == "closed"

    def test_breaker_transitions_are_counted(
        self, service_index, fake_clock
    ):
        registry = MetricsRegistry()
        service = self._failing_service(service_index, fake_clock)
        injector = FaultInjector()
        injector.fail("engine-query", exc=RuntimeError, times=2,
                      match={"engine": "QHL-flat"})
        with use_registry(registry), use_injector(injector):
            service.query(*QUERIES[0])
            service.query(*QUERIES[0])
        opened = registry.get(
            "service_breaker_transitions_total",
            {"tier": "QHL-flat", "state": "open"},
        )
        assert opened is not None and opened.value == 1


class TestHarnessIntegration:
    def test_service_runs_under_the_workload_harness(
        self, service, service_grid
    ):
        from repro.instrument import run_workload
        from repro.types import CSPQuery

        queries = [CSPQuery(s, t, b) for s, t, b in QUERIES]
        report = run_workload(service, queries, "svc")
        assert report.num_queries == len(QUERIES)
        assert report.failed == 0
        assert report.feasible == len(QUERIES)
