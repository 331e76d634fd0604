"""Batch execution API: ordering, failure tolerance, deadlines, workers."""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.perf import execute_batch
from repro.perf.batch import sorted_batch_order
from repro.service import QueryService, ServiceConfig
from repro.supervise import fork_available
from repro.types import CSPQuery


def answer(result):
    return (result.feasible, result.weight, result.cost)


QUERIES = [
    (7, 3, 13),
    (0, 5, 20),
    (3, 7, 18),   # same pair as the first, other orientation
    (2, 9, 25),
    (7, 3, 9),
    (0, 5, 6),
]


class TestSortedBatchOrder:
    def test_groups_normalised_pairs(self):
        order = sorted_batch_order(QUERIES)
        pairs = [tuple(sorted(QUERIES[i][:2])) for i in order]
        # Each pair appears in one contiguous run.
        seen = set()
        previous = None
        for pair in pairs:
            if pair != previous:
                assert pair not in seen, f"{pair} split across runs"
                seen.add(pair)
            previous = pair
        assert sorted(order) == list(range(len(QUERIES)))

    def test_budget_breaks_ties_then_position(self):
        queries = [(1, 2, 9.0), (2, 1, 3.0), (1, 2, 3.0)]
        assert sorted_batch_order(queries) == [1, 2, 0]

    def test_accepts_cspquery_objects(self):
        queries = [CSPQuery(5, 1, 7.0), CSPQuery(0, 2, 3.0)]
        assert sorted_batch_order(queries) == [1, 0]

    def test_empty(self):
        assert sorted_batch_order([]) == []


class TestExecuteBatchSequential:
    def test_results_in_input_order_match_single_queries(self, paper_index):
        engine = paper_index.qhl_engine()
        report = execute_batch(engine, QUERIES)
        assert report.answered == len(QUERIES)
        assert report.failed == 0 and report.skipped == 0
        for (s, t, c), result in zip(QUERIES, report.results):
            assert answer(result) == answer(engine.query(s, t, c))
            assert result.query == CSPQuery(s, t, c)

    def test_cached_engine_batch_matches_uncached(self, paper_index):
        cached = paper_index.cached_engine(cache_size=4)
        uncached = paper_index.qhl_engine()
        report = execute_batch(cached, QUERIES)
        for (s, t, c), result in zip(QUERIES, report.results):
            assert answer(result) == answer(uncached.query(s, t, c))
        # Three distinct normalised pairs — one miss each, the other
        # three queries answered from cache.
        assert cached.cache.misses == 3
        assert cached.cache.hits == 3

    def test_bad_query_becomes_failure_row(self, paper_index):
        engine = paper_index.qhl_engine()
        queries = [(7, 3, 13), (0, 999, 10), (2, 9, 25)]
        report = execute_batch(engine, queries)
        assert report.answered == 2
        assert [f.index for f in report.failures] == [1]
        failure = report.failures[0]
        assert failure.error == QueryError.__name__
        assert failure.query == CSPQuery(0, 999, 10)
        assert report.results[1] is None

    def test_expired_batch_deadline_skips_everything(self, paper_index):
        engine = paper_index.qhl_engine()
        report = execute_batch(engine, QUERIES, batch_deadline_ms=0)
        assert report.answered == 0
        assert report.skipped == len(QUERIES)

    def test_want_path_flows_through(self, paper_network, paper_index):
        engine = paper_index.qhl_engine()
        report = execute_batch(engine, [(7, 3, 13)], want_path=True)
        path = report.results[0].path
        assert path[0] == 7 and path[-1] == 3
        assert paper_network.path_metrics(path) == (
            report.results[0].weight, report.results[0].cost,
        )

    def test_query_many_facade(self, paper_index):
        report = paper_index.query_many(QUERIES, cache_size=8)
        direct = paper_index.qhl_engine()
        for (s, t, c), result in zip(QUERIES, report.results):
            assert answer(result) == answer(direct.query(s, t, c))

    def test_engine_query_many_preserves_input_order(self, paper_index):
        cached = paper_index.cached_engine(cache_size=8)
        uncached = paper_index.qhl_engine()
        results = execute_batch(cached, QUERIES).results
        assert len(results) == len(QUERIES)
        for (s, t, c), result in zip(QUERIES, results):
            assert answer(result) == answer(uncached.query(s, t, c))


class TestExecuteBatchWorkers:
    def test_workers_reject_batch_deadline(self, paper_index):
        with pytest.raises(ValueError, match="batch_deadline_ms"):
            execute_batch(
                paper_index.qhl_engine(), QUERIES,
                workers=2, batch_deadline_ms=50,
            )

    @pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    )
    def test_pool_results_match_sequential(self, paper_index):
        engine = paper_index.qhl_engine()
        sequential = execute_batch(engine, QUERIES)
        pooled = execute_batch(engine, QUERIES, workers=2)
        for lhs, rhs in zip(sequential.results, pooled.results):
            assert answer(lhs) == answer(rhs)

    @pytest.mark.skipif(
        not fork_available(), reason="fork start method unavailable"
    )
    def test_pool_failures_keep_indices(self, paper_index):
        queries = [(7, 3, 13), (0, 999, 10), (2, 9, 25), (5, 888, 1)]
        report = execute_batch(
            paper_index.qhl_engine(), queries, workers=2
        )
        assert [f.index for f in report.failures] == [1, 3]
        assert report.answered == 2


class TestServiceBatch:
    def test_query_batch_matches_single_queries(self, paper_index):
        service = QueryService(
            index=paper_index, config=ServiceConfig(cache_size=8)
        )
        assert service.tiers[0] == "QHL+cache"
        report = service.query_batch(QUERIES)
        for (s, t, c), result in zip(QUERIES, report.results):
            assert answer(result) == answer(service.query(s, t, c))
            assert result.engine == "QHL+cache"

    def test_query_batch_records_failures(self, paper_index):
        service = QueryService(index=paper_index)
        report = service.query_batch([(7, 3, 13), (0, 999, 10)])
        assert report.answered == 1
        assert [f.index for f in report.failures] == [1]

    def test_query_batch_batch_deadline_skips(self, paper_index):
        service = QueryService(index=paper_index)
        report = service.query_batch(QUERIES, batch_deadline_ms=0)
        assert report.skipped == len(QUERIES)
        assert report.answered == 0

    def test_cache_disabled_by_default(self, paper_index):
        service = QueryService(index=paper_index)
        assert service.tiers[0] == "QHL-flat"


class TestHarnessBatchMode:
    def test_run_workload_batched_aggregates(self, paper_index):
        from repro.instrument.harness import run_workload

        queries = [CSPQuery(s, t, c) for s, t, c in QUERIES]
        engine = paper_index.cached_engine(cache_size=8)
        report = run_workload(engine, queries, "batch", batch=True)
        plain = run_workload(
            paper_index.qhl_engine(), queries, "plain"
        )
        assert report.num_queries == len(QUERIES)
        assert report.feasible == plain.feasible
        assert report.failed == 0
