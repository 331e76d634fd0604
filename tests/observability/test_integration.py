"""Integration: the observability hooks wired through the engines.

These tests exercise real queries and index builds against the small
session-scoped fixtures and check that the captured spans and metrics
agree with the engines' own ``QueryStats``.
"""

import pytest

from repro.core import QHLIndex
from repro.core.explain import explain_trace
from repro.observability.export import parse_jsonl, to_jsonl
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.observability.tracing import SpanTracer, use_tracer, walk

#: The QHL query pipeline phases of paper Algorithm 3 (separator case).
QHL_PHASES = (
    "lca", "separator-init", "pruning", "hoplink-select", "concatenation",
)


def _separator_query(engine):
    """A query pair whose answer goes through the separator search."""
    for source, target in ((0, 63), (2, 61), (5, 58), (9, 54)):
        tracer = SpanTracer()
        with use_tracer(tracer):
            result = engine.query(source, target, budget=10_000)
        names = {s.name for s in walk(tracer.last())}
        if result.feasible and "separator-init" in names:
            return source, target
    raise AssertionError("no separator-case pair found on the grid fixture")


class TestQueryTrace:
    """Span trees from the object engine; subclassed per engine below."""

    factory = "qhl_engine"

    @pytest.fixture
    def engine(self, small_grid_index):
        return getattr(small_grid_index, self.factory)()

    def test_all_four_qhl_phases_recorded(self, engine):
        source, target = _separator_query(engine)
        tracer = SpanTracer()
        with use_tracer(tracer):
            engine.query(source, target, budget=10_000)
        root = tracer.last()
        assert root.name == "qhl.query"
        child_names = [child.name for child in root.children]
        for phase in QHL_PHASES:
            assert phase in child_names

    def test_root_counters_match_query_stats(self, engine):
        source, target = _separator_query(engine)
        tracer = SpanTracer()
        with use_tracer(tracer):
            result = engine.query(source, target, budget=10_000)
        counters = tracer.last().counters
        stats = result.stats
        assert counters["hoplinks"] == stats.hoplinks
        assert counters["concatenations"] == stats.concatenations
        assert counters["label_lookups"] == stats.label_lookups
        assert counters["candidates"] == stats.candidates

    def test_tracing_does_not_change_the_answer(self, engine):
        plain = engine.query(3, 60, budget=400)
        with use_tracer(SpanTracer()):
            traced = engine.query(3, 60, budget=400)
        assert plain.pair() == traced.pair()
        assert plain.stats.hoplinks == traced.stats.hoplinks

    def test_csp2hop_trace(self, small_grid_index):
        engine = small_grid_index.csp2hop_engine()
        tracer = SpanTracer()
        with use_tracer(tracer):
            result = engine.query(0, 63, budget=10_000)
        root = tracer.last()
        assert root.name == "csp2hop.query"
        assert result.feasible
        names = [child.name for child in root.children]
        assert "lca" in names and "concatenation" in names

    def test_explain_trace_renders_phases_and_legend(self, engine):
        source, target = _separator_query(engine)
        tracer = SpanTracer()
        with use_tracer(tracer):
            engine.query(source, target, budget=10_000)
        text = explain_trace(tracer.last())
        for phase in QHL_PHASES:
            assert phase in text
        # Legend annotates the phases with paper sections.
        assert "Algorithm 3" in text
        assert "§3.2" in text


class TestFlatQueryTrace(TestQueryTrace):
    """The flat engine runs the same pipeline, so it traces the same."""

    factory = "flat_engine"


class TestQueryMetrics:
    """Registry output of the object engine; subclassed per engine below."""

    factory = "qhl_engine"

    @pytest.fixture
    def engine(self, small_grid_index):
        return getattr(small_grid_index, self.factory)()

    def test_registry_collects_query_and_phase_histograms(self, engine):
        registry = MetricsRegistry()
        with use_registry(registry):
            for pair in ((0, 63), (1, 62), (7, 56)):
                engine.query(*pair, budget=10_000)
        latency = registry.get("qhl_query_seconds", {"engine": engine.name})
        assert latency.count == 3
        assert (
            registry.get("qhl_queries_total", {"engine": engine.name}).value
            == 3
        )
        phases = [
            m for m in registry.metrics()
            if m.name == "qhl_phase_seconds"
            and m.labels["engine"] == engine.name
        ]
        assert {m.labels["phase"] for m in phases} >= set(QHL_PHASES)
        records = parse_jsonl(to_jsonl(registry))
        hist = next(r for r in records if r["name"] == "qhl_query_seconds")
        assert {"p50", "p95", "p99"} <= set(hist["percentiles"])

    def test_counter_totals_match_stats_sums(self, engine):
        registry = MetricsRegistry()
        expected = {"hoplinks": 0, "concatenations": 0, "label_lookups": 0}
        with use_registry(registry):
            for pair in ((0, 63), (4, 59)):
                stats = engine.query(*pair, budget=10_000).stats
                expected["hoplinks"] += stats.hoplinks
                expected["concatenations"] += stats.concatenations
                expected["label_lookups"] += stats.label_lookups
        labels = {"engine": engine.name}
        assert (
            registry.get("qhl_hoplinks_total", labels).value
            == expected["hoplinks"]
        )
        assert (
            registry.get("qhl_concatenations_total", labels).value
            == expected["concatenations"]
        )
        assert (
            registry.get("qhl_label_lookups_total", labels).value
            == expected["label_lookups"]
        )


class TestFlatQueryMetrics(TestQueryMetrics):
    factory = "flat_engine"


@pytest.mark.parametrize(
    "factory", ["qhl_engine", "flat_engine", "cached_engine"]
)
def test_same_vertex_queries_are_counted(small_grid_index, factory):
    engine = getattr(small_grid_index, factory)()
    registry = MetricsRegistry()
    with use_registry(registry):
        engine.query(5, 5, budget=10)
        engine.query(0, 63, budget=10_000)
    labels = {"engine": engine.name}
    assert registry.get("qhl_queries_total", labels).value == 2
    assert registry.get("qhl_query_seconds", labels).count == 2


class TestBuildObservability:
    @pytest.fixture(scope="class")
    def traced_build(self, random30):
        tracer = SpanTracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            index = QHLIndex.build(random30, num_index_queries=50, seed=11)
        return index, tracer, registry

    def test_build_span_tree(self, traced_build):
        _, tracer, _ = traced_build
        root = tracer.last()
        assert root.name == "qhl.build"
        child_names = [child.name for child in root.children]
        for phase in (
            "tree-decomposition",
            "label-construction",
            "lca-index",
            "pruning-index",
        ):
            assert phase in child_names
        assert root.counters["vertices"] == 30

    def test_build_metrics_match_index_stats(self, traced_build):
        index, _, registry = traced_build
        stats = index.stats()
        assert (
            registry.get("qhl_index_treewidth").value == stats.treewidth
        )
        assert (
            registry.get("qhl_index_label_entries").value
            == stats.label_entries
        )
        assert (
            registry.get("qhl_index_pruning_conditions").value
            == stats.pruning_conditions
        )

    def test_label_build_histogram_populated(self, traced_build):
        index, _, registry = traced_build
        per_vertex = registry.get("qhl_label_vertex_seconds")
        assert per_vertex is not None
        # Every vertex except the decomposition root gets labels.
        assert per_vertex.count == index.network.num_vertices - 1
