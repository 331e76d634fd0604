"""Parallel label build must reproduce the sequential index exactly."""

from __future__ import annotations

import pytest

from repro.graph import grid_network
from repro.hierarchy import build_tree_decomposition
from repro.labeling import build_labels
from repro.labeling.parallel import (
    build_labels_parallel,
    depth_levels,
    fork_available,
)
from repro.storage.compact import pack_labels

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


def assert_stores_equal(tree, sequential, parallel):
    """Value-identity of every label set + byte-identity of the packed
    form, provenance columns included: worker copies are relinked to the
    parent's entries, so they pack to the same rows, not to a pool."""
    for v in tree.topdown_order:
        for u in tree.ancestors(v):
            lhs = sequential.get(v, u)
            rhs = parallel.get(v, u)
            assert len(lhs) == len(rhs), (v, u)
            for a, b in zip(lhs, rhs):
                assert (a[0], a[1]) == (b[0], b[1]), (v, u)
    packed_lhs = pack_labels(sequential)
    packed_rhs = pack_labels(parallel)
    for name in (
        "set_offsets", "hubs", "entry_offsets", "weights", "costs",
    ):
        assert getattr(packed_lhs, name).tobytes() == getattr(
            packed_rhs, name
        ).tobytes(), name
    provenance_lhs = pack_labels(sequential, provenance=True).provenance
    provenance_rhs = pack_labels(parallel, provenance=True).provenance
    if provenance_lhs is None:
        assert provenance_rhs is None
    else:
        assert [column.tobytes() for column in provenance_lhs] == [
            column.tobytes() for column in provenance_rhs
        ]


class TestDepthLevels:
    def test_partition_covers_all_vertices(self, random30_tree):
        levels = depth_levels(random30_tree)
        flat = [v for level in levels for v in level]
        assert sorted(flat) == sorted(random30_tree.topdown_order)

    def test_levels_are_depth_homogeneous_and_ordered(self, random30_tree):
        tree = random30_tree
        levels = depth_levels(tree)
        for d, level in enumerate(levels):
            assert {tree.depth[v] for v in level} == {
                tree.depth[level[0]]
            }
        depths = [tree.depth[level[0]] for level in levels]
        assert depths == sorted(depths)

    def test_level_members_depend_only_on_shallower_levels(
        self, random30_tree
    ):
        """The independence property the parallel build relies on."""
        tree = random30_tree
        for level in depth_levels(tree):
            members = set(level)
            for v in level:
                for w in tree.bag[v]:
                    assert w not in members, (
                        f"bag of {v} reaches into its own level"
                    )


@needs_fork
class TestParallelEqualsSequential:
    def test_paper_example(self, paper_network):
        tree = build_tree_decomposition(paper_network)
        sequential = build_labels(tree)
        parallel = build_labels_parallel(tree, workers=2)
        assert_stores_equal(tree, sequential, parallel)

    def test_synthetic_grid(self):
        network = grid_network(6, 6, seed=9)
        tree = build_tree_decomposition(network)
        sequential = build_labels(tree)
        parallel = build_labels_parallel(tree, workers=3)
        assert_stores_equal(tree, sequential, parallel)

    def test_without_paths(self):
        network = grid_network(5, 5, seed=2)
        tree = build_tree_decomposition(network)
        sequential = build_labels(tree, store_paths=False)
        parallel = build_labels_parallel(tree, store_paths=False, workers=2)
        assert_stores_equal(tree, sequential, parallel)

    def test_builder_workers_argument_routes_here(self, paper_network):
        tree = build_tree_decomposition(paper_network)
        sequential = build_labels(tree)
        threaded = build_labels(tree, workers=2)
        assert_stores_equal(tree, sequential, threaded)

    def test_parallel_index_answers_queries(self, paper_network):
        """End-to-end: a worker-built index answers like the default one."""
        from repro.core import QHLIndex

        baseline = QHLIndex.build(
            paper_network, num_index_queries=50, seed=7
        )
        parallel = QHLIndex.build(
            paper_network, num_index_queries=50, seed=7, label_workers=2
        )
        for s, t, c in ((7, 3, 13), (0, 5, 20), (2, 9, 25), (1, 12, 9)):
            lhs = baseline.query(s, t, c)
            rhs = parallel.query(s, t, c)
            assert (lhs.feasible, lhs.weight, lhs.cost) == (
                rhs.feasible, rhs.weight, rhs.cost,
            )


class TestFallbacks:
    def test_single_worker_falls_back_to_sequential(self, paper_network):
        tree = build_tree_decomposition(paper_network)
        sequential = build_labels(tree)
        fallback = build_labels_parallel(tree, workers=1)
        assert_stores_equal(tree, sequential, fallback)

    def test_no_fork_falls_back_to_sequential(
        self, paper_network, monkeypatch
    ):
        import repro.labeling.parallel as parallel_mod

        monkeypatch.setattr(
            parallel_mod, "fork_available", lambda: False
        )
        tree = build_tree_decomposition(paper_network)
        sequential = build_labels(tree)
        fallback = parallel_mod.build_labels_parallel(tree, workers=4)
        assert_stores_equal(tree, sequential, fallback)


@needs_fork
class TestBuildTracing:
    """Worker-side observability on the pool path: spans and metric
    deltas come home in the supervisor's result files."""

    def _traced_build(self):
        import os

        from repro.observability.metrics import (
            MetricsRegistry,
            use_registry,
        )
        from repro.observability.tracing import SpanTracer, use_tracer

        # 10x10: deep enough that several levels clear
        # MIN_PARALLEL_LEVEL and actually fan out.
        network = grid_network(10, 10, seed=4)
        tree = build_tree_decomposition(network)
        tracer = SpanTracer()
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            store = build_labels_parallel(tree, workers=2)
        return tree, store, tracer, registry, os.getpid()

    def test_worker_metrics_reach_parent_registry(self):
        _tree, _store, _tracer, registry, _pid = self._traced_build()
        vertex_seconds = registry.histogram("qhl_label_vertex_seconds")
        assert vertex_seconds.count > 0
        assert registry.counter("qhl_label_joins_total").value > 0

    def test_worker_metrics_merge_exactly_once(self):
        # Inline levels record no per-vertex latency, so every
        # observation came from a worker chunk: the histogram counts
        # exactly the vertices the chunk spans report, no delta merged
        # twice or dropped.
        _tree, _store, tracer, registry, _pid = self._traced_build()
        chunk_vertices = sum(
            chunk.counters["vertices"]
            for fanout in tracer.last().children
            if fanout.name == "labels.level-fanout"
            for chunk in fanout.children
            if chunk.name == "labels.worker-chunk"
        )
        assert chunk_vertices > 0
        assert registry.histogram("qhl_label_vertex_seconds").count == (
            chunk_vertices
        )

    def test_fanout_spans_carry_worker_pids(self):
        _tree, _store, tracer, _registry, parent_pid = self._traced_build()
        sweep = tracer.last()
        assert sweep.name == "labels.parallel-sweep"
        fanouts = [
            c for c in sweep.children if c.name == "labels.level-fanout"
        ]
        assert fanouts, "no level ever fanned out on the 10x10 grid"
        worker_pids = {
            int(chunk.counters["pid"])
            for fanout in fanouts
            for chunk in fanout.children
            if chunk.name == "labels.worker-chunk"
        }
        assert worker_pids
        assert parent_pid not in worker_pids

    def test_observed_build_is_value_identical(self):
        tree, store, _tracer, _registry, _pid = self._traced_build()
        sequential = build_labels(tree)
        assert_stores_equal(tree, sequential, store)
