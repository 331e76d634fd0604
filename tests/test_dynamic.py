"""Tests for incremental edge-metric updates (repro.dynamic)."""

import random

import pytest

from repro.baselines import constrained_dijkstra
from repro.core import QHLIndex, random_index_queries
from repro.dynamic import DynamicQHLIndex
from repro.exceptions import InvalidGraphError
from repro.graph import RoadNetwork, random_connected_network


@pytest.fixture()
def dyn():
    g = random_connected_network(25, 20, seed=8)
    queries = random_index_queries(g, 200, seed=8)
    return g, queries, DynamicQHLIndex.build(
        g, index_queries=queries, seed=0
    )


class TestUpdateMechanics:
    def test_out_of_range_edge_rejected(self, dyn):
        _g, _q, index = dyn
        with pytest.raises(InvalidGraphError):
            index.update_edge(10_000, weight=5)

    def test_nonpositive_metric_rejected(self, dyn):
        _g, _q, index = dyn
        with pytest.raises(InvalidGraphError):
            index.update_edge(0, weight=0)

    def test_noop_update_changes_nothing(self, dyn):
        g, _q, index = dyn
        _u, _v, w, c = list(g.edges())[3]
        report = index.update_edge(3, weight=w, cost=c)
        assert report.shortcuts_changed == 0
        assert report.labels_changed == 0
        assert not report.pruning_rebuilt

    def test_report_fields(self, dyn):
        _g, _q, index = dyn
        report = index.update_edge(0, weight=999)
        assert report.seconds > 0
        assert report.shortcuts_checked >= report.shortcuts_changed

    def test_network_edges_reflect_update(self, dyn):
        _g, _q, index = dyn
        index.update_edge(5, weight=123, cost=77)
        assert index.network_edges()[5][2:] == (123, 77)


class TestClone:
    def test_clone_reuses_the_contributor_index(self, dyn, monkeypatch):
        # Topology never changes, so a clone shares the contributor
        # index instead of rebuilding it.
        from repro.dynamic import updates

        _g, _q, index = dyn

        def rebuilt(tree):
            raise AssertionError("clone rebuilt the contributor index")

        monkeypatch.setattr(updates, "_build_contributor_index", rebuilt)
        twin = index.clone()
        assert twin._contributors is index._contributors
        assert twin.network_edges() == index.network_edges()
        assert twin._edges is not index._edges

    def test_clone_repairs_without_touching_the_original(self, dyn):
        g, _q, index = dyn
        before = index.query(0, 24, 500).pair()
        twin = index.clone()
        twin.update_edge(5, weight=123, cost=77)
        assert index.network_edges()[5][2:] == list(g.edges())[5][2:]
        assert index.query(0, 24, 500).pair() == before
        edges = twin.network_edges()
        truth = constrained_dijkstra(
            RoadNetwork.from_edges(g.num_vertices, edges), 0, 24, 500
        ).pair()
        assert twin.query(0, 24, 500).pair() == truth


class TestEquivalenceWithRebuild:
    @pytest.mark.parametrize("seed", range(3))
    def test_labels_match_fresh_build_after_updates(self, seed):
        g = random_connected_network(22, 18, seed=seed)
        queries = random_index_queries(g, 150, seed=seed)
        dyn = DynamicQHLIndex.build(g, index_queries=queries, seed=0)
        rng = random.Random(seed)
        for _ in range(3):
            dyn.update_edge(
                rng.randrange(g.num_edges),
                weight=rng.randint(1, 25),
                cost=rng.randint(1, 25),
            )
        fresh_net = RoadNetwork.from_edges(22, dyn.network_edges())
        fresh = QHLIndex.build(fresh_net, index_queries=queries, seed=0)
        for v, u, entries in fresh.labels.items():
            got = dyn.index.labels.get(v, u)
            assert [(e[0], e[1]) for e in got] == [
                (e[0], e[1]) for e in entries
            ]

    @pytest.mark.parametrize("seed", range(3))
    def test_queries_match_ground_truth_after_updates(self, seed):
        g = random_connected_network(25, 20, seed=100 + seed)
        dyn = DynamicQHLIndex.build(g, num_index_queries=150, seed=0)
        rng = random.Random(seed)
        for _ in range(4):
            dyn.update_edge(
                rng.randrange(g.num_edges), weight=rng.randint(1, 30)
            )
        current = RoadNetwork.from_edges(25, dyn.network_edges())
        for _ in range(40):
            s, t = rng.randrange(25), rng.randrange(25)
            budget = rng.randint(1, 300)
            want = constrained_dijkstra(current, s, t, budget,
                                        want_path=False)
            assert dyn.query(s, t, budget).pair() == want.pair()

    def test_update_changes_answers_when_it_should(self):
        # A two-route diamond: raising the fast route's weight flips
        # the optimum.
        g = RoadNetwork(4)
        g.add_edge(0, 1, weight=1, cost=5)   # edge 0
        g.add_edge(1, 3, weight=1, cost=5)   # edge 1
        g.add_edge(0, 2, weight=5, cost=1)   # edge 2
        g.add_edge(2, 3, weight=5, cost=1)   # edge 3
        dyn = DynamicQHLIndex.build(g, num_index_queries=30, seed=0)
        assert dyn.query(0, 3, 100).pair() == (2, 10)
        dyn.update_edge(0, weight=100)
        assert dyn.query(0, 3, 100).pair() == (10, 2)
        dyn.update_edge(0, weight=1)
        assert dyn.query(0, 3, 100).pair() == (2, 10)

    def test_path_retrieval_after_update(self, dyn):
        g, _q, index = dyn
        index.update_edge(2, cost=99)
        current = RoadNetwork.from_edges(25, index.network_edges())
        result = index.query(0, 24, 10_000, want_path=True)
        if result.feasible:
            assert current.path_metrics(result.path) == result.pair()

    def test_locality_most_labels_untouched(self):
        g = random_connected_network(40, 30, seed=77)
        dyn = DynamicQHLIndex.build(g, num_index_queries=100, seed=0)
        report = dyn.update_edge(0, weight=9999)
        total = dyn.index.labels.num_sets()
        # The sweep must not have recomputed everything.
        assert report.labels_checked < total
