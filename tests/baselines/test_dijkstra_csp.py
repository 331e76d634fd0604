"""Unit tests for the index-free constrained Dijkstra baselines."""

import pytest

from repro.datasets import paper_figure1_network, v
from repro.exceptions import QueryError
from repro.graph import RoadNetwork, random_connected_network
from repro.baselines import constrained_dijkstra


def diamond():
    """Two s-t routes: fast/expensive (w=2,c=10) and slow/cheap (w=10,c=2)."""
    g = RoadNetwork(4)
    g.add_edge(0, 1, weight=1, cost=5)
    g.add_edge(1, 3, weight=1, cost=5)
    g.add_edge(0, 2, weight=5, cost=1)
    g.add_edge(2, 3, weight=5, cost=1)
    return g


class TestConstrainedDijkstra:
    def test_picks_fast_route_with_big_budget(self):
        result = constrained_dijkstra(diamond(), 0, 3, budget=100)
        assert result.pair() == (2, 10)
        assert result.path == [0, 1, 3]

    def test_budget_forces_cheap_route(self):
        result = constrained_dijkstra(diamond(), 0, 3, budget=5)
        assert result.pair() == (10, 2)
        assert result.path == [0, 2, 3]

    def test_budget_exactly_at_cost(self):
        result = constrained_dijkstra(diamond(), 0, 3, budget=10)
        assert result.pair() == (2, 10)

    def test_infeasible_budget(self):
        result = constrained_dijkstra(diamond(), 0, 3, budget=1)
        assert not result.feasible
        assert result.pair() is None

    def test_source_equals_target(self):
        result = constrained_dijkstra(diamond(), 2, 2, budget=0)
        assert result.pair() == (0, 0)
        assert result.path == [2]

    def test_weight_ties_resolved_to_min_cost(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, weight=2, cost=9)
        g.add_edge(0, 2, weight=1, cost=4)
        g.add_edge(2, 1, weight=1, cost=4)
        # Both routes weigh 2; the cheaper (cost 8) must win.
        assert constrained_dijkstra(g, 0, 1, budget=20).pair() == (2, 8)

    def test_bad_vertex_rejected(self):
        with pytest.raises(QueryError):
            constrained_dijkstra(diamond(), 0, 9, budget=5)

    def test_negative_budget_rejected(self):
        with pytest.raises(QueryError):
            constrained_dijkstra(diamond(), 0, 3, budget=-1)

    def test_want_path_false_skips_path(self):
        result = constrained_dijkstra(diamond(), 0, 3, 100, want_path=False)
        assert result.path is None
        assert result.feasible

    def test_paper_example2(self):
        g = paper_figure1_network()
        result = constrained_dijkstra(g, v(8), v(4), budget=13)
        assert result.pair() == (17, 13)
        assert result.path == [v(8), v(2), v(9), v(10), v(5), v(4)]

    def test_path_metrics_match_reported_pair(self):
        g = random_connected_network(25, 20, seed=4)
        import random

        rng = random.Random(1)
        for _ in range(25):
            s, t = rng.randrange(25), rng.randrange(25)
            result = constrained_dijkstra(g, s, t, budget=rng.randint(1, 200))
            if result.feasible and s != t:
                assert g.path_metrics(result.path) == result.pair()
