"""Unit tests for the COLA-like partition/overlay baseline."""

import random

import pytest

from repro.baselines import COLAEngine, constrained_dijkstra, partition_network
from repro.datasets import paper_figure1_network, v
from repro.graph import grid_network, random_connected_network


class TestPartitioning:
    def test_every_vertex_assigned(self):
        g = grid_network(6, 6, seed=1)
        part = partition_network(g, 4, seed=0)
        assert len(part) == 36
        assert all(0 <= p < 4 for p in part)

    def test_number_of_parts_capped_by_vertices(self):
        g = random_connected_network(3, 0, seed=0)
        part = partition_network(g, 10, seed=0)
        assert len(set(part)) <= 3

    def test_single_part(self):
        g = grid_network(4, 4, seed=1)
        assert set(partition_network(g, 1, seed=0)) == {0}

    def test_deterministic(self):
        g = grid_network(5, 5, seed=2)
        assert partition_network(g, 3, seed=7) == partition_network(
            g, 3, seed=7
        )

    def test_parts_reasonably_balanced(self):
        g = grid_network(8, 8, seed=3)
        part = partition_network(g, 4, seed=1)
        sizes = [part.count(p) for p in range(4)]
        assert min(sizes) >= 4  # BFS growth keeps blobs non-degenerate

    def test_invalid_part_count_rejected(self):
        from repro.exceptions import IndexBuildError

        g = grid_network(4, 4, seed=0)
        with pytest.raises(IndexBuildError):
            partition_network(g, 0)


class TestCOLAQueries:
    @pytest.fixture(scope="class")
    def paper_cola(self):
        g = paper_figure1_network()
        return g, COLAEngine(g, num_parts=3, seed=0)

    def test_paper_example2(self, paper_cola):
        _g, engine = paper_cola
        assert engine.query(v(8), v(4), 13).pair() == (17, 13)

    def test_source_equals_target(self, paper_cola):
        _g, engine = paper_cola
        assert engine.query(v(2), v(2), 0).pair() == (0, 0)

    def test_infeasible(self, paper_cola):
        _g, engine = paper_cola
        assert not engine.query(v(8), v(4), 11).feasible

    @pytest.mark.parametrize("num_parts", [1, 2, 4, 8])
    def test_agreement_across_partition_counts(self, num_parts):
        g = random_connected_network(30, 25, seed=1)
        engine = COLAEngine(g, num_parts=num_parts, seed=1)
        rng = random.Random(num_parts)
        for _ in range(25):
            s, t = rng.randrange(30), rng.randrange(30)
            budget = rng.randint(1, 250)
            want = constrained_dijkstra(g, s, t, budget, want_path=False)
            assert engine.query(s, t, budget).pair() == want.pair(), (
                s, t, budget
            )

    def test_agreement_on_grid(self):
        g = grid_network(5, 5, seed=4)
        engine = COLAEngine(g, num_parts=4, seed=2)
        rng = random.Random(9)
        for _ in range(25):
            s, t = rng.randrange(25), rng.randrange(25)
            budget = rng.randint(5, 200)
            want = constrained_dijkstra(g, s, t, budget, want_path=False)
            assert engine.query(s, t, budget).pair() == want.pair()

    def test_path_requests_are_refused(self, paper_cola):
        from repro.exceptions import QueryError

        _g, engine = paper_cola
        with pytest.raises(QueryError, match="no path"):
            engine.query(v(8), v(4), 13, want_path=True)

    def test_index_entries_positive(self, paper_cola):
        _g, engine = paper_cola
        assert engine.index_entries() > 0

    def test_build_seconds_recorded(self, paper_cola):
        _g, engine = paper_cola
        assert engine.build_seconds > 0
