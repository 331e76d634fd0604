"""Unit tests for the QHL query algorithm (Algorithm 3)."""

import random

import pytest

from repro.baselines import constrained_dijkstra
from repro.core import QHLEngine, QHLIndex
from repro.datasets import paper_figure1_network, v
from repro.exceptions import QueryError
from repro.types import CSPQuery


@pytest.fixture(scope="module")
def paper():
    g = paper_figure1_network()
    index = QHLIndex.build(
        g, index_queries=[CSPQuery(v(8), v(4), 13)], seed=0
    )
    return g, index


class TestPaperRunningExample:
    def test_answer(self, paper):
        _g, index = paper
        assert index.query(v(8), v(4), 13).pair() == (17, 13)

    def test_three_concatenations(self, paper):
        """§2.3: 'our proposed QHL only needs to do 3 concatenations'
        (Algorithm 5's count, so the object sweep)."""
        _g, index = paper
        engine = QHLEngine(index.tree, index.labels, index.lca, index.pruning)
        result = engine.query(v(8), v(4), 13)
        assert result.stats.concatenations == 3

    def test_single_hoplink_after_pruning(self, paper):
        """Example 13: H = {{v10}, {v10, v12}}; T({v10}) wins."""
        _g, index = paper
        result = index.query(v(8), v(4), 13)
        assert result.stats.hoplinks == 1

    def test_candidate_count_in_range(self, paper):
        # The paper's |H| is 2..4; ours deduplicates identical
        # candidates, so 1 is possible when prunings coincide.
        _g, index = paper
        result = index.query(v(8), v(4), 13)
        assert 1 <= result.stats.candidates <= 4

    def test_path_retrieval(self, paper):
        _g, index = paper
        result = index.query(v(8), v(4), 13, want_path=True)
        assert result.path == [v(8), v(2), v(9), v(10), v(5), v(4)]

    def test_larger_budget_no_pruning_applies(self, paper):
        """C = 14 >= C_ub[v13] = 14 keeps v13 in H(s)."""
        _g, index = paper
        result = index.query(v(8), v(4), 14)
        assert result.pair() == (17, 13)

    def test_budget_sweep_matches_skyline(self, paper):
        _g, index = paper
        assert not index.query(v(8), v(4), 11).feasible
        assert index.query(v(8), v(4), 12).pair() == (18, 12)
        assert index.query(v(8), v(4), 17.5).pair() == (17, 13)
        assert index.query(v(8), v(4), 18).pair() == (16, 18)


class TestQueryShapes:
    def test_source_equals_target(self, paper):
        _g, index = paper
        result = index.query(v(6), v(6), 0)
        assert result.pair() == (0, 0)

    def test_source_equals_target_with_path(self, paper):
        _g, index = paper
        result = index.query(v(6), v(6), 0, want_path=True)
        assert result.path == [v(6)]

    def test_ancestor_descendant_case(self, paper):
        _g, index = paper
        result = index.query(v(8), v(13), 12)
        assert result.pair() == (11, 12)
        assert result.stats.hoplinks == 0

    def test_adjacent_vertices(self, paper):
        g, index = paper
        result = index.query(v(9), v(10), 1)
        assert result.pair() == (1, 1)

    def test_invalid_vertex_rejected(self, paper):
        _g, index = paper
        with pytest.raises(QueryError):
            index.query(0, 50, 10)

    def test_negative_budget_rejected(self, paper):
        _g, index = paper
        with pytest.raises(QueryError):
            index.query(0, 1, -3)

    def test_infeasible_returns_empty_result(self, paper):
        _g, index = paper
        result = index.query(v(8), v(4), 1)
        assert not result.feasible
        assert result.weight is None and result.cost is None

    def test_stats_seconds_populated(self, paper):
        _g, index = paper
        assert index.query(v(8), v(4), 13).stats.seconds > 0


class TestAblationVariants:
    def test_no_pruning_uses_more_hoplinks(self, paper):
        _g, index = paper
        pruned = index.qhl_engine(use_pruning_conditions=True)
        plain = index.qhl_engine(use_pruning_conditions=False)
        r1 = pruned.query(v(8), v(4), 13)
        r2 = plain.query(v(8), v(4), 13)
        assert r1.pair() == r2.pair()
        assert r1.stats.hoplinks <= r2.stats.hoplinks

    def test_cartesian_variant_inspects_more(self, paper):
        _g, index = paper
        fast = index.qhl_engine(use_two_pointer=True)
        slow = index.qhl_engine(use_two_pointer=False)
        r1 = fast.query(v(8), v(4), 13)
        r2 = slow.query(v(8), v(4), 13)
        assert r1.pair() == r2.pair()
        assert r1.stats.concatenations <= r2.stats.concatenations

    def test_variants_agree_on_random_graphs(self):
        from repro.graph import random_connected_network

        g = random_connected_network(30, 25, seed=17)
        index = QHLIndex.build(g, num_index_queries=300, seed=17)
        engines = [
            index.qhl_engine(),
            index.qhl_engine(use_pruning_conditions=False),
            index.qhl_engine(use_two_pointer=False),
            index.qhl_engine(
                use_pruning_conditions=False, use_two_pointer=False
            ),
        ]
        rng = random.Random(99)
        for _ in range(50):
            s, t = rng.randrange(30), rng.randrange(30)
            budget = rng.randint(1, 250)
            answers = {e.query(s, t, budget).pair() for e in engines}
            assert len(answers) == 1, (s, t, budget)


class TestGroundTruthAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_networks(self, seed):
        from repro.graph import random_connected_network

        g = random_connected_network(30, 25, seed=100 + seed)
        index = QHLIndex.build(g, num_index_queries=400, seed=seed)
        rng = random.Random(seed)
        for _ in range(60):
            s, t = rng.randrange(30), rng.randrange(30)
            budget = rng.randint(1, 250)
            want = constrained_dijkstra(g, s, t, budget, want_path=False)
            assert index.query(s, t, budget).pair() == want.pair()

    def test_grid_with_paths(self, small_grid, small_grid_index):
        rng = random.Random(8)
        for _ in range(40):
            s, t = rng.randrange(64), rng.randrange(64)
            budget = rng.randint(10, 400)
            result = small_grid_index.query(s, t, budget, want_path=True)
            want = constrained_dijkstra(
                small_grid, s, t, budget, want_path=False
            )
            assert result.pair() == want.pair()
            if result.feasible and s != t:
                assert small_grid.path_metrics(result.path) == result.pair()
