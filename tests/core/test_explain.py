"""Tests for the query-plan explanation facility."""

import random

import pytest

from repro.core import QHLEngine, QHLIndex
from repro.datasets import paper_figure1_network, v
from repro.graph import random_connected_network
from repro.types import CSPQuery


@pytest.fixture(scope="module")
def paper_engine():
    g = paper_figure1_network()
    index = QHLIndex.build(
        g, index_queries=[CSPQuery(v(8), v(4), 13)], seed=0
    )
    # The object sweep: Example 15 counts Algorithm 5's inspections.
    return QHLEngine(index.tree, index.labels, index.lca, index.pruning)


class TestPaperQueryExplained:
    def test_case_and_answer(self, paper_engine):
        trace = paper_engine.explain(v(8), v(4), 13)
        assert trace.case == "separator"
        assert trace.lca == v(10)
        assert trace.answer == (17, 13)

    def test_initial_separators_match_example11(self, paper_engine):
        trace = paper_engine.explain(v(8), v(4), 13)
        by_child = dict(trace.initial_separators)
        assert set(by_child[v(9)]) == {v(10), v(13)}
        assert set(by_child[v(5)]) == {v(10), v(12)}

    def test_condition_application_matches_example12(self, paper_engine):
        trace = paper_engine.explain(v(8), v(4), 13)
        pruned_sets = {
            (app.separator_child, app.v_end): app.pruned
            for app in trace.conditions
        }
        assert pruned_sets.get((v(9), v(8))) == (v(13),)

    def test_chosen_separator_is_singleton_v10(self, paper_engine):
        trace = paper_engine.explain(v(8), v(4), 13)
        assert trace.chosen == (v(10),)

    def test_hoplink_work_matches_example15(self, paper_engine):
        trace = paper_engine.explain(v(8), v(4), 13)
        assert len(trace.hoplinks) == 1
        work = trace.hoplinks[0]
        assert work.hoplink == v(10)
        assert (work.size_sh, work.size_ht) == (2, 2)
        assert work.inspected == 3
        assert work.found == (17, 13)

    def test_render_is_readable(self, paper_engine):
        text = paper_engine.explain(v(8), v(4), 13).render()
        assert "separator" in text
        assert "candidate" in text
        assert "hoplink" in text
        assert "(17, 13)" in text

    def test_ancestor_descendant_case(self, paper_engine):
        trace = paper_engine.explain(v(8), v(13), 12)
        assert trace.case == "ancestor-descendant"
        assert trace.answer == (11, 12)
        assert "one label" in trace.render()

    def test_same_vertex_case(self, paper_engine):
        trace = paper_engine.explain(v(3), v(3), 0)
        assert trace.case == "same-vertex"
        assert trace.answer == (0, 0)

    def test_infeasible_renders(self, paper_engine):
        trace = paper_engine.explain(v(8), v(4), 1)
        assert trace.answer is None
        assert "infeasible" in trace.render()


class TestExplanationConsistency:
    @pytest.mark.parametrize("seed", range(3))
    def test_explain_agrees_with_query(self, seed):
        g = random_connected_network(25, 20, seed=seed)
        engine = QHLIndex.build(
            g, num_index_queries=200, seed=seed
        ).qhl_engine()
        rng = random.Random(seed)
        for _ in range(30):
            s, t = rng.randrange(25), rng.randrange(25)
            budget = rng.randint(1, 250)
            trace = engine.explain(s, t, budget)
            result = engine.query(s, t, budget)
            assert trace.answer == result.pair()
            if trace.case == "separator":
                assert trace.chosen
                assert len(trace.hoplinks) == result.stats.hoplinks
                inspected = sum(w.inspected for w in trace.hoplinks)
                assert inspected == result.stats.concatenations
