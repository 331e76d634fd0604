"""Unit tests for pruning conditions (Theorem 1, Algorithms 6-7, §4)."""

import random

import pytest

from repro.core import (
    PruningConditionIndex,
    build_condition,
    build_pruning_index,
    compute_cub,
    dense_rows,
)
from repro.datasets import paper_figure1_network, v
from repro.hierarchy import LCAIndex, build_tree_decomposition
from repro.labeling import build_labels
from repro.skyline import skyline_of
from repro.types import CSPQuery

INF = float("inf")


def sky(pairs):
    return skyline_of([(w, c, None) for w, c in pairs])


@pytest.fixture(scope="module")
def built():
    g = paper_figure1_network()
    tree = build_tree_decomposition(g)
    labels = build_labels(tree)
    return g, tree, labels, LCAIndex(tree)


class TestComputeCub:
    def test_paper_example16(self, built):
        """v_end=v8, h=v13, u=v10 must give C_ub = 14."""
        _g, _tree, labels, _lca = built
        cub = compute_cub(
            labels.get(v(8), v(13)),
            labels.get(v(8), v(10)),
            labels.get(v(10), v(13)),
        )
        assert cub == 14

    def test_full_subset_gives_infinity(self):
        p_prime = sky([(5, 5), (3, 7)])
        p_vu = sky([(2, 2), (1, 4)])
        p_uh = sky([(3, 3), (2, 4)])
        # P'' contains {(5,5),(4,6),(4,7)?...}; craft P' ⊆ P''.
        p_prime = sky([(5, 5)])
        assert compute_cub(p_prime, p_vu, p_uh) == INF

    def test_first_element_missing_gives_zero_pruning_power(self):
        # C_ub equals the first missing element's cost; if even the
        # cheapest P' member is absent, C_ub = that cost — pruning only
        # applies to budgets below it.
        p_prime = sky([(5, 1)])
        p_vu = sky([(9, 9)])
        p_uh = sky([(9, 9)])
        assert compute_cub(p_prime, p_vu, p_uh) == 1

    def test_empty_concatenation_set(self):
        p_prime = sky([(5, 4)])
        assert compute_cub(p_prime, [], []) == 4

    def test_prefix_matching_stops_at_first_miss(self):
        p_prime = sky([(9, 1), (5, 5), (1, 9)])
        # P'' reproduces (9,1) and (5,5) but not (1,9).
        p_vu = sky([(4, 1)])
        p_uh = sky([(5, 0.5), (1, 4)])
        # P'' = {(9, 1.5), (5, 5)} — (9,1) missing already.
        assert compute_cub(p_prime, p_vu, p_uh) == 1

    def test_duplicate_costs_in_concatenation(self):
        # P'' may hold several pairs with equal cost; the scan must not
        # skip a match hidden behind an equal-cost non-match.
        p_prime = sky([(7, 10)])
        p_vu = sky([(5, 5), (3, 7)])
        p_uh = sky([(4, 3), (2, 5)])
        # P'' pairs: (9,8), (7,10), (7,10), (5,12) -> (7,10) present.
        assert compute_cub(p_prime, p_vu, p_uh) == INF


def frozen(bags, conditions):
    """An index over ``bags`` ({child: separator}, children 0..n-1)."""
    return PruningConditionIndex(bags).freeze(dense_rows(bags, conditions))


class TestConditionIndex:
    def test_add_and_lookup(self):
        index = frozen(
            {0: (), 1: (), 2: (), 3: (1, 2)}, {(3, 7): {1: 14.0, 2: 0}}
        )
        assert index.lookup(3, 7) == {1: 14.0}  # zero bounds dropped
        assert index.lookup(3, 8) is None

    def test_prune_keeps_when_budget_reaches_bound(self):
        index = frozen({0: (), 1: (), 2: (), 3: (1, 2)}, {(3, 7): {1: 14.0}})
        assert index.prune(3, 7, (1, 2), budget=14) == (1, 2)
        assert index.prune(3, 7, (1, 2), budget=13.9) == (2,)

    def test_prune_without_condition_returns_none(self):
        index = PruningConditionIndex()
        assert index.prune(0, 0, (1, 2), budget=5) is None
        index = frozen({0: (1, 2), 1: (1, 2)}, {(0, 1): {1: 5.0}})
        assert index.prune(0, 0, (1, 2), budget=5) is None
        assert index.prune(1, 1, (1, 2), budget=5) is None

    def test_infinite_bound_always_prunes(self):
        index = frozen({0: (1, 2)}, {(0, 0): {1: INF}})
        assert index.prune(0, 0, (1, 2), budget=1e12) == (2,)

    def test_size_accounting(self):
        index = frozen(
            {0: (1, 2), 1: ()}, {(0, 0): {1: 5.0, 2: 6.0}, (0, 1): {1: 5.0}}
        )
        assert index.num_conditions == 2
        assert index.num_bounds() == 3
        # cond_start 3, cond_vend 2, bound_start 3 int32; bounds 4 float64.
        assert index.size_bytes() == (3 + 2 + 3) * 4 + 4 * 8

    def test_columns_are_csr_by_child_then_v_end(self):
        bags = {v: () for v in range(10)}
        bags.update({0: (5, 6), 2: (4, 5, 6)})
        index = frozen(
            bags, {(2, 9): {6: 1.0}, (0, 3): {5: 2.0}, (2, 1): {4: 3.0}}
        )
        assert list(index.cond_start) == [0, 1, 1] + [3] * 8
        assert list(index.cond_vend) == [3, 1, 9]
        assert list(index.bound_start) == [0, 2, 5, 8]
        assert list(index.bounds) == [2.0, 0, 3.0, 0, 0, 0, 0, 1.0]
        assert list(index.items()) == [
            (0, 3, {5: 2.0}), (2, 1, {4: 3.0}), (2, 9, {6: 1.0}),
        ]
        assert index.validate_structure() == []

    def test_validate_structure_names_broken_columns(self):
        index = frozen({0: (5, 6), 1: (4, 5)}, {(0, 1): {5: 2.0}})
        index.bounds[1] = float("nan")
        index.cond_vend[0] = 7
        problems = index.validate_structure()
        assert any("v_end 7" in p for p in problems), problems
        assert any("NaN" in p for p in problems), problems

    def test_mismatched_columns_are_refused(self):
        index = frozen({0: (5, 6)}, {(0, 1): {5: 2.0}})
        with pytest.raises(ValueError, match="do not fit"):
            PruningConditionIndex(
                {0: (5, 6), 1: ()},
                (index.cond_start, index.cond_vend,
                 index.bound_start, index.bounds),
            )


class TestBuildCondition:
    def test_paper_example17(self, built):
        """Separator {v10, v13}, v_end=v8: C_ub[v13] = 14."""
        _g, _tree, labels, _lca = built
        index = PruningConditionIndex()
        bounds = build_condition(
            labels, (v(10), v(13)), v(8), random.Random(0), index, {}
        )
        assert bounds == {v(13): 14}

    def test_first_ordered_hoplink_never_pruned(self, built):
        """Lemma 8: the hoplink with the smallest min-cost set cannot be
        pruned, so it never receives a bound."""
        _g, _tree, labels, _lca = built
        index = PruningConditionIndex()
        bounds = build_condition(
            labels, (v(10), v(13)), v(8), random.Random(0), index, {}
        )
        assert v(10) not in bounds

    def test_cache_is_consulted(self, built):
        _g, _tree, labels, _lca = built
        index = PruningConditionIndex()
        cache = {v(8) * labels.num_vertices + v(13): (v(10), 14.0)}
        bounds = build_condition(
            labels, (v(10), v(13)), v(8), random.Random(0), index, cache
        )
        assert bounds == {v(13): 14.0}
        assert index.cache_hits == 1
        assert index.algorithm6_calls == 0

    def test_cache_ignored_when_pruner_not_in_separator(self, built):
        _g, _tree, labels, _lca = built
        index = PruningConditionIndex()
        # v11 not in separator
        cache = {v(8) * labels.num_vertices + v(13): (v(11), 99.0)}
        build_condition(
            labels, (v(10), v(13)), v(8), random.Random(0), index, cache
        )
        assert index.cache_hits == 0
        assert index.algorithm6_calls == 1


class TestBuildPruningIndex:
    def test_builds_four_combinations_per_query(self, built):
        _g, tree, labels, lca = built
        queries = [CSPQuery(v(8), v(4), 13)]
        index = build_pruning_index(tree, labels, lca, queries, seed=0)
        # (H(s)=sep-of-v9, v8), (sep-of-v9, v4), (sep-of-v5, v8),
        # (sep-of-v5, v4).
        assert index.num_conditions == 4
        assert index.has(v(9), v(8))
        assert index.has(v(9), v(4))
        assert index.has(v(5), v(8))
        assert index.has(v(5), v(4))

    def test_paper_example12_condition(self, built):
        _g, tree, labels, lca = built
        index = build_pruning_index(
            tree, labels, lca, [CSPQuery(v(8), v(4), 13)], seed=0
        )
        assert index.lookup(v(9), v(8)) == {v(13): 14}

    def test_ancestor_descendant_queries_skipped(self, built):
        _g, tree, labels, lca = built
        index = build_pruning_index(
            tree, labels, lca, [CSPQuery(v(8), v(13), 10)], seed=0
        )
        assert index.num_conditions == 0

    def test_duplicate_combinations_not_rebuilt(self, built):
        _g, tree, labels, lca = built
        queries = [CSPQuery(v(8), v(4), 13)] * 5
        index = build_pruning_index(tree, labels, lca, queries, seed=0)
        assert index.num_conditions == 4

    def test_build_seconds_recorded(self, built):
        _g, tree, labels, lca = built
        index = build_pruning_index(
            tree, labels, lca, [CSPQuery(v(8), v(4), 13)], seed=0
        )
        assert index.build_seconds > 0


class TestTheorem1Safety:
    """The deep invariant: pruning must never change any answer."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pruned_answers_match_unpruned(self, seed):
        from repro.core import QHLIndex
        from repro.graph import random_connected_network

        g = random_connected_network(35, 30, seed=seed)
        index = QHLIndex.build(g, num_index_queries=500, seed=seed)
        with_pruning = index.qhl_engine(use_pruning_conditions=True)
        without = index.qhl_engine(use_pruning_conditions=False)
        rng = random.Random(1000 + seed)
        for _ in range(80):
            s, t = rng.randrange(35), rng.randrange(35)
            budget = rng.randint(1, 300)
            assert (
                with_pruning.query(s, t, budget).pair()
                == without.query(s, t, budget).pair()
            ), (s, t, budget)

    def test_pruned_separator_never_empty(self, built):
        """Corollary 1: pruning cannot remove every hoplink."""
        _g, tree, labels, lca = built
        rng = random.Random(3)
        index = PruningConditionIndex()

        def subtree(root):
            out, stack = [], [root]
            while stack:
                x = stack.pop()
                out.append(x)
                stack.extend(tree.children[x])
            return out

        conditions = {}
        for child in range(13):
            separator = tree.bag[child]
            if len(separator) < 2:
                continue
            # Valid end vertices live in the child's subtree (their
            # labels then cover every hoplink of the separator).
            for v_end in subtree(child):
                conditions[child, v_end] = build_condition(
                    labels, separator, v_end, rng, index, {}
                )
        index = PruningConditionIndex(tree.bag).freeze(
            dense_rows(tree.bag, conditions)
        )
        for child, v_end in conditions:
            for budget in (0, 1, 5, 10, 20, 100):
                pruned = index.prune(child, v_end, tree.bag[child], budget)
                assert pruned, (child, v_end, budget)
