"""Unit tests for skyline set operations."""

from repro.skyline import (
    best_under,
    dominated_by_set,
    dominates,
    filter_under,
    is_canonical,
    path_of_pairs,
    skyline_of,
)
from tests.skyline.oracles import cartesian_entries, join, merge


def entries(pairs):
    return [(w, c, None) for w, c in pairs]


class TestDominates:
    def test_strictly_better(self):
        assert dominates((1, 1), (2, 2))

    def test_better_on_one_metric(self):
        assert dominates((1, 5), (2, 5))
        assert dominates((5, 1), (5, 2))

    def test_equal_does_not_dominate(self):
        assert not dominates((3, 3), (3, 3))

    def test_incomparable(self):
        assert not dominates((1, 9), (9, 1))
        assert not dominates((9, 1), (1, 9))

    def test_asymmetric(self):
        assert dominates((1, 1), (2, 2))
        assert not dominates((2, 2), (1, 1))


class TestSkylineOf:
    def test_empty(self):
        assert skyline_of([]) == []

    def test_single(self):
        assert path_of_pairs(skyline_of(entries([(3, 4)]))) == [(3, 4)]

    def test_removes_dominated(self):
        sky = skyline_of(entries([(1, 1), (2, 2), (3, 3)]))
        assert path_of_pairs(sky) == [(1, 1)]

    def test_keeps_incomparable_sorted_by_cost(self):
        sky = skyline_of(entries([(1, 9), (9, 1), (5, 5)]))
        assert path_of_pairs(sky) == [(9, 1), (5, 5), (1, 9)]

    def test_deduplicates_equal_pairs(self):
        sky = skyline_of(entries([(2, 3), (2, 3)]))
        assert path_of_pairs(sky) == [(2, 3)]

    def test_equal_cost_keeps_min_weight(self):
        sky = skyline_of(entries([(5, 3), (4, 3), (6, 3)]))
        assert path_of_pairs(sky) == [(4, 3)]

    def test_equal_weight_keeps_min_cost(self):
        sky = skyline_of(entries([(4, 5), (4, 3), (4, 9)]))
        assert path_of_pairs(sky) == [(4, 3)]

    def test_result_is_canonical(self):
        sky = skyline_of(entries([(3, 7), (8, 2), (5, 5), (4, 6), (9, 9)]))
        assert is_canonical(sky)

    def test_matches_bruteforce_definition(self):
        pool = [(3, 7), (8, 2), (5, 5), (4, 6), (9, 9), (5, 4), (2, 8)]
        sky = set(path_of_pairs(skyline_of(entries(pool))))
        brute = {
            p for p in pool
            if not any(dominates(q, p) for q in pool)
        }
        assert sky == brute


class TestIsCanonical:
    def test_empty_and_single(self):
        assert is_canonical([])
        assert is_canonical(entries([(3, 3)]))

    def test_valid_chain(self):
        assert is_canonical(entries([(9, 1), (5, 5), (1, 9)]))

    def test_unsorted_rejected(self):
        assert not is_canonical(entries([(5, 5), (9, 1)]))

    def test_dominated_member_rejected(self):
        assert not is_canonical(entries([(1, 1), (2, 2)]))

    def test_equal_cost_rejected(self):
        assert not is_canonical(entries([(5, 3), (4, 3)]))


class TestMerge:
    def test_with_empty(self):
        a = skyline_of(entries([(2, 2)]))
        assert merge(a, []) == a
        assert merge([], a) == a

    def test_disjoint_chains(self):
        a = skyline_of(entries([(9, 1), (5, 5)]))
        b = skyline_of(entries([(7, 3), (1, 9)]))
        merged = merge(a, b)
        assert path_of_pairs(merged) == [(9, 1), (7, 3), (5, 5), (1, 9)]

    def test_removes_cross_dominated(self):
        a = skyline_of(entries([(5, 5)]))
        b = skyline_of(entries([(4, 4)]))
        assert path_of_pairs(merge(a, b)) == [(4, 4)]

    def test_equals_skyline_of_union(self):
        a = skyline_of(entries([(9, 1), (6, 4), (2, 9)]))
        b = skyline_of(entries([(8, 2), (5, 5), (1, 12)]))
        assert merge(a, b) == skyline_of(a + b)


class TestJoin:
    def test_empty_operand(self):
        assert join([], entries([(1, 1)]), mid=0) == []
        assert join(entries([(1, 1)]), [], mid=0) == []

    def test_singletons(self):
        got = join(entries([(2, 3)]), entries([(4, 5)]), mid=7)
        assert path_of_pairs(got) == [(6, 8)]

    def test_is_skyline_of_cartesian(self):
        a = skyline_of(entries([(9, 1), (5, 5), (1, 9)]))
        b = skyline_of(entries([(7, 2), (3, 6)]))
        got = join(a, b, mid=0)
        all_sums = [
            (x[0] + y[0], x[1] + y[1], None) for x in a for y in b
        ]
        assert got == skyline_of(all_sums)

    def test_budget_drops_expensive_pairs(self):
        a = skyline_of(entries([(9, 1), (1, 9)]))
        b = skyline_of(entries([(9, 1), (1, 9)]))
        got = join(a, b, mid=0, budget=5)
        assert path_of_pairs(got) == [(18, 2)]


class TestCartesian:
    def test_keeps_dominated_members(self):
        a = skyline_of(entries([(9, 1), (1, 9)]))
        b = skyline_of(entries([(9, 1), (1, 9)]))
        got = cartesian_entries(a, b, mid=0)
        assert len(got) == 4  # includes the dominated (10, 10) twice

    def test_sorted_by_cost_then_weight(self):
        a = skyline_of(entries([(9, 1), (1, 9)]))
        b = skyline_of(entries([(5, 5)]))
        got = path_of_pairs(cartesian_entries(a, b, mid=0))
        assert got == sorted(got, key=lambda p: (p[1], p[0]))


class TestFilterAndLookup:
    def setup_method(self):
        self.sky = skyline_of(
            entries([(9, 1), (7, 3), (5, 5), (3, 7), (1, 9)])
        )

    def test_filter_under_is_strict(self):
        # P^theta uses c(p) < theta (paper, before Theorem 1).
        got = path_of_pairs(filter_under(self.sky, 5))
        assert got == [(9, 1), (7, 3)]

    def test_filter_under_all(self):
        assert filter_under(self.sky, 100) == self.sky

    def test_filter_under_none(self):
        assert filter_under(self.sky, 1) == []

    def test_best_under_exact_budget(self):
        assert best_under(self.sky, 5)[:2] == (5, 5)

    def test_best_under_between_costs(self):
        assert best_under(self.sky, 6)[:2] == (5, 5)

    def test_best_under_too_small(self):
        assert best_under(self.sky, 0.5) is None

    def test_best_under_huge_budget_returns_min_weight(self):
        assert best_under(self.sky, 1000)[:2] == (1, 9)

    def test_dominated_by_set(self):
        assert dominated_by_set((8, 4, None), self.sky)
        assert not dominated_by_set((9, 1, None), self.sky)  # equal member
        assert not dominated_by_set((10, 0.5, None), self.sky)

