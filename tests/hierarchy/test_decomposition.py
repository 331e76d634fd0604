"""Unit tests for tree decomposition construction (Algorithm 1)."""

import pytest

from repro.datasets import paper_figure1_network, v
from repro.exceptions import DisconnectedGraphError
from repro.graph import RoadNetwork, random_connected_network
from repro.hierarchy import build_tree_decomposition
from repro.skyline import path_of_pairs


class TestBasics:
    def test_disconnected_rejected(self):
        g = RoadNetwork(3)
        g.add_edge(0, 1, weight=1, cost=1)
        with pytest.raises(DisconnectedGraphError):
            build_tree_decomposition(g)

    def test_single_edge_graph(self):
        g = RoadNetwork(2)
        g.add_edge(0, 1, weight=2, cost=3)
        td = build_tree_decomposition(g)
        assert td.root == 1
        assert td.bag[0] == (1,)
        assert td.bag[1] == ()
        assert path_of_pairs(td.shortcuts[0][1]) == [(2, 3)]

    def test_every_vertex_eliminated_once(self):
        g = random_connected_network(25, 15, seed=2)
        td = build_tree_decomposition(g)
        assert sorted(td.order) == list(range(25))

    def test_build_seconds_recorded(self, random30_tree):
        assert random30_tree.build_seconds > 0

    def test_parallel_edges_collapse_into_skyline(self):
        g = RoadNetwork(2)
        g.add_edge(0, 1, weight=5, cost=1)
        g.add_edge(0, 1, weight=1, cost=5)
        g.add_edge(0, 1, weight=9, cost=9)  # dominated
        td = build_tree_decomposition(g)
        assert path_of_pairs(td.shortcuts[0][1]) == [(5, 1), (1, 5)]


class TestPaperExample6:
    """Algorithm 1 on Figure 1 must reproduce Figure 3 exactly."""

    EXPECTED_BAGS = {
        1: {8, 13}, 2: {8, 9}, 3: {8, 9}, 4: {5, 12}, 5: {10, 12},
        6: {11, 12}, 7: {10, 11}, 8: {9, 13}, 9: {10, 13},
        10: {11, 12, 13}, 11: {12, 13}, 12: {13}, 13: set(),
    }
    EXPECTED_PARENTS = {
        1: 8, 2: 8, 3: 8, 4: 5, 5: 10, 6: 11, 7: 10, 8: 9,
        9: 10, 10: 11, 11: 12, 12: 13,
    }

    @pytest.fixture(scope="class")
    def tree(self):
        return build_tree_decomposition(paper_figure1_network())

    def test_bags_match_figure3(self, tree):
        for pv, expected in self.EXPECTED_BAGS.items():
            assert set(tree.bag[v(pv)]) == {v(x) for x in expected}

    def test_parents_match_figure3(self, tree):
        for pv, parent in self.EXPECTED_PARENTS.items():
            assert tree.parent[v(pv)] == v(parent)

    def test_root_is_v13(self, tree):
        assert tree.root == v(13)

    def test_treewidth_is_four(self, tree):
        # max |X(v)| = |X(v10)| = 4.
        assert tree.treewidth == 4

    def test_first_eliminated_is_v1(self, tree):
        # Example 6: "suppose that we first process v1".
        assert tree.order[0] == v(1)

    def test_shortcut_v10_v13_is_fill_path(self, tree):
        # v10-v13 is not an original edge: the shortcut holds the fill
        # path through v9 with pair (1,1)+(v9-v13 fill (2,5)+(8,9)...)
        # — its exact value is the skyline over eliminated-interior
        # paths, which here includes the v9 route.
        pairs = path_of_pairs(tree.shortcuts[v(10)][v(13)])
        assert all(w > 0 and c > 0 for w, c in pairs)


class TestStrategies:
    def test_min_fill_also_valid(self, random30):
        td = build_tree_decomposition(random30, strategy="min_fill")
        assert sorted(td.order) == list(range(30))

    def test_min_fill_width_not_worse_on_example(self):
        g = paper_figure1_network()
        deg = build_tree_decomposition(g, strategy="min_degree")
        fill = build_tree_decomposition(g, strategy="min_fill")
        assert fill.treewidth <= deg.treewidth + 1

    def test_unknown_strategy_rejected(self, random30):
        from repro.exceptions import IndexBuildError

        with pytest.raises(IndexBuildError):
            build_tree_decomposition(random30, strategy="widest_first")


class TestShortcutSoundness:
    def test_shortcut_entries_are_real_paths(self):
        """Every shortcut pair must be achievable in the original graph
        (its expansion is a concrete path with exactly those metrics)."""
        from repro.skyline import expand

        g = random_connected_network(20, 14, seed=9)
        td = build_tree_decomposition(g)
        for vtx in range(20):
            for w_nbr, entries in td.shortcuts[vtx].items():
                for entry in entries:
                    path = expand(entry, vtx, w_nbr)
                    assert g.path_metrics(path) == (entry[0], entry[1])

    def test_store_paths_false_drops_provenance(self):
        g = random_connected_network(10, 5, seed=1)
        td = build_tree_decomposition(g, store_paths=False)
        for vtx in range(10):
            for entries in td.shortcuts[vtx].values():
                assert all(e[2] is None for e in entries)
