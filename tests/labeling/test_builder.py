"""Label construction correctness: labels must equal ground-truth skyline
sets for every (vertex, ancestor) pair."""

import random

import pytest

from repro.baselines import skyline_between
from repro.datasets import paper_figure1_network, v
from repro.graph import grid_network, random_connected_network
from repro.hierarchy import build_tree_decomposition
from repro.labeling import build_labels
from repro.skyline import expand, is_canonical, path_of_pairs


class TestPaperExampleLabels:
    @pytest.fixture(scope="class")
    def built(self):
        g = paper_figure1_network()
        tree = build_tree_decomposition(g)
        return g, tree, build_labels(tree)

    def test_label_keys_are_exactly_ancestors(self, built):
        _g, tree, labels = built
        for vtx in range(13):
            assert len(labels.label(vtx)) == tree.depth[vtx]
            assert set(labels.hubs_of(vtx)) == set(tree.ancestors(vtx))

    def test_example4_p_v8v9(self, built):
        _g, _tree, labels = built
        assert path_of_pairs(labels.get(v(8), v(9))) == [(8, 7), (7, 8)]

    def test_example14_p_v8v13(self, built):
        _g, _tree, labels = built
        assert path_of_pairs(labels.get(v(8), v(13))) == [
            (12, 11), (11, 12), (10, 14)
        ]

    def test_example14_p_v8v10(self, built):
        _g, _tree, labels = built
        assert path_of_pairs(labels.get(v(8), v(10))) == [(9, 8), (8, 9)]

    def test_example14_p_v10v13(self, built):
        _g, _tree, labels = built
        assert path_of_pairs(labels.get(v(10), v(13))) == [(3, 3)]

    def test_example15_p_v10v4(self, built):
        _g, _tree, labels = built
        assert path_of_pairs(labels.get(v(10), v(4))) == [(9, 4), (8, 9)]

    def test_label_of_v10_matches_paper_text(self, built):
        # §2.3: L(v10) = {(v11, ...), (v12, ...), (v13, ...)}.
        _g, _tree, labels = built
        assert set(labels.hubs_of(v(10))) == {v(11), v(12), v(13)}


class TestGroundTruth:
    @pytest.mark.parametrize("seed", range(5))
    def test_labels_equal_true_skylines_random(self, seed):
        g = random_connected_network(25, 20, seed=seed)
        tree = build_tree_decomposition(g)
        labels = build_labels(tree)
        for vtx, u, entries in labels.items():
            want = path_of_pairs(skyline_between(g, vtx, u))
            assert path_of_pairs(entries) == want, (vtx, u)

    def test_labels_equal_true_skylines_grid(self):
        g = grid_network(5, 5, seed=8)
        tree = build_tree_decomposition(g)
        labels = build_labels(tree)
        rng = random.Random(0)
        sampled = rng.sample(list(labels.items()), 40)
        for vtx, u, entries in sampled:
            want = path_of_pairs(skyline_between(g, vtx, u))
            assert path_of_pairs(entries) == want

    def test_all_label_sets_canonical(self, random30_labels):
        for _v, _u, entries in random30_labels.items():
            assert is_canonical(entries)

    def test_label_entries_expand_to_real_paths(self):
        g = random_connected_network(20, 15, seed=6)
        tree = build_tree_decomposition(g)
        labels = build_labels(tree)
        for vtx, u, entries in labels.items():
            for entry in entries:
                path = expand(entry, vtx, u)
                assert path[0] == vtx and path[-1] == u
                assert g.path_metrics(path) == (entry[0], entry[1])

    def test_build_seconds_recorded(self, random30_labels):
        assert random30_labels.build_seconds > 0

    def test_store_paths_false_produces_no_provenance(self):
        g = random_connected_network(15, 10, seed=2)
        tree = build_tree_decomposition(g, store_paths=False)
        labels = build_labels(tree, store_paths=False)
        for _v, _u, entries in labels.items():
            assert all(e[2] is None for e in entries)
