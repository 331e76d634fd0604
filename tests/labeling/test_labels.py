"""Unit tests for the label store."""

import pytest

from repro.exceptions import IndexBuildError
from repro.labeling import LabelStore
from repro.skyline import path_of_pairs


def entries(pairs):
    return [(w, c, None) for w, c in pairs]


def chain_store():
    """Vertices 0 and 1 are children of the root 2."""
    return LabelStore([2, 2, -1], [1, 1, 0])


class TestLookup:
    def test_set_and_get(self):
        store = chain_store()
        store.set(0, 2, entries([(5, 5)]))
        assert path_of_pairs(store.get(0, 2)) == [(5, 5)]

    def test_symmetric_lookup(self):
        store = chain_store()
        store.set(0, 2, entries([(5, 5)]))
        assert store.get(2, 0) == store.get(0, 2)

    def test_same_vertex_returns_zero_path(self):
        store = chain_store()
        assert path_of_pairs(store.get(1, 1)) == [(0, 0)]

    def test_missing_pair_raises(self):
        store = chain_store()
        with pytest.raises(IndexBuildError):
            store.get(0, 1)

    def test_has(self):
        store = chain_store()
        store.set(0, 2, entries([(5, 5)]))
        assert store.has(0, 2)
        assert store.has(2, 0)
        assert store.has(1, 1)
        assert not store.has(0, 1)

    def test_label_raw_access(self):
        store = chain_store()
        store.set(0, 2, entries([(5, 5)]))
        assert store.hubs_of(0) == [2]
        assert store.label(0)[0] is store.get(0, 2)
        assert not store.label(1)


class TestAccounting:
    @pytest.fixture
    def store(self):
        # 3 is the root, 2 and 1 its children, 0 the child of 2.
        store = LabelStore([2, 3, 3, -1], [2, 1, 1, 0])
        store.set(0, 2, entries([(5, 5), (4, 6)]))
        store.set(0, 3, entries([(1, 1)]))
        store.set(1, 3, entries([(2, 2), (1, 3), (0.5, 4)]))
        return store

    def test_num_entries(self, store):
        assert store.num_entries() == 6

    def test_num_sets(self, store):
        assert store.num_sets() == 3

    def test_size_bytes(self, store):
        assert store.size_bytes() == 6 * 16 + 3 * 8

    def test_max_set_size(self, store):
        assert store.max_set_size() == 3

    def test_average_set_size(self, store):
        assert store.average_set_size() == 2.0

    def test_empty_store(self):
        store = LabelStore([-1, 0], [0, 1])
        assert store.num_entries() == 0
        assert store.max_set_size() == 0
        assert store.average_set_size() == 0.0

    def test_items_iterates_all_sets(self, store):
        assert sorted((v, u) for v, u, _e in store.items()) == [
            (0, 2), (0, 3), (1, 3)
        ]
