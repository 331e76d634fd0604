"""The depth-first provenance packer against the whole-index oracle.

``pack_labels(store, provenance=True)`` must give exactly the columns
of the packer it replaced (:mod:`tests.storage.oracles`) on every kind
of store a build, a resume or a repair leaves behind, and must do it
without a whole-index temporary.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from repro.dynamic import DynamicQHLIndex
from repro.graph import RoadNetwork, grid_network
from repro.hierarchy import build_tree_decomposition
from repro.labeling import build_labels
from repro.labeling.builder import build_label_columns
from repro.service import FaultInjector, use_injector
from repro.skyline.entries import zero_entry
from repro.storage import pack_labels
from tests.storage.oracles import label_rows, reference_provenance


class BuildCrash(Exception):
    pass


def assert_matches_oracle(store):
    packed = pack_labels(store, provenance=True).provenance
    expected = reference_provenance(store)
    if expected is None:
        assert packed is None
        return
    assert packed is not None
    assert [column.tobytes() for column in packed] == [
        column.tobytes() for column in expected
    ]


def assert_rows_are_distinct(store):
    """No entry object sits in two label rows (the packer's identity
    lookups rely on it)."""
    rows = label_rows(store)
    assert len({id(entry) for entry in rows}) == len(rows)


@pytest.fixture(scope="module")
def tree():
    return build_tree_decomposition(grid_network(10, 10, seed=4))


@pytest.fixture(scope="module")
def sequential(tree):
    return build_labels(tree)


class TestMatchesOracle:
    def test_sequential_build(self, sequential):
        assert_rows_are_distinct(sequential)
        assert_matches_oracle(sequential)

    def test_paper_example(self, paper_index):
        assert_matches_oracle(paper_index.labels)

    def test_checkpoint_resumed_build(self, tree, sequential, tmp_path):
        # A resumed build streams restored and recomputed labels into
        # the writer: its provenance is the oracle's of a fresh store.
        injector = FaultInjector()
        injector.fail(
            "build-segment", exc=BuildCrash,
            match={"segment": 4, "stage": "checkpointed"},
        )
        with use_injector(injector), pytest.raises(BuildCrash):
            build_label_columns(tree, checkpoint=str(tmp_path))
        resumed = build_label_columns(
            tree, checkpoint=str(tmp_path), resume=True
        )
        assert [c.tobytes() for c in resumed.provenance] == [
            c.tobytes() for c in reference_provenance(sequential)
        ]

    def test_thrice_repaired_store(self):
        network = grid_network(9, 9, seed=6)
        dyn = DynamicQHLIndex.build(network, num_index_queries=30, seed=6)
        rng = random.Random(6)
        edges = dyn.network_edges()
        for _batch in range(3):
            deltas = []
            for edge in rng.sample(range(len(edges)), 4):
                _u, _v, w, c = dyn.network_edges()[edge]
                deltas.append((edge, w * rng.choice((0.5, 2)),
                               c * rng.choice((0.5, 2))))
            dyn.apply_deltas(deltas)
        store = dyn.index.labels
        assert_rows_are_distinct(store)
        assert_matches_oracle(store)
        # No stale child is referenced: the pool is a fresh build's.
        fresh = DynamicQHLIndex.build(
            RoadNetwork.from_edges(network.num_vertices, dyn.network_edges()),
            num_index_queries=30, seed=6,
        ).index.labels
        repaired_pool, fresh_pool = (
            len(packed.provenance[0]) - len(packed.weights)
            for packed in (
                pack_labels(store, provenance=True),
                pack_labels(fresh, provenance=True),
            )
        )
        assert repaired_pool == fresh_pool == 0

    def test_store_with_stale_children(self, tree):
        # Every label rebound to copies of its entries: the copies'
        # children, and theirs, are held by no label, so the packer
        # pools them round after round.
        store = build_labels(tree)
        for v, u, entries in list(store.items()):
            store.set(v, u, [entry[:2] + entry[2:] for entry in entries])
        assert_rows_are_distinct(store)
        assert_matches_oracle(store)
        packed = pack_labels(store, provenance=True)
        assert len(packed.provenance[0]) > len(packed.weights)

    def test_anonymous_zero_entries(self):
        index = DynamicQHLIndex.build(grid_network(5, 5, seed=2),
                                      num_index_queries=10, seed=2).index
        store = index.labels
        joins = [
            (v, u, i)
            for v, u, entries in store.items()
            for i, entry in enumerate(entries)
            if type(entry[2]) is int  # a join at junction entry[2]
        ]
        (v1, u1, i1), (v2, u2, i2) = joins[0], joins[-1]
        # A label row that is itself an anonymous zero entry ...
        entries = list(store.get(v1, u1))
        w, c = entries[i1][:2]
        entries[i1] = (w, c, *zero_entry()[2:])
        store.set(v1, u1, entries)
        # ... and a join whose right child is one (a pool row).
        entries = list(store.get(v2, u2))
        w, c, mid, left, _right = entries[i2]
        entries[i2] = (w, c, mid, left, zero_entry())
        store.set(v2, u2, entries)
        assert_matches_oracle(store)
        packed = pack_labels(store, provenance=True)
        a_col, labelled = packed.provenance[1], len(packed.weights)
        assert -1 in a_col[:labelled]  # the label row
        assert -1 in a_col[labelled:]  # the pool row

    def test_entry_without_provenance(self):
        index = DynamicQHLIndex.build(grid_network(5, 5, seed=2),
                                      num_index_queries=10, seed=2).index
        store = index.labels
        v, u, entries = next(iter(store.items()))
        store.set(v, u, [(e[0], e[1], None) for e in entries])
        assert pack_labels(store, provenance=True).provenance is None
        assert_matches_oracle(store)


def test_pack_peak_is_bounded_by_its_output():
    """The packer holds one label chain, not an index-sized map: its
    tracemalloc peak stays within 2.5x the bytes of the columns it
    returns (the whole-index packer peaked at about 5x)."""
    index = DynamicQHLIndex.build(grid_network(12, 12, seed=1),
                                  num_index_queries=20, seed=1,
                                  store_paths=True).index
    tracemalloc.start()
    try:
        packed = pack_labels(index.labels, provenance=True)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert packed.provenance is not None
    assert peak <= 2.5 * packed.size_bytes(), (peak, packed.size_bytes())
