"""The one-pass label-build kernel must reproduce the pairwise fold exactly.

Index construction used to fold ``acc = merge(acc, join(a, b, mid))`` by
hand; it now calls :func:`repro.skyline.set_ops.join_union`.  The fold is
kept here as the reference: an index built with it patched back in must
match the kernel-built index in ``pack_labels`` bytes *and* in the
expanded path of every entry, so provenance — not only ``(w, c)`` — is
unchanged.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets import load_dataset
from repro.dynamic import DynamicQHLIndex, updates
from repro.graph import random_connected_network
from repro.hierarchy import build_tree_decomposition, decomposition
from repro.labeling import build_labels, builder
from repro.skyline.entries import _expand_any
from repro.storage.compact import pack_labels
from tests.skyline.oracles import join, merge


def fold_union(parts):
    """The fold the kernel replaced: ``acc = merge(acc, join(a, b, mid))``."""
    acc = []
    for a, b, mid in parts:
        part = a if b is None else join(a, b, mid=mid)
        acc = merge(acc, part) if acc else list(part)
    return acc


def reference_label_set(tree, store, v, u):
    """``P(v, u)`` by the hand-written fold over ``X(v)\\{v}``."""
    acc = []
    for w in tree.bag[v]:
        s_vw = tree.shortcuts[v][w]
        if w == u:
            part = s_vw
        else:
            part = join(s_vw, store.get(w, u), mid=w)
        acc = merge(acc, part) if acc else list(part)
    return acc


def reference_label_rows_for(tree, store, v):
    """The per-vertex label kernel as it was before ``join_union``."""
    rows = []
    joins = 0
    for u in tree.ancestors(v):
        rows.append((u, reference_label_set(tree, store, v, u)))
        joins += sum(1 for w in tree.bag[v] if w != u)
    return rows, joins


@pytest.fixture
def reference_fold(monkeypatch):
    """Patch the pairwise fold back into every kernel call site."""
    monkeypatch.setattr(decomposition, "join_union", fold_union)
    monkeypatch.setattr(builder, "label_rows_for", reference_label_rows_for)
    monkeypatch.setattr(updates, "join_union", fold_union)
    monkeypatch.setattr(updates, "label_set", reference_label_set)
    return monkeypatch


def _paths(entries):
    return [
        (e[0], e[1], None if e[2] is None else _expand_any(e))
        for e in entries
    ]


def assert_labels_identical(got, want):
    for name in ("set_offsets", "hubs", "entry_offsets", "weights", "costs"):
        assert (
            getattr(pack_labels(got), name).tobytes()
            == getattr(pack_labels(want), name).tobytes()
        ), name
    for v in range(want.num_vertices):
        for u in want.hubs_of(v):
            assert _paths(got.get(v, u)) == _paths(want.get(v, u)), (v, u)


def assert_shortcuts_identical(got, want):
    assert got.order == want.order
    for v in want.order:
        assert got.shortcuts[v].keys() == want.shortcuts[v].keys()
        for w, entries in want.shortcuts[v].items():
            assert _paths(got.shortcuts[v][w]) == _paths(entries), (v, w)


NETWORKS = {
    "NY-small": lambda: load_dataset("NY", "small").network,
    "random": lambda: random_connected_network(60, 70, seed=23),
}
STORE_PATHS = pytest.mark.parametrize(
    "store_paths", [True, False], ids=["paths", "no-paths"]
)


@STORE_PATHS
@pytest.mark.parametrize("network_name", sorted(NETWORKS))
def test_build_matches_reference_fold(
    network_name, store_paths, reference_fold
):
    network = NETWORKS[network_name]()
    ref_tree = build_tree_decomposition(network, store_paths=store_paths)
    ref_labels = build_labels(ref_tree, store_paths=store_paths)
    reference_fold.undo()

    tree = build_tree_decomposition(network, store_paths=store_paths)
    assert_shortcuts_identical(tree, ref_tree)
    labels = build_labels(tree, store_paths=store_paths)
    assert_labels_identical(labels, ref_labels)
    for v in tree.topdown_order:
        if v == tree.root:
            continue
        rows, joins = builder.label_rows_for(tree, labels, v)
        ref_rows, ref_joins = reference_label_rows_for(tree, labels, v)
        assert joins == ref_joins, v
        assert [u for u, _ in rows] == [u for u, _ in ref_rows], v


@STORE_PATHS
@pytest.mark.parametrize("network_name", sorted(NETWORKS))
def test_apply_deltas_matches_reference_fold(
    network_name, store_paths, reference_fold
):
    network = NETWORKS[network_name]()
    rng = random.Random(7)
    edges = list(network.edges())
    deltas = [
        (i, edges[i][2] * rng.choice([0.5, 2, 3]), edges[i][3] + 1)
        for i in rng.sample(range(len(edges)), 5)
    ]

    def repaired():
        dyn = DynamicQHLIndex.build(
            network, num_index_queries=50, store_paths=store_paths, seed=1
        )
        dyn.apply_deltas(deltas)
        return dyn.index

    ref = repaired()
    reference_fold.undo()
    got = repaired()
    assert_shortcuts_identical(got.tree, ref.tree)
    assert_labels_identical(got.labels, ref.labels)
