"""Every skyline entry an index holds has the inline provenance layout.

An entry is one flat tuple — ``(w, c, None)``, ``(w, c, EDGE, u, v)``,
``(0, 0, ZERO, v)``, ``(w, c, ROW, store, i)`` or the join ``(w, c, mid,
left, right)`` — and no provenance is a nested tuple of its own.  These
tests walk every entry reachable from what each builder, resumer and
repairer leaves behind, join children included.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.baselines.sky_dijkstra import skyline_search
from repro.dynamic import DynamicQHLIndex
from repro.graph import grid_network, random_connected_network
from repro.hierarchy import build_tree_decomposition
from repro.labeling import build_labels
from repro.resilience.checkpoint import build_labels_checkpointed
from repro.skyline.entries import EDGE, ROW, ZERO, expand
from repro.storage import pack_labels
from repro.storage.flat import FlatLabelStore


def walk_layout(roots) -> dict[str, int]:
    """Check the shape of every entry reachable from ``roots``; return
    how many distinct entries of each kind were seen."""
    counts = {"none": 0, "edge": 0, "zero": 0, "row": 0, "join": 0}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        entry = stack.pop()
        if id(entry) in seen:
            continue
        seen.add(id(entry))
        assert type(entry) is tuple, entry
        assert not isinstance(entry[0], tuple)
        assert not isinstance(entry[1], tuple)
        tag = entry[2]
        if tag is None:
            assert len(entry) == 3
            counts["none"] += 1
        elif tag == EDGE:
            assert len(entry) == 5
            assert type(entry[3]) is int and type(entry[4]) is int
            counts["edge"] += 1
        elif tag == ZERO:
            assert len(entry) == 4 and entry[:2] == (0, 0)
            assert entry[3] is None or type(entry[3]) is int
            counts["zero"] += 1
        elif tag == ROW:
            assert len(entry) == 5
            assert isinstance(entry[3], FlatLabelStore)
            assert type(entry[4]) is int
            counts["row"] += 1
        else:
            # A join: its third slot is the junction vertex, never a
            # nested provenance tuple.
            assert type(tag) is int, entry
            assert len(entry) == 5
            stack += (entry[3], entry[4])
            counts["join"] += 1
    return counts


def store_entries(labels, tree=None):
    """Every label entry of ``labels``, plus every shortcut of ``tree``."""
    roots = [e for _v, _u, entries in labels.items() for e in entries]
    if tree is not None:
        roots += [
            e
            for shortcuts_v in tree.shortcuts.values()
            for entries in shortcuts_v.values()
            for e in entries
        ]
    return roots


def assert_provenance_layout(roots):
    counts = walk_layout(roots)
    assert counts["none"] == 0
    assert counts["edge"] > 0 and counts["join"] > 0
    return counts


@pytest.fixture(scope="module")
def tree():
    return build_tree_decomposition(grid_network(7, 7, seed=11))


class TestBuilds:
    def test_sequential_build(self, tree):
        labels = build_labels(tree)
        assert_provenance_layout(store_entries(labels, tree))

    def test_checkpoint_resumed_build(self, tree, tmp_path):
        directory = str(tmp_path)
        build_labels_checkpointed(tree, directory)
        levels = sorted(n for n in os.listdir(directory) if "level" in n)
        for name in levels[len(levels) // 2:]:
            os.remove(os.path.join(directory, name))
        resumed = build_labels_checkpointed(tree, directory, resume=True)
        assert_provenance_layout(store_entries(resumed, tree))

    def test_build_without_paths(self):
        tree = build_tree_decomposition(
            grid_network(6, 6, seed=3), store_paths=False
        )
        labels = build_labels(tree, store_paths=False)
        counts = walk_layout(store_entries(labels, tree))
        assert counts["none"] > 0
        assert counts["none"] == sum(counts.values())


def test_thrice_repaired_dynamic_store():
    dyn = DynamicQHLIndex.build(
        grid_network(8, 8, seed=9), num_index_queries=30, seed=9
    )
    rng = random.Random(9)
    for _batch in range(3):
        edges = dyn.network_edges()
        deltas = []
        for edge in rng.sample(range(len(edges)), 4):
            _u, _v, w, c = edges[edge]
            deltas.append(
                (edge, w * rng.choice((0.5, 2)), c * rng.choice((0.5, 2)))
            )
        dyn.apply_deltas(deltas)
    assert_provenance_layout(
        store_entries(dyn.index.labels, dyn.index.tree)
    )


def test_sky_dijkstra_with_provenance():
    network = random_connected_network(40, 40, seed=5)
    frontiers = skyline_search(network, 0, with_prov=True)
    counts = assert_provenance_layout(
        [e for frontier in frontiers for e in frontier]
    )
    assert counts["zero"] == 1  # the search starts from ZERO at 0
    for v, frontier in enumerate(frontiers):
        for entry in frontier:
            path = expand(entry, 0, v)
            assert network.path_metrics(path) == entry[:2]


def test_flat_materialised_rows(tree):
    labels = build_labels(tree)
    packed = pack_labels(labels, provenance=True)
    flat = FlatLabelStore.from_compact(packed)
    rows = flat.entries(0, len(packed.weights))
    counts = walk_layout(rows)
    assert counts["row"] == len(rows) == labels.num_entries()
    # A row expands to the path of the object entry it was packed from.
    for v, u, entries in labels.items():
        got = flat.get(v, u)
        assert [e[:2] for e in got] == [e[:2] for e in entries]
        assert [expand(e, v, u) for e in got] == [
            expand(e, v, u) for e in entries
        ]
