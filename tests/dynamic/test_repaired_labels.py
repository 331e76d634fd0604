"""Repaired labels against a fresh build over the same edge metrics.

A repaired index packs to the bytes a fresh build gives, provenance
included.  Two rules of the repair make the provenance match:

* a recomputed entry that is the same path as the entry it replaces
  (equal ``(w, c)``, the same junction and the very same children) is
  replaced by that old entry, so lists the repair did not recompute
  keep pointing at entries a list still holds, and the packed
  provenance gets no pool rows for replaced ones (52 on NY small below
  when only whole unchanged lists were kept, 922 when every recomputed
  list was replaced);
* a repaired shortcut joins its two halves in the order the
  elimination did, so a new join has a fresh build's child rows in the
  same slots (24 rows of NY small below differed only in that order).

A list whose pairs did not change but which holds a new path (equal
``(w, c)``, different children) is still written without marking it
dirty, so lists that read it and were not recomputed would keep the
entry it replaced, as a pool row; no fixture here reaches that case.
"""

from __future__ import annotations

import random

import pytest

from repro.datasets import load_dataset
from repro.dynamic import DynamicQHLIndex
from repro.graph import RoadNetwork
from repro.storage.compact import pack_labels

PAYLOAD = ("set_offsets", "hubs", "entry_offsets", "weights", "costs")


@pytest.fixture(scope="module")
def packed():
    """``(repaired, fresh)`` labels packed with provenance: NY small,
    ``Q_index`` 200, three 4-edge batches."""
    network = load_dataset("NY", "small").network
    rng = random.Random(303)
    edges = list(network.edges())
    dyn = DynamicQHLIndex.build(network, num_index_queries=200, seed=303)
    for _ in range(3):
        batch = []
        for _ in range(4):
            edge = rng.randrange(len(edges))
            weight = max(1, round(edges[edge][2] * rng.uniform(1.5, 3.0)))
            batch.append((edge, weight, None))
        assert dyn.apply_deltas(batch).labels_changed > 0
    fresh = DynamicQHLIndex.build(
        RoadNetwork.from_edges(network.num_vertices, dyn.network_edges()),
        num_index_queries=200,
        seed=303,
    )
    return (
        pack_labels(dyn.index.labels, provenance=True),
        pack_labels(fresh.index.labels, provenance=True),
    )


def test_payload_columns_match_a_fresh_build(packed):
    repaired, fresh = packed
    for name in PAYLOAD:
        assert getattr(repaired, name) == getattr(fresh, name), name
    assert repaired.provenance is not None


def test_provenance_columns_match_a_fresh_build(packed):
    repaired, fresh = packed
    assert repaired.provenance == fresh.provenance


def test_pool_rows_match_a_fresh_build(packed):
    """Provenance rows past the label entries are the pool: entries a
    path reaches that no label holds.  A fresh build has none here."""
    repaired, fresh = (
        len(labels.provenance[0]) - len(labels.weights)
        for labels in packed
    )
    assert repaired == fresh == 0


def test_a_no_op_repair_keeps_every_list():
    """A batch that gives edges the metrics they already have rebuilds
    their shortcuts with the same pairs over the same children, so the
    repair keeps every shortcut and label list object."""
    network = load_dataset("NY", "small").network
    dyn = DynamicQHLIndex.build(network, num_index_queries=50, seed=303)
    tree, labels = dyn.index.tree, dyn.index.labels
    shortcuts = [
        (x, w, entries)
        for x, row in tree.shortcuts.items()
        for w, entries in row.items()
    ]
    sets = list(labels.items())
    edges = dyn.network_edges()
    report = dyn.apply_deltas(
        [(i, edges[i][2], edges[i][3]) for i in range(0, len(edges), 5)]
    )
    assert report.shortcuts_checked > 0
    assert report.shortcuts_changed == report.labels_changed == 0
    assert all(tree.shortcuts[x][w] is entries for x, w, entries in shortcuts)
    assert all(labels.get(v, u) is entries for v, u, entries in sets)
