"""Repaired labels against a fresh build over the same edge metrics.

The label payload — set offsets, hubs, entry offsets, weights and
costs — of a repaired index packs to the bytes a fresh build gives.
The provenance does not: an entry the repair did not recompute can
still point at an earlier epoch's entry that the repair has since
replaced, so the packed provenance carries a pool of rows for entries
no label holds (922 on NY small below, none for the fresh build).
Those paths still expand correctly; only the bytes differ, which the
strict xfail records.
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


@pytest.mark.xfail(
    strict=True,
    reason="entries the repair left alone keep provenance into earlier "
    "epochs: the packed provenance holds pool rows a fresh build lacks",
)
def test_provenance_columns_match_a_fresh_build(packed):
    repaired, fresh = packed
    assert repaired.provenance == fresh.provenance
