"""The streaming label build against the object build it replaced.

``build_label_columns`` writes each label into the flat columns as the
top-down sweep computes it and keeps only one root-to-leaf chain of
object labels.  Its columns — payload, provenance and pool — must be
``pack_labels`` of :func:`build_labels`'s store, byte for byte, and an
index built on them must report the statistics of an index built on
object labels.
"""

from __future__ import annotations

import os

import pytest

from repro.core import QHLIndex
from repro.datasets import load_dataset
from repro.dynamic import DynamicQHLIndex
from repro.graph import grid_network, random_connected_network
from repro.hierarchy import build_tree_decomposition
from repro.labeling import build_labels
from repro.labeling.builder import build_label_columns
from repro.observability import MetricsRegistry, use_registry
from repro.storage import pack_labels
from tests.storage.oracles import reference_provenance

PAYLOAD = ("set_offsets", "hubs", "entry_offsets", "weights", "costs")

NETWORKS = {
    "grid": lambda: grid_network(10, 10, seed=4),
    "NY-small": lambda: load_dataset("NY", "small").network,
    "BAY-small": lambda: load_dataset("BAY", "small").network,
    "COL-small": lambda: load_dataset("COL", "small").network,
    "random-60": lambda: random_connected_network(60, 150, seed=3),
    # Both random graphs below pack pool rows (1 and 4).
    "random-60-pool": lambda: random_connected_network(60, 150, seed=9),
    "random-200-pool": lambda: random_connected_network(200, 500, seed=9),
}


def _columns(labels):
    payload = [getattr(labels, name).tobytes() for name in PAYLOAD]
    if labels.provenance is None:
        return payload, None
    return payload, [column.tobytes() for column in labels.provenance]


@pytest.mark.parametrize("store_paths", [True, False], ids=["paths", "no-paths"])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_streamed_columns_equal_the_packed_store(name, store_paths):
    tree = build_tree_decomposition(NETWORKS[name](), store_paths=store_paths)
    streamed = build_label_columns(tree, store_paths=store_paths)
    packed = pack_labels(
        build_labels(tree, store_paths=store_paths), provenance=store_paths
    )
    assert _columns(streamed) == _columns(packed)
    assert (streamed.provenance is not None) == store_paths
    assert streamed.build_seconds > 0


@pytest.mark.parametrize("store_paths", [True, False], ids=["paths", "no-paths"])
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_resumed_columns_equal_the_packed_store(name, store_paths, tmp_path):
    """A checkpointed build resumed from half of its segments streams
    the restored labels and the recomputed ones through the writer to
    the same columns, pool rows included."""
    tree = build_tree_decomposition(NETWORKS[name](), store_paths=store_paths)
    directory = str(tmp_path)
    build_label_columns(tree, store_paths=store_paths, checkpoint=directory)
    segments = sorted(
        file for file in os.listdir(directory) if file.startswith("segment-")
    )
    for file in segments[len(segments) // 2:]:
        os.remove(os.path.join(directory, file))
    resumed = build_label_columns(
        tree, store_paths=store_paths, checkpoint=directory, resume=True
    )
    packed = pack_labels(
        build_labels(tree, store_paths=store_paths), provenance=store_paths
    )
    assert _columns(resumed) == _columns(packed)


@pytest.mark.parametrize("name", ["random-60-pool", "random-200-pool"])
def test_pool_rows_are_streamed_too(name):
    """The streamed provenance, pool rows and their order included, is
    the whole-index packer's (the reference in tests/storage)."""
    tree = build_tree_decomposition(NETWORKS[name]())
    streamed = build_label_columns(tree)
    assert len(streamed.provenance[0]) > len(streamed.weights)
    assert [column.tobytes() for column in streamed.provenance] == [
        column.tobytes() for column in reference_provenance(build_labels(tree))
    ]
    assert streamed.validate_structure() == []


@pytest.mark.parametrize("store_paths", [True, False], ids=["paths", "no-paths"])
@pytest.mark.parametrize("name", ["grid", "NY-small", "random-200-pool"])
def test_recorded_stats_match_an_object_build(name, store_paths):
    """The streamed index exports the statistics of the dynamic build,
    whose labels are objects; only the timings differ."""
    network = NETWORKS[name]()
    recorded = {}
    for cls in (QHLIndex, DynamicQHLIndex):
        registry = MetricsRegistry()
        with use_registry(registry):
            built = cls.build(
                network, num_index_queries=100, seed=5,
                store_paths=store_paths,
            )
        index = built if cls is QHLIndex else built.index
        stats = vars(index.stats())
        for timing in ("tree_seconds", "label_seconds", "pruning_seconds"):
            assert stats.pop(timing) > 0
        gauges = {
            name: registry.get(name).value
            for name in (
                "qhl_index_label_bytes", "qhl_index_label_entries",
                "qhl_index_max_skyline_set", "qhl_index_pruning_conditions",
                "qhl_index_treeheight", "qhl_index_treewidth",
            )
        }
        recorded[cls] = stats, gauges, registry.get(
            "qhl_label_joins_total"
        ).value
    assert recorded[QHLIndex] == recorded[DynamicQHLIndex]
