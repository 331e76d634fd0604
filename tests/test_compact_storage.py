"""Tests for ``pack_labels``, the column layout of flat label stores.

Unpacking is :class:`~repro.storage.flat.FlatLabelStore` over the
packed arrays: ``from_compact`` wraps them, ``get`` materialises entry
tuples.
"""

import pytest

from repro.core import QHLIndex
from repro.exceptions import SerializationError
from repro.graph import random_connected_network
from repro.skyline.entries import restore
from repro.storage import FlatLabelStore, pack_labels


def unpack(compact):
    return FlatLabelStore.from_compact(compact)


@pytest.fixture(scope="module")
def built():
    g = random_connected_network(30, 25, seed=14)
    return g, QHLIndex.build(g, num_index_queries=200, seed=14)


class TestPackUnpack:
    def test_roundtrip_preserves_every_set(self, built):
        _g, index = built
        restored = unpack(pack_labels(index.labels))
        for v, u, entries in index.labels.items():
            got = restored.get(v, u)
            assert [(e[0], e[1]) for e in got] == [
                (e[0], e[1]) for e in entries
            ]

    def test_integer_metrics_restored_as_ints(self, built):
        # Materialised entries keep the columns' floats; ``restore``
        # gives back the ints, and every engine restores its answers.
        _g, index = built
        restored = unpack(pack_labels(index.labels))
        some = next(iter(restored.items()))[2]
        assert all(isinstance(restore(e[0]), int) for e in some)
        for engine in (
            index.qhl_engine(),
            index.qhl_engine(use_two_pointer=False),
            index.csp2hop_engine(),
            index.cached_engine(8),
        ):
            result = engine.query(0, 29, 10**6)
            assert type(result.weight) is int
            assert type(result.cost) is int

    def test_float_metrics_survive(self):
        from repro.graph import RoadNetwork

        g = RoadNetwork(3)
        g.add_edge(0, 1, weight=1.5, cost=2.25)
        g.add_edge(1, 2, weight=3.5, cost=0.75)
        index = QHLIndex.build(g, num_index_queries=10, seed=0)
        restored = unpack(pack_labels(index.labels))
        assert [(e[0], e[1]) for e in restored.get(0, 2)] == [
            (e[0], e[1]) for e in index.labels.get(0, 2)
        ]

    def test_provenance_dropped(self, built):
        _g, index = built
        restored = unpack(pack_labels(index.labels))
        for _v, _u, entries in restored.items():
            assert all(e[2] is None for e in entries)

    def test_size_accounting(self, built):
        _g, index = built
        compact = pack_labels(index.labels)
        assert compact.size_bytes() > 0
        assert len(compact.weights) == index.labels.num_entries()

    def test_corrupt_offsets_rejected(self, built):
        _g, index = built
        compact = pack_labels(index.labels)
        compact.set_offsets.pop()
        with pytest.raises(SerializationError, match="set_offsets"):
            FlatLabelStore.from_compact(compact)
