"""Unit tests for index serialisation."""

import pickle
import struct

import pytest

from repro.core import QHLIndex
from repro.datasets import paper_figure1_network, v
from repro.dynamic import DynamicQHLIndex
from repro.exceptions import SerializationError
from repro.storage import load_index, save_index


@pytest.fixture(scope="module")
def index(paper_network):
    return QHLIndex.build(paper_network, num_index_queries=150, seed=2)


class TestRoundtrip:
    def test_save_returns_size(self, index, tmp_path):
        size = save_index(index, str(tmp_path / "x.idx"))
        assert size > 0

    def test_answers_survive_roundtrip(self, index, tmp_path):
        path = str(tmp_path / "x.idx")
        save_index(index, path)
        loaded = load_index(path)
        for budget in (12, 13, 18, 100):
            assert (
                loaded.query(v(8), v(4), budget).pair()
                == index.query(v(8), v(4), budget).pair()
            )

    def test_path_retrieval_survives_roundtrip(self, index, tmp_path):
        path = str(tmp_path / "x.idx")
        save_index(index, path)
        loaded = load_index(path)
        result = loaded.query(v(8), v(4), 13, want_path=True)
        assert result.path == [v(8), v(2), v(9), v(10), v(5), v(4)]

    def test_shortcuts_dropped_by_default(self, index, tmp_path):
        path = str(tmp_path / "x.idx")
        save_index(index, path)
        assert load_index(path).tree.shortcuts == {}
        # ... and so does the built index, frozen into columns; only
        # the dynamic build keeps them, to repair.
        assert index.tree.shortcuts == {}
        dyn = DynamicQHLIndex.build(
            index.network, num_index_queries=150, seed=2
        )
        assert dyn.index.tree.shortcuts

    def test_stats_survive_roundtrip(self, index, tmp_path):
        # Every build figure, the tree-build time and the label size
        # included, survives a save/load: both copies count label bytes
        # the paper's way.
        path = str(tmp_path / "x.idx")
        save_index(index, path)
        loaded = load_index(path)
        before, after = index.stats(), loaded.stats()
        assert before.tree_seconds > 0
        assert after == before

    def test_deep_provenance_roundtrips(self, tmp_path):
        # A long path graph produces provenance trees hundreds deep.
        from repro.graph import RoadNetwork

        n = 300
        g = RoadNetwork(n)
        for i in range(n - 1):
            g.add_edge(i, i + 1, weight=1, cost=1)
        deep = QHLIndex.build(g, num_index_queries=10, seed=0)
        path = str(tmp_path / "deep.idx")
        save_index(deep, path)
        loaded = load_index(path)
        result = loaded.query(0, n - 1, n, want_path=True)
        assert result.path == list(range(n))


class TestErrorHandling:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_index(str(tmp_path / "nope.idx"))

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(SerializationError):
            load_index(str(path))

    def test_foreign_pickle(self, tmp_path):
        path = tmp_path / "foreign.idx"
        path.write_bytes(pickle.dumps({"hello": "world"}))
        with pytest.raises(SerializationError):
            load_index(str(path))

    def test_wrong_version(self, index, tmp_path):
        path = str(tmp_path / "x.idx")
        save_index(index, path)
        data = bytearray(open(path, "rb").read())
        data[8:12] = struct.pack("<I", 999)  # the header's version field
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(SerializationError, match="version 999"):
            load_index(path)

    def test_payload_without_index(self, tmp_path):
        # The shape of an old pickled envelope: no flat header, refused.
        path = tmp_path / "x.idx"
        path.write_bytes(
            pickle.dumps(
                {"magic": "repro-qhl-index", "version": 2, "index": 42}
            )
        )
        with pytest.raises(SerializationError, match="repro-qhl build"):
            load_index(str(path))
