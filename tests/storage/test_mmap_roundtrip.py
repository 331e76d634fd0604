"""The flat (version 4) envelope: byte identity, corruption, fork sharing.

The contract under test, from strongest to weakest:

1. **Byte identity** — pack → save → mmap-load reproduces the exact
   ``pack_labels`` bytes, column for column, provenance and
   pruning-condition columns included.  The flat store *is* the
   serialized form; nothing is transformed on load.
2. **Corruption honesty** — truncations and bit flips anywhere (header,
   metadata, every column) raise the checksum/structure
   :class:`SerializationError` instead of returning garbage answers.
3. **Fork sharing** — a forked child answers queries from the parent's
   mapped index without re-deserializing (no load call, no column
   copies; the pages are the parent's).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import struct

import pytest

from repro.core import QHLIndex
from repro.core.flat import FlatQHLEngine
from repro.core.pruning import COND_COLUMNS
from repro.dynamic import DynamicQHLIndex
from repro.exceptions import SerializationError
from repro.graph import random_connected_network
from repro.resilience.audit import audit_index
from repro.storage import (
    load_flat_index,
    pack_labels,
    save_flat_index,
)
from repro.storage.compact import PROV_COLUMNS
from repro.storage.flatfile import _HEADER

COLUMNS = ("set_offsets", "hubs", "entry_offsets", "weights", "costs")
ALL_COLUMNS = COLUMNS + PROV_COLUMNS + COND_COLUMNS


def _column_bounds(path, name):
    """File byte range ``[start, end)`` of column ``name``."""
    with open(path, "rb") as f:
        data = f.read()
    header = _HEADER.unpack_from(data, 0)
    meta_offset, meta_length, data_offset = header[3], header[4], header[5]
    meta = pickle.loads(data[meta_offset:meta_offset + meta_length])
    for column, typecode, count, offset in meta["columns"]:
        if column == name:
            width = 4 if typecode == "i" else 8
            start = data_offset + offset
            return start, start + count * width
    raise AssertionError(f"{path} has no column {name!r}")


def _rehash(data: bytearray) -> bytes:
    """``data`` with its header digest recomputed, so a deliberate edit
    passes the checksum and only structural checks can catch it."""
    header = list(_HEADER.unpack_from(data, 0))
    meta_offset, meta_length, data_offset, data_length = header[3:7]
    digest = hashlib.sha256()
    digest.update(data[meta_offset:meta_offset + meta_length])
    digest.update(data[data_offset:data_offset + data_length])
    header[7] = digest.digest()
    data[:_HEADER.size] = _HEADER.pack(*header)
    return bytes(data)


@pytest.fixture(scope="module")
def built():
    g = random_connected_network(30, 25, seed=14)
    return g, QHLIndex.build(g, num_index_queries=200, seed=14)


@pytest.fixture()
def saved(built, tmp_path):
    _g, index = built
    path = os.fspath(tmp_path / "index.qflat")
    save_flat_index(index, path)
    return index, path


class TestByteIdentity:
    def test_mmap_load_repacks_byte_identical(self, saved):
        index, path = saved
        original = pack_labels(index.labels)
        loaded = load_flat_index(path)
        for name in COLUMNS:
            assert (
                getattr(loaded.labels, name).tobytes()
                == getattr(original, name).tobytes()
            ), f"column {name} drifted through the mmap round-trip"

    def test_provenance_columns_repack_byte_identical(self, built, saved):
        g, index = built
        # The built index froze these columns from object labels; pack
        # the dynamic build's object labels afresh to compare against.
        dyn = DynamicQHLIndex.build(g, num_index_queries=200, seed=14)
        original = pack_labels(dyn.index.labels, provenance=True).provenance
        _index, path = saved
        loaded = load_flat_index(path).labels.provenance
        assert len(original[0]) >= index.labels.num_entries()
        for name, want, got in zip(PROV_COLUMNS, original, loaded):
            assert got.tobytes() == want.tobytes(), (
                f"column {name} drifted through the mmap round-trip"
            )

    def test_condition_columns_round_trip(self, saved):
        index, path = saved
        loaded = load_flat_index(path).pruning
        assert index.pruning.num_conditions > 0
        for name in COND_COLUMNS:
            assert isinstance(getattr(loaded, name), memoryview)
            assert (
                getattr(loaded, name).tobytes()
                == getattr(index.pruning, name).tobytes()
            ), f"column {name} drifted through the mmap round-trip"

    def test_metadata_holds_no_conditions(self, saved):
        _index, path = saved
        with open(path, "rb") as f:
            data = f.read()
        meta_offset, meta_length = _HEADER.unpack_from(data, 0)[3:5]
        meta = pickle.loads(data[meta_offset:meta_offset + meta_length])
        assert "conditions" not in meta

    def test_resave_of_loaded_index_is_byte_identical(self, saved, tmp_path):
        _index, path = saved
        loaded = load_flat_index(path)
        second = os.fspath(tmp_path / "resaved.qflat")
        save_flat_index(loaded, second)
        with open(path, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()

    def test_loaded_index_serves_the_flat_engine_over_the_map(self, saved):
        _index, path = saved
        loaded = load_flat_index(path)
        assert isinstance(loaded, QHLIndex)
        engine = loaded.qhl_engine()
        assert isinstance(engine, FlatQHLEngine)
        assert engine._labels is loaded.labels
        assert isinstance(loaded.labels.weights, memoryview)
        assert loaded.labels._backing is not None

    def test_loaded_index_answers_match_object_index(self, built, saved):
        g, index = built
        _index, path = saved
        loaded = load_flat_index(path)
        obj = index.qhl_engine()
        flat = loaded.qhl_engine()
        import random

        rng = random.Random(3)
        for _ in range(50):
            s, t = rng.randrange(30), rng.randrange(30)
            c = rng.uniform(0, 40)
            a, b = obj.query(s, t, c), flat.query(s, t, c)
            assert (a.feasible, a.weight, a.cost) == (
                b.feasible, b.weight, b.cost,
            )


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError, match="does not exist"):
            load_flat_index(os.fspath(tmp_path / "nope.qflat"))

    def test_directory(self, tmp_path):
        with pytest.raises(SerializationError, match="directory"):
            load_flat_index(os.fspath(tmp_path))

    def test_foreign_file(self, tmp_path):
        path = os.fspath(tmp_path / "foreign.qflat")
        with open(path, "wb") as f:
            f.write(b"not a flat index" * 16)
        with pytest.raises(SerializationError, match="not a flat"):
            load_flat_index(path)

    def test_truncated_below_header(self, saved):
        _index, path = saved
        with open(path, "rb") as f:
            head = f.read(_HEADER.size // 2)
        with open(path, "wb") as f:
            f.write(head)
        with pytest.raises(SerializationError, match="truncated"):
            load_flat_index(path)

    def test_truncated_columns(self, saved):
        _index, path = saved
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[: len(data) // 2])
        with pytest.raises(SerializationError, match="truncated|corrupt"):
            load_flat_index(path)

    @pytest.mark.parametrize(
        "region", ["metadata", "early-column", "last-byte"]
    )
    def test_bit_flip_fails_checksum(self, saved, region):
        _index, path = saved
        data = bytearray(open(path, "rb").read())
        offset = {
            "metadata": _HEADER.size + 8,
            "early-column": len(data) // 2,
            "last-byte": len(data) - 1,
        }[region]
        data[offset] ^= 0x40
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(SerializationError, match="checksum"):
            load_flat_index(path)

    @pytest.mark.parametrize("column", ALL_COLUMNS)
    def test_bit_flip_in_every_column_fails_checksum(self, saved, column):
        _index, path = saved
        start, end = _column_bounds(path, column)
        data = bytearray(open(path, "rb").read())
        data[(start + end) // 2] ^= 0x04
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(SerializationError, match="checksum"):
            load_flat_index(path)

    @pytest.mark.parametrize("column", ALL_COLUMNS)
    def test_truncation_in_every_column_is_refused(self, saved, column):
        _index, path = saved
        start, end = _column_bounds(path, column)
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[: (start + end) // 2])
        with pytest.raises(SerializationError, match="truncated|corrupt"):
            load_flat_index(path)

    def test_rehashed_cond_start_end_is_refused_on_load(self, saved):
        _index, path = saved
        start, end = _column_bounds(path, "cond_start")
        data = bytearray(open(path, "rb").read())
        last = struct.unpack_from("<i", data, end - 4)[0]
        struct.pack_into("<i", data, end - 4, last + 1)
        with open(path, "wb") as f:
            f.write(_rehash(data))
        with pytest.raises(SerializationError, match="do not fit"):
            load_flat_index(path)

    def test_rehashed_non_monotone_cond_start_fails_the_audit(self, saved):
        _index, path = saved
        start, end = _column_bounds(path, "cond_start")
        data = bytearray(open(path, "rb").read())
        values = struct.unpack_from(f"<{(end - start) // 4}i", data, start)
        # Raise one interior offset above its successor: the ends still
        # fit, so only the audit's monotonicity check can tell.
        k = next(i for i in range(1, len(values) - 1) if values[i + 1])
        struct.pack_into("<i", data, start + 4 * k, values[k + 1] + 1)
        with open(path, "wb") as f:
            f.write(_rehash(data))
        loaded = load_flat_index(path)
        report = audit_index(loaded, queries=0)
        assert "flat-columns" in report.failed_checks()
        problems = next(
            check.problems for check in report.checks
            if check.name == "flat-columns"
        )
        assert any("cond_start not monotone" in p for p in problems)

    def test_bit_flip_in_stored_digest_fails_checksum(self, saved):
        _index, path = saved
        data = bytearray(open(path, "rb").read())
        data[_HEADER.size - 1] ^= 0x01  # last byte of the header digest
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(SerializationError, match="checksum"):
            load_flat_index(path)

    def test_unsupported_version(self, saved):
        _index, path = saved
        data = bytearray(open(path, "rb").read())
        data[8] = 9  # version field (little-endian u32 after the magic)
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(SerializationError, match="version"):
            load_flat_index(path)


class TestForkSharing:
    def test_forked_child_reads_parent_mapping(self, saved):
        """A child forked after the load answers from the parent's map.

        The child runs a query and repacks a column *without* calling
        ``load_flat_index`` itself — possible only because fork
        inherits the parent's mapped pages.  Platforms without fork
        skip (the mmap still loads; only the sharing claim needs fork).
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("requires the fork start method")
        _index, path = saved
        loaded = load_flat_index(path)
        expected = loaded.query(0, 29, 1000)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(
            target=_child_probe, args=(loaded, queue)
        )
        proc.start()
        try:
            weight, cost, head = queue.get(timeout=30)
        finally:
            proc.join(timeout=30)
        assert (weight, cost) == (expected.weight, expected.cost)
        assert head == loaded.labels.costs.tobytes()[:64]

    def test_batch_workers_answer_from_mapped_index(self, saved):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("requires the fork start method")
        _index, path = saved
        loaded = load_flat_index(path)
        queries = [(0, 29, 1000.0), (1, 20, 500.0), (3, 7, 0.5)]
        sequential = loaded.query_many(queries, workers=0)
        fanned = loaded.query_many(queries, workers=2)
        for a, b in zip(sequential.results, fanned.results):
            assert (a.feasible, a.weight, a.cost) == (
                b.feasible, b.weight, b.cost,
            )


def _child_probe(index: QHLIndex, queue) -> None:
    result = index.query(0, 29, 1000)
    queue.put(
        (result.weight, result.cost, index.labels.costs.tobytes()[:64])
    )
