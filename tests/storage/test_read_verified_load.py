"""A verified load hashes the file with reads, then maps it.

:func:`~repro.storage.flatfile.load_flat_index` reads the header and the
metadata from the open file, hashes the data region through a buffer of
that same file, and only then maps it.  So:

* corruption anywhere still raises a :class:`SerializationError` that
  names the file;
* an I/O error while verifying is an ``OSError`` that
  :func:`~repro.storage.serialize.load_index_with_retry` retries;
* the columns served from the map are the bytes that were hashed;
* after the load, no page of the mapping is resident.
"""

from __future__ import annotations

import errno
import hashlib
import os
import pickle
import types

import pytest

from repro.core import QHLIndex
from repro.core.pruning import COND_COLUMNS
from repro.exceptions import SerializationError
from repro.graph import grid_network
from repro.storage import flatfile, load_flat_index, save_flat_index
from repro.storage.compact import PROV_COLUMNS
from repro.storage.flatfile import _HEADER
from repro.storage.serialize import load_index_with_retry

LABEL_COLUMNS = ("set_offsets", "hubs", "entry_offsets", "weights", "costs")


@pytest.fixture(scope="module")
def built():
    # A 680 KiB file, 8 KiB of it metadata: big enough that a load
    # which faults the map in cannot pass for one that does not.
    g = grid_network(14, 14, seed=5)
    return QHLIndex.build(g, num_index_queries=200, seed=21, store_paths=True)


@pytest.fixture()
def path(built, tmp_path):
    path = os.fspath(tmp_path / "index.qflat")
    save_flat_index(built, path)
    return path


def _header(path):
    with open(path, "rb") as f:
        return _HEADER.unpack(f.read(_HEADER.size))


def _flip(path, offset):
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)[0]
        f.seek(offset)
        f.write(bytes([byte ^ 0x10]))


class TestCorruption:
    @pytest.mark.parametrize(
        "where", ["last-data-byte", "metadata", "stored-digest"]
    )
    def test_flipped_byte_names_the_file(self, path, where):
        header = _header(path)
        meta_offset, data_offset, data_length = header[3], header[5], header[6]
        _flip(path, {
            "last-data-byte": data_offset + data_length - 1,
            "metadata": meta_offset + 3,
            "stored-digest": _HEADER.size - 1,
        }[where])
        with pytest.raises(SerializationError, match="checksum") as caught:
            load_flat_index(path)
        assert repr(path) in str(caught.value)

    def test_unverified_load_still_refuses_a_truncated_file(self, path):
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size - 5)
        with pytest.raises(SerializationError, match="truncated") as caught:
            load_flat_index(path, verify_checksum=False)
        assert repr(path) in str(caught.value)


class _FlakyReads:
    """The index file, whose next ``failures`` buffer reads fail with
    ``EIO`` as a bad sector would."""

    def __init__(self, f, failures: list[int]):
        self._f = f
        self._failures = failures

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._f.close()

    def readinto(self, buffer):
        if self._failures:
            self._failures.pop()
            raise OSError(errno.EIO, "Input/output error")
        return self._f.readinto(buffer)


class TestIOErrors:
    def _flaky(self, monkeypatch, failures):
        real_open = flatfile._open_index
        monkeypatch.setattr(
            flatfile, "_open_index",
            lambda path: _FlakyReads(real_open(path), failures),
        )

    def test_verification_read_error_is_an_oserror(self, path, monkeypatch):
        self._flaky(monkeypatch, [1])
        with pytest.raises(OSError) as caught:
            load_flat_index(path)
        assert not isinstance(caught.value, SerializationError)
        assert caught.value.errno == errno.EIO

    def test_retry_loads_after_one_failed_verification_read(
        self, built, path, monkeypatch
    ):
        failures = [1]
        self._flaky(monkeypatch, failures)
        delays = []
        index = load_index_with_retry(path, sleep=delays.append)
        assert failures == []  # the first attempt's read failed ...
        assert len(delays) == 1  # ... and one retry followed
        assert index.qhl_engine().query(0, 29, 1e9).pair() == (
            built.qhl_engine().query(0, 29, 1e9).pair()
        )


class _Recorder:
    """A sha256 that keeps every byte it is fed."""

    made: list["_Recorder"] = []

    def __init__(self, data=b""):
        self._digest = hashlib.sha256()
        self.seen = bytearray()
        self.made.append(self)
        self.update(data)

    def update(self, data):
        self.seen += data
        self._digest.update(data)

    def digest(self):
        return self._digest.digest()

    def hexdigest(self):
        return self._digest.hexdigest()


def test_loaded_columns_are_the_hashed_bytes(path, monkeypatch):
    _Recorder.made.clear()
    monkeypatch.setattr(
        flatfile, "hashlib", types.SimpleNamespace(sha256=_Recorder)
    )
    index = load_flat_index(path)
    (recorder,) = _Recorder.made
    meta_length = _header(path)[4]
    hashed_meta = bytes(recorder.seen[:meta_length])
    hashed_data = recorder.seen[meta_length:]
    columns = {
        name: getattr(index.labels, name) for name in LABEL_COLUMNS
    }
    columns.update(zip(PROV_COLUMNS, index.labels.provenance))
    columns.update(
        (name, getattr(index.pruning, name)) for name in COND_COLUMNS
    )
    descriptors = pickle.loads(hashed_meta)["columns"]
    assert {name for name, *_ in descriptors} == set(columns)
    for name, _typecode, _count, offset in descriptors:
        served = memoryview(columns[name]).cast("B")
        assert isinstance(columns[name], memoryview), name
        assert served.tobytes() == hashed_data[offset:offset + served.nbytes]


def _mapped_rss_bytes(path):
    """Resident bytes of this process's mappings of ``path``."""
    path = os.path.realpath(path)
    total, inside = 0, False
    with open("/proc/self/smaps") as f:
        for line in f:
            key = line.split(None, 1)[0]
            if not key.endswith(":"):
                inside = line.rstrip("\n").endswith(" " + path)
            elif inside and key == "Rss:":
                total += int(line.split()[1]) * 1024
    return total


@pytest.mark.skipif(
    not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps"
)
def test_verified_load_leaves_the_map_unresident(path):
    index = load_flat_index(path)
    meta_length = _header(path)[4]
    assert _mapped_rss_bytes(path) <= meta_length + 64 * 1024
    # Queries fault pages in as they read them.
    index.qhl_engine().query(0, 29, 1e9)
    assert _mapped_rss_bytes(path) > 0
