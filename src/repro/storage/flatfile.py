"""Format version 4, the one saved-index format, with zero-copy mmap load.

The file stores the ``pack_labels`` columns and the pruning-condition
columns *verbatim* as raw little-endian bytes behind a fixed binary
header, so loading is::

    read header + metadata -> SHA-256 over buffered reads -> mmap
        -> memoryview casts

The hash reads the file, not the map, so a verified load leaves no
column page resident: pages come in as queries read them, and an I/O
error while verifying is an ``OSError`` (which
:func:`~repro.storage.serialize.load_index_with_retry` retries), not a
``SIGBUS``.  Near-zero startup (no per-entry work) and, because the
columns are read through an ``mmap``, the kernel shares their physical
pages across fork-based worker pools — object-graph indexes cannot
share pages because refcount writes copy them.

An index built with ``store_paths=True`` also gets the four ``int32``
provenance columns (:mod:`repro.storage.compact`): one row per label
entry plus a small pool of referenced entries that no label holds.
Paths are then expanded from the mapped columns.  An index built with
``store_paths=False`` writes no provenance columns at all.  Elimination
shortcuts are never stored: queries and path expansion do not need
them.

Every index writes the four columns of its
:class:`~repro.core.pruning.PruningConditionIndex` (the paper's
additional index, §4.2): a loaded index prunes straight from the map
and creates no Python object per condition.

File layout (all integers little-endian)::

    [0:80)    header: magic "RQHLFLT1", version=4, flags,
              meta_offset, meta_length, data_offset, data_length,
              sha256(meta bytes + data bytes)
    [meta)    pickled metadata dict: graph edges, elimination order,
              bags, build timings, and one (name, typecode, count,
              offset) descriptor per column
    [data)    the raw column byte-strings back to back: the five
              8-byte label columns, the float64 condition ``bounds``,
              the 4-byte provenance columns, then the int32
              ``cond_start``, ``cond_vend`` and ``bound_start``

Every column starts aligned to its item size: the 8-byte ones come
first.  :func:`repro.storage.serialize.load_index` reads the magic
first: the version-2 pickled envelope of older releases has none and is
refused with a hint to rebuild; so is a version-3 file, whose
conditions sat in the pickled metadata.

Truncation, bit flips (header, metadata, or columns), version or
endianness mismatches all raise :class:`SerializationError`; writes go
through the same atomic temp-file + fsync + ``os.replace`` primitive as
every other save, firing the ``save-index`` fault points.  The columns
are hashed and written as ``memoryview``s, never joined into one
bytes object.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import pickle
import struct
import sys
from typing import TYPE_CHECKING, Any, BinaryIO

from repro.core.pruning import COND_COLUMNS, PruningConditionIndex
from repro.exceptions import SerializationError
from repro.storage.compact import PROV_COLUMNS, pack_labels
from repro.storage.flat import FlatLabelStore
from repro.storage.serialize import _PICKLE_ERRORS, _atomic_write_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import QHLIndex

FLAT_MAGIC = b"RQHLFLT1"
FLAT_FORMAT_VERSION = 4

#: Header flag bit: the column bytes are little-endian.  Arrays are
#: written in native byte order (that is what makes the load zero-copy),
#: so a file written on a big-endian machine refuses to load on a
#: little-endian one instead of silently mangling every number.
_FLAG_LITTLE_ENDIAN = 1

#: magic, version, flags, meta_offset, meta_length, data_offset,
#: data_length, sha256 digest.
_HEADER = struct.Struct("<8sII4Q32s")

#: The label columns, serialised first: they are the 8-byte ones, so
#: every column starts aligned to its item size for the memoryview casts.
_COLUMNS = (
    ("set_offsets", "q"),
    ("hubs", "q"),
    ("entry_offsets", "q"),
    ("weights", "d"),
    ("costs", "d"),
)

#: Item size per column typecode.
_ITEMSIZE = {"q": 8, "d": 8, "i": 4}

#: Bytes per read while a load hashes the data region: under glibc's
#: default mmap threshold, so the buffer comes from the heap.
_READ_CHUNK = 1 << 16


def save_flat_index(index: "QHLIndex", path: str) -> int:
    """Write ``index`` in the flat (version 4) format; returns file size.

    Flat labels, built or mapped, are written from their own columns,
    and so are the pruning conditions, preserving byte identity across
    build/save/load cycles; the object labels of a dynamic index are
    packed, with provenance when they were built with
    ``store_paths=True``, to the same bytes.  The columns are
    hashed and written as ``memoryview``s of those arrays, so the save
    holds no second copy of the index: its extra memory is the
    packer's, one root-to-leaf label chain, plus the metadata.
    Elimination shortcuts are not stored.
    """
    labels = index.labels
    packed = (
        labels
        if isinstance(labels, FlatLabelStore)
        else pack_labels(labels, provenance=labels.store_paths)
    )
    columns = [
        (name, typecode, getattr(packed, name))
        for name, typecode in _COLUMNS
    ]
    pruning = index.pruning
    columns.append(("bounds", "d", pruning.bounds))
    if packed.provenance is not None:
        columns += [
            (name, "i", column)
            for name, column in zip(PROV_COLUMNS, packed.provenance)
        ]
    columns += [
        (name, "i", getattr(pruning, name))
        for name in ("cond_start", "cond_vend", "bound_start")
    ]
    descriptors: list[tuple[str, str, int, int]] = []
    chunks: list[memoryview] = []
    offset = 0
    for name, typecode, column in columns:
        raw = memoryview(column).cast("B")
        descriptors.append(
            (name, typecode, raw.nbytes // _ITEMSIZE[typecode], offset)
        )
        chunks.append(raw)
        offset += raw.nbytes

    tree = index.tree
    meta_bytes = pickle.dumps(
        {
            "num_vertices": tree.num_vertices,
            "edges": list(index.network.edges()),
            "order": list(tree.order),
            "bags": {v: list(tree.bag[v]) for v in range(tree.num_vertices)},
            "tree_build_seconds": tree.build_seconds,
            "columns": descriptors,
            "label_build_seconds": labels.build_seconds,
            "pruning_build_seconds": index.pruning.build_seconds,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    meta_offset = _HEADER.size
    data_offset = _align8(meta_offset + len(meta_bytes))
    digest = hashlib.sha256()
    digest.update(meta_bytes)
    for chunk in chunks:
        digest.update(chunk)
    flags = _FLAG_LITTLE_ENDIAN if sys.byteorder == "little" else 0
    header = _HEADER.pack(
        FLAT_MAGIC,
        FLAT_FORMAT_VERSION,
        flags,
        meta_offset,
        len(meta_bytes),
        data_offset,
        offset,
        digest.digest(),
    )
    padding = b"\x00" * (data_offset - meta_offset - len(meta_bytes))
    _atomic_write_bytes(path, [header, meta_bytes, padding, *chunks])
    return os.path.getsize(path)


def load_flat_index(path: str, verify_checksum: bool = True) -> "QHLIndex":
    """Load a flat index written by :func:`save_flat_index`.

    Returns a :class:`~repro.core.engine.QHLIndex` over a
    :class:`~repro.storage.flat.FlatLabelStore` and a
    :class:`~repro.core.pruning.PruningConditionIndex` whose columns are
    ``memoryview`` casts straight over the mapped file — no copy, and
    the pages are shared with forked children.  Its default engine is
    the flat one (:class:`~repro.core.flat.FlatQHLEngine`), which
    expands paths from the provenance columns when the file has them.

    The header and metadata are read from the file, and the SHA-256
    check reads the data region through one 64 KiB buffer of the same
    open file before it is mapped; the metadata is unpickled from the
    bytes that were hashed.  The few pages the stores' end-point checks
    fault in are unmapped again, so a load leaves no page of the map
    resident.

    Raises
    ------
    SerializationError
        On missing files, directories, foreign or truncated files,
        version/endianness mismatches, or checksum failures.
    OSError
        When reading the file fails; a transient error is worth a
        retry (:func:`~repro.storage.serialize.load_index_with_retry`).
    """
    from repro.core.engine import QHLIndex
    from repro.graph.network import RoadNetwork
    from repro.hierarchy.lca import LCAIndex
    from repro.hierarchy.tree import TreeDecomposition

    with _open_index(path) as f:
        header = f.read(_HEADER.size)
        (
            magic, version, flags,
            meta_offset, meta_length, data_offset, data_length,
            stored_digest,
        ) = _HEADER.unpack(header)
        if magic != FLAT_MAGIC:
            raise SerializationError(f"{path!r} is not a flat repro index")
        if version != FLAT_FORMAT_VERSION:
            raise SerializationError(
                f"unsupported flat index format version {version} "
                f"(this build reads version {FLAT_FORMAT_VERSION}); "
                "rebuild it with `repro-qhl build`"
            )
        little = bool(flags & _FLAG_LITTLE_ENDIAN)
        if little != (sys.byteorder == "little"):
            raise SerializationError(
                f"{path!r} was written on a machine with different "
                "endianness; the raw columns cannot be mapped here"
            )
        total = os.fstat(f.fileno()).st_size
        if (
            meta_offset < _HEADER.size
            or meta_offset + meta_length > total
            or data_offset < meta_offset + meta_length
            or data_offset + data_length > total
        ):
            raise SerializationError(
                f"{path!r} is truncated or has a corrupt header"
            )
        f.seek(meta_offset)
        meta_bytes = f.read(meta_length)
        if verify_checksum:
            digest = hashlib.sha256(meta_bytes)
            f.seek(data_offset)
            _hash_region(f, data_length, digest)
            if digest.digest() != stored_digest:
                raise SerializationError(
                    f"{path!r} failed checksum verification (stored "
                    f"{stored_digest.hex()[:12]}…, computed "
                    f"{digest.hexdigest()[:12]}…); the file is corrupt"
                )
        backing = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    data_view = memoryview(backing)[data_offset:data_offset + data_length]
    try:
        meta = pickle.loads(meta_bytes)
    except _PICKLE_ERRORS as exc:
        raise SerializationError(
            f"{path!r} flat metadata is not readable: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise SerializationError(f"{path!r} has malformed flat metadata")

    try:
        columns: dict[str, Any] = {}
        for name, typecode, count, offset in meta["columns"]:
            if typecode not in _ITEMSIZE:
                raise SerializationError(
                    f"{path!r} column {name!r} has unknown type "
                    f"{typecode!r}"
                )
            nbytes = count * _ITEMSIZE[typecode]
            if offset < 0 or offset + nbytes > data_length:
                raise SerializationError(
                    f"{path!r} column {name!r} overruns the data region"
                )
            columns[name] = data_view[offset:offset + nbytes].cast(typecode)
        labels = FlatLabelStore(
            meta["num_vertices"],
            columns["set_offsets"],
            columns["hubs"],
            columns["entry_offsets"],
            columns["weights"],
            columns["costs"],
            provenance=(
                tuple(columns[name] for name in PROV_COLUMNS)
                if PROV_COLUMNS[0] in columns
                else None
            ),
            backing=backing,
        )
        labels.build_seconds = meta["label_build_seconds"]
        network = RoadNetwork.from_edges(meta["num_vertices"], meta["edges"])
        tree = TreeDecomposition(
            meta["num_vertices"],
            meta["order"],
            {v: tuple(bag) for v, bag in meta["bags"].items()},
            {},
            # Files written before the tree timing was recorded lack it.
            build_seconds=meta.get("tree_build_seconds", 0.0),
        )
        pruning = PruningConditionIndex(
            tree.bag, [columns[name] for name in COND_COLUMNS]
        )
        pruning.build_seconds = meta["pruning_build_seconds"]
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"{path!r} flat payload is incomplete or inconsistent: {exc}"
        ) from exc
    index = QHLIndex(network, tree, labels, LCAIndex(tree), pruning)
    # The two stores' end-point checks read a few values through the
    # map, and each read fault maps a whole fault-around window (64 KiB
    # on Linux).  Unmap those pages again: the file keeps them cached,
    # and they come back as queries read them.
    if hasattr(mmap, "MADV_DONTNEED"):
        backing.madvise(mmap.MADV_DONTNEED)
    return index


def _open_index(path: str) -> BinaryIO:
    """``path`` opened for reading, at least a header long."""
    if not os.path.exists(path):
        raise SerializationError(f"index file {path!r} does not exist")
    if os.path.isdir(path):
        raise SerializationError(
            f"{path!r} is a directory, not an index file"
        )
    f = open(path, "rb")
    size = os.fstat(f.fileno()).st_size
    if size < _HEADER.size:
        f.close()
        raise SerializationError(
            f"{path!r} is truncated: {size} bytes is smaller than "
            f"the {_HEADER.size}-byte flat header"
        )
    return f


def _hash_region(f: BinaryIO, length: int, digest: Any) -> None:
    """Feed the next ``length`` bytes of ``f`` to ``digest``.

    Read through one reused buffer, not through the map: the hash then
    faults no page of the mapping in, and an I/O error is an
    ``OSError`` here instead of a ``SIGBUS`` on some later page.  A
    file that ends early (it shrank after its size was checked) is
    truncated.
    """
    buffer = bytearray(_READ_CHUNK)
    view = memoryview(buffer)
    while length > 0:
        got = f.readinto(view[:min(length, _READ_CHUNK)])
        if not got:
            raise SerializationError(
                f"{f.name!r} is truncated: it ended {length} bytes early"
            )
        digest.update(view[:got])
        length -= got


def _align8(offset: int) -> int:
    return (offset + 7) & ~7
