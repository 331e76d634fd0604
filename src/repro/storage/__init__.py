"""Index persistence: one saved format, the version-4 flat file whose
label, pruning-condition (and optional provenance) columns mmap in with
zero copies, plus the checksummed pickle envelope behind checkpoints
and the journal."""

from repro.storage.compact import CompactLabels, pack_labels
from repro.storage.flat import FlatLabelStore
from repro.storage.flatfile import (
    FLAT_FORMAT_VERSION,
    load_flat_index,
    save_flat_index,
)
from repro.storage.serialize import (
    FORMAT_VERSION,
    load_index,
    load_index_with_retry,
    save_index,
)

__all__ = [
    "CompactLabels",
    "FLAT_FORMAT_VERSION",
    "FORMAT_VERSION",
    "FlatLabelStore",
    "load_flat_index",
    "load_index",
    "load_index_with_retry",
    "pack_labels",
    "save_flat_index",
    "save_index",
]
