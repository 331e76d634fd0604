"""Golden pin of the flat column layout for the paper worked example.

``tests/golden/paper_example_flat.json`` freezes the exact packed
representation of the Figure 1 index — offset tables, hub lists, the
cost-sorted weight/cost columns, and the sha256 of each column's raw
bytes as written into the version-4 envelope.  Any drift in packing
(set ordering, offset arithmetic, the float↔int restore convention) or
in the labels themselves shows up as a readable JSON diff instead of a
silent format break, complementing ``tests/golden/paper_example.json``
which pins the *answers* over the same build.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.storage import FlatLabelStore, pack_labels

GOLDEN_PATH = (
    Path(__file__).parent.parent / "golden" / "paper_example_flat.json"
)

COLUMNS = ("set_offsets", "hubs", "entry_offsets", "weights", "costs")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def compact(paper_index):
    return pack_labels(paper_index.labels)


def test_offset_tables_match_pin(compact, golden):
    assert golden["num_vertices"] == compact.num_vertices
    assert list(compact.set_offsets) == golden["set_offsets"]
    assert list(compact.entry_offsets) == golden["entry_offsets"]


def test_hub_column_matches_pin(compact, golden):
    assert list(compact.hubs) == golden["hubs"]


def test_entry_columns_match_pin(compact, golden):
    restore = lambda x: int(x) if x.is_integer() else x  # noqa: E731
    assert [restore(w) for w in compact.weights] == golden["weights"]
    assert [restore(c) for c in compact.costs] == golden["costs"]


def test_column_bytes_match_pinned_digests(compact, golden):
    """The exact bytes the version-4 envelope serialises, per column."""
    for name in COLUMNS:
        digest = hashlib.sha256(getattr(compact, name).tobytes())
        assert digest.hexdigest() == golden["column_sha256"][name], (
            f"column {name} bytes drifted from the golden pin"
        )


def test_flat_store_round_trips_the_pinned_bytes(compact, golden):
    """A FlatLabelStore over the packed columns serves (and a save
    writes) exactly the pinned bytes."""
    store = FlatLabelStore.from_compact(compact)
    for name in COLUMNS:
        digest = hashlib.sha256(memoryview(getattr(store, name)))
        assert digest.hexdigest() == golden["column_sha256"][name]
