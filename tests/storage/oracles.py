"""The whole-index provenance packer, kept as a test oracle.

:func:`repro.storage.compact.pack_labels` packs provenance depth-first
down the label chain, holding an identity map over one root-to-leaf
chain of label rows only.  It replaced this packer, which mapped every
label entry of the index by identity at once; it stays here so the
differential tests can assert that both give the same columns.
"""

from __future__ import annotations

from array import array
from typing import Any

from repro.labeling.labels import LabelStore
from repro.skyline.entries import EDGE, ZERO, Entry
from repro.storage.compact import PROV_EDGE, PROV_JOIN, PROV_ZERO


def label_rows(store: LabelStore) -> list[Entry]:
    """Every label entry of ``store``, in entry-column order."""
    return [
        entry
        for v in range(store.num_vertices)
        for u in store.hubs_of(v)
        for entry in store.label(v)[u]
    ]


def reference_provenance(store: LabelStore) -> tuple[Any, ...] | None:
    """The ``(kind, a, b, c)`` columns of ``store`` by the old packer."""
    return _pack_provenance(label_rows(store))


def _pack_provenance(rows: list[Entry]) -> tuple[Any, ...] | None:
    """The ``(kind, a, b, c)`` columns for ``rows`` plus their pool.

    Row ``i`` describes ``rows[i]``.  A join's children are found by
    object identity among the rows; a child that is no label entry is
    appended to ``rows`` as a pool row and described in the next round.
    Returns ``None`` when some entry has no provenance.
    """
    kind_of = {EDGE: PROV_EDGE, ZERO: PROV_ZERO}
    edge, join = PROV_EDGE, PROV_JOIN
    row_of = dict(zip(map(id, rows), range(len(rows))))
    get = row_of.get
    columns = tuple(array("i") for _ in range(4))
    done = 0
    while done < len(rows):  # the label rows, then the pool rows
        batch = rows[done:]
        done = len(rows)
        kinds = []
        for entry in batch:
            tag = entry[2]
            if type(tag) is int:  # a join at junction ``tag``
                kinds.append(join)
            elif tag in kind_of:
                kinds.append(kind_of[tag])
            else:  # no provenance, or a foreign tag
                return None
        a = [
            entry[2] if kind == join else entry[3]
            for entry, kind in zip(batch, kinds, strict=True)
        ]
        if None in a:  # an anonymous zero-length entry
            a = [-1 if x is None else x for x in a]
        b = [
            get(id(entry[3]), -1) if kind == join
            else entry[4] if kind == edge else 0
            for entry, kind in zip(batch, kinds, strict=True)
        ]
        c = [
            get(id(entry[4]), -1) if kind == join else 0
            for entry, kind in zip(batch, kinds, strict=True)
        ]
        for column, slot in ((b, 3), (c, 4)):
            if -1 not in column:
                continue
            for i, row in enumerate(column):
                if row < 0:
                    child = batch[i][slot]
                    row = get(id(child))
                    if row is None:
                        row = row_of[id(child)] = len(rows)
                        rows.append(child)
                    column[i] = row
        for column, values in zip(columns, (kinds, a, b, c), strict=True):
            column.extend(values)
    return columns
