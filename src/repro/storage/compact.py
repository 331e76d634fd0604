"""Array-packed label columns.

Packs a :class:`~repro.labeling.labels.LabelStore` into five flat
arrays — numeric payloads in ``array('d')``, topology in ``array('q')``
— a schema'd plain-data form with no Python object graph.  This is the
column layout of the flat label store
(:class:`~repro.storage.flat.FlatLabelStore`) and of the version-3
index file (:mod:`repro.storage.flatfile`), which writes the arrays
verbatim.

By default packing keeps only the ``(weight, cost)`` payloads, like the
paper's labels.  ``pack_labels(store, provenance=True)`` also packs the
entries' provenance (path retrieval) as four ``array('i')`` columns —
``kind``, ``a``, ``b``, ``c``, one row per label entry in entry-column
order, followed by a *pool* of rows for the entries that provenance
references but no label holds:

==========  ============  ==========  ==========
``kind``    ``a``         ``b``       ``c``
==========  ============  ==========  ==========
``EDGE``    endpoint u    endpoint v  0
``ZERO``    vertex or -1  0           0
``JOIN``    junction      left row    right row
==========  ============  ==========  ==========

Join rows point at their children by row number, so the provenance DAG
survives without a Python object graph.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any

from repro.labeling.labels import LabelStore
from repro.skyline.entries import EDGE, JOIN, ZERO, Entry

#: Values of the provenance ``kind`` column.
PROV_EDGE, PROV_ZERO, PROV_JOIN = 0, 1, 2

#: Provenance column names, in file order.
PROV_COLUMNS = ("prov_kind", "prov_a", "prov_b", "prov_c")


@dataclass
class CompactLabels:
    """Flat-array form of a label store.

    Layout: for vertex ``v``, its label sets occupy the slice
    ``set_offsets[v] : set_offsets[v + 1]`` of ``hubs`` /
    ``entry_offsets``; set ``i`` holds entries
    ``entry_offsets[i] : entry_offsets[i + 1]`` of ``weights`` /
    ``costs`` (cost-sorted, as the canonical invariant requires).
    """

    num_vertices: int
    set_offsets: array[int]  # 'q', len = num_vertices + 1
    hubs: array[int]         # 'q', one per stored set
    entry_offsets: array[int]  # 'q', len = num_sets + 1
    weights: array[float]    # 'd', one per entry
    costs: array[float]      # 'd', one per entry
    #: ``(kind, a, b, c)`` ``'i'`` columns (see the module docstring),
    #: or ``None`` when the labels were packed without provenance.
    provenance: tuple[Any, ...] | None = None

    def size_bytes(self) -> int:
        """Actual in-memory payload size of the arrays."""
        return sum(
            arr.itemsize * len(arr)
            for arr in (
                self.set_offsets, self.hubs, self.entry_offsets,
                self.weights, self.costs, *(self.provenance or ()),
            )
        )


def pack_labels(store: LabelStore, provenance: bool = False) -> CompactLabels:
    """Pack a label store into flat arrays.

    ``provenance=True`` also packs the provenance columns, unless some
    entry has no provenance to pack; then the result has none.
    """
    set_offsets = array("q", [0])
    hubs = array("q")
    entry_offsets = array("q", [0])
    weights = array("d")
    costs = array("d")
    rows: list[Entry] = []

    for v in range(store.num_vertices):
        label = store.label(v)
        for u in store.hubs_of(v):
            entries = label[u]
            hubs.append(u)
            for entry in entries:
                weights.append(entry[0])
                costs.append(entry[1])
            if provenance:
                rows.extend(entries)
            entry_offsets.append(len(weights))
        set_offsets.append(len(hubs))

    return CompactLabels(
        num_vertices=store.num_vertices,
        set_offsets=set_offsets,
        hubs=hubs,
        entry_offsets=entry_offsets,
        weights=weights,
        costs=costs,
        provenance=_pack_provenance(rows) if provenance else None,
    )


def _pack_provenance(rows: list[Entry]) -> tuple[Any, ...] | None:
    """The ``(kind, a, b, c)`` columns for ``rows`` plus their pool.

    Row ``i`` describes ``rows[i]``.  A join's children are found by
    object identity among the rows; a child that is no label entry is
    appended to ``rows`` as a pool row and described in the next round.
    An entry that two rows hold maps to the last of them; either
    describes it.
    Built column by column with comprehensions (a save packs every
    entry of the index), and without recursion, so path length is not
    bounded by the interpreter's recursion limit.  Returns ``None``
    when some entry has no provenance.
    """
    kind_of = {EDGE: PROV_EDGE, ZERO: PROV_ZERO, JOIN: PROV_JOIN}
    edge, join = PROV_EDGE, PROV_JOIN
    row_of = dict(zip(map(id, rows), range(len(rows))))
    get = row_of.get
    columns = tuple(array("i") for _ in range(4))
    done = 0
    while done < len(rows):  # the label rows, then the pool rows
        provs = [entry[2] for entry in rows[done:]]
        done = len(rows)
        try:
            kinds = [kind_of[prov[0]] for prov in provs]
        except (TypeError, KeyError):  # no provenance, or a foreign tag
            return None
        a = [prov[1] for prov in provs]
        if None in a:  # an anonymous zero-length entry
            a = [-1 if x is None else x for x in a]
        b = [
            get(id(prov[2]), -1) if kind == join
            else prov[2] if kind == edge else 0
            for prov, kind in zip(provs, kinds, strict=True)
        ]
        c = [
            get(id(prov[3]), -1) if kind == join else 0
            for prov, kind in zip(provs, kinds, strict=True)
        ]
        for column, slot in ((b, 2), (c, 3)):
            if -1 not in column:
                continue
            for i, row in enumerate(column):
                if row < 0:
                    child = provs[i][slot]
                    row = get(id(child))
                    if row is None:
                        row = row_of[id(child)] = len(rows)
                        rows.append(child)
                    column[i] = row
        for column, values in zip(columns, (kinds, a, b, c), strict=True):
            column.extend(values)
    return columns


def _restore(x: float) -> float:
    """A packed metric as the label store held it: integral values come
    back as ints, so answers compare exactly against indexes built from
    integer networks."""
    return int(x) if x.is_integer() else x
