"""Array-packed label columns.

Packs a :class:`~repro.labeling.labels.LabelStore` into five flat
arrays — numeric payloads in ``array('d')``, topology in ``array('q')``
— a schema'd plain-data form with no Python object graph.  This is the
column layout of the flat label store
(:class:`~repro.storage.flat.FlatLabelStore`) and of the version-4
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

Packing allocates every column once, at its final size, and fills it
by slice; the provenance packer keeps an identity map over one
root-to-leaf label chain (plus the pool), never over the whole index
(see :func:`_pack_provenance`).  A save therefore costs about the
bytes of the columns it writes.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.labeling.labels import LabelStore
from repro.skyline.entries import EDGE, ROW, ZERO, Entry

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
    n = store.num_vertices
    num_sets, num_entries = store.num_sets(), store.num_entries()
    set_offsets = array("q", [0]) * (n + 1)
    hubs = array("q", [0]) * num_sets
    entry_offsets = array("q", [0]) * (num_sets + 1)
    weights = array("d", [0.0]) * num_entries
    costs = array("d", [0.0]) * num_entries

    s_lo = lo = 0
    for v in range(n):
        label = store.label(v)
        vhubs = store.hubs_of(v)
        sets = [label[u] for u in vhubs]
        entries = [entry for skyline in sets for entry in skyline]
        s_hi, hi = s_lo + len(sets), lo + len(entries)
        hubs[s_lo:s_hi] = array("q", vhubs)
        entry_offsets[s_lo:s_hi + 1] = array(
            "q", accumulate(map(len, sets), initial=lo)
        )
        weights[lo:hi] = array("d", [entry[0] for entry in entries])
        costs[lo:hi] = array("d", [entry[1] for entry in entries])
        set_offsets[v + 1] = s_lo = s_hi
        lo = hi

    packed = CompactLabels(
        num_vertices=store.num_vertices,
        set_offsets=set_offsets,
        hubs=hubs,
        entry_offsets=entry_offsets,
        weights=weights,
        costs=costs,
    )
    if provenance:
        packed.provenance = _pack_provenance(store, packed)
    return packed


def _pack_provenance(
    store: LabelStore, packed: CompactLabels
) -> tuple[Any, ...] | None:
    """The ``(kind, a, b, c)`` columns for ``store``'s label rows plus
    their pool, or ``None`` when some entry has no provenance.

    A join's children are found by object identity, but never in a map
    over the whole index.  The vertices are visited depth-first down
    the label chain: ``|L(v)|`` is ``v``'s depth and its parent is the
    hub with the longest label.  An identity map holds the rows of the
    visited vertex and its ancestors only, and those hold the children
    of every label join: a join of ``P(v, u)`` at ``w`` has its left
    child in ``P(v, w)`` and its right child in ``P(w, u)``.  An entry
    copied from the shortcut ``S(v, u)`` has its junction ``x`` below
    ``v``; its children are looked up in the two sets that can hold
    them, ``P(x, v)`` and ``P(x, u)``.  Label rows are written into
    preallocated columns by slice, each set at its own first row.

    A child that no label holds becomes a *pool* row.  Pool rows are
    appended in a fixed order: the left children of the label rows in
    row order, then their right children, then the same for each round
    of pool rows (the order of a whole-index identity map, which
    ``tests/storage/oracles.py`` keeps as the reference).  Pool rows are found again through an
    identity map over the pool only; their own children are looked up
    in the label sets between their junction and their possible
    endpoints.  Nothing recurses, so path length is not bounded by the
    interpreter's recursion limit.

    Kinds and children are read straight from the entry slots (see
    :mod:`repro.skyline.entries`): a join's junction is its third slot,
    its children the fourth and fifth.
    """
    n = packed.num_vertices
    set_offsets, hubs = packed.set_offsets, packed.hubs
    entry_offsets = packed.entry_offsets
    num_rows = len(packed.weights)
    columns = tuple(array("i", [0]) * num_rows for _ in range(4))

    # The tree, from the labels alone.
    depth = [set_offsets[v + 1] - set_offsets[v] for v in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for v in range(n):
        lo, hi = set_offsets[v], set_offsets[v + 1]
        parent = max(hubs[lo:hi], key=depth.__getitem__, default=-1)
        if 0 <= parent < n and depth[parent] < depth[v]:
            children[parent].append(v)
        else:
            roots.append(v)

    def label_row(child: Entry, x: int, ends: tuple[int, ...]) -> int:
        """The row of ``child`` in a label set ``{x, e}``, ``e`` in
        ``ends``, or -1.  The set lives in the deeper vertex's label."""
        for e in ends:
            p, q = (x, e) if depth[x] > depth[e] else (e, x)
            lo, hi = set_offsets[p], set_offsets[p + 1]
            i = bisect_left(hubs, q, lo, hi)
            if i < hi and hubs[i] == q:
                for k, entry in enumerate(store.label(p)[q]):
                    if entry is child:
                        return entry_offsets[i] + k
        return -1

    row_of: dict[int, int] = {}  # id -> row, over the current chain
    get = row_of.get
    on_chain = bytearray(n)
    # Unresolved (row, child, its possible endpoints), per child slot.
    missing: tuple[list[Any], list[Any]] = ([], [])
    stack: list[tuple[int, list[Entry] | None]] = [
        (v, None) for v in reversed(roots)
    ]
    while stack:
        v, chain_rows = stack.pop()
        if chain_rows is not None:  # leaving v: its rows leave the chain
            deque(map(row_of.pop, map(id, chain_rows)), maxlen=0)
            on_chain[v] = 0
            continue
        label = store.label(v)
        s_lo, s_hi = set_offsets[v], set_offsets[v + 1]
        lo, hi = entry_offsets[s_lo], entry_offsets[s_hi]
        entries = [e for u in hubs[s_lo:s_hi] for e in label[u]]
        row_of.update(zip(map(id, entries), range(lo, hi)))
        on_chain[v] = 1
        stack.append((v, entries))
        stack.extend((w, None) for w in reversed(children[v]))

        described = _describe(entries, get)
        if described is None:
            return None
        kinds, a, b, c = described
        for column, slot in ((b, 3), (c, 4)):
            for i in _positions(column, -1):
                row = lo + i
                u = hubs[bisect_right(entry_offsets, row, s_lo, s_hi) - 1]
                entry = entries[i]
                x, child = entry[2], entry[slot]
                if on_chain[x]:
                    # A label join: the chain held its children's sets.
                    ends: tuple[int, ...] = (v, x) if slot == 3 else (x, u)
                else:
                    column[i] = label_row(child, x, (v, u))
                    if column[i] >= 0:
                        continue
                    ends = (x, v, u)
                missing[slot - 3].append((row, child, ends))
        for column, values in zip(columns, (kinds, a, b, c), strict=True):
            column[lo:hi] = array("i", values)

    # The pool: children that no label holds.
    pool: list[tuple[Entry, tuple[int, ...]]] = []
    pool_row: dict[int, int] = {}  # id -> row, over the pool

    def place(child: Entry, ends: tuple[int, ...]) -> int:
        pool_row[id(child)] = row = num_rows + len(pool)
        pool.append((child, ends))
        return row

    for column, rows in zip(columns[2:], missing, strict=True):
        rows.sort(key=itemgetter(0))
        for row, child, ends in rows:
            found = pool_row.get(id(child))
            column[row] = place(child, ends) if found is None else found
    del missing
    done = 0
    while done < len(pool):  # one round per pool generation
        batch = pool[done:]
        done = len(pool)
        # Every join's child rows are set below; the map only seeds them.
        described = _describe([entry for entry, _ends in batch], pool_row.get)
        if described is None:
            return None
        kinds, a, b, c = described
        for column, slot in ((b, 3), (c, 4)):
            for i in _positions(kinds, PROV_JOIN):
                entry, ends = batch[i]
                x, child = entry[2], entry[slot]
                row = pool_row.get(id(child))
                if row is None:
                    row = label_row(child, x, ends)
                    if row < 0:
                        row = place(child, (x, *ends))
                column[i] = row
        for column, values in zip(columns, (kinds, a, b, c), strict=True):
            column.extend(values)
    return columns


#: The ``kind`` of each provenance tag; any other tag (an int) is a
#: join's junction.  -1 marks what cannot be packed: an entry without
#: provenance, or a row of a flat store.
_KIND_OF: dict[Any, int] = {EDGE: PROV_EDGE, ZERO: PROV_ZERO, ROW: -1, None: -1}


def _describe(
    entries: list[Entry], get: Callable[[int, int], int]
) -> tuple[list[int], list[Any], list[Any], list[Any]] | None:
    """The ``kind``, ``a``, ``b`` and ``c`` values of ``entries``, read
    straight from their slots, or ``None`` when some entry cannot be
    packed.  A join's child rows are ``get(id(child), -1)``."""
    kind_of = _KIND_OF.get
    kinds = [kind_of(entry[2], PROV_JOIN) for entry in entries]
    if -1 in kinds:
        return None
    join, edge = PROV_JOIN, PROV_EDGE
    a = [
        entry[2] if kind == join else entry[3]
        for entry, kind in zip(entries, kinds, strict=True)
    ]
    if None in a:  # an anonymous zero-length entry
        a = [-1 if x is None else x for x in a]
    b = [
        get(id(entry[3]), -1) if kind == join
        else entry[4] if kind == edge else 0
        for entry, kind in zip(entries, kinds, strict=True)
    ]
    c = [
        get(id(entry[4]), -1) if kind == join else 0
        for entry, kind in zip(entries, kinds, strict=True)
    ]
    return kinds, a, b, c


def _positions(values: list[int], target: int) -> Iterator[int]:
    """The indices of ``target`` in ``values``, found at C speed."""
    i = -1
    try:
        while True:
            i = values.index(target, i + 1)
            yield i
    except ValueError:
        return
