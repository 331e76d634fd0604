"""Array-packed label columns.

Writes labels as five flat arrays — numeric payloads in
``array('d')``, topology in ``array('q')`` — a schema'd plain-data form
with no Python object graph.  This is the
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

One writer fills the columns (:class:`LabelColumnWriter`): the
streaming label build feeds it each label as the top-down sweep
computes it, and :func:`pack_labels` replays a finished
:class:`~repro.labeling.labels.LabelStore` through it.  The writer
keeps an identity map over one root-to-leaf label chain (plus the
pool), never over the whole index, so a build or a save costs about
the bytes of the columns it writes.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

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

    The store is replayed through :class:`LabelColumnWriter`, the
    writer the streaming label build fills, depth-first down the label
    chain.  The tree is read off the labels: ``|L(v)|`` is ``v``'s
    depth, its parent is the hub with the longest label, and each set
    is read by its hub's depth.
    """
    n = store.num_vertices
    depth = [len(store.label(v)) for v in range(n)]
    children: list[list[int]] = [[] for _ in range(n)]
    roots = []
    for v in range(n):
        parent = max(store.hubs_of(v), key=depth.__getitem__, default=-1)
        if 0 <= parent < n and depth[parent] < depth[v]:
            children[parent].append(v)
        else:
            roots.append(v)
    writer = LabelColumnWriter(n, provenance)
    stack: list[tuple[int, bool]] = [(v, False) for v in reversed(roots)]
    while stack:
        v, leaving = stack.pop()
        if leaving:
            writer.leave(v)
            continue
        hubs = store.hubs_of(v)
        label = store.label(v)
        writer.enter(v, hubs, [label[depth[u]] for u in hubs])
        stack.append((v, True))
        stack.extend((w, False) for w in reversed(children[v]))
    return writer.finish()


class LabelColumnWriter:
    """Writes labels into the columns of :class:`CompactLabels` as a
    depth-first sweep of the tree produces them.

    Call :meth:`enter` for each vertex in a depth-first preorder, with
    its label sorted by hub, and :meth:`leave` when its subtree is done;
    :meth:`finish` returns the columns.  The streaming label build
    (:func:`repro.labeling.builder.build_label_columns`) calls it as it
    computes each label; :func:`pack_labels` replays a finished store
    through it.  Rows are appended to the columns in write order, and
    :meth:`finish` moves each column into vertex order, one column at a
    time, so the columns exist about once.

    Provenance rows find a join's children by object identity, but
    never in a map over every label entry.  Which map holds a child
    follows from the junction of the entry that points at it:

    * A junction on the *chain* (the entered vertex and its ancestors):
      the entry is a label join, whose children sit in the labels of
      the chain (a join of ``P(v, u)`` at hub ``w`` has its left child
      in ``P(v, w)`` and its right child in ``P(w, u)``), or a shortcut
      join at a chain vertex ``x``, whose children can only be copies
      in ``x``'s label.  An identity map over the chain's rows finds
      them as the entry is written.  A vertex's rows join that map when
      its first child is entered (a leaf's rows are no one's child);
      a label join's left child, a copy in the entered vertex's own
      label, is looked up among that vertex's copied rows.
    * Any other junction: the entry is a shortcut join (such as an
      entry copied from ``S(v, u)``, whose junction is below ``v``), so
      its children are shortcut entries, and the only label rows they
      can match are *copied shortcut entries*: edge entries and joins
      at a junction off the chain.  Those rows get an identity map of
      their own (a few percent of the rows), and :meth:`finish` looks
      these children up in it.
    * A child that neither map holds is held by no label: it becomes a
      *pool* row, whose own children are looked up by the same rules.
      Nothing recurses, so path length is not bounded by the
      interpreter's recursion limit.

    Child rows are recorded in write order; :meth:`finish` maps them to
    the final rows and numbers the pool in a fixed order: the pool
    children of the label rows, left children in row order and then
    right children, then the same for each round of pool rows (the
    order of a whole-index identity map, which
    ``tests/storage/oracles.py`` keeps as the reference).
    """

    def __init__(self, num_vertices: int, provenance: bool) -> None:
        n = num_vertices
        self.num_vertices = n
        #: Label rows written so far.
        self.rows = 0
        # Per vertex: its first set and first row in write order, and
        # how many of each (-1 until entered).
        self._first_set = [0] * n
        self._sets = [-1] * n
        self._first = [0] * n
        self._count = [0] * n
        # The columns, in write order.
        self._hubs = array("q")
        self._sizes = array("q")
        self._weights = array("d")
        self._costs = array("d")
        # The (kind, a, b, c) columns (see _describe), or None once some
        # entry turned out to have no provenance to pack.
        self._prov: tuple[array[int], ...] | None = (
            tuple(array("i") for _ in range(4)) if provenance else None
        )
        # id -> row over the chain's rows; a vertex's rows join it when
        # its first child is entered (a leaf's rows are no one's child).
        self._row_of: dict[int, int] = {}
        self._popped = 0  # keys popped from it since it was last copied
        # Per chain vertex: its entries, their first row, and whether
        # they are in ``_row_of``.
        self._chain: list[tuple[list[Entry], int, bool]] = []
        self._on_chain = bytearray(n)
        # id -> row over the copied shortcut entries, which it keeps
        # alive so that no id is reused.
        self._copied_row: dict[int, int] = {}
        self._copied: list[Entry] = []
        # Children to look up in ``_copied_row``, and where each goes:
        # ``owner << 1 | slot - 3`` (see _set).
        self._deferred: list[Entry] = []
        self._deferred_at = array("q")
        self._pool: list[Entry] = []
        self._pool_of: dict[int, int] = {}  # id -> pool index
        # Per pool entry, its [left, right] child: a row, or pool entry
        # ``-2 - value`` when negative.
        self._pool_children: list[list[int]] = []
        # (row, slot, pool index) of label rows with a pool child
        self._pooled: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    def enter(
        self, v: int, hubs: list[int], sets: list[list[Entry]]
    ) -> None:
        """Write ``L(v)``: ``sets[i]`` is ``P(v, hubs[i])``, hubs
        increasing.  ``v``'s ancestors are on the chain."""
        entries = [entry for skyline in sets for entry in skyline]
        lo = self.rows
        self.rows = lo + len(entries)
        self._first[v], self._count[v] = lo, len(entries)
        self._first_set[v], self._sets[v] = len(self._hubs), len(hubs)
        self._hubs.fromlist(hubs)
        self._sizes.fromlist(list(map(len, sets)))
        self._weights.fromlist([entry[0] for entry in entries])
        self._costs.fromlist([entry[1] for entry in entries])
        if self._prov is not None:
            self._describe_rows(v, hubs, entries, lo)

    def leave(self, v: int) -> None:
        """``v``'s subtree is written: its rows leave the chain."""
        if self._prov is not None:
            entries, _lo, mapped = self._chain.pop()
            if mapped:
                deque(map(self._row_of.pop, map(id, entries)), maxlen=0)
                # A dict keeps the slots of popped keys until it grows
                # again, and then sizes itself by what it holds at that
                # moment; a compact copy once as many keys were popped
                # as remain keeps it near the size of the chain.
                self._popped += len(entries)
                if self._popped > len(self._row_of):
                    self._row_of = dict(self._row_of)
                    self._popped = 0
            self._on_chain[v] = 0

    def finish(self) -> CompactLabels:
        """The columns, in vertex order; the writer is spent."""
        if -1 in self._sets:
            raise ValueError(
                f"vertex {self._sets.index(-1)} was never entered"
            )
        provenance = None
        if self._prov is not None and self._resolve_deferred():
            provenance = self._finish_provenance()
        rows = list(zip(self._first, self._count, strict=True))
        sets = list(zip(self._first_set, self._sets, strict=True))
        # Each write-order column is freed as its reordered copy is made.
        sizes, self._sizes = self._sizes, array("q")
        entry_offsets = array("q", accumulate(
            chain.from_iterable(sizes[lo:lo + k] for lo, k in sets),
            initial=0,
        ))
        del sizes
        hubs, self._hubs = self._hubs, array("q")
        hubs = _reorder(hubs, sets)
        weights, self._weights = self._weights, array("d")
        weights = _reorder(weights, rows)
        costs, self._costs = self._costs, array("d")
        costs = _reorder(costs, rows)
        return CompactLabels(
            num_vertices=self.num_vertices,
            set_offsets=array("q", accumulate(self._sets, initial=0)),
            hubs=hubs,
            entry_offsets=entry_offsets,
            weights=weights,
            costs=costs,
            provenance=provenance,
        )

    # ------------------------------------------------------------------
    def _describe_rows(
        self, v: int, hubs: list[int], entries: list[Entry], lo: int
    ) -> None:
        # Copied shortcut entries: every row but the label joins, whose
        # junctions are hubs of v (the chain above v).  A label join's
        # left child can only be one of them, so its lookup needs no
        # other row.
        tags = list(map(_TAG, entries))
        copied = list(_positions(list(map(set(hubs).__contains__, tags)), False))
        own = {id(entries[i]): lo + i for i in copied}
        row_of = self._row_of
        if self._chain and not self._chain[-1][2]:  # v is its first child
            parent, first, _mapped = self._chain[-1]
            row_of.update(zip(
                map(id, parent), range(first, first + len(parent)),
                strict=True,
            ))
            self._chain[-1] = parent, first, True
        self._chain.append((entries, lo, False))
        described = _describe(entries, tags, own.get, row_of.get)
        if described is None:
            self._drop_provenance()
            return
        assert self._prov is not None
        for column, values in zip(self._prov, described, strict=True):
            column.fromlist(values)
        _kinds, a, b, c = described
        self._copied_row.update(own)
        self._copied += [entries[i] for i in copied]
        self._on_chain[v] = 1
        self._resolve([
            (lo + i, slot, entries[i][slot], a[i])
            for column, slot in ((b, 3), (c, 4))
            for i in _positions(column, _MISSING)
        ])

    def _resolve(self, todo: list[tuple[int, int, Entry, Any]]) -> None:
        """Settle each ``(owner, slot, child, junction)``: child ``slot``
        of row ``owner`` (of pool entry ``~owner`` when negative), which
        the chain does not hold.  At a junction off the chain the child
        is looked up among the copied shortcut entries at the end;
        otherwise it is a pool entry."""
        on_chain, n = self._on_chain, self.num_vertices
        while todo:
            owner, slot, child, junction = todo.pop()
            if not (type(junction) is int and 0 <= junction < n
                    and on_chain[junction]):
                self._deferred.append(child)
                self._deferred_at.append(owner << 1 | slot - 3)
            elif not self._place_in_pool(owner, slot, child, todo):
                return

    def _resolve_deferred(self) -> bool:
        """Look the deferred children up among the copied shortcut
        entries, pooling the rest; ``False`` when provenance failed."""
        deferred, at, get = (
            self._deferred, self._deferred_at, self._copied_row.get
        )
        while deferred:
            child, where = deferred.pop(), at.pop()
            owner, slot = where >> 1, 3 + (where & 1)
            row = get(id(child))
            if row is not None:
                self._set(owner, slot, row)
                continue
            todo: list[Any] = []
            if not self._place_in_pool(owner, slot, child, todo):
                return False
            self._resolve(todo)  # the chain is empty: all deferred
        self._copied_row.clear()
        self._copied.clear()
        return True

    def _place_in_pool(
        self, owner: int, slot: int, child: Entry, todo: list[Any]
    ) -> bool:
        """Point child ``slot`` of a row at pool entry ``child``, pooling
        it and queueing its own children if new; ``False`` when it has
        no provenance (then the columns have none)."""
        index = self._pool_of.get(id(child))
        if index is None:
            kind = _KIND_OF.get(child[2], PROV_JOIN)
            if kind < 0:
                self._drop_provenance()
                return False
            index = len(self._pool)
            self._pool_of[id(child)] = index
            self._pool.append(child)
            self._pool_children.append([0, 0])
            if kind == PROV_JOIN:
                get = self._row_of.get
                for k in (3, 4):
                    row = get(id(child[k]))
                    if row is None:
                        todo.append((~index, k, child[k], child[2]))
                    else:
                        self._pool_children[index][k - 3] = row
        self._set(owner, slot, -2 - index)
        return True

    def _set(self, owner: int, slot: int, row: int) -> None:
        """Child ``slot`` of row ``owner`` (of pool entry ``~owner`` when
        negative) is ``row`` (pool entry ``-2 - row`` when negative)."""
        assert self._prov is not None
        if owner < 0:
            self._pool_children[~owner][slot - 3] = row
        elif row >= 0:
            self._prov[slot - 1][owner] = row
        else:  # patched once the pool is numbered
            self._prov[slot - 1][owner] = ~0
            self._pooled.append((owner, slot, -2 - row))

    def _drop_provenance(self) -> None:
        """Some entry has no provenance: write none at all."""
        self._prov = None
        self._row_of.clear()
        self._chain.clear()
        self._copied_row.clear()
        self._copied.clear()
        self._deferred.clear()
        del self._deferred_at[:]
        self._pool.clear()
        self._pool_of.clear()

    # ------------------------------------------------------------------
    def _finish_provenance(self) -> tuple[array[int], ...]:
        n, num_rows = self.num_vertices, self.rows
        assert self._prov is not None
        prov: list[array[int] | None] = list(self._prov)
        self._prov = None
        # Write-order row -> final row, then ~x -> x for the values of
        # rows that are not joins, so one lookup maps any value.
        final_of = array("i", [0]) * (num_rows + n)
        rows = list(zip(self._first, self._count, strict=True))
        row = 0
        for first, count in rows:
            final_of[first:first + count] = array(
                "i", range(row, row + count)
            )
            row += count
        final_of[num_rows:] = array("i", range(n - 1, -1, -1))
        order = self._pool_order(final_of)
        number = [0] * len(order)
        for k, index in enumerate(order):
            number[index] = num_rows + k

        pool = [self._pool[index] for index in order]
        no_rows: dict[int, int] = {}  # children are set below
        described = _describe(
            pool, list(map(_TAG, pool)), no_rows.get, no_rows.get
        )
        assert described is not None  # checked as they were pooled
        kinds, a, b, c = described
        for values, k in ((b, 0), (c, 1)):
            for j, (index, kind) in enumerate(
                zip(order, kinds, strict=True)
            ):
                child = (
                    self._pool_children[index][k]
                    if kind == PROV_JOIN else values[j]
                )
                values[j] = (
                    number[-2 - child] if kind == PROV_JOIN and child < 0
                    else final_of[child]
                )

        def remap(part: array[int]) -> array[int]:
            return array("i", [final_of[x] for x in part])

        columns: list[array[int]] = []
        for k, tail in enumerate((kinds, a, b, c)):
            column, prov[k] = prov[k], None
            assert column is not None
            columns.append(
                _reorder(column, rows, tail, remap if k > 1 else None)
            )
        for row, slot, index in self._pooled:
            columns[slot - 1][final_of[row]] = number[index]
        return tuple(columns)

    def _pool_order(self, final_of: array[int]) -> list[int]:
        """Pool indexes in final row order (see the class docstring)."""
        order: list[int] = []
        seen = bytearray(len(self._pool))

        def visit(index: int) -> None:
            if not seen[index]:
                seen[index] = 1
                order.append(index)

        for _slot, _row, index in sorted(
            (slot, final_of[row], index) for row, slot, index in self._pooled
        ):
            visit(index)
        done = 0
        while done < len(order):  # one round per pool generation
            batch = order[done:]
            done = len(order)
            for k in (0, 1):
                for index in batch:
                    child = self._pool_children[index][k]
                    if child < 0 and _KIND_OF.get(
                        self._pool[index][2], PROV_JOIN
                    ) == PROV_JOIN:
                        visit(-2 - child)
        if len(order) != len(self._pool):
            raise ValueError("a pool entry is referenced by no row")
        return order


def _reorder(
    column: array[Any],
    blocks: list[tuple[int, int]],
    tail: Sequence[Any] = (),
    convert: Callable[[array[Any]], array[Any]] | None = None,
) -> array[Any]:
    """The ``(first, count)`` blocks of ``column``, one vertex each, in
    vertex order, then ``tail``; each block through ``convert``."""
    out = array(column.typecode, [0]) * (len(column) + len(tail))
    lo = 0
    for first, count in blocks:
        part = column[first:first + count]
        out[lo:lo + count] = part if convert is None else convert(part)
        lo += count
    out[lo:] = array(column.typecode, tail)
    return out


#: The ``kind`` of each provenance tag; any other tag (an int) is a
#: join's junction.  -1 marks what cannot be packed: an entry without
#: provenance, or a row of a flat store.
_KIND_OF: dict[Any, int] = {EDGE: PROV_EDGE, ZERO: PROV_ZERO, ROW: -1, None: -1}

#: A join child no lookup has found yet (no row or ``~value`` is this).
_MISSING = -(1 << 31)

_TAG, _LEFT, _LAST = itemgetter(2), itemgetter(3), itemgetter(-1)


def _describe(
    entries: list[Entry],
    tags: list[Any],
    get_left: Callable[[int, int], int],
    get_right: Callable[[int, int], int],
) -> tuple[list[int], list[Any], list[Any], list[Any]] | None:
    """The ``kind``, ``a``, ``b`` and ``c`` values of ``entries``, whose
    third slots are ``tags``, read straight from their slots, or
    ``None`` when some entry cannot be packed.

    Each column is one pass at C speed that reads every entry as a
    join: ``a`` is the junction, and the child rows are
    ``get_left(id(entry[3]), _MISSING)`` and
    ``get_right(id(entry[-1]), _MISSING)``.  The edge and zero rows are
    then rewritten in place; their ``b`` and ``c`` values ``x`` come
    as ``~x``, so that no value of theirs reads as a row.  (An id
    looked up for them is that of a live int or ``None``, never of a
    mapped entry.)
    """
    m = len(entries)
    kinds = list(map(_KIND_OF.get, tags, repeat(PROV_JOIN, m)))
    if -1 in kinds:
        return None
    a = tags.copy()
    b = list(map(
        get_left, map(id, map(_LEFT, entries)), repeat(_MISSING, m)
    ))
    c = list(map(
        get_right, map(id, map(_LAST, entries)), repeat(_MISSING, m)
    ))
    for kind in (PROV_EDGE, PROV_ZERO):
        for i in _positions(kinds, kind):
            entry = entries[i]
            a[i] = -1 if entry[3] is None else entry[3]
            b[i] = ~entry[4] if kind == PROV_EDGE else ~0
            c[i] = ~0
    return kinds, a, b, c


def _positions(values: Any, target: int) -> Iterator[int]:
    """The indices of ``target`` in ``values``, found at C speed."""
    i = -1
    try:
        while True:
            i = values.index(target, i + 1)
            yield i
    except ValueError:
        return
