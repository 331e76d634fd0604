"""Flat columnar label store: how every built or loaded index serves.

:class:`FlatLabelStore` holds the ``pack_labels`` arrays (or
``memoryview`` casts over an ``mmap``) and serves skyline sets as
half-open column slices instead of per-entry tuple lists, so the flat
query engine (:class:`~repro.core.flat.FlatQHLEngine`) touches no
Python object graph on the hot path.  Every built index serves from
one (``QHLIndex.build`` freezes its object labels into it), and
:func:`repro.storage.flatfile.load_flat_index` maps one from a file.

Layout (that of :class:`~repro.storage.compact.CompactLabels`):
vertex ``v``'s sets occupy ``set_offsets[v] : set_offsets[v + 1]`` of
``hubs`` / ``entry_offsets``; hubs are sorted per vertex (``pack_labels``
iterates ``sorted(label)``), so set lookup is a binary search; set ``i``
holds entries ``entry_offsets[i] : entry_offsets[i + 1]`` of
``weights`` / ``costs``, cost-sorted as the canonical invariant
requires.

The store also speaks the :class:`~repro.labeling.labels.LabelStore`
read API — ``label(v)`` returns a lazy hub→entries mapping, ``get(x, y)``
materialises entry tuples, plus the counting/iteration helpers — so
consumers built against the object store (the frontier cache, the index
audit, the CSP-2Hop baseline, the object-sweep engine) run over flat or
mmap-backed labels unmodified.  Materialised entries are built at C
speed and keep the columns' floats; engines restore integral metrics
to ints on their answers only (:func:`restore`).

Provenance is optional.  A store built with the four provenance columns
(``pack_labels(..., provenance=True)``, or an index built with
``store_paths=True``) expands any row into its vertex path with
:meth:`FlatLabelStore.walk`, and materialised entries are
``(w, c, ROW, store, i)``, a provenance that
:func:`~repro.skyline.entries.expand` follows, so every engine retrieves
paths over it.  Without the columns, entries carry ``None`` provenance
and path retrieval raises.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from operator import sub
from typing import Any, Iterator, Mapping

from repro.exceptions import IndexBuildError, ReproError, SerializationError
from repro.labeling.labels import _PAIR_BYTES
from repro.skyline.entries import ROW, Entry, splice
from repro.storage.compact import (
    PROV_EDGE,
    PROV_JOIN,
    PROV_ZERO,
    CompactLabels,
)

#: The zero-length path — concatenation identity, no provenance.
_ZERO: list[Entry] = [(0, 0, None)]


class FlatLabelStore:
    """Skyline labels as flat columns with offset tables, plus optional
    provenance columns."""

    def __init__(
        self,
        num_vertices: int,
        set_offsets: Any,
        hubs: Any,
        entry_offsets: Any,
        weights: Any,
        costs: Any,
        provenance: tuple[Any, ...] | None = None,
        backing: Any = None,
    ):
        if len(set_offsets) != num_vertices + 1:
            raise SerializationError("flat labels: bad set_offsets length")
        if len(entry_offsets) != len(hubs) + 1:
            raise SerializationError("flat labels: bad entry_offsets length")
        if len(weights) != len(costs):
            raise SerializationError(
                "flat labels: weight/cost column lengths differ"
            )
        if set_offsets[0] != 0 or set_offsets[num_vertices] != len(hubs):
            raise SerializationError("flat labels: set_offsets out of range")
        if entry_offsets[0] != 0 or entry_offsets[len(hubs)] != len(weights):
            raise SerializationError("flat labels: entry_offsets out of range")
        if provenance is not None and (
            len(provenance) != 4
            or any(len(column) != len(provenance[0]) for column in provenance)
            or len(provenance[0]) < len(weights)
        ):
            raise SerializationError(
                "flat labels: provenance columns need one row per entry"
            )
        self.num_vertices = num_vertices
        self.set_offsets = set_offsets
        self.hubs = hubs
        self.entry_offsets = entry_offsets
        self.weights = weights
        self.costs = costs
        #: ``(kind, a, b, c)`` columns, or ``None`` (pairs only).
        self.provenance = provenance
        #: Whether paths can be retrieved (the LabelStore flag).
        self.store_paths = provenance is not None
        #: The LabelStore change counter; columns never change.
        self.version = 0
        self.build_seconds = 0.0
        # Keeps the mmap (and through it the shared pages) alive for as
        # long as the store's column views reference it.
        self._backing = backing
        # Lazily built hub → row-index / hub → set-size dicts, one per
        # *queried* vertex (see :meth:`hub_rows` / :meth:`hub_sizes`);
        # derived data, never serialized.
        self._hub_rows: dict[int, dict[int, int]] = {}
        self._hub_sizes: dict[int, dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_compact(cls, compact: CompactLabels) -> "FlatLabelStore":
        """Wrap ``pack_labels`` output; the arrays are shared, not copied."""
        return cls(
            compact.num_vertices,
            compact.set_offsets,
            compact.hubs,
            compact.entry_offsets,
            compact.weights,
            compact.costs,
            compact.provenance,
        )

    # ------------------------------------------------------------------
    # Hot-path slice lookup (no entry materialisation)
    # ------------------------------------------------------------------
    def find_set(self, v: int, u: int) -> int:
        """Row index of ``P_vu`` within ``L(v)``, or ``-1`` if absent."""
        lo, hi = self.set_offsets[v], self.set_offsets[v + 1]
        i = bisect_left(self.hubs, u, lo, hi)
        if i < hi and self.hubs[i] == u:
            return i
        return -1

    def hub_rows(self, v: int) -> dict[int, int]:
        """Hub → row-index dict for ``L(v)``, built once per vertex.

        The flat twin of the object store's per-vertex label dicts: the
        first query touching ``v`` pays one C-speed ``dict(zip(...))``
        over its hub slice, every later lookup is O(1).  Purely derived
        from the columns (never serialized), tiny — two ints per hub —
        and forked workers either inherit built entries or rebuild
        locally, leaving the mapped columns untouched.
        """
        rows = self._hub_rows.get(v)
        if rows is None:
            lo, hi = self.set_offsets[v], self.set_offsets[v + 1]
            rows = dict(zip(self.hubs[lo:hi], range(lo, hi), strict=True))
            self._hub_rows[v] = rows
        return rows

    def hub_sizes(self, v: int) -> dict[int, int]:
        """Hub → skyline-set-size dict for ``L(v)``, built once per
        vertex.

        Hoplink cost estimation probes ``|P_vh|`` tens of times per
        query; with this dict each probe is one O(1) lookup, matching
        the object store's ``len(label[h])``.  Built entirely at C
        speed (``dict(zip(..., map(sub, ...)))``) from the offset
        table; derived data like :meth:`hub_rows`.
        """
        sizes = self._hub_sizes.get(v)
        if sizes is None:
            lo, hi = self.set_offsets[v], self.set_offsets[v + 1]
            offsets = self.entry_offsets
            sizes = dict(zip(
                self.hubs[lo:hi],
                map(sub, offsets[lo + 1:hi + 1], offsets[lo:hi]),
                strict=True,
            ))
            self._hub_sizes[v] = sizes
        return sizes

    def pair_bounds(self, x: int, y: int) -> tuple[int, int]:
        """Entry-column bounds for ``P_xy``, wherever it is stored.

        Symmetric like :meth:`LabelStore.get` — checks ``L(x)`` then
        ``L(y)`` — and raises :class:`IndexBuildError` when neither
        label holds the pair.
        """
        i = self.find_set(x, y)
        if i < 0:
            i = self.find_set(y, x)
        if i < 0:
            raise IndexBuildError(
                f"no label covers the pair ({x}, {y}); their tree nodes "
                "are not in an ancestor chain"
            )
        return self.entry_offsets[i], self.entry_offsets[i + 1]

    # ------------------------------------------------------------------
    # LabelStore-compatible read API (materialises entry tuples)
    # ------------------------------------------------------------------
    def label(self, v: int) -> "_FlatLabel":
        """``L(v)`` as a lazy hub → skyline-set mapping."""
        return _FlatLabel(self, v)

    def get(self, x: int, y: int) -> list[Entry]:
        """``P_xy`` as entry tuples."""
        if x == y:
            return _ZERO
        lo, hi = self.pair_bounds(x, y)
        return self.entries(lo, hi)

    def has(self, x: int, y: int) -> bool:
        """Whether ``P_xy`` is available."""
        return x == y or self.find_set(x, y) >= 0 or self.find_set(y, x) >= 0

    def entries(self, lo: int, hi: int) -> list[Entry]:
        """Materialise the entry slice ``[lo, hi)`` as tuples, at C
        speed.

        The entries are ``(w, c, ROW, self, i)`` when the store has
        provenance columns, ``(w, c, None)`` otherwise.  Metrics stay
        the columns' floats; :func:`restore` turns an answer's integral
        ones back into ints.
        """
        count = hi - lo
        if self.provenance is None:
            return list(zip(
                self.weights[lo:hi], self.costs[lo:hi], repeat(None, count)
            ))
        return list(zip(
            self.weights[lo:hi], self.costs[lo:hi], repeat(ROW, count),
            repeat(self, count), range(lo, hi),
        ))

    def entry(self, i: int) -> Entry:
        """Row ``i`` as one entry tuple, as :meth:`entries` builds it."""
        if self.provenance is None:
            return (self.weights[i], self.costs[i], None)
        return (self.weights[i], self.costs[i], ROW, self, i)

    def walk(self, row: int) -> list[int]:
        """The vertex path of provenance row ``row``, in *some*
        orientation.

        The column twin of the object expander
        (:func:`repro.skyline.entries.expand` before orientation): a
        join's children are unfolded and spliced at its junction in the
        same order, so a row and the entry it was packed from expand to
        the same path.  Iterative, so path length is bounded by memory,
        not by the recursion limit.

        Raises
        ------
        ReproError
            If the store has no provenance columns, or the columns do
            not describe a finite path (a corrupt index).
        """
        if self.provenance is None:
            raise ReproError(
                "these flat label columns carry no provenance; path "
                "retrieval needs an index built with store_paths=True "
                "(repro-qhl build without --no-paths)"
            )
        kinds, a_col, b_col, c_col = self.provenance
        # A simple path unfolds each row at most once; the cap (with
        # slack) turns cyclic, corrupt columns into an error instead of
        # an endless loop.
        steps = 2 * len(kinds) + 2
        done: list[list[int]] = []
        todo = [row]
        while todo:
            r = todo.pop()
            if r < 0:  # both children of join ~r are done
                tail = done.pop()
                done.append(splice(done.pop(), tail, a_col[~r]))
                continue
            steps -= 1
            if steps < 0:
                raise ReproError(
                    f"provenance of row {row} does not end; the "
                    "provenance columns are corrupt"
                )
            kind = kinds[r]
            if kind == PROV_EDGE:
                done.append([a_col[r], b_col[r]])
            elif kind == PROV_JOIN:
                todo += (~r, c_col[r], b_col[r])
            elif kind == PROV_ZERO and a_col[r] >= 0:
                done.append([a_col[r]])
            else:
                raise ReproError(
                    f"provenance row {r} (kind {kind}) cannot expand"
                )
        return done[0]

    def hubs_of(self, v: int) -> list[int]:
        """The sorted hub vertices of ``L(v)``."""
        lo, hi = self.set_offsets[v], self.set_offsets[v + 1]
        return [self.hubs[i] for i in range(lo, hi)]

    # ------------------------------------------------------------------
    # Size accounting / iteration (LabelStore parity)
    # ------------------------------------------------------------------
    def num_entries(self) -> int:
        return len(self.weights)

    def num_sets(self) -> int:
        return len(self.hubs)

    def size_bytes(self) -> int:
        """Label size as the paper counts it, like
        :meth:`LabelStore.size_bytes`: 16 bytes per entry plus 8 per
        set."""
        return self.num_entries() * _PAIR_BYTES + self.num_sets() * 8

    def column_bytes(self) -> int:
        """Actual payload of the columns (8 bytes per item, 4 per
        provenance item)."""
        return 8 * (
            len(self.set_offsets)
            + len(self.hubs)
            + len(self.entry_offsets)
            + len(self.weights)
            + len(self.costs)
        ) + 4 * sum(len(column) for column in self.provenance or ())

    def max_set_size(self) -> int:
        offsets = self.entry_offsets
        return max(
            (offsets[i + 1] - offsets[i] for i in range(len(self.hubs))),
            default=0,
        )

    def average_set_size(self) -> float:
        count = self.num_sets()
        return self.num_entries() / count if count else 0.0

    def items(self) -> Iterator[tuple[int, int, list[Entry]]]:
        """Iterate ``(v, u, P_vu)`` over every stored set."""
        offsets = self.entry_offsets
        for v in range(self.num_vertices):
            lo, hi = self.set_offsets[v], self.set_offsets[v + 1]
            for i in range(lo, hi):
                yield v, self.hubs[i], self.entries(offsets[i], offsets[i + 1])

    # ------------------------------------------------------------------
    def validate_structure(self) -> list[str]:
        """Structural problems in the offset tables, hub ordering and
        provenance columns.

        Checks what the constructor's cheap length checks cannot: offset
        monotonicity, per-vertex hub sortedness, and per provenance row
        a known ``kind`` whose child rows are in range.  Whether edge
        rows name network edges, and whether rows expand to walks, needs
        the network: that is the audit's part.  Cost-sortedness and
        dominance-freeness of the entry columns are the audit's
        ``label-order`` / ``label-dominance`` checks, which iterate
        :meth:`items` and therefore cover flat stores too.
        """
        problems: list[str] = []
        set_offsets, entry_offsets = self.set_offsets, self.entry_offsets
        for v in range(self.num_vertices):
            if set_offsets[v + 1] < set_offsets[v]:
                problems.append(
                    f"set_offsets not monotone at vertex {v}: "
                    f"{set_offsets[v]} -> {set_offsets[v + 1]}"
                )
        for i in range(len(self.hubs)):
            if entry_offsets[i + 1] < entry_offsets[i]:
                problems.append(
                    f"entry_offsets not monotone at set {i}: "
                    f"{entry_offsets[i]} -> {entry_offsets[i + 1]}"
                )
        hubs = self.hubs
        for v in range(self.num_vertices):
            lo, hi = set_offsets[v], set_offsets[v + 1]
            for i in range(lo + 1, hi):
                if hubs[i] <= hubs[i - 1]:
                    problems.append(
                        f"L({v}) hubs not strictly increasing at row {i}: "
                        f"{hubs[i - 1]} then {hubs[i]} "
                        "(binary-search lookup would miss sets)"
                    )
                    break
        if self.provenance is not None:
            problems += self._provenance_problems()
        return problems

    def _provenance_problems(self) -> list[str]:
        problems: list[str] = []
        kinds, a_col, b_col, c_col = self.provenance
        rows, n = len(kinds), self.num_vertices
        for r in range(rows):
            kind, a, b, c = kinds[r], a_col[r], b_col[r], c_col[r]
            if kind == PROV_JOIN:
                bad = not (0 <= a < n and 0 <= b < rows and 0 <= c < rows)
            elif kind == PROV_EDGE:
                bad = not (0 <= a < n and 0 <= b < n)
            else:
                bad = kind != PROV_ZERO or not -1 <= a < n
            if bad:
                problems.append(
                    f"provenance row {r}: kind {kind} with fields "
                    f"({a}, {b}, {c}) out of range"
                )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "mmap" if self._backing is not None else "array"
        return (
            f"FlatLabelStore(|V|={self.num_vertices}, "
            f"sets={self.num_sets()}, entries={self.num_entries()}, "
            f"backing={kind})"
        )


class _FlatLabel(Mapping[int, list[Entry]]):
    """Lazy ``L(v)`` view: hub vertex → materialised skyline set."""

    __slots__ = ("_store", "_lo", "_hi")

    def __init__(self, store: FlatLabelStore, v: int):
        self._store = store
        self._lo = store.set_offsets[v]
        self._hi = store.set_offsets[v + 1]

    def __getitem__(self, u: int) -> list[Entry]:
        store = self._store
        i = bisect_left(store.hubs, u, self._lo, self._hi)
        if i >= self._hi or store.hubs[i] != u:
            raise KeyError(u)
        return store.entries(
            store.entry_offsets[i], store.entry_offsets[i + 1]
        )

    def __iter__(self) -> Iterator[int]:
        hubs = self._store.hubs
        for i in range(self._lo, self._hi):
            yield hubs[i]

    def __len__(self) -> int:
        return self._hi - self._lo
