"""Flat columnar label store: how every built or loaded index serves.

:class:`FlatLabelStore` holds the ``pack_labels`` arrays (or
``memoryview`` casts over an ``mmap``) and serves skyline sets as
half-open column slices instead of per-entry tuple lists, so the flat
query engine (:class:`~repro.core.flat.FlatQHLEngine`) touches no
Python object graph on the hot path.  Every built index serves from
one (``QHLIndex.build`` writes its labels into it as it computes them),
and :func:`repro.storage.flatfile.load_flat_index` maps one from a
file.

Layout (that of :class:`~repro.storage.compact.CompactLabels`):
vertex ``v``'s sets occupy ``set_offsets[v] : set_offsets[v + 1]`` of
``hubs`` / ``entry_offsets``; hubs are sorted per vertex (``pack_labels``
iterates ``sorted(label)``), so set lookup is a binary search; set ``i``
holds entries ``entry_offsets[i] : entry_offsets[i + 1]`` of
``weights`` / ``costs``, cost-sorted as the canonical invariant
requires.

The query engines and the pruning build find sets by ancestor depth
instead (:class:`HubLookup`, built once per store on first use):
``L(v)`` holds one set per strict ancestor of ``v``, so ``|L(h)|`` is
``h``'s depth, and ``P(v, h)`` is position ``depth(h)`` of per-vertex
sequences in depth order.  The lookup is derived from the saved
columns and never serialized.

The store also speaks the :class:`~repro.labeling.labels.LabelStore`
read API — ``label(v)`` returns a lazy sequence of sets by ancestor
depth, ``get(x, y)`` materialises entry tuples, plus the
counting/iteration helpers — so
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

from array import array
from bisect import bisect_left
from itertools import repeat
from operator import sub
from typing import Any, Iterable, Iterator, Sequence

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
        # Built on first use (:meth:`by_depth`), not here: a load must
        # not read the mapped columns.
        self._by_depth: HubLookup | None = None

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

    def by_depth(self) -> "HubLookup":
        """The O(1) hub lookup by ancestor depth, built on first use."""
        lookup = self._by_depth
        if lookup is None:
            lookup = self._by_depth = HubLookup(self)
        return lookup

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
        """``L(v)`` as a lazy sequence of skyline sets by ancestor depth,
        as :meth:`LabelStore.label <repro.labeling.labels.LabelStore.
        label>` gives it."""
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


class HubLookup:
    """``L(v)`` indexed by ancestor depth: O(1) hub lookup for every
    vertex of a :class:`FlatLabelStore`.

    A label holds one skyline set per strict ancestor (the top-down
    build computes ``P(v, a)`` for every ancestor ``a`` of ``X(v)``), so
    ``|L(h)|`` equals ``depth(h)``, and ``P(v, h)`` sits at position
    ``depth(h)`` of three per-vertex sequences ordered by ancestor
    depth, as in H2H's position arrays:

    * ``hub_at[v][d]`` — ``v``'s ancestor at depth ``d``;
    * ``lo_at[v][d]`` — the first entry row of ``P(v, hub_at[v][d])``;
    * ``size_at[v][d]`` — its entry count.

    Finding a set is one list read for the depth and one read per
    sequence, with no hashing and no arithmetic on large ints.  The
    sequences cost about 20 bytes per set plus about 150 per vertex
    (hub ids and sizes as tuples of shared ints, entry rows as
    ``int32`` arrays), against about 145 bytes per set for a hub → row
    and a hub → size dict per vertex.  They are derived from
    ``set_offsets``, ``hubs`` and ``entry_offsets`` and never
    serialized.

    A checked read (:meth:`bounds`, :meth:`hoplink_bounds`, and the
    flat engine's inlined copy) compares ``hub_at[v][depth(h)]`` with
    ``h``: depth alone does not tell an ancestor from another vertex of
    the same depth.  Hoplink cost estimation reads ``size_at``
    unchecked: its hubs are common ancestors by construction, and a
    wrong size could only change which candidate separator wins, whose
    sets are then read checked.
    """

    __slots__ = ("depth", "hub_at", "lo_at", "size_at")

    def __init__(self, store: FlatLabelStore):
        set_offsets = store.set_offsets.tolist()
        depth = list(map(sub, set_offsets[1:], set_offsets))
        hubs, offsets = store.hubs, store.entry_offsets
        # One int object per vertex, shared by every tuple naming it.
        vertex = list(range(len(depth))).__getitem__
        depth_of = depth.__getitem__
        empty = array("i")
        hub_at: list[tuple[int, ...]] = []
        lo_at: list[array[int]] = []
        size_at: list[tuple[int, ...]] = []
        # Per label, at C speed: the depths of its hubs (in hub order)
        # are a permutation of 0 .. k-1, and sorting the rows by that
        # depth inverts it.
        for lo, k in zip(set_offsets, depth):
            if not k:
                hub_at.append(())
                lo_at.append(empty)
                size_at.append(())
                continue
            block = hubs[lo:lo + k].tolist()
            by_depth = sorted(
                range(k), key=list(map(depth_of, block)).__getitem__
            )
            ends = offsets[lo:lo + k + 1].tolist()
            sizes = list(map(sub, ends[1:], ends))
            hub_at.append(tuple(map(vertex, map(block.__getitem__, by_depth))))
            lo_at.append(array("i", list(map(ends.__getitem__, by_depth))))
            size_at.append(tuple(map(sizes.__getitem__, by_depth)))
        #: ``depth[v]``: the depth of ``X(v)``, and ``|L(v)|``.
        self.depth = depth
        self.hub_at = hub_at
        self.lo_at = lo_at
        self.size_at = size_at

    def bounds(self, v: int, h: int) -> tuple[int, int]:
        """Entry-column bounds of ``P(v, h)``.

        Raises
        ------
        IndexBuildError
            If ``h``'s tree node is not an ancestor of ``X(v)``.
        """
        d = self.depth[h]
        hubs = self.hub_at[v]
        if d < len(hubs) and hubs[d] == h:
            lo = self.lo_at[v][d]
            return lo, lo + self.size_at[v][d]
        raise IndexBuildError(
            f"L({v}) has no skyline set for hub {h}; its tree node is not "
            "an ancestor"
        )

    def hoplink_bounds(
        self, s: int, t: int, hoplinks: Iterable[int]
    ) -> list[tuple[int, int, int, int, int]]:
        """``(lo_sh, hi_sh, lo_ht, hi_ht, h)`` per hoplink ``h``: the
        entry bounds of ``P_sh`` and ``P_ht``, each checked as
        :meth:`bounds` checks it, in one call per query.

        Raises
        ------
        IndexBuildError
            If some hoplink's tree node is not an ancestor of both
            ``X(s)`` and ``X(t)``.
        """
        depth = self.depth
        s_hubs, t_hubs = self.hub_at[s], self.hub_at[t]
        s_lo, t_lo = self.lo_at[s], self.lo_at[t]
        s_sizes, t_sizes = self.size_at[s], self.size_at[t]
        shallower = min(len(s_hubs), len(t_hubs))
        found: list[tuple[int, int, int, int, int]] = []
        for h in hoplinks:
            d = depth[h]
            if d >= shallower or s_hubs[d] != h or t_hubs[d] != h:
                self.bounds(s, h)  # one of the two raises
                self.bounds(t, h)
            a = s_lo[d]
            b = t_lo[d]
            found.append((a, a + s_sizes[d], b, b + t_sizes[d], h))
        return found


class _FlatLabel(Sequence[list[Entry]]):
    """Lazy ``L(v)`` by ancestor depth: position ``d`` materialises the
    skyline set of ``v``'s ancestor at depth ``d``, read from the
    store's :class:`HubLookup` like :class:`~repro.labeling.labels.
    LabelStore`'s depth-indexed lists."""

    __slots__ = ("_store", "_lo", "_sizes")

    def __init__(self, store: FlatLabelStore, v: int):
        lookup = store.by_depth()
        self._store = store
        self._lo = lookup.lo_at[v]
        self._sizes = lookup.size_at[v]

    def __getitem__(self, d: int) -> list[Entry]:  # type: ignore[override]
        lo = self._lo[d]
        return self._store.entries(lo, lo + self._sizes[d])

    def __len__(self) -> int:
        return len(self._sizes)
