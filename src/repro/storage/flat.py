"""Flat columnar label store — the query-time twin of ``CompactLabels``.

:class:`FlatLabelStore` holds the five ``pack_labels`` arrays (or
``memoryview`` casts over an ``mmap``) and serves skyline sets as
half-open column slices instead of per-entry tuple lists, so the flat
query engine (:class:`~repro.core.flat.FlatQHLEngine`) touches no
Python object graph on the hot path.

Layout (identical to :class:`~repro.storage.compact.CompactLabels`):
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
audit, the CSP-2Hop baseline) run over flat or mmap-backed labels
unmodified.  Materialised entries carry ``None`` provenance: the columns
hold ``(weight, cost)`` pairs only.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from operator import sub
from typing import Any, Iterator, Mapping

from repro.exceptions import IndexBuildError, SerializationError
from repro.labeling.labels import LabelStore
from repro.skyline.entries import Entry
from repro.storage.compact import CompactLabels, _restore, pack_labels

#: The zero-length path — concatenation identity, no provenance.
_ZERO: list[Entry] = [(0, 0, None)]


class FlatLabelStore:
    """Skyline labels as five flat columns with offset tables."""

    #: Flat columns hold ``(weight, cost)`` pairs, never provenance.
    store_paths = False

    def __init__(
        self,
        num_vertices: int,
        set_offsets: Any,
        hubs: Any,
        entry_offsets: Any,
        weights: Any,
        costs: Any,
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
        self.num_vertices = num_vertices
        self.set_offsets = set_offsets
        self.hubs = hubs
        self.entry_offsets = entry_offsets
        self.weights = weights
        self.costs = costs
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
        )

    @classmethod
    def from_store(cls, store: LabelStore) -> "FlatLabelStore":
        """Pack an object-graph label store into fresh flat columns."""
        flat = cls.from_compact(pack_labels(store))
        flat.build_seconds = store.build_seconds
        return flat

    def to_compact(self) -> CompactLabels:
        """Fresh ``array`` copies of the columns (``pack_labels`` form).

        Because the layout is byte-for-byte the ``pack_labels`` layout,
        a store loaded from an mmap repacks to the identical bytes — the
        round-trip identity the storage tests pin.
        """
        return CompactLabels(
            num_vertices=self.num_vertices,
            set_offsets=_as_array("q", self.set_offsets),
            hubs=_as_array("q", self.hubs),
            entry_offsets=_as_array("q", self.entry_offsets),
            weights=_as_array("d", self.weights),
            costs=_as_array("d", self.costs),
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
        """``P_xy`` as entry tuples (``None`` provenance)."""
        if x == y:
            return _ZERO
        lo, hi = self.pair_bounds(x, y)
        return self.entries(lo, hi)

    def has(self, x: int, y: int) -> bool:
        """Whether ``P_xy`` is available."""
        return x == y or self.find_set(x, y) >= 0 or self.find_set(y, x) >= 0

    def entries(self, lo: int, hi: int) -> list[Entry]:
        """Materialise the entry slice ``[lo, hi)`` as tuples.

        Integral metrics come back as ints so answers compare exactly
        against object-graph indexes built from integer networks.
        """
        weights, costs = self.weights, self.costs
        return [
            (_restore(weights[i]), _restore(costs[i]), None)
            for i in range(lo, hi)
        ]

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
        """Actual payload size of the five columns (8 bytes per item)."""
        return 8 * (
            len(self.set_offsets)
            + len(self.hubs)
            + len(self.entry_offsets)
            + len(self.weights)
            + len(self.costs)
        )

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
        """Structural problems in the offset tables and hub ordering.

        Checks what the constructor's cheap length checks cannot: offset
        monotonicity and per-vertex hub sortedness.  Cost-sortedness and
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


def _as_array(typecode: str, column: Any) -> "array[Any]":
    """A fresh ``array`` holding ``column``'s exact bytes."""
    out: "array[Any]" = array(typecode)
    out.frombytes(column.tobytes())
    return out
