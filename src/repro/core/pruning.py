"""Pruning conditions: QHL's additional index (paper §3.3 and §4).

A *pruning condition* for a separator ``H`` and an end vertex ``v_end``
is the map ``C_ub : H → R+ ∪ {0, +inf}``.  At query time, if ``s`` (or
``t``) equals ``v_end``, every hoplink ``h`` with ``C < C_ub[h]`` is
dropped (Definition 9): Theorem 1 guarantees the optimal path can be
re-routed through the vertex ``u`` that prunes ``h``.

Construction (§4):

* Algorithm 6 (:func:`compute_cub`) — for fixed ``(v_end, h, u)``, find
  the largest ``θ`` with ``P_{v_end,h}^θ ⊆ {p1 ⊕ p2}^θ`` by a single
  merge-like scan of the skyline set against the cost-sorted
  concatenation set.
* Algorithm 7 (:func:`build_condition`) — sort the hoplinks by the
  smallest cost in ``P_{v_end,h}`` (Lemma 8: only an ``h`` with a larger
  minimum cost can be pruned, and only by a ``u`` with a smaller one) and
  try one random earlier hoplink as ``u`` per ``h``.
* §4.2 (:func:`build_pruning_index`) — conditions are built only for the
  (separator, end-vertex) combinations a workload ``Q_index`` of sampled
  queries actually visits: four combinations per query.  Pair results are
  cached: "h pruned by u under C_ub" transfers to any separator
  containing both.

A live update repairs the index row by row: given the previous index
and the label keys the repair changed, :func:`build_pruning_index`
reruns Algorithm 7 only for the *stale* rows, those where some
``P(v_end, h)`` or some ``P(a, b)`` with ``a, b`` in the separator
changed.  Every other row stays valid: its bounds compare the ``(w, c)``
pairs of exactly those sets, and each of its cache hits drew on a
``u`` inside the same separator.
"""

from __future__ import annotations

import random
import time
from array import array
from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Any, Callable, Collection, Iterable, Iterator, Mapping,
    Sequence,
)

from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.core.separators import initial_separators
from repro.skyline.compare import pairs_equal
from repro.skyline.entries import Entry
from repro.types import CSPQuery

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.flat import FlatLabelStore

INF = float("inf")

#: The columns of a :class:`PruningConditionIndex`, in constructor order.
COND_COLUMNS = ("cond_start", "cond_vend", "bound_start", "bounds")

#: The offset bits of a patched row's locator (the patch id is above).
_OFFSET = (1 << 32) - 1


def compute_cub(
    p_prime: Sequence[Entry],
    p_vu: Sequence[Entry],
    p_uh: Sequence[Entry],
) -> float:
    """Algorithm 6: the upper bound ``C_ub`` for pruning ``h`` via ``u``.

    Parameters
    ----------
    p_prime:
        ``P' = P_{v_end, h}`` — canonical skyline set.
    p_vu, p_uh:
        ``P_{v_end, u}`` and ``P_{u, h}``; their concatenations form
        ``P''``.  Membership compares ``(w, c)`` pairs only, so ``P''``
        is built without provenance and the joining vertex ``u`` is not
        needed.

    Returns
    -------
    float
        ``+inf`` when ``P' ⊆ P''`` (prunable for every budget; also
        for an empty ``P'``), otherwise the cost of the first ``P'``
        member missing from ``P''``.  When even the cheapest member
        ``P'[0]`` is missing (``u`` lies on no skyline path), that is
        ``P'[0]``'s cost: ``h`` is then pruned only for budgets below
        the cheapest ``v_end``–``h`` path, where no path via ``h`` is
        feasible anyway.

    Only members of ``P'`` matter, so two corner sums decide most calls
    before ``P''`` exists: no product costs less than
    ``p_vu[0] ⊕ p_uh[0]`` or weighs less than ``p_vu[-1] ⊕ p_uh[-1]``
    (float addition is monotone), so when either corner misses
    ``P'[0]``'s cost or weight, ``P'[0]`` is absent.  Otherwise
    :func:`_scan` forms only the products inside ``P'``'s bounding box.
    :func:`_column_reader` has this function over flat label columns.
    """
    if not p_prime:
        return INF
    low_c = p_prime[0][1]
    if not p_vu or not p_uh:
        return low_c
    if (p_vu[0][1] + p_uh[0][1] > low_c
            or p_vu[-1][0] + p_uh[-1][0] > p_prime[0][0]):
        return low_c
    return _scan(p_prime, p_vu, p_uh)


def _scan(
    p_prime: Sequence[Entry],
    p_vu: Sequence[Entry],
    p_uh: Sequence[Entry],
) -> float:
    """The membership scan of Algorithm 6, for non-empty sets whose
    corners did not decide.

    Only the products inside ``P'``'s bounding box — cost at most
    ``P'[-1]``'s, weight between ``P'[-1]``'s and ``P'[0]``'s — are
    formed; the others equal no member of ``P'`` and cannot change the
    scan.
    """
    top_w = p_prime[0][0]
    first_w, first_c = p_uh[0][0], p_uh[0][1]
    last_w = p_uh[-1][0]
    low_w, top_c = p_prime[-1][0], p_prime[-1][1]
    p_second: list[tuple[float, float]] = []
    append = p_second.append
    for left in p_vu:
        lw, lc = left[0], left[1]
        if lc + first_c > top_c or lw + first_w < low_w:
            break  # p_vu is cost-sorted and weight-decreasing
        if lw + last_w > top_w:
            continue
        for right in p_uh:
            c = lc + right[1]
            if c > top_c:
                break  # p_uh is cost-sorted
            w = lw + right[0]
            if w > top_w:
                continue
            if w < low_w:
                break  # ... and weight-decreasing
            append((w, c))
    p_second.sort(key=itemgetter(1, 0))
    j = 0
    m = len(p_second)
    for entry in p_prime:
        while j < m:
            if pairs_equal(p_second[j], entry):
                break
            j += 1
        if j == m:
            return entry[1]
    return INF


class PruningConditionIndex:
    """The store of pruning conditions, as four CSR columns.

    A separator is identified by the child vertex ``c`` whose bag defines
    it (``H = X(c)\\{c}`` is ``bags[c]``, the only separator Algorithm 3
    ever prunes), so a condition is keyed by ``(c, v_end)`` and is a
    dense row of upper bounds aligned with ``bags[c]``.  A ``0.0`` slot
    means ``C_ub = 0``: never pruned.  The columns:

    * ``cond_start`` (int32, ``n + 1``): child ``c``'s conditions are
      rows ``cond_start[c] : cond_start[c + 1]``;
    * ``cond_vend`` (int32, one per condition): each row's ``v_end``,
      strictly increasing within a child, so lookup is a binary search;
    * ``bound_start`` (int32, rows ``+ 1``): row ``i``'s bounds are
      ``bounds[bound_start[i] : bound_start[i + 1]]``;
    * ``bounds`` (float64): the ``C_ub`` values, row by row.

    ``bags`` is the tree's ``bag`` map, vertex to separator; ``columns``
    are the four columns in :data:`COND_COLUMNS` order, and an index
    without them holds no condition.  Built and repaired indexes hold
    ``array`` columns (:meth:`freeze`); a loaded one holds
    ``memoryview`` casts over the mapped file.

    A repair (:func:`build_pruning_index` with ``previous``) shares
    the four columns of the index it repairs and writes each row whose
    bounds changed into a *patch*: one new array per repair, holding
    those rows back to back.  ``_row_at`` (int64, one per row, ``-1``
    for a row still read from ``bounds``) locates each patched row as
    ``patch id << 32 | offset``, and the ``id → patch`` map is shared
    with later repairs, which drop the patches no row reads any more.
    So an epoch costs the rows its repair changed, plus 8 bytes per row
    for the locator.  :attr:`bounds` joins the patches back into one
    column when a save asks for it, and a built or loaded index has
    neither locator nor patch.
    """

    def __init__(
        self,
        bags: Mapping[int, Sequence[int]] | None = None,
        columns: Sequence[Any] | None = None,
    ) -> None:
        self._bags = {} if bags is None else bags
        if columns is None:
            self.freeze(())
        else:
            (self.cond_start, self.cond_vend, self.bound_start,
             self._bounds) = columns
            self._row_at: array | None = None
            self._patches: dict[int, array] = {}
        if (
            len(self.cond_start) != len(self._bags) + 1
            or len(self.bound_start) != len(self.cond_vend) + 1
            or self.cond_start[0] != 0
            or self.cond_start[-1] != len(self.cond_vend)
            or self.bound_start[0] != 0
            or self.bound_start[-1] != len(self._bounds)
        ):
            raise ValueError(
                "pruning condition columns do not fit together: "
                f"{len(self.cond_start)} cond_start entries for "
                f"{len(self._bags)} vertices, {len(self.cond_vend)} "
                f"conditions, {len(self.bound_start)} bound_start "
                f"entries, {len(self._bounds)} bounds"
            )
        self.build_seconds = 0.0
        self.algorithm6_calls = 0
        self.cache_hits = 0
        self.rows_rebuilt = 0

    def freeze(
        self, rows: Iterable[tuple[int, int, Sequence[float]]]
    ) -> "PruningConditionIndex":
        """Replace the columns by ``rows``; returns ``self``.

        ``rows`` yields ``(child, v_end, row)`` in increasing
        ``(child, v_end)`` order, ``row`` being the dense ``C_ub`` row
        aligned with ``bags[child]`` (``0.0``: never pruned).  A row is
        copied into ``bounds`` as it arrives, so ``rows`` may be a
        generator of slices.  :func:`dense_rows` turns ``{h: C_ub}``
        maps into this form.
        """
        bags = self._bags
        counts = [0] * (len(bags) + 1)
        cond_vend = array("i")
        bound_start = array("i", [0])
        bounds = array("d")
        previous = (-1, -1)
        for child, v_end, row in rows:
            if (child, v_end) <= previous:
                raise ValueError(
                    f"condition ({child}, {v_end}) does not follow "
                    f"{previous}: rows must be in increasing order"
                )
            if len(row) != len(bags[child]):
                raise ValueError(
                    f"condition ({child}, {v_end}) has {len(row)} bounds "
                    f"for the {len(bags[child])}-hoplink separator"
                )
            previous = child, v_end
            counts[child + 1] += 1
            cond_vend.append(v_end)
            bounds.extend(row)
            bound_start.append(len(bounds))
        self.cond_start, self.cond_vend, self.bound_start, self._bounds = (
            array("i", accumulate(counts)), cond_vend, bound_start, bounds
        )
        self._row_at = None
        self._patches = {}
        return self

    @property
    def bounds(self) -> Any:
        """The ``C_ub`` values as one column, row by row: the stored
        column itself, or, after a repair patched some rows, a new
        array with the patched rows written over a copy of it."""
        at = self._row_at
        if at is None:
            return self._bounds
        column = array("d", self._bounds)
        rows = self.bound_start
        for row, loc in enumerate(at):
            if loc >= 0:
                lo, hi = rows[row], rows[row + 1]
                start = loc & _OFFSET
                column[lo:hi] = self._patches[loc >> 32][
                    start:start + hi - lo
                ]
        return column

    def _values(self, row: int) -> Any:
        """Row ``row``'s bounds, a slice of ``bounds`` or of a patch."""
        lo, hi = self.bound_start[row], self.bound_start[row + 1]
        at = self._row_at
        if at is None or at[row] < 0:
            return self._bounds[lo:hi]
        start = at[row] & _OFFSET
        return self._patches[at[row] >> 32][start:start + hi - lo]

    def _row(self, child: int, v_end: int) -> int:
        """Row number of the ``(child, v_end)`` condition, or ``-1``."""
        start = self.cond_start
        if not 0 <= child < len(start) - 1:
            return -1
        hi = start[child + 1]
        i = bisect_left(self.cond_vend, v_end, start[child], hi)
        return i if i < hi and self.cond_vend[i] == v_end else -1

    def _positive(self, child: int, row: int) -> dict[int, float]:
        """Row ``row`` of ``child`` as ``{h: ub}``, positive bounds only."""
        return {
            h: ub
            for h, ub in zip(self._bags[child], self._values(row).tolist())
            if ub > 0
        }

    def lookup(self, child: int, v_end: int) -> dict[int, float] | None:
        """The positive ``C_ub`` bounds as ``{h: ub}``, or ``None`` when
        no condition was built."""
        row = self._row(child, v_end)
        return None if row < 0 else self._positive(child, row)

    def has(self, child: int, v_end: int) -> bool:
        """Whether a condition exists for this combination."""
        return self._row(child, v_end) >= 0

    def items(self) -> Iterator[tuple[int, int, dict[int, float]]]:
        """Every condition as ``(child, v_end, {h: ub})``, positive
        bounds only, by child then ``v_end``."""
        start, cond_vend = self.cond_start, self.cond_vend
        for child in range(len(start) - 1):
            for row in range(start[child], start[child + 1]):
                yield child, cond_vend[row], self._positive(child, row)

    @property
    def num_conditions(self) -> int:
        """Number of stored (separator, end-vertex) conditions."""
        return len(self.cond_vend)

    def num_bounds(self) -> int:
        """Number of positive upper-bound values."""
        return sum(ub > 0 for ub in self.bounds.tolist())

    def size_bytes(self) -> int:
        """Bytes of the four columns.

        This is the paper's "additional index space", shown to be within
        1% of the label size (Fig. 10b).
        """
        return sum(
            memoryview(getattr(self, name)).nbytes for name in COND_COLUMNS
        )

    def prune(
        self, child: int, v_end: int, separator: Sequence[int], budget: float
    ) -> tuple[int, ...] | None:
        """Apply a condition (Definition 9): keep ``h`` iff
        ``C >= C_ub[h]``.

        ``separator`` is ``bags[child]``, the order the row is aligned
        with.  Returns ``None`` when no condition matches
        ``(child, v_end)``.
        """
        # The row search of _row, inlined: this runs for every end of
        # every separator of every query.
        start = self.cond_start
        try:
            lo, hi = start[child], start[child + 1]
        except IndexError:
            return None
        if lo == hi:
            return None
        cond_vend = self.cond_vend
        i = bisect_left(cond_vend, v_end, lo, hi)
        if i == hi or cond_vend[i] != v_end:
            return None
        rows = self.bound_start
        values = (
            self._bounds[rows[i]:rows[i + 1]] if self._row_at is None
            else self._values(i)
        )
        return tuple(
            h
            for h, ub in zip(separator, values.tolist())
            if budget >= ub
        )

    def validate_structure(self) -> list[str]:
        """Structural problems in the columns.

        Checks what the constructor's end-point checks cannot: both
        offset columns monotone, each ``v_end`` a vertex and strictly
        increasing within its child, each row as long as its separator,
        and no negative or NaN bound.
        """
        start, cond_vend, rows = (
            self.cond_start, self.cond_vend, self.bound_start
        )
        n = len(start) - 1
        problems = [
            f"{name} not monotone at {i}: {column[i]} -> {column[i + 1]}"
            for name, column in (("cond_start", start), ("bound_start", rows))
            for i in range(len(column) - 1)
            if column[i + 1] < column[i]
        ]
        if problems:
            return problems  # rows cannot be told apart
        for child in range(n):
            width = len(self._bags[child])
            previous = -1
            for row in range(start[child], start[child + 1]):
                v_end = cond_vend[row]
                if not previous < v_end < n:
                    problems.append(
                        f"condition row {row} of child {child}: v_end "
                        f"{v_end} out of range or not after {previous}"
                    )
                previous = v_end
                if rows[row + 1] - rows[row] != width:
                    problems.append(
                        f"condition row {row} holds "
                        f"{rows[row + 1] - rows[row]} bounds for the "
                        f"{width}-hoplink separator of child {child}"
                    )
        problems += [
            f"bound {i} is {ub} (negative or NaN)"
            for i, ub in enumerate(self.bounds.tolist())
            if not ub >= 0
        ]
        return problems


def dense_rows(
    bags: Mapping[int, Sequence[int]],
    conditions: Mapping[tuple[int, int], Mapping[int, float]],
) -> list[tuple[int, int, list[float]]]:
    """``{(child, v_end): {h: C_ub}}`` as the sorted dense rows that
    :meth:`PruningConditionIndex.freeze` takes.

    A hoplink of ``bags[child]`` without a positive entry gets ``0.0``,
    so ``budget >= ub`` keeps exactly what ``bounds.get(h, 0)`` keeps.
    """
    return [
        (child, v_end, _dense_row(bags[child], conditions[child, v_end]))
        for child, v_end in sorted(conditions)
    ]


def _dense_row(
    separator: Sequence[int], bounds: Mapping[int, float]
) -> list[float]:
    """``bounds`` aligned with ``separator``, ``0.0`` where not
    positive."""
    return [
        ub if ub > 0 else 0.0
        for ub in (bounds.get(h, 0.0) for h in separator)
    ]


def build_condition(
    labels: "LabelStore | FlatLabelStore",
    separator: Sequence[int],
    v_end: int,
    rng: random.Random,
    index: PruningConditionIndex,
    pair_cache: dict[int, tuple[int, float]],
) -> dict[int, float]:
    """Algorithm 7: compute ``C_ub`` for every hoplink of one separator.

    ``pair_cache`` maps ``v_end * n + h`` (``n`` the vertex count of
    ``labels``) to an established ``(u, C_ub)`` relationship; it is
    consulted before calling Algorithm 6 (§4.2's speed-up) and updated
    with new positive findings.  An int key, not a ``(v_end, h)``
    tuple: the cache outlives every condition of a build.

    Object labels are read as entry lists (:func:`compute_cub`), flat
    ones straight from their columns (:func:`_column_reader`); both
    give the same bounds and draw the same random numbers.
    """
    first_cost, cub = (
        _entry_reader(labels, separator, v_end)
        if isinstance(labels, LabelStore)
        else _column_reader(labels, separator, v_end)
    )
    # Sort hoplinks by the smallest cost in P_{v_end, h} (Lemma 8).
    ordered = sorted(separator, key=first_cost)
    separator_set = set(separator)
    base = v_end * labels.num_vertices
    bounds: dict[int, float] = {}
    for i in range(1, len(ordered)):
        h = ordered[i]
        cached = pair_cache.get(base + h)
        if cached is not None and cached[0] in separator_set:
            index.cache_hits += 1
            bounds[h] = cached[1]
            continue
        u = ordered[rng.randrange(i)]
        c_ub = cub(h, u)
        index.algorithm6_calls += 1
        if c_ub > 0:
            bounds[h] = c_ub
            pair_cache[base + h] = (u, c_ub)
    return bounds


def _entry_reader(
    labels: LabelStore, separator: Sequence[int], v_end: int
) -> tuple[Callable[[int], float], Callable[[int, int], float]]:
    """``(first_cost(h), cub(h, u))`` for one condition over object
    labels; each ``P(v_end, h)`` is fetched once, and every set is
    found by ancestor depth as :func:`_column_reader` finds its rows."""
    depth, label = labels.depth, labels.label
    label_v = label(v_end)
    sets = {h: label_v[depth[h]] for h in separator}

    def first_cost(h: int) -> float:
        return sets[h][0][1]

    def cub(h: int, u: int) -> float:
        d_h, d_u = depth[h], depth[u]
        return compute_cub(
            sets[h], sets[u],
            label(u)[d_h] if d_u > d_h else label(h)[d_u],
        )

    return first_cost, cub


def _column_reader(
    labels: "FlatLabelStore", separator: Sequence[int], v_end: int
) -> tuple[Callable[[int], float], Callable[[int, int], float]]:
    """``(first_cost(h), cub(h, u))`` for one condition over flat
    labels, read from the columns without building entries.

    ``cub`` is :func:`compute_cub` over the sets' row ranges, each
    found by ancestor depth (:class:`~repro.storage.flat.HubLookup`):
    ``P(v_end, h)`` is at ``depth(h)`` in ``L(v_end)``, and ``P(u, h)``
    at the shallower one's depth in the label of the deeper of ``u``
    and ``h`` (both are ancestors of ``v_end``, so one is the other's).
    The corner sums read the columns in place, so the calls they settle
    (about nine in ten on the benchmark networks) build nothing; the
    rest scan ``(w, c)`` pairs of the three slices.
    """
    weights, costs = labels.weights, labels.costs
    lookup = labels.by_depth()
    depth, lo_at, size_at = lookup.depth, lookup.lo_at, lookup.size_at
    v_lo, v_sizes = lo_at[v_end], size_at[v_end]

    def first_cost(h: int) -> float:
        return costs[v_lo[depth[h]]]

    def cub(h: int, u: int) -> float:
        d_h, d_u = depth[h], depth[u]
        p_lo = v_lo[d_h]
        p_hi = p_lo + v_sizes[d_h]
        a_lo = v_lo[d_u]
        a_hi = a_lo + v_sizes[d_u]
        if d_u > d_h:
            b_lo = lo_at[u][d_h]
            b_hi = b_lo + size_at[u][d_h]
        else:
            b_lo = lo_at[h][d_u]
            b_hi = b_lo + size_at[h][d_u]
        if p_lo == p_hi:
            return INF
        low_c = costs[p_lo]
        if a_lo == a_hi or b_lo == b_hi or (
            costs[a_lo] + costs[b_lo] > low_c
            or weights[a_hi - 1] + weights[b_hi - 1] > weights[p_lo]
        ):
            return low_c
        return _scan(*(
            list(zip(weights[start:stop], costs[start:stop], strict=True))
            for start, stop in ((p_lo, p_hi), (a_lo, a_hi), (b_lo, b_hi))
        ))

    return first_cost, cub


def build_pruning_index(
    tree: TreeDecomposition,
    labels: "LabelStore | FlatLabelStore",
    lca: LCAIndex,
    index_queries: Iterable[CSPQuery],
    seed: int = 0,
    previous: PruningConditionIndex | None = None,
    dirty_labels: Collection[tuple[int, int]] = (),
) -> PruningConditionIndex:
    """§4.2: build conditions for the combinations ``Q_index`` visits.

    For each sampled query with no ancestor-descendant relationship, the
    four combinations ``(H(s), s)``, ``(H(s), t)``, ``(H(t), s)``,
    ``(H(t), t)`` get a condition (if not already built).

    Each condition's dense row goes into one scratch column as soon as
    Algorithm 7 returns, keyed by ``child * n + v_end`` (whose order is
    ``(child, v_end)`` order); :meth:`PruningConditionIndex.freeze`
    then copies the rows out in that order.  So no per-condition object
    outlives its :func:`build_condition` call.

    With ``previous`` (the index the labels had before a repair) and
    ``dirty_labels`` (the label keys the repair changed), only the stale
    rows are rebuilt; see :func:`_rebuild_stale_rows`.
    """
    if previous is not None:
        return _rebuild_stale_rows(
            tree, labels, previous, dirty_labels, seed
        )
    started = time.perf_counter()
    rng = random.Random(seed)
    n = tree.num_vertices
    index = PruningConditionIndex(tree.bag)
    scratch = array("d")
    row_at: dict[int, int] = {}  # child * n + v_end -> row start
    pair_cache: dict[int, tuple[int, float]] = {}

    for query in index_queries:
        s, t = query.source, query.target
        if s == t:
            continue
        lca_v, s_is_anc, t_is_anc = lca.relation(s, t)
        if s_is_anc or t_is_anc:
            continue
        c_s, h_s, c_t, h_t = initial_separators(tree, lca_v, s, t)
        for child, separator in ((c_s, h_s), (c_t, h_t)):
            if len(separator) < 2:
                continue  # a single hoplink can never be pruned
            for v_end in (s, t):
                key = child * n + v_end
                if key not in row_at:
                    row_at[key] = len(scratch)
                    scratch.extend(_dense_row(separator, build_condition(
                        labels, separator, v_end, rng, index, pair_cache
                    )))
    del pair_cache  # its heap is free again before the columns grow

    def rows() -> Iterator[tuple[int, int, array]]:
        for key in sorted(row_at):
            child, v_end = divmod(key, n)
            lo = row_at[key]
            yield child, v_end, scratch[lo:lo + len(tree.bag[child])]

    index.freeze(rows())
    index.rows_rebuilt = index.num_conditions
    index.build_seconds = time.perf_counter() - started
    return index


def _rebuild_stale_rows(
    tree: TreeDecomposition,
    labels: LabelStore,
    previous: PruningConditionIndex,
    dirty_labels: Collection[tuple[int, int]],
    seed: int,
) -> PruningConditionIndex:
    """``previous`` with its stale rows rerun over the repaired labels.

    Row ``(child, v_end)`` is stale when some ``P(v_end, h)`` or some
    ``P(a, b)`` with ``h, a, b`` in ``bags[child]`` is among
    ``dirty_labels``.  The new index shares ``previous``'s four columns
    (rows never move) and patches.  Each stale row reruns Algorithm 7
    with an empty pair cache and ``Random(seed)``, so a row depends on
    its own inputs only; a row whose bounds then differ from
    ``previous``'s goes into this repair's patch, the only bounds it
    writes.  With no such row the new index shares ``previous``'s
    locator too.
    """
    started = time.perf_counter()
    bags = tree.bag
    cond_start, cond_vend, bound_start = (
        previous.cond_start, previous.cond_vend, previous.bound_start
    )
    index = PruningConditionIndex(
        bags, (cond_start, cond_vend, bound_start, previous._bounds)
    )
    touched: dict[int, list[int]] = {}
    for a, b in dirty_labels:
        touched.setdefault(a, []).append(b)
        touched.setdefault(b, []).append(a)
    patch = array("d")
    patched: list[tuple[int, int]] = []  # (row, offset in patch)
    for child in range(len(cond_start) - 1):
        lo, hi = cond_start[child], cond_start[child + 1]
        if lo == hi:
            continue
        separator = bags[child]
        members = set(separator)
        separator_stale = any(
            not members.isdisjoint(touched[a])
            for a in separator
            if a in touched
        )
        for row in range(lo, hi):
            v_end = cond_vend[row]
            if not separator_stale and members.isdisjoint(
                touched.get(v_end, ())
            ):
                continue
            ubs = build_condition(
                labels, separator, v_end, random.Random(seed), index, {}
            )
            index.rows_rebuilt += 1
            values = array("d", _dense_row(separator, ubs))
            if values.tolist() != previous._values(row).tolist():
                patched.append((row, len(patch)))
                patch.extend(values)
    index._row_at, index._patches = previous._row_at, previous._patches
    if patched:
        at = (
            array("q", previous._row_at) if previous._row_at is not None
            else array("q", [-1]) * len(cond_vend)
        )
        pid = max(previous._patches, default=-1) + 1
        for row, offset in patched:
            at[row] = pid << 32 | offset
        live = {loc >> 32 for loc in at if loc >= 0}
        index._row_at = at
        index._patches = {
            key: value for key, value in previous._patches.items()
            if key in live
        }
        index._patches[pid] = patch
        if sum(map(len, index._patches.values())) > len(index._bounds):
            # The live patches outgrew the column: fold them into a new
            # one, so patches never hold more than the bounds they
            # replace.
            index._bounds = index.bounds
            index._row_at, index._patches = None, {}
    index.build_seconds = time.perf_counter() - started
    return index
