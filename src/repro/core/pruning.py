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
"""

from __future__ import annotations

import random
import time
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from repro.hierarchy.lca import LCAIndex
from repro.hierarchy.tree import TreeDecomposition
from repro.labeling.labels import LabelStore
from repro.core.separators import initial_separators
from repro.skyline.compare import pairs_equal
from repro.skyline.entries import Entry
from repro.types import CSPQuery

INF = float("inf")


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
    ``P'[0]``'s cost or weight, ``P'[0]`` is absent.  Otherwise only
    the products inside ``P'``'s bounding box — cost at most
    ``P'[-1]``'s, weight between ``P'[-1]``'s and ``P'[0]``'s — are
    formed; the others equal no member of ``P'`` and cannot change the
    scan.
    """
    if not p_prime:
        return INF
    top_w, low_c = p_prime[0][0], p_prime[0][1]
    if not p_vu or not p_uh:
        return low_c
    first_w, first_c = p_uh[0][0], p_uh[0][1]
    last_w = p_uh[-1][0]
    if p_vu[0][1] + first_c > low_c or p_vu[-1][0] + last_w > top_w:
        return low_c
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
    """The store of pruning conditions, keyed by (separator, end vertex).

    A separator is identified by the child vertex ``c`` whose bag defines
    it (``H = X(c)\\{c}``), so the key is ``(c, v_end)``.  Only non-zero
    upper bounds are stored; a missing hoplink means ``C_ub = 0`` (never
    pruned).
    """

    def __init__(self) -> None:
        self._conditions: dict[tuple[int, int], dict[int, float]] = {}
        self.build_seconds = 0.0
        self.algorithm6_calls = 0
        self.cache_hits = 0

    def add(
        self, child: int, v_end: int, bounds: Mapping[int, float]
    ) -> None:
        """Record the condition for separator-of-``child`` and ``v_end``."""
        self._conditions[(child, v_end)] = {
            h: ub for h, ub in bounds.items() if ub > 0
        }

    def lookup(self, child: int, v_end: int) -> dict[int, float] | None:
        """The ``C_ub`` map, or ``None`` when no condition was built."""
        return self._conditions.get((child, v_end))

    def has(self, child: int, v_end: int) -> bool:
        """Whether a condition exists for this combination."""
        return (child, v_end) in self._conditions

    @property
    def num_conditions(self) -> int:
        """Number of stored (separator, end-vertex) conditions."""
        return len(self._conditions)

    def num_bounds(self) -> int:
        """Total number of stored upper-bound values."""
        return sum(len(bounds) for bounds in self._conditions.values())

    def size_bytes(self) -> int:
        """Estimated size: 8 bytes per bound + 16 per condition header.

        This is the paper's "additional index space", shown to be within
        1% of the label size (Fig. 10b).
        """
        return self.num_bounds() * 8 + self.num_conditions * 16

    def prune(
        self, child: int, v_end: int, separator: Sequence[int], budget: float
    ) -> tuple[int, ...] | None:
        """Apply a condition (Definition 9): keep ``h`` iff
        ``C >= C_ub[h]``.

        Returns ``None`` when no condition matches ``(child, v_end)``.
        """
        bounds = self._conditions.get((child, v_end))
        if bounds is None:
            return None
        return tuple(
            h for h in separator if budget >= bounds.get(h, 0)
        )


def build_condition(
    labels: LabelStore,
    separator: Sequence[int],
    v_end: int,
    rng: random.Random,
    index: PruningConditionIndex,
    pair_cache: dict[tuple[int, int], tuple[int, float]],
) -> dict[int, float]:
    """Algorithm 7: compute ``C_ub`` for every hoplink of one separator.

    ``pair_cache`` maps ``(v_end, h)`` to an established ``(u, C_ub)``
    relationship; it is consulted before calling Algorithm 6 (§4.2's
    speed-up) and updated with new positive findings.
    """
    sets = {h: labels.get(v_end, h) for h in separator}
    # Sort hoplinks by the smallest cost in P_{v_end, h} (Lemma 8).
    ordered = sorted(separator, key=lambda h: sets[h][0][1])
    separator_set = set(separator)
    bounds: dict[int, float] = {}
    for i in range(1, len(ordered)):
        h = ordered[i]
        cached = pair_cache.get((v_end, h))
        if cached is not None and cached[0] in separator_set:
            index.cache_hits += 1
            bounds[h] = cached[1]
            continue
        u = ordered[rng.randrange(i)]
        cub = compute_cub(sets[h], sets[u], labels.get(u, h))
        index.algorithm6_calls += 1
        if cub > 0:
            bounds[h] = cub
            pair_cache[(v_end, h)] = (u, cub)
    return bounds


def build_pruning_index(
    tree: TreeDecomposition,
    labels: LabelStore,
    lca: LCAIndex,
    index_queries: Iterable[CSPQuery],
    seed: int = 0,
) -> PruningConditionIndex:
    """§4.2: build conditions for the combinations ``Q_index`` visits.

    For each sampled query with no ancestor-descendant relationship, the
    four combinations ``(H(s), s)``, ``(H(s), t)``, ``(H(t), s)``,
    ``(H(t), t)`` get a condition (if not already built).
    """
    started = time.perf_counter()
    rng = random.Random(seed)
    index = PruningConditionIndex()
    pair_cache: dict[tuple[int, int], tuple[int, float]] = {}

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
                if index.has(child, v_end):
                    continue
                bounds = build_condition(
                    labels, separator, v_end, rng, index, pair_cache
                )
                index.add(child, v_end, bounds)

    index.build_seconds = time.perf_counter() - started
    return index
